"""Benchmark for sublap: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. The workloads (see workloads.py) are a closed loop: one client in
this process, pinned to one CPU with one BLAS thread, runs the items one after
another, after one untimed warm-up item that pays numpy's lazy LAPACK
initialization. A run covers a fixed number of rounds, ``round(S /
round_seconds)`` (at least one), so that every run of a seed does the same
work; ``round_seconds`` was measured at the seed commit, so a run lasts about
S seconds there. Times are scaled to a reference machine speed (speed.py).

With ``--trace 0`` the last line carries the end-to-end metrics. With
``--trace 1`` half the rounds run traced (spans written to
``bench/out/spans-*.json``) and then again untraced, and the last line carries
the per-layer metrics and the tracing overhead. Every output is checked; a
failed check or an exception counts as a failed item, and any failed item
makes the exit code 1. README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS thread in this process; must be set before numpy is loaded.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedSampler  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 9
SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); import sublap; "
              "sublap.load_builtin('so4_twisted')")

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "bound_mean": "eigenvalue",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def import_package():
    """Import sublap from this checkout's src/, and nowhere else."""
    if not (SRC / "sublap" / "__init__.py").is_file():
        fail(f"no package source at {SRC / 'sublap'}; run from a sublap checkout")
    sys.path.insert(0, str(SRC))
    import sublap

    if not Path(sublap.__file__).resolve().is_relative_to(SRC.resolve()):
        fail(f"imported sublap from {sublap.__file__}, not from {SRC}")
    return sublap


def measure_setup() -> tuple[float, float]:
    """Median time of a cold interpreter that imports sublap and loads one
    builtin, the fixed cost every CLI call pays, scaled to the reference
    machine speed and raw."""
    spans = []
    with SpeedSampler() as sampler:
        for _ in range(SETUP_REPEATS):
            spent, t0 = sampler.spent, time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True)
            spans.append((t0, time.perf_counter(), sampler.spent - spent))
    return (statistics.median(sampler.scaled(*span) for span in spans),
            statistics.median(t1 - t0 - own for t0, t1, own in spans))


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas_name = "unknown"
    threads = "unknown"
    status = Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = line.split()[1]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
    }


def run_items(wl, items, tracer) -> tuple[dict, list]:
    """Run items one after another. Returns {key: (latency, raw, outcome)}
    for the items that passed, where latency is scaled to the reference
    machine speed (speed.py) and raw is wall time, and [(key, error)] for the
    rest. Latency covers the program's calls only, not the checks."""
    timed, failures = [], []
    with SpeedSampler() as sampler:
        for item in items:
            try:
                with tracer.item_span(item.key):
                    spent, t0 = sampler.spent, time.perf_counter()
                    try:
                        out = wl.run(item, tracer)
                    finally:
                        t1, own = time.perf_counter(), sampler.spent - spent
                wl.check(item, out)
            except Exception:  # a raising or wrong item is a failed item; keep going
                failures.append((item.key, traceback.format_exc()))
                continue
            timed.append((item.key, t0, t1, own, out))
    passed = {key: (sampler.scaled(t0, t1, own), t1 - t0 - own, out)
              for key, t0, t1, own, out in timed}
    return passed, failures


def items_per_s(latencies: list[float]) -> float:
    return len(latencies) / math.fsum(latencies) if latencies else 0.0


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile, samples beyond). With fewer than eleven samples no
    such percentile exists and the maximum is reported."""
    lat = sorted(latencies)
    n = len(lat)
    k = n - 11 if n >= 11 else n - 1
    return lat[k], 100.0 * (k + 1) / n, n - 1 - k


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_package()
    # One CPU for this process and the interpreters it starts, so that the
    # speed samples describe the CPU the timed work runs on.
    pinned = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {pinned})

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    rounds = max(1, round(args.seconds / wl.round_seconds))
    if args.trace:
        rounds = max(1, round(rounds / 2))
    items = [item for r in range(rounds) for item in wl.round(r)]
    round0 = {item.key for item in wl.round(0)}
    setup_s, setup_raw_s = measure_setup()
    wl.prepare(items)
    warm = workloads.WarmUp()

    t_start = time.perf_counter()
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            _, failures = run_items(warm, [warm.ITEM], tracer)
            traced, traced_failures = run_items(wl, items, tracer)
        spans = tracer.spans
        del tracer  # retained spans would slow the cyclic GC in the untraced pass
        spans_json = json.dumps(spans)
        values = tracing.layer_metrics(spans)
        del spans
        passed, plain_failures = run_items(wl, items, tracing.NullTracer())
        failures += traced_failures + plain_failures
        units = tracing.LAYER_METRICS
    else:
        _, failures = run_items(warm, [warm.ITEM], tracing.NullTracer())
        passed, item_failures = run_items(wl, items, tracing.NullTracer())
        failures += item_failures
        units = END_TO_END
    wall_s = time.perf_counter() - t_start

    attempted = 1 + len(items) * (2 if args.trace else 1)
    for key, message in failures:
        print(f"FAILED {key}: {message}", file=sys.stderr)
    latencies = [lat for lat, _, _ in passed.values()]
    raw = [r for _, r, _ in passed.values()]
    bounds = [o.bound for k, (_, _, o) in passed.items() if k in round0 and o.bound is not None]
    tail_s, tail_pct, beyond = tail(latencies) if latencies else (math.nan, math.nan, 0)
    e2e = {
        "setup_s": setup_s,
        "items_per_s": items_per_s(latencies),
        "item_p50_s": statistics.median(latencies) if latencies else math.nan,
        "item_tail_s": tail_s,
        "bound_mean": statistics.fmean(bounds) if bounds else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        traced_ips = items_per_s([lat for lat, _, _ in traced.values()])
        overhead = 1.0 - traced_ips / e2e["items_per_s"] if passed else math.nan
        values["trace.overhead_frac"] = overhead
    else:
        values = e2e
    info = machine_info() | {"pinned_cpu": pinned}
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": rounds, "items": len(items), "wall_s": wall_s,
        "machine": info, "end_to_end": e2e, "setup_raw_s": setup_raw_s,
        "item_tail_percentile": tail_pct, "item_tail_beyond": beyond,
        "fail_frac": len(failures) / attempted, "failures": failures,
        "latencies": {k: lat for k, (lat, _, _) in passed.items()},
        "raw_latencies": {k: r for k, (_, r, _) in passed.items()},
        "metrics": values,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if args.trace:
        (OUT / f"spans-{stem}.json").write_text(spans_json + "\n")

    print(f"# {args.workload} seed={args.seed} rounds={rounds} items={len(items)} "
          f"wall={wall_s:.1f}s trace={args.trace}")
    print(f"# machine: {json.dumps(info)}")
    for name, value in e2e.items():
        print(f"{name} = {value:.6g} {END_TO_END[name]}")
    print(f"fail_frac = {len(failures) / attempted:.6g} frac "
          f"({len(failures)} of {attempted} items)")
    print(f"# item_tail_s is p{tail_pct:.2f} of {len(latencies)} items, {beyond} beyond it")
    raw_p50 = statistics.median(raw) if raw else math.nan
    print(f"# raw wall times: setup {setup_raw_s:.6g} s, item p50 {raw_p50:.6g} s, "
          f"items_per_s {items_per_s(raw):.6g}")
    if args.trace:
        for name, value in values.items():
            print(f"{name} = {value:.6g} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
