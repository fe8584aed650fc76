"""Fast self-test of the benchmark, with tiny item counts.

    python3 bench/smoke.py

Run from the root of a checkout; takes under a minute. It checks that
BENCHMARK.json names exactly the metrics run.py and tracing.py produce, that
two traced runs of one item per workload with the same seed give identical
counts and bounds, that run.py prints a result line of the result schema in
both modes, and that it fails without printing a result where the package
source is missing. It is not part of the package's test suite.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import run  # sets the BLAS thread count before numpy loads

run.import_package()
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def check(cond: bool, message: str) -> None:
    if not cond:
        raise SystemExit(f"smoke: FAIL: {message}")
    print(f"smoke: ok: {message}")


def table(entries: list[dict]) -> dict[str, str]:
    return {e["name"]: e["unit"] for e in entries}


def traced_counts(wl, items) -> tuple[dict, list]:
    tracer = tracing.Tracer()
    warm = workloads.WarmUp()
    with tracing.instrument(tracer):
        _, failures = run.run_items(warm, [warm.ITEM], tracer)
        passed, more = run.run_items(wl, items, tracer)
    check(not failures + more, f"{wl.name}: tiny traced run passes its checks")
    metrics = tracing.layer_metrics(tracer.spans)
    return {k: metrics[k] for k in tracing.DETERMINISTIC}, [o.bound for _, _, o in passed.values()]


def result_line(cwd: Path, trace: int) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "invariants-scan", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


def main() -> None:
    check(table(SPEC["end_to_end"]) == run.END_TO_END, "end-to-end metrics match BENCHMARK.json")
    check(table(SPEC["per_layer"]) == tracing.LAYER_METRICS,
          "per-layer metrics match BENCHMARK.json")
    check([w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS),
          "workloads match BENCHMARK.json")

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(7)
        items = wl.round(0)[-1:]
        wl.prepare(items)
        first, second = traced_counts(wl, items), traced_counts(wl, items)
        check(first == second, f"{name}: counts and bounds repeat for one seed {first[0]}")

    for trace, names in ((0, run.END_TO_END), (1, tracing.LAYER_METRICS)):
        code, line = result_line(run.ROOT, trace)
        result = json.loads(line)
        check(code == 0 and set(result) == {"correct", "attempted", "failed", "metrics"},
              f"trace {trace}: exit 0 and result keys")
        check(result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1,
              f"trace {trace}: all items correct")
        metrics = result["metrics"]
        check({k: v["unit"] for k, v in metrics.items()} == names,
              f"trace {trace}: metric names and units")
        values = [v["value"] for v in metrics.values()]
        check(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
              f"trace {trace}: every value is a finite number")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, bare / run.BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    code, line = result_line(bare, 0)
    shutil.rmtree(bare)
    check(code != 0 and not line.startswith("{"),
          "without the package source: non-zero exit, no result")


if __name__ == "__main__":
    main()
