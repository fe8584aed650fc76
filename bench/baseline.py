"""Run every workload over a set of seeds and record medians and quartiles.

    python3 bench/baseline.py --seeds 1-10 --label "seed commit" --out bench/BASELINE.json

Run from the root of a checkout. Each (workload, seed) is one run of run.py
with BENCHMARK.json's run_seconds. For each end-to-end metric the output
gives the ten values, their median and quartiles, and the spread: the
interquartile range over the median, as statistics.quantiles(n=4) gives it.
Then each workload runs traced twice with the first seed. The two runs must
give identical counts and bound_mean, and their per-layer metrics are
recorded. Cite these numbers as before/after rows when a change claims a gain.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from tracing import DETERMINISTIC  # noqa: E402


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """One run: its result line's metrics and its result file."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    detail_file = BENCH / "out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    detail = json.loads(detail_file.read_text())
    return {k: v["value"] for k, v in result["metrics"].items()}, detail


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", nargs="*", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--label", default="", help="what was measured, e.g. a commit")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    report = {"label": args.label, "run_seconds": SPEC["run_seconds"], "workloads": {}}
    for workload in args.workloads:
        rows, walls = [], []
        for seed in seeds(args.seeds):
            metrics, detail = run(workload, seed, 0)
            rows.append(metrics)
            walls.append(detail["wall_s"])
            report["machine"] = detail["machine"]
            print(workload, seed, json.dumps(metrics), flush=True)
        entry = {"end_to_end": {k: summary([r[k] for r in rows]) for k in rows[0]},
                 "wall_s": summary(walls)}
        first = seeds(args.seeds)[0]
        traced = [run(workload, first, 1) for _ in range(2)]
        counts = [{k: m[k] for k in DETERMINISTIC} for m, _ in traced]
        bounds = [d["end_to_end"]["bound_mean"] for _, d in traced]
        if counts[0] != counts[1] or bounds[0] != bounds[1]:
            raise SystemExit(f"{workload}: traced runs of seed {first} differ: {counts} {bounds}")
        entry["per_layer"] = {"seed": first, "metrics": traced[0][0], "deterministic": True}
        report["workloads"][workload] = entry
        for k, s in entry["end_to_end"].items():
            print(f"{workload} {k}: median {s['median']:.6g} spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
