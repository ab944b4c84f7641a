"""Run every workload over several seeds and summarise the runs as JSON.

    python3 perfbench/baseline.py --seeds 101-110 --out perfbench/BASELINE.json

Each seed is one untraced run (end-to-end metrics: median and quartiles over
the seeds, as statistics.quantiles gives them); the first seed also gets one
traced run (per-layer metrics, and from its spans the CPU time per op of
each top-level library call).  Runs go one at a time, each in its own
process, with the run length from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Stage times of the ROADMAP re-anchor: criterion 6 fixture, K=6, wall clock, untraced.
ROADMAP_STAGES = "jet 0.24, de_residual 0.37, oracle 1.9, formal_simplify 2.4, gauge_residual 4.5"


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def stage_seconds(spans_file: Path, ops: int) -> dict:
    """CPU seconds per op of each span name called from benchmark code,
    children included."""
    totals: dict = {}
    with open(spans_file, encoding="utf-8") as fh:
        for line in fh:
            span = json.loads(line)
            if span["parent"] == -1:
                totals[span["name"]] = totals.get(span["name"], 0.0) + span["end"] - span["start"]
    return {name: total / ops for name, total in sorted(totals.items())}


def roadmap_comparison(stages: dict, seed: int) -> str:
    ours = ", ".join(f"{name} {seconds:.2f}" for name, seconds in stages.items())
    return (f"pipeline-exact, seed {seed}, traced, CPU s per op (K=5, drawn instances): {ours}; "
            f"ROADMAP re-anchor (criterion 6 fixture, K=6, wall clock, untraced): {ROADMAP_STAGES}. "
            "darboux.solve includes the de_residual check that de_solve_jet runs itself.")


def summarise(runs: list) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": statistics.median(values), "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / statistics.median(values),
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="101-110", help="inclusive range, e.g. 101-110")
    parser.add_argument("--out", default=str(HERE / "BASELINE.json"))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    seeds = seed_list(args.seeds)
    result = {
        "machine": f"{platform.machine()}, {platform.processor() or 'cpu'}, "
                   f"Python {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(name, seed, seconds, 0))
            print(name, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        traced = run_once(name, seeds[0], seconds, 1)
        result["workloads"][name] = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": summarise(runs),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "stage_cpu_s_per_op": stage_seconds(ROOT / ".perfbench-work" / f"spans-{name}-seed{seeds[0]}.jsonl",
                                                traced["attempted"] // 2),
        }
    stages = result["workloads"]["pipeline-exact"]["stage_cpu_s_per_op"]
    result["roadmap_comparison"] = roadmap_comparison(stages, seeds[0])
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
