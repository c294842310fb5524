"""Run the benchmark over several seeds and record a BENCH_*.json point.

    python3 perfbench/trajectory.py --out perfbench/BENCH_01.json

For each workload in BENCHMARK.json: one untraced run per seed (seeds
1..10), then one traced run at seed 1.  Each end-to-end metric is summarised
by its median, its quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (q3 - q1) / median, which BENCHMARK.json's bound should exceed
threefold.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    got = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = got.stdout.strip().splitlines()
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    point = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        runs = [run(name, seed, seconds, 0) for seed in point["seeds"]]
        summary = {"correct": all(r["correct"] for _, r in runs),
                   "failed": sum(r["failed"] for _, r in runs),
                   "attempted": sum(r["attempted"] for _, r in runs),
                   "runs": [env for env, _ in runs],
                   "end_to_end": {}}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for _, r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary["end_to_end"][metric["name"]] = {
                "unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med, "bound": metric["bound"], "values": values,
            }
            print(f"{name:<12} {metric['name']:<12} median {med:10.4f} "
                  f"spread {(q3 - q1) / med:6.3f} (bound {metric['bound']})", flush=True)
        env, traced = run(name, 1, seconds, 1)
        summary["traced_env"] = env
        summary["traced_correct"] = traced["correct"]
        summary["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        point["workloads"][name] = summary
        print(f"{name:<12} correct {summary['correct']} traced_correct {traced['correct']}",
              flush=True)
    if args.out:
        args.out.write_text(json.dumps(point, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
