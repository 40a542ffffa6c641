"""Run the benchmark over several seeds and collect one result set.

    python3 perfbench/series.py --seeds 1-10 --out set.jsonl [--trace 0|1]

Run from the repository root.  Each (seed, workload) pair runs
``perfbench/run.py`` in its own process, one after another, seed by seed, so
slow drift of the machine spreads over every workload.  The workloads and the
run length are the ones BENCHMARK.json fixes.  Every result is appended to
``--out`` as one JSON line ``{"workload", "seed", "seconds", "trace",
"result"}``; the spread of each metric is printed at the end.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from compare import load_results, summary_rows

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    seconds = SPEC["run_seconds"]
    for seed in parse_seeds(args.seeds):
        for workload in (w["name"] for w in SPEC["workloads"]):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(args.trace),
            ]
            done = subprocess.run(command, capture_output=True, text=True, timeout=180)
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}",
                      file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            with open(args.out, "a", encoding="utf-8") as out:
                out.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                      "trace": args.trace, "result": result}) + "\n")
            shown = ", ".join(
                f"{k} {v['value']:.4g}" for k, v in result["metrics"].items()
                if not args.trace
            )
            print(f"{workload} seed {seed}: {shown}", flush=True)

    print()
    for row in summary_rows(load_results(args.out, args.trace)):
        print(row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
