"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Result sets are the JSON-lines files that ``series.py`` writes.  For every
workload and end-to-end metric this prints the median and quartiles of each
set, the pairwise wins of NEW over BASE (runs paired by seed), and a verdict
against the metric's bound in BENCHMARK.json:

* improved   - NEW wins at least nine tenths of the pairs and the medians
               differ by more than BASE's interquartile range;
* worse      - NEW's median is worse than BASE's by more than the bound;
* unresolved - neither, and BASE's own spread is wider than the bound,
               unless every NEW run is better than every BASE run;
* unchanged  - otherwise.

It also prints each workload's share of failed operations in both sets, and
whether the two sets pass the benchmark's acceptance rule: both sets run for
the same length, every spread within its bound, no median worse by more than
its bound, and no workload failing a larger share of its operations in NEW
than in BASE.  Exits 1 when they do not.
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_results(path, trace: int = 0):
    """(workload, metric) -> {seed: value}, workload -> [attempted, failed],
    and the set of run lengths the rows were measured with."""
    values: dict = defaultdict(dict)
    ops: dict = defaultdict(lambda: [0, 0])
    seconds: set = set()
    with open(path, encoding="utf-8") as lines:
        for line in lines:
            row = json.loads(line)
            if row["trace"] != trace:
                continue
            seconds.add(row["seconds"])
            result = row["result"]
            for name, metric in result["metrics"].items():
                values[(row["workload"], name)][row["seed"]] = metric["value"]
            ops[row["workload"]][0] += result["attempted"]
            ops[row["workload"]][1] += result["failed"]
    return values, ops, seconds


def quartiles(values) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summary_rows(loaded) -> list[str]:
    values, ops, _ = loaded
    rows = [f"{'workload':16s} {'metric':40s} {'n':>3s} {'median':>12s} {'q1':>12s} "
            f"{'q3':>12s} {'spread':>8s}"]
    for (workload, name), by_seed in sorted(values.items()):
        v = list(by_seed.values())
        q1, med, q3 = quartiles(v)
        rows.append(f"{workload:16s} {name:40s} {len(v):3d} {med:12.5g} {q1:12.5g} "
                    f"{q3:12.5g} {spread(v):8.2%}")
    for workload, (attempted, failed) in sorted(ops.items()):
        rows.append(f"{workload:16s} failed {failed} of {attempted} operations")
    return rows


def verdict(base: dict, new: dict, bound: float, lower_is_better: bool):
    """(verdict, wins, pairs) of NEW against BASE for one metric."""
    sign = 1 if lower_is_better else -1
    pairs = [(base[s], new[s]) for s in base if s in new]
    if not pairs:
        pairs = list(zip(base.values(), new.values()))
    wins = sum(1 for b, n in pairs if sign * (b - n) > 0)
    b_q1, b_med, b_q3 = quartiles(list(base.values()))
    n_med = statistics.median(new.values())
    worse_by = sign * (n_med - b_med) / b_med
    if wins >= 0.9 * len(pairs) and sign * (b_med - n_med) > b_q3 - b_q1:
        return "improved", wins, len(pairs)
    if worse_by > bound:
        return "worse", wins, len(pairs)
    all_better = all(sign * (b - n) > 0 for b in base.values() for n in new.values())
    if spread(list(base.values())) > bound and not all_better:
        return "unresolved", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    (base, base_ops, base_s), (new, new_ops, new_s) = load_results(argv[0]), load_results(argv[1])
    accepted = len(base_s | new_s) == 1
    if not accepted:
        print(f"run lengths differ: base {sorted(base_s)} s, new {sorted(new_s)} s")
    print(f"{'workload':16s} {'metric':14s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'wins':>7s}  verdict")
    for workload in sorted({w for w, _ in base}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in new:
                print(f"{workload:16s} {metric['name']:14s} missing in one set")
                accepted = False
                continue
            b, n = base[key], new[key]
            lower = metric["better"] == "lower"
            result, wins, pairs = verdict(b, n, metric["bound"], lower)
            bq, nq = quartiles(list(b.values())), quartiles(list(n.values()))
            print(f"{workload:16s} {metric['name']:14s} "
                  f"{bq[1]:10.5g} [{bq[0]:9.5g}, {bq[2]:9.5g}] "
                  f"{nq[1]:10.5g} [{nq[0]:9.5g}, {nq[2]:9.5g}] "
                  f"{wins:3d}/{pairs:<3d}  {result}")
            sign = 1 if lower else -1
            if sign * (nq[1] - bq[1]) / bq[1] > metric["bound"]:
                accepted = False
            if max(spread(list(b.values())), spread(list(n.values()))) > metric["bound"]:
                accepted = False
        shares = []
        for ops in (base_ops, new_ops):
            attempted, failed = ops.get(workload, (0, 0))
            shares.append(failed / attempted if attempted else 0.0)
        print(f"{workload:16s} failed share   base {shares[0]:.6f}  new {shares[1]:.6f}")
        if shares[1] > shares[0]:
            accepted = False
    print("acceptance rule:", "met" if accepted else "NOT met")
    return 0 if accepted else 1


if __name__ == "__main__":
    sys.exit(main())
