"""Benchmark command for htnact.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Sets up the workload's inputs in several
batches (``setup_s`` is the median), then repeats whole rounds of the
workload's operations for about ``--seconds``, checking every output.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the first half of the window runs
untraced and the second half traced, and the metrics are the per-layer ones
(spans are written to ``perfbench/out/``).  The metrics reported, and their
units, are the ones BENCHMARK.json lists.  Exits 2 when the htnact sources
are not there, 1 when an output check fails or BENCHMARK.json names a metric
the run does not measure.

Times are scaled to a fixed machine speed (see speed.py); the lines before
the JSON give wall times too.
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedSampler

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_BATCHES = 5
SETUP_BATCH_S = 0.2

# spans of these modules are counted per set-up, all others per round
PER_SETUP = ("syntax.", "corpus.")


def benchmark_spec() -> dict:
    """BENCHMARK.json: the metrics reported, their names and units."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def reported(values: dict, metrics: list) -> dict:
    """``values`` of the metrics BENCHMARK.json lists, with their units."""
    missing = [m["name"] for m in metrics if m["name"] not in values]
    if missing:
        raise SystemExit(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


class Samples:
    """Timed samples (rounds or set-up batches): wall and scaled seconds."""

    def __init__(self):
        self.raw: list[float] = []
        self.scaled: list[float] = []

    def add(self, raw: float, scaled: float) -> None:
        self.raw.append(raw)
        self.scaled.append(scaled)

    def median(self) -> float:
        return statistics.median(self.scaled)


def timed_setups(workload, seed: int, sampler):
    """SETUP_BATCHES batches of at least SETUP_BATCH_S; the median set-up of each."""
    batches = Samples()
    for _ in range(SETUP_BATCHES):
        mark = sampler.mark()
        times = []
        while sum(times) < SETUP_BATCH_S:
            with sampler.timed(times):
                inputs = workload.setup(seed)
        raw = statistics.median(times)
        batches.add(raw, sampler.scale(mark, raw))
    return inputs, batches


def run_rounds(workload, inputs, seconds: float, sampler, on_op=None):
    """Whole rounds for about ``seconds`` of wall time (at least one).

    A further round starts only while it is expected to end less than half a
    round past the window, so a run ends within half a round of ``seconds``.
    A round's time is the sum of its phases: the program's time, checks
    excluded.
    """
    from workloads import Round

    rounds = []
    times = Samples()
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        mark = sampler.mark()
        rnd = Round(sampler, on_op)
        workload.round(inputs, rnd)
        rounds.append(rnd)
        raw = sum(rnd.phase_s.values())
        times.add(raw, sampler.scale(mark, raw))
        now = time.perf_counter()
        if now - started + (now - begun) / 2 >= seconds:
            return rounds, times


def print_phases(workload, rounds) -> None:
    for phase, (work, label) in workload.rates.items():
        spent = statistics.median(r.phase_s.get(phase, 0.0) for r in rounds)
        amount = rounds[0].work.get(work, 0)
        if label.endswith("_per_s"):
            print(f"  {label:28s} {amount / spent:10.2f}  ({amount:g} in {spent:.4f} s)")
        else:
            print(f"  {label:28s} {spent:10.4f} s per round")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "htnact" / "__init__.py").is_file():
        print(f"htnact sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    spec = benchmark_spec()

    import workloads
    from checks import CheckFailed

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]

    correct = True
    rounds = []
    metrics = {}
    try:
        with SpeedSampler() as sampler:
            rounds, values = measure(workload, args, sampler)
        metrics = reported(values, spec["per_layer" if args.trace else "end_to_end"])
    except CheckFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        correct = False

    for failure in (rounds[0].failures if rounds else [])[:5]:
        print(f"failed operation: {failure}")
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in rounds) or 1,
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


def measure(workload, args, sampler):
    """Set up, then run the untraced or the traced measurement."""
    import workloads

    inputs, setups = timed_setups(workload, args.seed, sampler)
    if args.workload == "corpus-verify":
        workloads.check_corpus_renaming(inputs, args.seed)
    print(f"{args.workload} seed {args.seed}: set-up {setups.median():.5f} s scaled, "
          f"{statistics.median(setups.raw):.5f} s wall (median of {SETUP_BATCHES} batches)")
    if args.trace:
        return traced_run(workload, inputs, args, sampler)
    rounds, times = run_rounds(workload, inputs, args.seconds, sampler)
    print(f"{len(rounds)} rounds: median {times.median():.4f} s scaled, "
          f"{statistics.median(times.raw):.4f} s wall")
    print("  scaled: " + " ".join(f"{t:.3f}" for t in times.scaled))
    print("  wall:   " + " ".join(f"{t:.3f}" for t in times.raw))
    print_phases(workload, rounds)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return rounds, {"setup_s": setups.median(), "round_s": times.median(), "peak_rss_mb": rss}


def traced_run(workload, inputs, args, sampler):
    """Untraced rounds for half the window, then traced rounds for the rest."""
    from tracing import TARGETS, Tracer, self_times, span_name

    half = args.seconds / 2
    plain, plain_times = run_rounds(workload, inputs, half, sampler)
    tracer = Tracer()
    tracer.install()
    try:
        tracer.set_operation("setup")
        workload.setup(args.seed)
        traced, traced_times = run_rounds(
            workload, inputs, half, sampler, tracer.set_operation
        )
    finally:
        tracer.uninstall()

    overhead = traced_times.median() / plain_times.median() - 1
    print(f"{len(plain)} untraced and {len(traced)} traced rounds; "
          f"tracing overhead {overhead:+.1%}")
    n = len(traced)
    per_setup = self_times([s for s in tracer.spans if s[3] == "setup"])
    per_round = {
        name: (calls / n, spent / n)
        for name, (calls, spent) in self_times(tracer.spans).items()
    }
    values = {}
    print(f"  {'span':44s} {'calls':>10s} {'self ms':>10s}  (wall, per round; "
          f"syntax and corpus per set-up)")
    for module, functions in TARGETS.items():
        for function in functions:
            span = span_name(module, function)
            table = per_setup if span.startswith(PER_SETUP) else per_round
            calls, spent = table.get(span, (0, 0.0))
            if calls:
                print(f"  {span:44s} {calls:10.0f} {spent * 1e3:10.2f}")
            values[f"{span}.calls"] = calls
            values[f"{span}.self_s"] = spent

    counts = tracer.counts
    results = per_round.get("acting.action_result", (0, 0))[0] * n
    kept = results - counts["strategy_action_results"] + counts["strategy_actions_kept"]
    keys = per_round.get("trace.canonical_key", (0, 0))[0] * n
    exec_calls = per_round.get("acting.exec_all", (0, 0))[0] * n
    derived = {
        "acting.action_results_per_action": results / kept if kept else 0.0,
        "acting.candidates_per_step": counts["exec_all_steps"] / exec_calls if exec_calls else 0.0,
        "acting.couples_at_end": counts["couples_at_end"],
        "trace.search_nodes": counts["search_nodes"] / n,
        "trace.memo_hit_ratio": counts["key_repeats"] / keys if keys else 0.0,
        "oracle.networks": counts["networks"] / n,
        "oracle.completions.primitive_calls": counts["primitive_completions"] / n,
        "export.bytes": counts["export_bytes"] / n,
        "tracing.overhead": overhead,
    }
    for name, value in derived.items():
        values[name] = value
        print(f"  {name:44s} {value:14.4f}")

    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "traced_rounds": n, "untraced_rounds": len(plain)})
    print(f"spans: {path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    return plain + traced, values


if __name__ == "__main__":
    sys.exit(main())
