"""Check that the speed scaling does not hide a slower program.

    python3 perfbench/speedcheck.py --workload recursion-deep --plant cpu --pairs 10

Run from the repository root.  The plants slow ``htnact.acting.action_result``
on purpose:

* ``alloc`` - every 4th call runs ``action_result`` a second time, so the
  extra work allocates like the program does;
* ``cpu``   - every call first spins an interpreter loop of 150000 empty
  iterations, which allocates nothing.

In one process, the check runs pairs of a plain round of the workload and a
planted round, the planted round first in every other pair, and prints the
planted/base ratio of the wall time and of the scaled time (speed.py).  On a
shared machine the wall ratio is noisy, so it also tags every speed sample
of the planted rounds by whether it interrupted the extra work or the
program's own: the scaled time counts the extra work at the rate it counts
the program's own work when the reference job runs as fast in the one as in
the other.
"""
from __future__ import annotations

import argparse
import itertools
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import htnact.acting  # noqa: E402

import workloads  # noqa: E402
from speed import SpeedSampler  # noqa: E402
from tracing import htnact_modules, rebind  # noqa: E402

SPIN = 150_000


class Plant:
    """Extra work done on each call of ``original``."""

    def __init__(self, kind: str, original):
        self.original = original
        self.extra = {"alloc": self.alloc, "cpu": self.cpu}[kind]
        self.calls = 0
        self.inside = False

    def alloc(self, args, kwargs) -> None:
        if self.calls % 4 == 0:
            self.original(*args, **kwargs)

    def cpu(self, args, kwargs) -> None:
        for _ in itertools.repeat(None, SPIN):
            pass

    def __call__(self, *args, **kwargs):
        self.calls += 1
        self.inside = True
        try:
            self.extra(args, kwargs)
        finally:
            self.inside = False
        return self.original(*args, **kwargs)


class TaggedSampler(SpeedSampler):
    """Keeps each speed sample (1 / job seconds) of a planted round with
    whether it interrupted the plant's extra work."""

    def __init__(self, plant: Plant):
        super().__init__()
        self.plant = plant
        self.tagged = {True: [], False: []}
        self.tagging = False

    def _tick(self, signum, frame) -> None:
        inside, before = self.plant.inside, self.inverse_sum
        super()._tick(signum, frame)
        if self.tagging and self.inverse_sum != before:
            self.tagged[inside].append(self.inverse_sum - before)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--plant", required=True, choices=("alloc", "cpu"))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    original = htnact.acting.action_result
    plant = Plant(args.plant, original)
    modules = htnact_modules()
    ratios = []
    with TaggedSampler(plant) as sampler:
        inputs = workload.setup(args.seed)

        def timed_round():
            mark = sampler.mark()
            rnd = workloads.Round(sampler)
            workload.round(inputs, rnd)
            wall = sum(rnd.phase_s.values())
            return wall, sampler.scale(mark, wall)

        def planted_round():
            rebind(modules, original, plant)
            sampler.tagging = True
            try:
                return timed_round()
            finally:
                sampler.tagging = False
                rebind(modules, plant, original)

        timed_round()
        for pair in range(args.pairs):
            if pair % 2:
                planted = planted_round()
            base = timed_round()
            if not pair % 2:
                planted = planted_round()
            ratios.append((planted[0] / base[0], planted[1] / base[1]))
            print(f"pair {pair:2d}: wall {base[0]:.3f} -> {planted[0]:.3f} s, scaled "
                  f"{base[1]:.3f} -> {planted[1]:.3f} s", flush=True)

    wall, scaled = zip(*ratios)
    inside, elsewhere = sampler.tagged[True], sampler.tagged[False]
    print(f"{args.workload} {args.plant}, {args.pairs} pairs, planted/base ratio "
          f"(median, mean): wall {statistics.median(wall):.4f}, {statistics.mean(wall):.4f}; "
          f"scaled {statistics.median(scaled):.4f}, {statistics.mean(scaled):.4f}")
    if inside and elsewhere:
        print(f"  reference job speed in planted rounds: inside the extra work "
              f"{statistics.mean(inside):.1f}/s over {len(inside)} samples, elsewhere "
              f"{statistics.mean(elsewhere):.1f}/s over {len(elsewhere)} samples "
              f"(ratio {statistics.mean(inside) / statistics.mean(elsewhere):.4f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
