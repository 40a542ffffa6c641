"""Seeded input generators for the htnact benchmark.

Every generator returns source text in the program's own formats (``.htn``,
``.prob``, ``.evt``); the workloads hand that text to ``parse_domain``,
``parse_problem`` and ``parse_scenario`` and nothing else.  The seed varies
names and declaration order, never the shape of an input, so a run's cost
does not depend on the seed (see README.md).
"""
from __future__ import annotations

import random
import re
import string

WIDE_TASKS = 32
DEEP_COUNTER = 40
CORPUS_START = 100_000
CORPUS_CASES = 100
SCHEDULED_START = 150_000
SCHEDULED_CASES = 50

# Each rover-plan problem is one transmitData task plus these housekeeping
# tasks; every fully primitive network stays at 8 tasks or fewer.
PLAN_MENU = (
    ("monitor", "charge"),
    ("calibrate", "moveCams", "charge"),
    ("moveCams", "calibrate", "monitor"),
    ("monitor", "charge", "move", "charge"),
)

COUNTER_DOMAIN = """\
# Terminating form of loop -> loop.a | b.a: m1 recurses while the counter
# chain cnt(c0), next(c0,c1), ... still has a successor to consume.
domain counter

operator dec(X, Y)
  pre: cnt(X), next(X, Y)
  add: cnt(Y)
  del: cnt(X)

operator a
  pre:
  add:
  del:

operator b
  pre:
  add:
  del:

method m1 loop
  tasks:
    1: dec(X, Y)
    2: loop
    3: a
  constraints:
    ord 1 < 2
    ord 2 < 3

method m2 loop
  tasks:
    4: b
    5: a
  constraints:
    ord 4 < 5
"""


def _names(rng: random.Random, prefix: str, count: int, taken: set) -> list[str]:
    out = []
    while len(out) < count:
        name = prefix + "".join(rng.choice(string.ascii_lowercase) for _ in range(4))
        if name not in taken:
            taken.add(name)
            out.append(name)
    return out


def _shuffled(rng: random.Random, items) -> list:
    items = list(items)
    rng.shuffle(items)
    return items


def wide_problem(seed: int, count: int = WIDE_TASKS) -> tuple[str, list[str], str]:
    """Uncalibrated rover with ``count`` chained transmitData tasks.

    Returns the problem text, the location of each task in chain order, and
    the lander.
    """
    rng = random.Random(seed)
    taken: set = set()
    locations = _names(rng, "loc", count, taken)
    (lander,) = _names(rng, "lan", 1, taken)
    state = [f"didExp({loc})" for loc in locations] + [f"lander({lander})"]
    tasks = [f"  A{i}: transmitData({loc})" for i, loc in enumerate(locations)]
    chain = [f"  ord A{i} < A{i + 1}" for i in range(count - 1)]
    lines = [f"problem wide{seed}", "state: " + ", ".join(_shuffled(rng, state)), "tasks:"]
    lines += _shuffled(rng, tasks) + ["constraints:"] + _shuffled(rng, chain)
    return "\n".join(lines) + "\n", locations, lander


def wide_scenario(locations: list[str], gap: int) -> str:
    """One transmitData arrival every ``gap`` loop iterations, in chain order."""
    lines = ["scenario arrivals"]
    lines += [
        f"{i * gap}: A{i}: transmitData({loc})" for i, loc in enumerate(locations)
    ]
    return "\n".join(lines) + "\n"


def deep_problem(seed: int, depth: int = DEEP_COUNTER) -> tuple[str, list[str]]:
    """A counter chain of ``depth`` successors under a single loop task."""
    rng = random.Random(seed)
    counters = _names(rng, "c", depth + 1, set())
    facts = [f"cnt({counters[0]})"]
    facts += [f"next({counters[i]}, {counters[i + 1]})" for i in range(depth)]
    lines = [f"problem deep{seed}", "state: " + ", ".join(_shuffled(rng, facts))]
    lines += ["tasks:", "  L: loop"]
    return "\n".join(lines) + "\n", counters


def plan_problems(seed: int) -> list[str]:
    """One problem text per PLAN_MENU entry."""
    rng = random.Random(seed)
    out = []
    for index, housekeeping in enumerate(PLAN_MENU):
        taken: set = set()
        (location,) = _names(rng, "loc", 1, taken)
        (lander,) = _names(rng, "lan", 1, taken)
        state = ["raw", f"didExp({location})", f"lander({lander})"]
        tasks = [f"  A: transmitData({location})"]
        for i, symbol in enumerate(housekeeping):
            task = f"move({lander})" if symbol == "move" else symbol
            tasks.append(f"  H{i + 1}: {task}")
        lines = [f"problem plan{index}", "state: " + ", ".join(_shuffled(rng, state))]
        lines += ["tasks:"] + _shuffled(rng, tasks)
        out.append("\n".join(lines) + "\n")
    return out


_TOKEN = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_\-]*")


def rename_symbols(text: str, names: set, suffix: str) -> str:
    """Append ``suffix`` to every identifier of ``text`` that is in ``names``.

    A common suffix keeps every string comparison between the renamed names,
    so sorted orders, and with them the program's choices, stay the same.
    """
    return _TOKEN.sub(
        lambda m: m.group(0) + suffix if m.group(0) in names else m.group(0), text
    )
