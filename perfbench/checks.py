"""Output checks made apart from the program.

The state simulator reads the operators straight from the ``.htn`` text with
its own small reader, replays an action sequence from the initial state and
checks every precondition.  The other helpers check the shape of the action
sequences the workloads expect.
"""
from __future__ import annotations

import re


class CheckFailed(Exception):
    """A program output disagrees with what the benchmark expects."""


_ATOM = re.compile(r"\s*(!?)\s*([A-Za-z0-9_][A-Za-z0-9_\-]*)\s*(?:\(([^)]*)\))?\s*")


def _atoms(text: str) -> list[tuple[bool, str, tuple[str, ...]]]:
    out = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _ATOM.match(text, pos)
        if not m or m.end() == pos:
            raise CheckFailed(f"simulator cannot read {text!r}")
        args = tuple(a.strip() for a in m.group(3).split(",")) if m.group(3) else ()
        out.append((m.group(1) != "!", m.group(2), args))
        pos = m.end()
        if pos < len(text) and text[pos] == ",":
            pos += 1
    return out


class Simulator:
    """STRIPS operators of one domain, read from its source text."""

    def __init__(self, domain_text: str):
        self.operators: dict[str, tuple] = {"nop": ((), [], [], [])}
        current = None
        for raw in domain_text.splitlines():
            line = raw.split("#", 1)[0].strip()
            head = re.match(r"operator\s+([A-Za-z0-9_\-]+)\s*(?:\(([^)]*)\))?$", line)
            if head:
                params = tuple(p.strip() for p in (head.group(2) or "").split(",") if p.strip())
                current = [params, [], [], []]
                self.operators[head.group(1)] = current
                continue
            if line.startswith("method"):
                current = None
                continue
            if current is not None:
                for slot, key in ((1, "pre:"), (2, "add:"), (3, "del:")):
                    if line.startswith(key):
                        current[slot] = _atoms(line[len(key):])

    def replay(self, state: frozenset, actions) -> frozenset:
        """Apply ground actions ``(symbol, args)`` in order; return the final state.

        ``state`` holds ``(symbol, args)`` atoms.  Raises CheckFailed on an
        unknown action or an unmet precondition.
        """
        current = set(state)
        for step, (symbol, args) in enumerate(actions):
            if symbol not in self.operators:
                raise CheckFailed(f"action {step} {symbol} has no operator")
            params, pre, add, delete = self.operators[symbol]
            if len(params) != len(args):
                raise CheckFailed(f"action {step} {symbol}{args} has the wrong arity")
            binding = dict(zip(params, args))

            def ground(atom):
                return atom[1], tuple(binding.get(a, a) for a in atom[2])

            for literal in pre:
                if (ground(literal) in current) != literal[0]:
                    raise CheckFailed(
                        f"action {step} {symbol}{args}: precondition {literal} fails"
                    )
            current -= {ground(a) for a in delete}
            current |= {ground(a) for a in add}
        return frozenset(current)


def ground_task(task) -> tuple[str, tuple[str, ...]]:
    """``(symbol, args)`` of a program task, for the simulator."""
    return task.symbol, tuple(str(a) for a in task.args)


def state_atoms(state) -> frozenset:
    return frozenset((atom.symbol, tuple(str(a) for a in atom.args)) for atom in state)


def check_rover_recipes(actions, locations: list[str], lander: str, leading_nop=False) -> None:
    """Every transmitData(loc_i) is served, in chain order, by one recipe.

    m1 performs estabConn, extData, sendExtData, breakConn; m2 navigates
    (calibrate and moveCams in either order, or moveCams alone) to the lander
    and uploads.
    """
    seq = [(s, a) for s, a in actions]
    if leading_nop:
        if not seq or seq[0] != ("nop", ()):
            raise CheckFailed("agent trace does not start with the initial nop")
        seq = seq[1:]
    pos = 0
    for loc in locations:
        m1 = [("estabConn", ()), ("extData", (loc,)), ("sendExtData", (loc,)), ("breakConn", ())]
        tail = [("move", (lander,)), ("uploadData", (loc,))]
        recipes = [
            m1,
            [("calibrate", ()), ("moveCams", ())] + tail,
            [("moveCams", ()), ("calibrate", ())] + tail,
            [("moveCams", ())] + tail,
        ]
        for recipe in recipes:
            if seq[pos:pos + len(recipe)] == recipe:
                pos += len(recipe)
                break
        else:
            raise CheckFailed(f"transmitData({loc}) is not served at action {pos}")
    if pos != len(seq):
        raise CheckFailed(f"{len(seq) - pos} actions follow the last transmitData")


def check_counter_actions(actions, counters: list[str]) -> None:
    """dec(c0,c1) ... dec(c_(k-1),c_k) . b . a^(k+1)."""
    k = len(counters) - 1
    expected = [("dec", (counters[i], counters[i + 1])) for i in range(k)]
    expected += [("b", ())] + [("a", ())] * (k + 1)
    if list(actions) != expected:
        raise CheckFailed("recursion actions differ from dec^k . b . a^(k+1)")


def check_export(text: str, steps: int, actions) -> None:
    """The export holds one block per step and lists the performed actions."""
    lines = text.splitlines()
    if lines[:1] != ["trace"] or "classification: successful" not in lines:
        raise CheckFailed("export header is not that of a successful trace")
    blocks = sum(1 for line in lines if re.fullmatch(r"step \d+", line))
    if blocks != steps:
        raise CheckFailed(f"export has {blocks} step blocks for {steps} steps")
    rendered = " . ".join(
        s + (f"({', '.join(a)})" if a else "") for s, a in actions
    )
    if f"actions: {rendered or '-'}" not in lines:
        raise CheckFailed("export does not list the performed actions")
