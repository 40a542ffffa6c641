"""Structured textual export of execution traces.

The format is a flat, machine-diffable tree: one ``step`` block per trace
element with a fixed field order and fully sorted collections, so exports of
two runs are byte-identical exactly when the runs were.

Each step block is derived from the previous one.  Consecutive
configurations share all but a few of their tasks, constraints, atoms and
couples, so the renderer keeps each collection as a sorted list and updates
it by the set difference between consecutive networks, formulas, states and
couple trees: a removed member is bisected out, an added one bisected in,
and no list is sorted again.  A couple's line is built once per couple
object.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from operator import attrgetter, itemgetter
from typing import Optional

from .acting import ACTION, OBSERVATION, REDUCTION, REPLACEMENT, ReductionCouple, Step
from .constraints import TaskNetwork
from .model import EMPTY_SUBSTITUTION, Substitution, label_key, labelled_task_key
from .trace import Trace

_text = attrgetter("text")
_last = itemgetter(-1)


def _sorted_labels(labels) -> str:
    return " ".join(sorted(labels, key=label_key)) or "-"


def _update(entries: list, entry, old: frozenset, new: frozenset) -> None:
    """Update the sorted ``entries`` of ``old``'s members to those of ``new``:
    each removed member's ``entry`` is bisected out, each added one's in."""
    if new is not old:
        for member in old - new:
            del entries[bisect_left(entries, entry(member))]
        for member in new - old:
            insort(entries, entry(member))


def _task_entry(lt) -> tuple:
    return (label_key(lt.label), lt.text)


def _couple_entry(couple: ReductionCouple) -> tuple:
    """The couple's sort key and line; ``(sort key,)`` finds it by bisection."""
    alts = " ".join(b.method for b in couple.alternatives) or "-"
    origin = couple.origin or "top"
    return (couple.sort_key(), f"    {origin}: [{couple.members_text}] untried: {alts}")


class _Block:
    """The sorted parts of the configuration rendered last."""

    def __init__(self) -> None:
        self.tasks: list = []  # _task_entry of each task
        self.constraints: list = []  # texts
        self.atoms: list = []  # texts
        self.couples: list = []  # _couple_entry of each couple
        self.shown: dict = {}  # id -> couple, for every couple of the tree

    def advance(self, prev, config) -> None:
        """Move from ``prev``, the configuration rendered last (None before
        the first), to ``config``."""
        nothing = frozenset()
        old = prev.network if prev else TaskNetwork(nothing, nothing)
        _update(self.tasks, _task_entry, old.tasks, config.network.tasks)
        _update(self.constraints, _text, old.formula, config.network.formula)
        _update(self.atoms, _text, prev.state if prev else nothing, config.state)
        self._couples(prev.couples if prev else None, config.couples)

    def _couples(self, old: Optional[ReductionCouple], new: ReductionCouple) -> None:
        """Update the couple lines by the couples of ``new`` that ``old`` lacks
        and those of ``old`` that ``new`` lacks.  The trees are immutable, so a
        couple of ``new`` already shown brings its whole subtree along: the
        walks stop there, and visit only the couples that changed."""
        shown, added, kept = self.shown, [], set()
        pending = [new]
        while pending:
            couple = pending.pop()
            if id(couple) in shown:
                kept.add(id(couple))
            else:
                added.append(couple)
                pending += couple.children
        pending = [old] if old is not None else []
        while pending:
            couple = pending.pop()
            if id(couple) not in kept:
                del shown[id(couple)]
                del self.couples[bisect_left(self.couples, (couple.sort_key(),))]
                pending += couple.children
        for couple in added:
            shown[id(couple)] = couple
            insort(self.couples, _couple_entry(couple))

    def lines(self, binding: str) -> list[str]:
        tasks = " ".join(map(_last, self.tasks)) or "-"
        return [
            f"  tasks: {tasks}",
            f"  constraints: {'; '.join(self.constraints) or '-'}",
            f"  state: {' '.join(self.atoms) or '-'}",
            f"  binding: {binding}",
            "  couples:",
            *map(_last, self.couples),
        ]


def _render_binding(binding: Substitution) -> str:
    return ", ".join(f"{v}/{t}" for v, t in binding.items_sorted()) or "-"


def _step_header(index: int, step: Step) -> list[str]:
    lines = [f"step {index}", f"  kind: {step.kind}"]
    if step.kind == ACTION:
        lines.append(f"  label: {step.label}")
        lines.append(f"  task: {step.task}")
        lines.append(f"  with: {_render_binding(step.binding)}")
    elif step.kind == REDUCTION:
        lines.append(f"  label: {step.label}")
        lines.append(f"  method: {step.body.method}")
        lines.append(f"  added: {_sorted_labels(step.added)}")
    elif step.kind == REPLACEMENT:
        lines.append(f"  couple: {step.label}")
        lines.append(f"  method: {step.body.method}")
        mode = "complete" if step.complete else "partial"
        if step.jump:
            mode += " jump"
        lines.append(f"  mode: {mode}")
        lines.append(f"  removed: {_sorted_labels(step.removed)}")
        lines.append(f"  added: {_sorted_labels(step.added)}")
    elif step.kind == OBSERVATION:
        observed = " ".join(
            str(lt) for lt in sorted(step.observed, key=labelled_task_key)
        )
        lines.append(f"  observed: {observed}")
    return lines


def render_trace(
    trace: Trace,
    domain_name: str = "",
    meta: Optional[dict] = None,
) -> str:
    """Deterministic textual form of a trace, one block per step.

    A configuration's ``binding:`` line is the union of the bindings of the
    trace's actions so far: an action binds only constants, and a variable
    it binds occurs nowhere after it, so the union never rebinds one.
    """
    lines = ["trace"]
    if domain_name:
        lines.append(f"domain: {domain_name}")
    for key in sorted(meta or {}):
        lines.append(f"{key}: {meta[key]}")
    lines.append(f"classification: {trace.classification()}")
    if trace.budget_exhausted:
        lines.append("budget-exhausted: true")
    actions = " . ".join(str(t) for t in trace.actions_performed())
    lines.append(f"actions: {actions or '-'}")
    labels = " . ".join(trace.action_labels())
    lines.append(f"action-labels: {labels or '-'}")
    flags = trace.freedom_flags()
    free = " ".join(
        name.replace("_free", "").replace("_", "-")
        for name in sorted(flags)
        if flags[name]
    )
    lines.append(f"free-of: {free or '-'}")
    lines.append("")
    block = _Block()
    previous = None
    bound = EMPTY_SUBSTITUTION
    binding = "-"
    for index, step in enumerate(trace.steps):
        lines += _step_header(index, step)
        if step.kind == ACTION and step.binding:
            bound = Substitution({**bound, **step.binding})
            binding = _render_binding(bound)
        config = step.config
        if previous is not None:
            gained = sorted(map(_text, config.state - previous.state))
            lost = sorted(map(_text, previous.state - config.state))
            lines.append(f"  state+: {' '.join(gained) or '-'}")
            lines.append(f"  state-: {' '.join(lost) or '-'}")
        block.advance(previous, config)
        previous = config
        lines += block.lines(binding)
        lines.append("")
    return "\n".join(lines)  # the blank line closing the last block ends it
