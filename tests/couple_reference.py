"""Flat reduction couples: the differential reference for the couple tree of
``htnact.acting``.

Here every couple stores its full pursued set, executed members included,
and the operations on couples are kept as they were before the couples
became a tree: the reduction's rewrite of every couple pursuing the reduced
task, action substitution into every couple, ``update_couples``'s superset
test, ``smallest_replaceable``'s pairwise scan and ``with_observed``.  On
top of them sit the blocked-couple test of ``exec_via_replacement``,
``is_trace_blocked`` and the couple lines of the export.  ``acting`` derives
the same pursued sets from its tree; it must offer the same replacements,
find the same configurations blocked and export the same text.
"""
from __future__ import annotations

from dataclasses import dataclass, replace as dc_replace
from functools import cached_property
from typing import Optional

from htnact.acting import (
    ACTION,
    OBSERVATION,
    REDUCTION,
    REPLACEMENT,
    Choice,
    Configuration,
    RunContext,
    exec_via_action,
    is_applicable,
)
from htnact.model import label_key, labelled_task_key, substitute
from htnact.reduction import has_relevant_method


@dataclass(frozen=True)
class FlatCouple:
    origin: Optional[str]
    pursued: frozenset
    alternatives: tuple = ()

    def substitute(self, theta) -> "FlatCouple":
        pursued = substitute(self.pursued, theta)
        alternatives = substitute(self.alternatives, theta)
        if pursued is self.pursued and alternatives is self.alternatives:
            return self
        return FlatCouple(self.origin, pursued, alternatives)

    @cached_property
    def labels(self) -> frozenset:
        return frozenset(lt.label for lt in self.pursued)

    def sort_key(self) -> tuple:
        return (self.origin is not None, label_key(self.origin or ""))


def initial(cfg: Configuration) -> frozenset:
    return frozenset({FlatCouple(None, cfg.network.tasks)})


def by_origin(couples: frozenset, origin: Optional[str]) -> FlatCouple:
    return next(c for c in couples if c.origin == origin)


def update_couples(replaced_labels, couple, body, couples) -> frozenset:
    out = set()
    for c in couples:
        if c == couple:
            c = dc_replace(
                c, alternatives=tuple(b for b in c.alternatives if b != body)
            )
        if c.labels >= couple.labels:
            pursued = frozenset(
                lt for lt in c.pursued if lt.label not in replaced_labels
            ) | body.network.tasks
            c = dc_replace(c, pursued=pursued)
        if c.labels & replaced_labels:
            continue
        out.add(c)
    return frozenset(out)


def smallest_replaceable(couples: frozenset) -> frozenset:
    out = set()
    for c in couples:
        if not c.alternatives:
            continue
        ok = True
        for other in couples:
            if other == c:
                continue
            if other.labels >= c.labels:
                continue
            if other.labels < c.labels and not other.alternatives:
                continue
            if not (other.labels & c.labels):
                continue
            ok = False
            break
        if ok:
            out.add(c)
    return frozenset(out)


def with_observed(couples: frozenset, observed: frozenset) -> frozenset:
    return frozenset(
        dc_replace(c, pursued=c.pursued | observed) if c.origin is None else c
        for c in couples
    )


def after(couples: frozenset, cfg: Configuration, choice: Choice) -> frozenset:
    """The flat couples once ``choice`` is performed from ``cfg``."""
    if choice.kind == ACTION:
        return substitute(couples, choice.binding)
    if choice.kind == REDUCTION:
        label, body = choice.label, choice.body
        target = cfg.network.task_of(label)
        grown = {
            c: dc_replace(c, pursued=(c.pursued - {target}) | body.network.tasks)
            for c in couples
            if label in c.labels and target in c.pursued
        }
        created = FlatCouple(label, body.network.tasks, choice.alternatives)
        return couples.difference(grown).union(grown.values(), (created,))
    if choice.kind == REPLACEMENT:
        couple = by_origin(couples, choice.label)
        removed = couple.labels & cfg.network.labels
        return update_couples(removed, couple, choice.body, couples)
    assert choice.kind == OBSERVATION
    return with_observed(couples, choice.observed)


def _progresses(lt, can_act, domain) -> bool:
    if domain.is_primitive(lt.task.symbol):
        return can_act(lt.label)
    return has_relevant_method(lt.task, domain)


def replacements(cfg: Configuration, couples: frozenset, ctx: RunContext) -> list:
    """``(label, body, complete, jump)`` of each replacement offered at ``cfg``."""
    can_act = frozenset(c.label for c in exec_via_action(cfg, ctx)).__contains__
    primary = cfg.primary
    primary_labels = frozenset(lt.label for lt in primary)
    progressing = frozenset(
        lt.label for lt in primary if _progresses(lt, can_act, cfg.domain)
    )
    blocked = [
        couple
        for couple in couples
        if couple.alternatives
        and not couple.labels.isdisjoint(primary_labels)
        and couple.labels.isdisjoint(progressing)
    ]
    if not blocked:
        return []
    smallest = smallest_replaceable(couples)
    return [
        (couple.origin, body, couple.labels <= cfg.network.labels, couple not in smallest)
        for couple in sorted(blocked, key=FlatCouple.sort_key)
        for body in couple.alternatives
    ]


def is_trace_blocked(cfg: Configuration, couples: frozenset, ctx: RunContext) -> bool:
    primary = cfg.primary
    primary_labels = frozenset(lt.label for lt in primary)
    pursued: set = set()
    for couple in couples:
        met = couple.labels & primary_labels
        if met and couple.alternatives:
            return False
        pursued |= met
    members = sorted((lt for lt in primary if lt.label in pursued), key=labelled_task_key)

    def can_act(label: str) -> bool:
        return is_applicable(label, cfg.network, cfg.state, ctx) is not None

    return not any(_progresses(lt, can_act, cfg.domain) for lt in members)


def couple_lines(couples: frozenset, indent: str) -> list[str]:
    """The export's lines for ``couples``, after its ``couples:`` line."""
    lines = []
    for couple in sorted(couples, key=FlatCouple.sort_key):
        members = " ".join(lt.text for lt in sorted(couple.pursued, key=labelled_task_key))
        alts = " ".join(b.method for b in couple.alternatives) or "-"
        lines.append(f"{indent}  {couple.origin or 'top'}: [{members}] untried: {alts}")
    return lines
