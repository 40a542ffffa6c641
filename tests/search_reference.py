"""The unreduced exhaustive-acting fold: the differential reference for
``trace.successful_action_sequences``.

The fold below expands every execution at every configuration: actions,
the reductions of every task and replacements alike.  It walks the public
``trace.reachable`` with no narrowing, so it sees exactly the configurations
the full semantics reaches, and ``successful_action_sequences``, which
follows the reductions of one task where it may, must return the same sets.
"""
from __future__ import annotations

import functools
from typing import Optional

from htnact.acting import ACTION, REPLACEMENT, Choice, Configuration, RunContext
from htnact.trace import reachable


def allowed(allow_partial: bool, allow_complete: bool, choice: Choice) -> bool:
    if choice.kind != REPLACEMENT:
        return True
    return allow_complete if choice.complete else allow_partial


def reference_action_sequences(
    cfg0: Configuration,
    ctx: RunContext,
    allow_partial: bool = True,
    allow_complete: bool = True,
) -> frozenset:
    """Action sequences of every successful trace reachable from ``cfg0``,
    folded over every execution."""
    # None keys a successful configuration; an ancestor still open (none
    # recurs on a path) has no entry and contributes nothing
    memo: dict[Optional[str], frozenset] = {None: frozenset({()})}
    key = None
    follow = functools.partial(allowed, allow_partial, allow_complete)
    for _, key, choices, successors in reachable(cfg0, ctx, follow):
        sequences = set()
        for choice, successor in zip(choices, successors):
            suffixes = memo.get(successor, frozenset())
            if choice.kind == ACTION:
                # bindings ground the task at execution time, so the head is
                # final and the suffix set is label- and binding-free
                sequences |= {(choice.task,) + s for s in suffixes}
            else:
                sequences |= suffixes
        memo[key] = frozenset(sequences)
    return memo[key]
