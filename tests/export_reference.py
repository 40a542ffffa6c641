"""The differential reference for ``htnact.export``: the trace renderer
that sorts every configuration afresh.

Each step block sorts every task, constraint, atom and couple of its
configuration again, and the text is joined and ``rstrip``ped at the end.
``htnact.export`` derives each step block from the previous one; the two
must give the same text for every trace.
"""
from __future__ import annotations

from typing import Optional

from htnact.acting import ACTION, OBSERVATION, REDUCTION, REPLACEMENT, Configuration, Step
from htnact.model import EMPTY_SUBSTITUTION, Substitution, label_key, labelled_task_key
from htnact.trace import Trace


def _sorted_labels(labels) -> str:
    return " ".join(sorted(labels, key=label_key)) or "-"


def _render_state(state) -> str:
    return " ".join(sorted(str(a) for a in state)) or "-"


def _render_config(config: Configuration, binding: str, indent: str) -> list[str]:
    lines = []
    tasks = " ".join(lt.text for lt in config.network.sorted_tasks()) or "-"
    lines.append(f"{indent}tasks: {tasks}")
    constraints = sorted(str(c) for c in config.network.formula)
    lines.append(f"{indent}constraints: {'; '.join(constraints) or '-'}")
    lines.append(f"{indent}state: {_render_state(config.state)}")
    lines.append(f"{indent}binding: {binding}")
    lines.append(f"{indent}couples:")
    for couple in config.sorted_couples():
        origin = couple.origin or "top"
        alts = " ".join(b.method for b in couple.alternatives) or "-"
        lines.append(
            f"{indent}  {origin}: [{couple.members_text}] untried: {alts}"
        )
    return lines


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
    previous_state = None
    bound = EMPTY_SUBSTITUTION
    binding = "-"
    for index, step in enumerate(trace.steps):
        lines.extend(_step_header(index, step))
        if step.kind == ACTION and step.binding:
            bound = Substitution({**bound, **step.binding})
            binding = _render_binding(bound)
        state = step.config.state
        if previous_state is not None:
            gained = sorted(str(a) for a in state - previous_state)
            lost = sorted(str(a) for a in previous_state - state)
            lines.append(f"  state+: {' '.join(gained) or '-'}")
            lines.append(f"  state-: {' '.join(lost) or '-'}")
        previous_state = state
        lines.extend(_render_config(step.config, binding, "  "))
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
