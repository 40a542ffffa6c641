"""Spans around the calls into htnact's modules, recorded from outside.

``Tracer.install`` wraps each function in TARGETS and rebinds every name
under which an ``htnact`` module (the package itself included) holds it, so
calls between modules and within one module both go through the wrapper.
Nothing in the program is edited; ``uninstall`` puts the originals back.

A span is ``[id, parent id, name, operation, start ns, end ns]``.  Spans stay
in memory until ``write``.  A span's self time is its duration minus the
durations of its child spans (calls are strictly nested: one thread).
"""
from __future__ import annotations

import functools
import json
import sys
import time

# module -> functions wrapped; "Class.method" wraps a method in place
TARGETS = {
    "acting": (
        "primary_tasks", "applicable_substitutions", "exec_all",
        "exec_via_action", "exec_via_reduction", "exec_via_replacement",
        "action_result", "is_blocked", "is_trace_blocked",
        "smallest_replaceable", "replace_tasks", "update_couples",
        "RunContext.absorb",
    ),
    "reduction": ("reduce_task", "relevant_method_bodies"),
    "trace": (
        "run", "replay_step", "validate_trace", "eliminate_complete_replacements",
        "sample_traces", "canonical_key", "successful_action_sequences",
    ),
    "oracle": ("solutions_bounded", "reachable_networks", "completions"),
    "agent": ("run_agent", "sra_step", "observe", "dtrace_to_trace"),
    "export": ("render_trace",),
    "syntax": ("parse_domain", "parse_problem", "parse_scenario"),
    "corpus": ("corpus",),
    "verify": (
        "acting_solution_set", "check_extendability", "check_elimination",
        "traces_with_complete_replacements", "check_dtrace_soundness",
    ),
}

EXPLORERS = {
    "trace.successful_action_sequences", "trace.sample_traces",
    "verify.check_extendability",
}
STRATEGY_LOOPS = {"trace.run", "agent.sra_step"}


def span_name(module: str, function: str) -> str:
    return f"{module}.{function.rsplit('.', 1)[-1]}"


def self_times(spans: list) -> dict[str, tuple[int, float]]:
    """name -> (calls, self seconds) over ``spans``, whose parents they include."""
    position = {span[0]: i for i, span in enumerate(spans)}
    child_ns = [0] * len(spans)
    for span in spans:
        if span[1] in position:
            child_ns[position[span[1]]] += span[5] - span[4]
    out: dict[str, list] = {}
    for span, children in zip(spans, child_ns):
        entry = out.setdefault(span[2], [0, 0])
        entry[0] += 1
        entry[1] += span[5] - span[4] - children
    return {name: (calls, ns / 1e9) for name, (calls, ns) in out.items()}


def htnact_modules() -> list:
    return [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "htnact" or n.startswith("htnact."))
    ]


def rebind(modules: list, original, replacement) -> list:
    """Point every name that holds ``original`` in ``modules`` at ``replacement``;
    returns ``(holder, attr, original)`` for each name rebound."""
    done = []
    for holder in modules:
        for attr, value in list(vars(holder).items()):
            if value is original:
                setattr(holder, attr, replacement)
                done.append((holder, attr, original))
    return done


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.operation = None
        self.counts = {
            "exec_all_steps": 0,
            "search_nodes": 0,
            "couples_at_end": 0,
            "key_repeats": 0,
            "networks": 0,
            "primitive_completions": 0,
            "export_bytes": 0,
            "strategy_action_results": 0,
            "strategy_actions_kept": 0,
        }
        self._keys: set = set()
        self._explorers = 0
        self._strategy = 0
        self._restore: list = []

    def set_operation(self, ident: str) -> None:
        """Spans carry the case or problem (``case7:equivalence`` -> ``case7``);
        memo hits count within one operation."""
        self.operation = ident.split(":")[0]
        self._keys = set()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        stack = self.stack
        clock = time.perf_counter_ns
        explorer = name in EXPLORERS
        strategy = name in STRATEGY_LOOPS
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            span = [len(spans), parent, name, tracer.operation, clock(), 0]
            spans.append(span)
            stack.append(span)
            tracer._explorers += explorer
            tracer._strategy += strategy
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = clock()
                stack.pop()
                tracer._explorers -= explorer
                tracer._strategy -= strategy
            if after is not None:
                after(args, result)
            return result

        return traced

    def _after_acting_exec_all(self, args, result) -> None:
        self.counts["exec_all_steps"] += len(result)
        if self._explorers:
            self.counts["search_nodes"] += 1

    def _after_acting_action_result(self, args, result) -> None:
        if self._strategy and not self._explorers:
            self.counts["strategy_action_results"] += 1

    def _after_trace_canonical_key(self, args, result) -> None:
        if result in self._keys:
            self.counts["key_repeats"] += 1
        self._keys.add(result)

    def _after_oracle_reachable_networks(self, args, result) -> None:
        self.counts["networks"] += len(result)

    def _after_oracle_completions(self, args, result) -> None:
        network, _, domain = args[:3]
        if all(domain.is_primitive(lt.task.symbol) for lt in network.tasks):
            self.counts["primitive_completions"] += 1

    def _after_export_render_trace(self, args, result) -> None:
        self.counts["export_bytes"] += len(result.encode())

    def _kept(self, trace) -> None:
        """Book a strategy run's trace: actions kept, couples left at its end."""
        self.counts["strategy_actions_kept"] += sum(
            1 for s in trace.steps if s.kind == "action"
        )
        self.counts["couples_at_end"] = max(
            self.counts["couples_at_end"], len(trace.steps[-1].config.couples)
        )

    def _after_trace_run(self, args, result) -> None:
        self._kept(result)

    def _after_agent_run_agent(self, args, result) -> None:
        self._kept(result.dtrace)

    # -- installing -----------------------------------------------------------

    def install(self) -> None:
        modules = htnact_modules()
        for module_name, functions in TARGETS.items():
            module = sys.modules[f"htnact.{module_name}"]
            for function in functions:
                name = span_name(module_name, function)
                if "." in function:
                    owner_name, attr = function.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    setattr(owner, attr, self._wrap(name, original))
                    self._restore.append((owner, attr, original))
                    continue
                original = getattr(module, function)
                self._restore += rebind(modules, original, self._wrap(name, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def write(self, path, meta: dict) -> None:
        with open(path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "meta": meta,
                    "fields": ["id", "parent", "name", "operation", "start_ns", "end_ns"],
                    "spans": self.spans,
                },
                out,
                separators=(",", ":"),
            )
