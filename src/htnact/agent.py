"""Continual sense-reason-act loop over dynamic execution traces.

Each iteration first absorbs newly observed tasks as top-level tasks (an
observation step appended to the d-trace), then, while the d-trace is neither
successful nor blocked, performs one execution step chosen by the strategy.
A blocked d-trace idles; only new observations can unblock it.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Iterable, Optional

from .acting import (
    INITIAL,
    OBSERVATION,
    Configuration,
    RunContext,
    Step,
    initial_configuration,
    is_successful,
    is_trace_blocked,
    make_context,
    with_observed,
)
from .constraints import TaskNetwork
from .domain import Domain, NOP_SYMBOL
from .model import LabelledTask, Task, constants_of
from .reduction import has_relevant_method
from .trace import Strategy, Trace, strategy_step

NOP_LABEL = "0"


class ObservationError(Exception):
    pass


@dataclass
class EventSource:
    """Pull interface yielding the tasks observed at each loop iteration."""

    def poll(self, iteration: int) -> tuple[tuple[Optional[str], Task], ...]:
        raise NotImplementedError

    def exhausted_after(self) -> Optional[int]:
        """Last iteration that can still yield tasks, when known."""
        return None


@dataclass
class ScriptedEvents(EventSource):
    """Iteration-indexed schedule of observed tasks."""

    schedule: dict[int, tuple[tuple[Optional[str], Task], ...]] = field(
        default_factory=dict
    )

    def poll(self, iteration: int):
        return self.schedule.get(iteration, ())

    def exhausted_after(self) -> Optional[int]:
        return max(self.schedule, default=-1)


@dataclass
class CallbackEvents(EventSource):
    """Reads one observation batch per iteration from a callback.

    The callback returns an iterable of tasks, or None when the feed is
    closed; used for the interactive line-fed source.
    """

    callback: Callable[[int], Optional[Iterable[tuple[Optional[str], Task]]]]
    closed: bool = False

    def poll(self, iteration: int):
        if self.closed:
            return ()
        batch = self.callback(iteration)
        if batch is None:
            self.closed = True
            return ()
        return tuple(batch)

    def exhausted_after(self) -> Optional[int]:
        return -1 if self.closed else None


def initial_agent_configuration(state: frozenset, domain: Domain) -> Configuration:
    nop = LabelledTask(NOP_LABEL, Task(NOP_SYMBOL))
    network = TaskNetwork(frozenset((nop,)), frozenset())
    return initial_configuration(network, state, domain)


def check_observable(task: Task, domain: Domain) -> Optional[str]:
    """Why ``task`` falls outside the observed-task stipulation, if it does."""
    return _observation_problem(task, domain)[0]


def _observation_problem(task: Task, domain: Domain) -> tuple[Optional[str], bool]:
    """``check_observable``'s answer, and whether the task cannot be inserted.

    A task that is not ground, names no operator or method, or does not match
    its operator's arity cannot be inserted at all; the other violations
    only break the stipulation.
    """
    if not task.is_ground:
        return f"observed task {task} is not ground", True
    if domain.is_primitive(task.symbol):
        op = domain.operator_for(task)
        if len(task.args) != len(op.params):
            arity = f"{op.symbol}/{len(op.params)}"
            return f"observed task {task} does not match operator {arity}", True
        if op.precondition:
            return f"observed primitive task {task} has a non-empty precondition", False
        return None, False
    if domain.is_nonprimitive(task.symbol):
        if not has_relevant_method(task, domain):
            return f"observed task {task} has no relevant method", False
        return None, False
    return f"observed task {task} has no operator or method", True


def observe(
    config: Configuration,
    tasks: Iterable[tuple[Optional[str], Task]],
    ctx: RunContext,
    strict: bool = False,
    warn: Optional[Callable[[str], None]] = None,
) -> tuple[Configuration, frozenset]:
    """Insert newly observed tasks as top-level tasks.

    Tasks get fresh labels (an explicitly provided label is kept if still
    free) and are added to the network and the top-level couple; the formula
    is untouched.  Stipulation violations are rejected under ``strict`` and
    reported through ``warn`` otherwise.
    """
    labelled = []
    for wanted_label, task in tasks:
        problem, fatal = _observation_problem(task, ctx.domain)
        if problem is not None:
            if strict or fatal:
                raise ObservationError(problem)
            if warn is not None:
                warn(problem)
        label = ctx.gen.label(wanted_label or "t")
        labelled.append(LabelledTask(label, task))
    observed = frozenset(labelled)
    if not observed:
        return config, observed
    ctx.extend_universe(constants_of(observed))
    return with_observed(config, observed), observed


@dataclass
class LoopResult:
    dtrace: Trace
    iterations: int
    stopped_on: str  # "success" | "blocked" | "iterations" | "events-exhausted"


def sra_step(
    config: Configuration,
    iteration: int,
    events: EventSource,
    strategy: Strategy,
    dtrace: Trace,
    ctx: RunContext,
    strict: bool = False,
    warn: Optional[Callable[[str], None]] = None,
) -> Configuration:
    """One loop iteration: sense, then at most one execution step."""
    batch = events.poll(iteration)
    config2, observed = observe(config, batch, ctx, strict=strict, warn=warn)
    if observed:
        dtrace.steps.append(Step(OBSERVATION, config=config2, observed=observed))
    step = strategy_step(config2, strategy, dtrace, ctx)
    return config2 if step is None else step.config


def run_agent(
    state: frozenset,
    domain: Domain,
    events: EventSource,
    strategy: Strategy,
    max_iterations: int = 1000,
    stop_on_success: bool = True,
    strict: bool = False,
    warn: Optional[Callable[[str], None]] = None,
) -> LoopResult:
    """Run the sense-reason-act loop from the initial no-op configuration.

    The loop itself is endless; this driver stops after ``max_iterations``,
    on success (when requested), or once a scripted event source is drained
    and the d-trace cannot move anymore.
    """
    config = initial_agent_configuration(state, domain)
    ctx = make_context(domain, config)
    dtrace = Trace([Step(INITIAL, config=config)], ctx)
    stopped = "iterations"
    iteration = 0
    while iteration < max_iterations:
        config = sra_step(
            config, iteration, events, strategy, dtrace, ctx, strict, warn
        )
        iteration += 1
        if stop_on_success and is_successful(config):
            stopped = "success"
            break
        last_event = events.exhausted_after()
        if last_event is not None and iteration > last_event:
            # nothing more will ever be observed; stop once the trace can no
            # longer move (or the choice script has nothing left to say)
            if is_successful(config):
                stopped = "success"
                break
            if is_trace_blocked(config, ctx):
                stopped = "blocked"
                break
            if strategy.exhausted():
                stopped = "events-exhausted"
                break
    return LoopResult(dtrace, iteration, stopped)


def dtrace_to_trace(dtrace: Trace) -> Trace:
    """Fold observation steps away by propagating observed tasks backwards.

    Every observation step is removed, and its tasks are added to the network
    and top-level couple of every earlier configuration.  One backward pass
    carries the union of the tasks observed later, so each kept step is
    rebuilt at most once.  The result is a plain execution trace of the union
    network under the original initial state, performing the same actions.
    """
    observed_later: frozenset = frozenset()
    steps = []
    for step in reversed(dtrace.steps):
        if step.kind == OBSERVATION:
            observed_later |= step.observed
            continue
        if observed_later:
            step = dc_replace(step, config=with_observed(step.config, observed_later))
        steps.append(step)
    steps.reverse()
    return Trace(steps, dtrace.ctx, dtrace.budget_exhausted)
