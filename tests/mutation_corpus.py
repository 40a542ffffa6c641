"""Valid traces and their one-step mutants: the corpus ``validate_trace`` is
checked against.

``sources()`` gives valid traces from plain, scripted, agent and sampled
runs.  ``mutants(trace)`` forges one recorded step at a time, in every way a
recorded step can be wrong: the mutant is the prefix up to that step, and
its last configuration is what ``apply`` builds from the forged step, so only
the legality of the step itself can give it away.
"""
from __future__ import annotations

from dataclasses import replace as dc_replace

from htnact.acting import (
    ACTION,
    OBSERVATION,
    REDUCTION,
    REPLACEMENT,
    Choice,
    Step,
    apply,
    initial_configuration,
    make_context,
    ordered_alternatives,
)
from htnact.agent import ScriptedEvents, dtrace_to_trace, run_agent
from htnact.constraints import TaskNetwork
from htnact.corpus import corpus
from htnact.domain import Method
from htnact.fixtures import fixture_text
from htnact.model import Constant, LabelledTask, Substitution, Task, Variable
from htnact.reduction import Body, relevant_method_bodies
from htnact.syntax import parse_domain, parse_problem, parse_scenario
from htnact.trace import (
    DefaultStrategy,
    ScriptedStrategy,
    Trace,
    parse_directives,
    run,
    sample_traces,
    validate_trace,
)

TWO_TRANSMITS = (
    "problem two\nstate: didExp(loc1), didExp(loc2), lander(lan1)\n"
    "tasks:\n  A1: transmitData(loc1)\n  A2: transmitData(loc2)\n"
    "constraints:\n  ord A1 < A2\n"
)
TWO_ARRIVALS = "scenario two\n0: A1: transmitData(loc1)\n8: A2: transmitData(loc2)\n"
# samples of 171 and 299 replace completely and partially, and 299 jumps
CORPUS_SEEDS = (0, 2, 5, 171, 299)


def sources() -> list[tuple[str, Trace]]:
    """Valid traces, each under a name that says where it comes from."""
    rover = parse_domain(fixture_text("rover.htn"), "rover").value
    calibrated = parse_problem(fixture_text("rover.prob"), rover).value
    uncalibrated = parse_problem(fixture_text("rover_nocali.prob"), rover).value
    two = parse_problem(TWO_TRANSMITS, rover).value
    walkthrough = parse_scenario(fixture_text("walkthrough.evt"), rover).value
    arrivals = parse_scenario(TWO_ARRIVALS, rover).value

    def plain(problem, strategy) -> Trace:
        cfg = initial_configuration(problem.network, problem.state, rover)
        return run(cfg, strategy)

    def agent(problem, scenario, strategy) -> Trace:
        events = ScriptedEvents(dict(scenario.schedule))
        return run_agent(problem.state, rover, events, strategy).dtrace

    script = parse_directives(fixture_text("walkthrough.choices"))
    agent_script = parse_directives(fixture_text("agent_walkthrough.choices"))
    walkthrough_dtrace = agent(uncalibrated, walkthrough, ScriptedStrategy(agent_script))
    arrivals_dtrace = agent(two, arrivals, DefaultStrategy())
    out = [
        ("rover default", plain(calibrated, DefaultStrategy())),
        ("rover walkthrough", plain(uncalibrated, ScriptedStrategy(script))),
        ("two transmits", plain(two, DefaultStrategy())),
        ("agent walkthrough d-trace", walkthrough_dtrace),
        ("agent walkthrough folded", dtrace_to_trace(walkthrough_dtrace)),
        ("two arrivals d-trace", arrivals_dtrace),
        ("two arrivals folded", dtrace_to_trace(arrivals_dtrace)),
    ]
    for case in [c for seed in CORPUS_SEEDS for c in corpus(1, seed)]:
        cfg = initial_configuration(case.network, case.state, case.domain)
        for index, trace in enumerate(sample_traces(cfg, make_context(case.domain, cfg), 3)):
            out.append((f"corpus {case.seed} sample {index}", trace))
    return out


def mutants(trace: Trace) -> list[tuple[str, int, Trace]]:
    """``(kind, step index, prefix)`` for every forgery of every step."""
    out = []
    steps = trace.steps
    others = _bodies(trace)
    for i in range(1, len(steps)):
        prev, step = steps[i - 1].config, steps[i]
        for kind, forged in _forgeries(prev, step, trace.ctx.gen, others, steps):
            out.append((kind, i, Trace(steps[:i] + [forged], trace.ctx)))
    return out


def problem_lists() -> list[tuple[str, str, int, list[str]]]:
    """``validate_trace``'s problems for each source (kind "valid", index 0)
    and for each of its mutants."""
    out = []
    for name, trace in sources():
        out.append((name, "valid", 0, validate_trace(trace)))
        for kind, index, mutant in mutants(trace):
            out.append((name, kind, index, validate_trace(mutant)))
    return out


def _forgeries(prev, step: Step, gen, others, steps):
    if step.kind == ACTION:
        yield from _action_forgeries(prev, step)
    elif step.kind == REDUCTION:
        yield from _reduction_forgeries(prev, step, gen, others)
    elif step.kind == REPLACEMENT:
        yield "flipped complete flag", dc_replace(step, complete=not step.complete)
        yield "flipped jump flag", dc_replace(step, jump=not step.jump)
        other = next(c for c in prev.sorted_couples() if c != step.couple)
        yield "another couple named", apply(prev, dc_replace(step, couple=other))
    elif step.kind == OBSERVATION:
        elsewhere = [
            s.observed for s in steps if s.kind == OBSERVATION and s.observed != step.observed
        ]
        swapped = elsewhere[0] if elsewhere else frozenset(
            LabelledTask(lt.label + "x", lt.task) for lt in step.observed
        )
        yield "swapped observation", dc_replace(step, observed=swapped)


def _action_forgeries(prev, step: Step):
    def acted(binding: Substitution) -> Step:
        task = prev.network.task_of(step.label).task
        choice = Choice(ACTION, step.label, task.substitute(binding), binding=binding)
        return apply(prev, choice)

    extra = dict(step.binding.items_sorted())
    extra[Variable("Unbound")] = Constant("lan1")
    yield "wrong binding: extra variable", acted(Substitution(extra))
    if step.binding:
        (variable, _), *rest = step.binding.items_sorted()
        outside = dict(rest)
        outside[variable] = Constant("nowhere")
        yield "wrong binding: value outside the universe", acted(Substitution(outside))
    yield "forged action task", dc_replace(step, task=Task("forged", step.task.args))


def _reduction_forgeries(prev, step: Step, gen, others):
    """Forged reductions; a forged body's fresh names come from ``gen``, the
    trace's lineage generator, so they are fresh in the trace too."""
    kept = step.alternatives

    def reduced(body: Body, alternatives) -> Step:
        choice = Choice(REDUCTION, step.label, step.task, body=body, alternatives=alternatives)
        return apply(prev, choice)

    forged = next((b for b in others if b.method != step.body.method), None)
    if forged is not None:
        yield "forged body", reduced(forged, kept)
    held = step.task.variables & step.body.variables
    if held:
        unlinked = Substitution({min(held): Variable("Unlinked")})
        yield "forged body: task variable unlinked", reduced(
            step.body.substitute(unlinked), kept
        )
    # a body is a renaming of its method's template, so a body with a
    # constraint negated is one of a forged method, under the same renaming
    template = step.body.template
    stated = sorted((c for c in template.body.formula if hasattr(c.body, "literal")), key=str)
    if stated:
        flipped = dc_replace(stated[0], negated=not stated[0].negated)
        formula = template.body.formula - {stated[0]} | {flipped}
        method = Method(template.name, template.head, TaskNetwork(template.body.tasks, formula))
        negated = dc_replace(step.body, template=method)
        yield "forged body: constraint negated", reduced(negated, kept)
    if kept:
        yield "dropped alternative", reduced(step.body, kept[1:])
    # the task's bodies drawn again, under names fresh in the trace
    redrawn = {b.index: b for b in relevant_method_bodies(step.task, prev.domain, gen)}
    added = ordered_alternatives(kept + (redrawn[step.body.index],))
    yield "added alternative", reduced(step.body, added)
    # the step records other alternatives than the couple it made keeps: a
    # first one under other fresh names, or one more
    unlike = added
    if kept:
        unlike = (redrawn[kept[0].index],) + kept[1:]
    yield "alternatives unlike the couple's", dc_replace(step, alternatives=unlike)
    taken = sorted(prev.network.labels - {step.label}) or [step.label]
    own = sorted(step.body.labels)
    if own:
        yield "reused label", reduced(renamed(step.body, {own[0]: taken[0]}), kept)
    if own and kept and kept[0].labels:
        first = sorted(kept[0].labels)[0]
        shared = (renamed(kept[0], {first: own[0]}),) + kept[1:]
        yield "label shared by two bodies", reduced(step.body, shared)


def renamed(body: Body, labels: dict, variables: tuple = ()) -> Body:
    """``body`` under the label renaming and the ``(old, new)`` variable-name
    pairs given."""
    theta = Substitution({Variable(a): Variable(b) for a, b in variables})
    fresh = tuple(labels.get(label, label) for label in body.fresh)
    return dc_replace(body.substitute(theta), fresh=fresh)


def _bodies(trace: Trace) -> list[Body]:
    """Every body the trace records, in step order."""
    out = []
    for step in trace.steps:
        if step.body is not None:
            out.append(step.body)
        for couple in step.config.sorted_couples():
            out.extend(couple.alternatives)
    return out
