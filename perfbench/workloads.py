"""The four benchmark workloads.

Each workload has a ``setup(seed)`` that generates its input text and parses
it, and a ``round(inputs, rnd)`` that runs every operation of the workload
once, checks every output and books operations and phase times on ``rnd``.
The program is always called through its module objects (``htnact.trace.run``), so
the traced run sees every call once the module attributes are rebound.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from types import SimpleNamespace

import htnact.acting
import htnact.agent
import htnact.corpus
import htnact.domain
import htnact.export
import htnact.fixtures
import htnact.model
import htnact.oracle
import htnact.syntax
import htnact.trace
import htnact.verify

import inputs
from checks import (
    CheckFailed,
    Simulator,
    check_counter_actions,
    check_export,
    check_rover_recipes,
    ground_task,
    state_atoms,
)

PLAN_DEPTH = 4
EQUIVALENCE_DEPTH = 4
AGENT_GAP = 8


@dataclass
class Round:
    """Bookkeeping for one round: operations, failures and phase times.

    Phase times are wall times net of the speed sampler's own time.
    """

    sampler: object
    on_op: callable = None
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    phase_s: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)

    @contextmanager
    def phase(self, name: str):
        elapsed = []
        with self.sampler.timed(elapsed):
            yield
        self.phase_s[name] = self.phase_s.get(name, 0.0) + elapsed[0]

    def op(self, ident: str) -> None:
        self.attempted += 1
        if self.on_op is not None:
            self.on_op(ident)

    def fail(self, ident: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{ident}: {why}")

    def add_work(self, name: str, amount: float) -> None:
        self.work[name] = self.work.get(name, 0) + amount


def _parsed(result, what: str):
    errors = [str(d) for d in result.diagnostics if d.severity == "error"]
    if errors:
        raise CheckFailed(f"{what} does not parse: {errors[:3]}")
    return result.value


def _actions(trace) -> list:
    return [ground_task(t) for t in trace.actions_performed()]


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _acted_trace(cfg, rnd: Round, what: str):
    """Run the default strategy to success; book the steps taken."""
    rnd.op(f"{what}:act")
    with rnd.phase("act"):
        trace = htnact.trace.run(cfg, htnact.trace.DefaultStrategy())
    _expect(trace.classification() == "successful", f"{what} run is not successful")
    rnd.add_work("act_steps", len(trace.steps) - 1)
    return trace


def _validated(trace, rnd: Round, what: str, phase: str) -> None:
    rnd.op(f"{what}:{phase}")
    with rnd.phase(phase):
        problems = htnact.trace.validate_trace(trace)
    _expect(not problems, f"{what} trace does not validate: {problems[:2]}")
    rnd.add_work(f"{phase}_steps", len(trace.steps) - 1)


def _exported(trace, domain_name: str, rnd: Round, what: str) -> None:
    rnd.op(f"{what}:export")
    with rnd.phase("export"):
        text = htnact.export.render_trace(trace, domain_name)
    check_export(text, len(trace.steps), _actions(trace))
    rnd.add_work("export_mb", len(text.encode()) / 1e6)


# -- rover-wide ------------------------------------------------------------------

def setup_wide(seed: int):
    domain_text = htnact.fixtures.fixture_text("rover.htn")
    problem_text, locations, lander = inputs.wide_problem(seed)
    domain = _parsed(htnact.syntax.parse_domain(domain_text), "rover domain")
    problem = _parsed(htnact.syntax.parse_problem(problem_text, domain), "wide problem")
    scenario = _parsed(
        htnact.syntax.parse_scenario(inputs.wide_scenario(locations, AGENT_GAP), domain),
        "arrival scenario",
    )
    return SimpleNamespace(
        domain=domain, problem=problem, schedule=dict(scenario.schedule),
        locations=locations, lander=lander, sim=Simulator(domain_text),
    )


def round_wide(x, rnd: Round) -> None:
    cfg = htnact.acting.initial_configuration(x.problem.network, x.problem.state, x.domain)
    trace = _acted_trace(cfg, rnd, "wide")
    actions = _actions(trace)
    x.sim.replay(state_atoms(x.problem.state), actions)
    check_rover_recipes(actions, x.locations, x.lander)
    _validated(trace, rnd, "wide", "validate")
    _exported(trace, x.domain.name, rnd, "wide")

    rnd.op("wide:agent")
    with rnd.phase("agent"):
        outcome = htnact.agent.run_agent(
            x.problem.state, x.domain, htnact.agent.ScriptedEvents(x.schedule),
            htnact.trace.DefaultStrategy(),
            max_iterations=AGENT_GAP * (len(x.locations) + 2),
            stop_on_success=False,
        )
    dtrace = outcome.dtrace
    _expect(outcome.stopped_on == "success", f"agent loop stopped on {outcome.stopped_on}")
    steps = dtrace.steps
    late = [
        i for i in range(2, len(steps))
        if steps[i].kind == htnact.acting.OBSERVATION and steps[i - 1].config.network.tasks
    ]
    _expect(not late, f"a task arrived before the previous recipe ended (step {late[:1]})")
    rnd.add_work("agent_iterations", outcome.iterations)
    agent_actions = _actions(dtrace)
    x.sim.replay(state_atoms(x.problem.state), agent_actions)
    check_rover_recipes(agent_actions, x.locations, x.lander, leading_nop=True)

    rnd.op("wide:fold")
    with rnd.phase("fold"):
        folded = htnact.agent.dtrace_to_trace(dtrace)
        problems = htnact.trace.validate_trace(folded)
    _expect(not problems, f"folded agent trace does not validate: {problems[:2]}")
    _expect(_actions(folded) == agent_actions, "folded trace performs other actions")
    _expect(
        all(s.kind != htnact.acting.OBSERVATION for s in folded.steps),
        "observation steps survived the fold",
    )
    rnd.add_work("fold_steps", len(folded.steps) - 1)


# -- recursion-deep ---------------------------------------------------------------

def setup_deep(seed: int):
    problem_text, counters = inputs.deep_problem(seed)
    domain = _parsed(htnact.syntax.parse_domain(inputs.COUNTER_DOMAIN), "counter domain")
    problem = _parsed(htnact.syntax.parse_problem(problem_text, domain), "deep problem")
    return SimpleNamespace(
        domain=domain, problem=problem, counters=counters,
        sim=Simulator(inputs.COUNTER_DOMAIN),
    )


def round_deep(x, rnd: Round) -> None:
    cfg = htnact.acting.initial_configuration(x.problem.network, x.problem.state, x.domain)
    trace = _acted_trace(cfg, rnd, "deep")
    k = len(x.counters) - 1
    _expect(len(trace.steps) - 1 == 3 * k + 4, f"recursion took {len(trace.steps) - 1} steps")
    actions = _actions(trace)
    check_counter_actions(actions, x.counters)
    x.sim.replay(state_atoms(x.problem.state), actions)
    _validated(trace, rnd, "deep", "validate")
    _exported(trace, x.domain.name, rnd, "deep")


# -- corpus-verify -----------------------------------------------------------------

def _case_names(case) -> set:
    """Constants, predicate and task symbols of a corpus case (nop excepted)."""
    model = htnact.model
    domain = case.domain
    names = {c.name for c in domain.constants | model.constants_of(case.network)}
    names |= {c.name for c in model.constants_of(case.state)}
    names |= {a.symbol for a in case.state}
    for op in domain.operators:
        names.add(op.symbol)
        names |= {l.atom.symbol for l in op.precondition}
        names |= {a.symbol for a in op.add + op.delete}
    for m in domain.methods:
        names.add(m.head.symbol)
        for c in m.body.formula:
            literal = getattr(c.body, "literal", None)
            if literal is not None:
                names.add(literal.atom.symbol)
    for batch in case.schedule.values():
        for _, task in batch:
            names.add(task.symbol)
            names |= {c.name for c in model.constants_of(task)}
    names.discard(htnact.domain.NOP_SYMBOL)
    return names


def _case_texts(case) -> tuple[str, str, str]:
    syntax = htnact.syntax
    problem = syntax.Problem(f"case{case.seed}", case.state, case.network)
    scenario = syntax.Scenario("events", dict(case.schedule))
    return (
        syntax.render_domain(case.domain),
        syntax.render_problem(problem),
        syntax.render_scenario(scenario),
    )


def _parse_case(seed: int, texts) -> SimpleNamespace:
    domain_text, problem_text, scenario_text = texts
    domain = _parsed(htnact.syntax.parse_domain(domain_text), "corpus domain")
    problem = _parsed(htnact.syntax.parse_problem(problem_text, domain), "corpus problem")
    scenario = _parsed(htnact.syntax.parse_scenario(scenario_text, domain), "corpus scenario")
    case = htnact.corpus.CorpusCase(
        seed, domain, problem.network, problem.state, dict(scenario.schedule)
    )
    return SimpleNamespace(case=case, sim=Simulator(domain_text))


def corpus_texts(seed: int) -> list[tuple[int, tuple[str, str, str]]]:
    """The frozen corpus slices as text, symbols renamed by the seed."""
    suffix = f"_s{seed}"
    drawn = htnact.corpus.corpus(inputs.CORPUS_CASES, inputs.CORPUS_START)
    drawn += htnact.corpus.corpus(
        inputs.SCHEDULED_CASES, inputs.SCHEDULED_START, with_schedule=True
    )
    out = []
    for case in drawn:
        names = _case_names(case)
        texts = tuple(inputs.rename_symbols(t, names, suffix) for t in _case_texts(case))
        out.append((case.seed, texts))
    return out


def setup_corpus(seed: int):
    parsed = [_parse_case(case_seed, texts) for case_seed, texts in corpus_texts(seed)]
    split = inputs.CORPUS_CASES
    return SimpleNamespace(plain=parsed[:split], scheduled=parsed[split:])


def check_corpus_renaming(x, seed: int) -> None:
    """Renamed text parses back to the same structure it was rendered from."""
    texts = dict(corpus_texts(seed))
    for p in x.plain + x.scheduled:
        again = _case_texts(p.case)
        if again != texts[p.case.seed]:
            raise CheckFailed(f"corpus case {p.case.seed} does not round-trip")


def _simulated(sim: Simulator, state, sequences) -> None:
    start = state_atoms(state)
    for sequence in sequences:
        sim.replay(start, [ground_task(t) for t in sequence])


def round_corpus(x, rnd: Round) -> None:
    for p in x.plain:
        c = p.case
        ident = f"case{c.seed}"
        rnd.op(f"{ident}:equivalence")
        with rnd.phase("equivalence"):
            acted = htnact.verify.acting_solution_set(c.network, c.state, c.domain)
            planned = htnact.oracle.solutions_bounded(
                c.network, c.state, c.domain, EQUIVALENCE_DEPTH
            )
        _expect(acted == planned, f"{ident}: acted and planned solutions differ")
        _simulated(p.sim, c.state, planned)
        rnd.add_work("equivalence_cases", 1)

        rnd.op(f"{ident}:extendability")
        with rnd.phase("extendability"):
            problem = htnact.verify.check_extendability(c.network, c.state, c.domain)
        if problem is not None:
            rnd.fail(f"{ident}:extendability", problem)
        rnd.add_work("extendability_cases", 1)

        with rnd.phase("elimination"):
            traces = htnact.verify.traces_with_complete_replacements(c)
        for index, trace in enumerate(traces):
            rnd.op(f"{ident}:elimination{index}")
            with rnd.phase("elimination"):
                try:
                    problem = htnact.verify.check_elimination(trace)
                except htnact.trace.TraceError as exc:
                    problem = f"TraceError: {exc}"
            if problem is not None:
                rnd.fail(f"{ident}:elimination{index}", problem)
            rnd.add_work("elimination_traces", 1)
    for p in x.scheduled:
        ident = f"scheduled{p.case.seed}"
        rnd.op(f"{ident}:dtrace")
        with rnd.phase("dtrace"):
            problem = htnact.verify.check_dtrace_soundness(p.case)
        if problem is not None:
            rnd.fail(f"{ident}:dtrace", problem)
        rnd.add_work("dtrace_cases", 1)


# -- rover-plan ------------------------------------------------------------------

def setup_plan(seed: int):
    domain_text = htnact.fixtures.fixture_text("rover.htn")
    domain = _parsed(htnact.syntax.parse_domain(domain_text), "rover domain")
    problems = [
        _parsed(htnact.syntax.parse_problem(text, domain), "plan problem")
        for text in inputs.plan_problems(seed)
    ]
    return SimpleNamespace(domain=domain, problems=problems, sim=Simulator(domain_text))


def round_plan(x, rnd: Round) -> None:
    for index, problem in enumerate(x.problems):
        ident = f"plan{index}"
        rnd.op(f"{ident}:plan")
        with rnd.phase("plan"):
            planned = htnact.oracle.solutions_bounded(
                problem.network, problem.state, x.domain, PLAN_DEPTH
            )
        rnd.op(f"{ident}:explore")
        with rnd.phase("explore"):
            acted = htnact.verify.acting_solution_set(problem.network, problem.state, x.domain)
        _expect(planned, f"{ident}: no planned solution")
        _expect(acted == planned, f"{ident}: acted and planned solutions differ")
        _simulated(x.sim, problem.state, planned)
        rnd.add_work("problems", 1)


@dataclass(frozen=True)
class Workload:
    name: str
    setup: callable
    round: callable
    # phase -> (work counter, printed name) for the per-phase lines
    rates: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload("rover-wide", setup_wide, round_wide, {
            "act": ("act_steps", "act_steps_per_s"),
            "validate": ("validate_steps", "validate_steps_per_s"),
            "export": ("export_mb", "export_mb_per_s"),
            "agent": ("agent_iterations", "agent_iterations_per_s"),
            "fold": ("fold_steps", "dtrace_check_steps_per_s"),
        }),
        Workload("recursion-deep", setup_deep, round_deep, {
            "act": ("act_steps", "act_steps_per_s"),
            "validate": ("validate_steps", "validate_steps_per_s"),
            "export": ("export_mb", "export_mb_per_s"),
        }),
        Workload("corpus-verify", setup_corpus, round_corpus, {
            "equivalence": ("equivalence_cases", "equivalence_cases_per_s"),
            "extendability": ("extendability_cases", "extendability_cases_per_s"),
            "elimination": ("elimination_traces", "elimination_traces_per_s"),
            "dtrace": ("dtrace_cases", "dtrace_cases_per_s"),
        }),
        Workload("rover-plan", setup_plan, round_plan, {
            "plan": ("problems", "plan_s"),
            "explore": ("problems", "explore_s"),
        }),
    )
}

