"""Acting over hierarchical task networks.

The package couples an execution semantics for task networks (interleaved
reduction, action execution and failure-recovery replacement) with a
forward-search planning oracle, a continual sense-reason-act loop for exogenous
tasks, textual formats for domains and problems, and verification suites for
the formal properties relating acting to planning.
"""
from .acting import (
    ACTION,
    INITIAL,
    OBSERVATION,
    REDUCTION,
    REPLACEMENT,
    Choice,
    Configuration,
    ReductionCouple,
    RunContext,
    Step,
    action_result,
    applicable_substitutions,
    apply,
    exec_all,
    exec_via_action,
    exec_via_reduction,
    exec_via_replacement,
    initial_configuration,
    is_applicable,
    is_blocked,
    is_successful,
    is_trace_blocked,
    make_context,
    primary_tasks,
    realised_constraints,
    relevant_constraints,
    replace_tasks,
    smallest_replaceable,
    update_couples,
)
from .agent import (
    CallbackEvents,
    EventSource,
    ScriptedEvents,
    dtrace_to_trace,
    observe,
    run_agent,
    sra_step,
)
from .constraints import (
    After,
    Before,
    Between,
    Constraint,
    FirstRef,
    LabelRef,
    LastRef,
    Ordering,
    TaskNetwork,
    holds,
)
from .domain import (
    Domain,
    Method,
    Operator,
    ValidationReport,
    fresh_rename,
    make_domain,
    validate_domain,
)
from .model import (
    Atom,
    Constant,
    LabelledTask,
    Literal,
    NameGenerator,
    Substitution,
    Task,
    Variable,
    match_task,
    substitute,
)
from .oracle import completions, solutions_bounded
from .reduction import Body, reduce_task, relevant_method_bodies
from .syntax import (
    Problem,
    Scenario,
    parse_domain,
    parse_problem,
    parse_scenario,
    parse_task,
)
from .trace import (
    DefaultStrategy,
    Directive,
    RandomStrategy,
    ScriptedStrategy,
    Strategy,
    Trace,
    eliminate_complete_replacements,
    parse_directives,
    run,
    validate_trace,
)

__version__ = "0.1.0"
