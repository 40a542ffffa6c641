"""Bindings are simultaneous maps: each variable takes its own term, once.

Two places bind variables to other variables: an operator's parameters take
its task's arguments, and a reduced task's method body takes the match of
the head plus fresh names for its own variables.  A binding that resolved
chains would let one variable of such a map capture another.
"""
from __future__ import annotations

from htnact.acting import REDUCTION, exec_all, initial_configuration, make_context
from htnact.cli import main
from htnact.model import Atom, Constant, Literal, Task, Variable
from htnact.syntax import parse_domain, parse_problem
from htnact.verify import acting_solution_set, check_equivalence

X, Y, Z = Variable("X"), Variable("Y"), Variable("Z")
c1, c2 = Constant("c1"), Constant("c2")

PERMUTING_DOMAIN = """
domain permuting
operator a(X, Y)
  pre: p(X), q(Y)
  add:
  del:
"""

PERMUTING_PROBLEM = """
problem permuting
state: p(c1), q(c2)
tasks:
  T1: a(Y, X)
"""

CAPTURING_DOMAIN = """
domain capturing
operator a(A, B)
  pre:
  add:
  del:
operator b(A)
  pre:
  add:
  del:
method m top(X_2)
  tasks:
    1: a(X, X_2)
    2: nop
  constraints:
    ord 1 < 2
"""

CAPTURING_PROBLEM = """
problem capturing
state: s(c2)
tasks:
  T1: top(c1)
  T2: b(X)
"""


def precondition(domain, task: Task) -> tuple:
    return domain.operator_for(task).instantiate(task)[0]


def lit(symbol: str, term) -> Literal:
    return Literal(Atom(symbol, (term,)))


def test_operator_arguments_that_permute_its_parameters():
    domain = parse_domain(PERMUTING_DOMAIN).value
    problem = parse_problem(PERMUTING_PROBLEM, domain).value
    assert precondition(domain, Task("a", (Y, X))) == (lit("p", Y), lit("q", X))
    assert precondition(domain, Task("a", (Y, Z))) == (lit("p", Y), lit("q", Z))
    acted = acting_solution_set(problem.network, problem.state, domain)
    assert acted == frozenset({(Task("a", (c1, c2)),)})
    assert check_equivalence(problem.network, problem.state, domain, 2) is None


def test_fresh_names_are_not_captured_by_the_head_binding(tmp_path, capsys):
    domain = parse_domain(CAPTURING_DOMAIN).value
    problem = parse_problem(CAPTURING_PROBLEM, domain).value
    cfg = initial_configuration(problem.network, problem.state, domain)
    (reduction,) = [c for c in exec_all(cfg, make_context(domain, cfg)) if c.kind == REDUCTION]
    (body_a,) = [lt.task for lt in reduction.body.network.tasks if lt.task.symbol == "a"]
    assert body_a == Task("a", (Variable("X_2"), c1))

    paths = []
    for name, text in (("capturing.htn", CAPTURING_DOMAIN), ("capturing.prob", CAPTURING_PROBLEM)):
        paths.append(tmp_path / name)
        paths[-1].write_text(text)
    assert main(["plan", *map(str, paths), "--depth", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "solutions: 12"
    assert "a(c2, c1) . b(c1) . nop" in lines
    assert check_equivalence(problem.network, problem.state, domain, 2) is None
