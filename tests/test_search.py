"""Exhaustive acting with the order of reductions fixed.

``successful_action_sequences`` follows only the reductions of one task where
the ``trace`` module docstring allows it; ``search_reference`` folds over
every execution.  The two must give the same sets, and the narrowed search
must expand fewer configurations where tasks can be reduced independently.
``verify.acting_solution_set`` also drops complete replacements, and must
still find what the reference finds with them.
A search keys each successor once, and the configurations it expands do not
depend on string hashing.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import htnact
from htnact import acting as acting_module
from htnact import trace as trace_module
from htnact.acting import (
    ACTION,
    REDUCTION,
    REPLACEMENT,
    apply,
    initial_configuration,
    is_successful,
    make_context,
)
from htnact.corpus import corpus
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import canonical_key, reachable, successful_action_sequences
from htnact.verify import acting_solution_set
from key_reference import network_fingerprint
from search_reference import reference_action_sequences


def transmits(rover, count: int, calibrated: bool = True):
    """``count`` unordered ``transmitData`` tasks, each with its experiment done."""
    locations = [f"loc{i}" for i in range(1, count + 1)]
    facts = ["raw", *(["cali"] if calibrated else [])]
    facts += [*(f"didExp({loc})" for loc in locations), "lander(lan1)"]
    tasks = "".join(
        f"  {chr(ord('A') + i)}: transmitData({loc})\n" for i, loc in enumerate(locations)
    )
    text = f"problem transmits\nstate: {', '.join(facts)}\ntasks:\n{tasks}"
    return parse_problem(text, rover).value


def both(problem, domain, **flags):
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    narrowed = successful_action_sequences(cfg0, make_context(domain, cfg0), **flags)
    reference = reference_action_sequences(cfg0, make_context(domain, cfg0), **flags)
    return narrowed, reference


@pytest.mark.parametrize("allow_partial", [True, False])
def test_narrowed_search_equals_the_reference_on_rover(
    rover, rover_problem, rover_nocali, allow_partial
):
    problems = [rover_problem, rover_nocali]
    if not allow_partial:  # with partial replacements, the node count test below
        problems.append(transmits(rover, 2))
    for problem in problems:
        narrowed, reference = both(problem, rover, allow_partial=allow_partial)
        assert narrowed == reference and narrowed


def test_narrowed_search_equals_the_reference_on_a_corpus_slice():
    found = 0
    for case in corpus(40, 0):
        for allow_partial in (True, False):
            narrowed, reference = both(
                case, case.domain, allow_partial=allow_partial
            )
            assert narrowed == reference
            found += bool(narrowed)
    assert found > 20


def counted(monkeypatch, search, problem, domain, **flags):
    """What ``search`` finds from ``problem``'s initial configuration, and
    how many configurations it expands."""
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    nodes = []
    real_exec_all = trace_module.exec_all

    def counted_exec_all(*args, **kwargs):
        nodes.append(1)
        return real_exec_all(*args, **kwargs)

    monkeypatch.setattr(trace_module, "exec_all", counted_exec_all)
    found = search(cfg0, make_context(domain, cfg0), **flags)
    monkeypatch.undo()
    return found, len(nodes)


def test_two_transmits_expand_fewer_nodes(monkeypatch, rover):
    problem = transmits(rover, 2)
    narrowed, narrowed_nodes = counted(
        monkeypatch, successful_action_sequences, problem, rover
    )
    reference, nodes = counted(monkeypatch, reference_action_sequences, problem, rover)
    assert narrowed == reference and len(narrowed) == 20
    assert narrowed_nodes < nodes
    assert (narrowed_nodes, nodes) == (372, 437)


# -- without complete replacements -------------------------------------------------

def test_acting_solution_set_equals_the_full_reference(rover, rover_problem, rover_nocali):
    """``acting_solution_set`` drops complete replacements and follows the
    ample set; the reference keeps them and expands every execution.  Equal
    sets check that the ample set, the cycle proviso and the dropped
    replacements compose."""
    problems = [
        rover_problem,
        rover_nocali,
        transmits(rover, 2),
        transmits(rover, 2, calibrated=False),
    ]
    starts = [(problem, rover) for problem in problems]
    starts += [(case, case.domain) for case in corpus(40, 0)]
    found = 0
    for problem, domain in starts:
        cfg0 = initial_configuration(problem.network, problem.state, domain)
        reference = reference_action_sequences(
            cfg0, make_context(domain, cfg0), allow_partial=False, allow_complete=True
        )
        acted = acting_solution_set(problem.network, problem.state, domain)
        assert acted == reference
        found += bool(acted)
    assert found > 20


@pytest.mark.parametrize(
    "calibrated, sequences, nodes", [(False, 20, (1120, 101)), (True, 10, (304, 58))]
)
def test_dropping_complete_replacements_expands_fewer_nodes(
    monkeypatch, rover, calibrated, sequences, nodes
):
    """Two transmits, partial-replacement-free: with complete replacements
    and without, the same sequences from a tenth to a fifth of the nodes."""
    problem = transmits(rover, 2, calibrated)
    full, full_nodes = counted(
        monkeypatch, successful_action_sequences, problem, rover,
        allow_partial=False, allow_complete=True,
    )
    narrowed, narrowed_nodes = counted(
        monkeypatch, successful_action_sequences, problem, rover,
        allow_partial=False, allow_complete=False,
    )
    assert narrowed == full and len(narrowed) == sequences
    assert (full_nodes, narrowed_nodes) == nodes


def test_a_search_that_follows_no_replacement_builds_none(monkeypatch, rover):
    """``acting_solution_set`` follows no replacement, so no node of its
    search builds a replacement choice; a search that follows complete ones
    still builds them."""
    built = []
    real_exec_via_replacement = acting_module.exec_via_replacement

    def counted_exec_via_replacement(*args, **kwargs):
        built.append(1)
        return real_exec_via_replacement(*args, **kwargs)

    monkeypatch.setattr(acting_module, "exec_via_replacement", counted_exec_via_replacement)
    problem = transmits(rover, 2, calibrated=False)
    acted = acting_solution_set(problem.network, problem.state, rover)
    assert len(acted) == 20 and built == []
    cfg0 = initial_configuration(problem.network, problem.state, rover)
    full = successful_action_sequences(
        cfg0, make_context(rover, cfg0), allow_partial=False, allow_complete=True
    )
    assert full == acted and built


# -- keys -------------------------------------------------------------------------

@pytest.mark.parametrize(
    "narrow", [lambda choices: choices, trace_module._ample], ids=["full", "ample"]
)
def test_a_search_keys_each_successor_edge_once(monkeypatch, rover, narrow):
    """``reachable`` keys the start and each successor it builds, once each:
    one ``canonical_key`` call per edge into a configuration that is not
    successful, plus one for the start, and every key it yields equals
    ``canonical_key`` recomputed."""
    starts = [(transmits(rover, 2), rover)] + [(case, case.domain) for case in corpus(30, 0)]
    calls = []

    def counted_key(cfg):
        calls.append(1)
        return canonical_key(cfg)

    monkeypatch.setattr(trace_module, "canonical_key", counted_key)
    nodes = []
    for problem, domain in starts:  # every execution allowed
        cfg0 = initial_configuration(problem.network, problem.state, domain)
        nodes += reachable(cfg0, make_context(domain, cfg0), narrow=narrow)
    monkeypatch.undo()
    keyed_edges = 0  # edges into a configuration that is not successful
    for cfg, key, choices, successors in nodes:
        assert key == canonical_key(cfg)
        assert len(successors) == len(choices)
        for choice, successor in zip(choices, successors):
            nxt = apply(cfg, choice).config
            assert successor == (None if is_successful(nxt) else canonical_key(nxt))
        keyed_edges += sum(successor is not None for successor in successors)
    assert len(nodes) > 300
    assert len(calls) == keyed_edges + len(starts)


SEARCH_NODES_SCRIPT = r"""
import json
from htnact import trace
from htnact.acting import initial_configuration, make_context
from htnact.corpus import corpus
from htnact.fixtures import fixture_text
from htnact.syntax import parse_domain
from test_search import transmits

expanded = []
real_exec_all = trace.exec_all

def counted_exec_all(*args, **kwargs):
    expanded[-1] += 1
    return real_exec_all(*args, **kwargs)

trace.exec_all = counted_exec_all
rover = parse_domain(fixture_text("rover.htn"), "rover").value
starts = [(transmits(rover, 2), rover)] + [(case, case.domain) for case in corpus(30, 0)]
for problem, domain in starts:  # every replacement allowed
    expanded.append(0)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    trace.successful_action_sequences(cfg0, make_context(domain, cfg0))
print(json.dumps(expanded))
"""


def test_search_node_counts_do_not_depend_on_string_hashing():
    tests = Path(__file__).parent
    path = os.pathsep.join((str(Path(htnact.__file__).parents[1]), str(tests)))
    outputs = set()
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", SEARCH_NODES_SCRIPT],
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.add(done.stdout)
    assert len(outputs) == 1
    counts = json.loads(outputs.pop())
    assert len(counts) == 31 and counts[0] == 372


# -- where the order of reductions cannot be fixed -------------------------------

EMPTY_BODY_DOMAIN = """\
domain skip

operator a
  pre:
  add: p
  del:

method m1 tt
  tasks:
"""


def test_a_task_with_an_empty_body_is_not_reduced_first():
    """Reducing ``T`` to nothing makes ``after T p`` bind the next action at
    once; reduced after ``a``, it binds nothing.  So ``T`` may not be
    reduced ahead of ``a``, and the search expands the node in full."""
    domain = parse_domain(EMPTY_BODY_DOMAIN, "skip").value
    problem = parse_problem(
        "problem skip\nstate:\ntasks:\n  T: tt\n  A: a\nconstraints:\n  after T p\n",
        domain,
    ).value
    narrowed, reference = both(problem, domain)
    assert [[str(task) for task in seq] for seq in narrowed] == [["a"]]
    assert narrowed == reference


OUTSIDE_LABEL_DOMAIN = """\
domain outside

operator a
  pre:
  add: p
  del:

operator b
  pre:
  add:
  del:

method m1 tt
  tasks:
    1: b
  constraints:
    after 9 p
"""


def test_a_task_whose_body_names_an_outside_label_is_not_reduced_first():
    """No task of the body holds label 9, so once ``T`` is reduced
    ``after 9 p`` reads as done and binds the next action: ``b`` cannot
    start until ``a`` has made ``p`` true."""
    domain = parse_domain(OUTSIDE_LABEL_DOMAIN, "outside").value
    text = "problem outside\nstate:\ntasks:\n  T: tt\n  A: a\n"
    problem = parse_problem(text, domain).value
    narrowed, reference = both(problem, domain)
    assert [[str(task) for task in seq] for seq in narrowed] == [["a", "b"]]
    assert narrowed == reference


LOOP_DOMAIN = """\
domain loop

operator a
  pre:
  add:
  del:

operator b
  pre:
  add:
  del:

method m1 tt
  tasks:
    1: uu

method m2 uu
  tasks:
    1: tt

method m3 uu
  tasks:
    1: b
"""


def network_and_state_key(cfg) -> str:
    """A key that forgets the couples.  Without replacements only the network
    and the state decide the sequences, and under this key reducing ``tt``
    and then ``uu`` returns to the key the walk started from."""
    atoms = " ".join(sorted(atom.text for atom in cfg.state))
    return f"{network_fingerprint(cfg.network)}@{atoms}"


def test_the_cycle_proviso_expands_a_node_whose_reduction_recurs(monkeypatch):
    monkeypatch.setattr(trace_module, "canonical_key", network_and_state_key)
    domain = parse_domain(LOOP_DOMAIN, "loop").value
    text = "problem loop\nstate:\ntasks:\n  T: tt\n  A: a\n"
    problem = parse_problem(text, domain).value
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    flags = dict(allow_partial=False, allow_complete=False)

    # the start and the node after reducing tt; at the second, uu's reduction
    # with m2 leads back to the start, which is still open
    expanded = {
        str(cfg.network): {choice.kind for choice in choices}
        for cfg, _, choices, _ in reachable(
            cfg0,
            make_context(domain, cfg0),
            lambda choice: choice.kind != REPLACEMENT,
            trace_module._ample,
        )
    }
    assert expanded[str(cfg0.network)] == {REDUCTION}
    recurring = [
        kinds for network, kinds in expanded.items() if "uu" in network and "a" in network
    ]
    assert recurring == [{REDUCTION, ACTION}]

    narrowed, reference = both(problem, domain, **flags)
    assert sorted(" ".join(map(str, seq)) for seq in narrowed) == ["a b", "b a"]
    assert narrowed == reference
