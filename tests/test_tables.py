"""Successors and keys built from a search's component tables.

``reachable`` builds each successor out of parts its context's tables hold
(``acting.ComponentTables``) and keys it by its network, state and couples.
On every edge the walk takes, the successor must equal ``apply`` run with
fresh tables, and its key a ``canonical_key`` computed on a network that has
cached nothing.  The node counts and the sequences found are pinned at fixed
inputs.
"""
from __future__ import annotations

import hashlib
from dataclasses import replace as dc_replace

from htnact import trace as trace_module
from htnact.acting import ACTION, apply, initial_configuration, is_successful, make_context
from htnact.corpus import corpus
from htnact.syntax import parse_domain, parse_problem
from htnact.trace import canonical_key, successful_action_sequences
from test_search import transmits


def parts(cfg) -> tuple:
    return (cfg.network, cfg.state, cfg.couples)


def digest(sequences) -> str:
    text = "\n".join(sorted(" ".join(map(str, seq)) for seq in sequences))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def walked(monkeypatch, problem, domain):
    """Search ``problem`` with every replacement allowed; return the edges
    the walk applied, the tables, the keys it computed per (network, state,
    couples), the node count and the sequences."""
    edges, nodes, keys = [], [], {}
    real_successor, real_exec_all = trace_module.successor, trace_module.exec_all
    real_key = trace_module.canonical_key

    def recording_successor(cfg, choice, ctx=None):
        nxt = real_successor(cfg, choice, ctx)
        edges.append((cfg, choice, nxt))
        return nxt

    def counted_exec_all(*args, **kwargs):
        nodes.append(1)
        return real_exec_all(*args, **kwargs)

    def recorded_key(cfg):
        key = keys[(cfg.network, cfg.state, cfg.couples)] = real_key(cfg)
        return key

    monkeypatch.setattr(trace_module, "successor", recording_successor)
    monkeypatch.setattr(trace_module, "exec_all", counted_exec_all)
    monkeypatch.setattr(trace_module, "canonical_key", recorded_key)
    cfg0 = initial_configuration(problem.network, problem.state, domain)
    ctx = make_context(domain, cfg0)
    sequences = successful_action_sequences(cfg0, ctx)
    monkeypatch.undo()
    return edges, ctx.tables, keys, len(nodes), sequences


def check_edges(edges, keys) -> None:
    for cfg, choice, nxt in edges:
        fresh = apply(cfg, choice).config
        assert parts(nxt) == parts(fresh)
        if not is_successful(nxt):
            uncached = dc_replace(fresh, network=dc_replace(fresh.network))
            key = keys[(nxt.network, nxt.state, nxt.couples)]
            assert key == canonical_key(uncached)


def test_rover_two_transmits_walk_matches_fresh_successors_and_keys(
    monkeypatch, rover
):
    edges, tables, keys, nodes, sequences = walked(
        monkeypatch, transmits(rover, 2), rover
    )
    # the hook saw the walk: every node but the first was built by it
    assert len(edges) >= nodes - 1
    check_edges(edges, keys)
    actions = sum(choice.kind == ACTION for _, choice, _ in edges)
    # the tables reuse parts: fewer networks and states built than actions
    assert len(tables.networks) < actions and len(tables.states) < actions
    assert (nodes, len(sequences), digest(sequences)) == (372, 20, "30a43796025a")


ESCAPE_DOMAIN = """\
domain escape

operator mk
  pre:
  add: q
  del:

operator rm
  pre:
  add:
  del: q

operator a
  pre:
  add:
  del:

operator go(X)
  pre: !at(X)
  add: at(X)
  del:

operator back(X)
  pre: at(X)
  add:
  del:
"""

ESCAPE_PROBLEM = """\
problem escape
state: at(home), spot(x), spot(y)
tasks:
  1: mk
  2: rm
  3: a
  4: go(Z)
  5: back(Z)
constraints:
  ord 1 < 3
  ord 2 < 3
  ord 4 < 5
  not between 3 q 5
"""


def test_escapes_and_open_variables_take_their_part_of_the_key(monkeypatch):
    """``a`` acts on one network from two states, ``mk . rm`` and ``rm . mk``,
    and escapes the negated between only from the first; ``go(Z)`` acts on
    one network under two bindings.  Both network parts must differ."""
    domain = parse_domain(ESCAPE_DOMAIN, "escape").value
    problem = parse_problem(ESCAPE_PROBLEM, domain).value
    edges, _, keys, nodes, sequences = walked(monkeypatch, problem, domain)
    assert len(edges) >= nodes - 1
    check_edges(edges, keys)
    assert (nodes, len(sequences), digest(sequences)) == (31, 32, "3b6c2e6cecde")


# case 12 holds two unordered tasks ``a1(c2)``: acting either leaves a
# configuration that differs from the other in the surviving label alone,
# and keys compare labels, so both are expanded (3 nodes, not 2)
CORPUS_NODES = [12, 1, 2, 30, 7, 1, 1, 7, 1, 17, 5, 40, 3, 6, 45, 1, 15, 1, 20, 260]
CORPUS_SEQUENCES = [0, 0, 1, 12, 0, 1, 0, 0, 0, 0, 0, 2, 0, 0, 41, 0, 6, 0, 4, 0]


def test_corpus_walks_match_fresh_successors_and_keys(monkeypatch):
    nodes, counts, digests = [], [], []
    for case in corpus(20, 100000):
        edges, _, keys, expanded, sequences = walked(monkeypatch, case, case.domain)
        assert len(edges) >= expanded - 1
        check_edges(edges, keys)
        nodes.append(expanded)
        counts.append(len(sequences))
        digests.append(digest(sequences))
    assert nodes == CORPUS_NODES and counts == CORPUS_SEQUENCES
    combined = hashlib.sha256("\n".join(digests).encode()).hexdigest()[:12]
    assert combined == "4f6f38803bc9"
