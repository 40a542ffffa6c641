from __future__ import annotations

from pathlib import Path

import pytest

from htnact import trace as trace_module
from htnact import verify as verify_module
from htnact.cli import main
from htnact.fixtures import fixture_path
from htnact.oracle import solutions_bounded
from htnact.syntax import parse_domain, parse_problem
from htnact.verify import acting_solution_set

DATA = Path(__file__).parent / "data"

ROVER = str(fixture_path("rover.htn"))
ROVER_JUMP = str(fixture_path("rover_jump.htn"))
PROB = str(fixture_path("rover.prob"))
PROB_NOCALI = str(fixture_path("rover_nocali.prob"))
EVT = str(fixture_path("walkthrough.evt"))
CHOICES = str(fixture_path("walkthrough.choices"))
AGENT_CHOICES = str(fixture_path("agent_walkthrough.choices"))

WALKTHROUGH_TARGET = (
    "calibrate . moveCams . monitor . estabConn . "
    "extData(loc1) . sendExtData(loc1) . breakConn"
)


def test_act_scripted_walkthrough_matches_golden(tmp_path, capsys):
    out = tmp_path / "trace.txt"
    code = main(
        ["act", ROVER, PROB_NOCALI, "--strategy", f"script:{CHOICES}", "--out", str(out)]
    )
    assert code == 0
    assert out.read_text() == (DATA / "walkthrough_trace.txt").read_text()


def test_act_agent_walkthrough_matches_golden(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(
        [
            "act",
            ROVER,
            PROB_NOCALI,
            EVT,
            "--strategy",
            f"script:{AGENT_CHOICES}",
            "--verify-soundness",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text() == (DATA / "agent_walkthrough_trace.txt").read_text()


def test_act_verify_soundness_is_the_verify_suites_fold_check(tmp_path, capsys, monkeypatch):
    """``--verify-soundness`` runs ``verify.fold_problems``, every check of
    it: a fold that kept the observation steps would still re-validate."""
    monkeypatch.setattr(verify_module, "dtrace_to_trace", lambda dtrace: dtrace)
    out = tmp_path / "trace.txt"
    code = main(["act", ROVER, PROB_NOCALI, EVT, "--verify-soundness", "--out", str(out)])
    assert code == 5
    assert "soundness: observation steps survived the folding" in capsys.readouterr().err


def test_act_default_run_matches_golden(tmp_path):
    out = tmp_path / "trace.txt"
    code = main(["act", ROVER, PROB_NOCALI, "--out", str(out)])
    assert code == 0
    assert out.read_text() == (DATA / "default_trace.txt").read_text()


def test_act_runs_are_byte_identical(tmp_path):
    first = tmp_path / "a.txt"
    second = tmp_path / "b.txt"
    for out in (first, second):
        assert (
            main(
                [
                    "act",
                    ROVER,
                    PROB_NOCALI,
                    "--strategy",
                    f"script:{CHOICES}",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    assert first.read_bytes() == second.read_bytes()


def test_act_blocked_problem_exits_2(tmp_path):
    problem = tmp_path / "stuck.prob"
    problem.write_text("problem stuck\nstate: lowCharge, raw\ntasks:\n  B: monitor\n")
    code = main(["act", ROVER, str(problem), "--out", str(tmp_path / "t.txt")])
    assert code == 2


def test_act_budget_exhaustion_exits_3(tmp_path):
    code = main(
        [
            "act",
            ROVER,
            PROB_NOCALI,
            "--max-steps",
            "2",
            "--out",
            str(tmp_path / "t.txt"),
        ]
    )
    assert code == 3


def test_act_agent_out_of_iterations_exits_3(tmp_path):
    code = main(
        ["act", ROVER, PROB_NOCALI, EVT, "--max-iterations", "1",
         "--out", str(tmp_path / "t.txt")]
    )
    assert code == 3


def test_act_agent_blocked_exits_2(tmp_path):
    problem = tmp_path / "stuck.prob"
    problem.write_text("problem stuck\nstate: lowCharge, raw\n")
    scenario = tmp_path / "monitor.evt"
    scenario.write_text("scenario monitor\n0: monitor\n")
    out = tmp_path / "t.txt"
    code = main(["act", ROVER, str(problem), str(scenario), "--out", str(out)])
    assert code == 2
    assert "classification: blocked" in out.read_text()


def test_act_invalid_domain_exits_4(tmp_path, capsys):
    bad = tmp_path / "bad.htn"
    bad.write_text(
        "domain bad\noperator a\n  pre:\n  add:\n  del:\n"
        "method m g\n  tasks:\n    1: a\n  constraints:\n"
    )
    code = main(["act", str(bad), PROB_NOCALI])
    assert code == 4
    err = capsys.readouterr().err
    assert "body-size" in err


def test_act_missing_file_exits_4():
    assert main(["act", "nowhere.htn", PROB_NOCALI]) == 4


def test_act_agent_script_mismatch_exits_4(tmp_path, capsys):
    # the agent walkthrough script is written for rover_nocali.prob; on the
    # calibrated problem its "replace 6 with m4" matches no execution
    out = tmp_path / "trace.txt"
    code = main(
        ["act", ROVER, PROB, EVT, "--strategy", f"script:{AGENT_CHOICES}",
         "--out", str(out)]
    )
    assert code == 4
    err = capsys.readouterr().err
    assert "error: directive replace 6 with m4 matches no execution" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_act_malformed_choice_script_exits_4(tmp_path, capsys):
    script = tmp_path / "bad.choices"
    script.write_text("frobnicate\n")
    code = main(["act", ROVER, PROB, "--strategy", f"script:{script}"])
    assert code == 4
    assert "error: bad choice directive: 'frobnicate'" in capsys.readouterr().err


def test_plan_lists_the_solution(capsys):
    code = main(["plan", ROVER, PROB_NOCALI, "--depth", "4"])
    assert code == 0
    out = capsys.readouterr().out
    assert "solutions: 1" in out
    assert "monitor . estabConn . extData(loc1) . sendExtData(loc1) . breakConn" in out
    assert "calibrate" not in out


def test_plan_depth_zero_is_an_input_error(capsys):
    assert main(["plan", ROVER, PROB_NOCALI, "--depth", "0"]) == 4


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_act_non_positive_max_steps_is_an_input_error(capsys, steps):
    assert main(["act", ROVER, PROB, "--max-steps", steps]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: --max-steps must be at least 1\n"
    assert captured.out == ""


@pytest.mark.parametrize("iterations", ["0", "-2"])
def test_act_non_positive_max_iterations_is_an_input_error(capsys, iterations):
    code = main(["act", ROVER, PROB_NOCALI, EVT, "--max-iterations", iterations])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == "error: --max-iterations must be at least 1\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["act", ROVER, PROB_NOCALI],
        ["act", ROVER, PROB_NOCALI, EVT, "--strategy", f"script:{AGENT_CHOICES}"],
        ["plan", ROVER, PROB_NOCALI],
    ],
)
def test_unwritable_out_is_an_input_error(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "trace.txt"
    assert main(argv + ["--out", str(out)]) == 4
    captured = capsys.readouterr()
    last = captured.err.splitlines()[-1]
    assert last.startswith(f"error: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert not out.exists()


@pytest.mark.parametrize("count", ["0", "-2"])
def test_verify_non_positive_count_is_an_input_error(capsys, count):
    code = main(["verify", "--suite", "equivalence", "--count", count])
    assert code == 4
    captured = capsys.readouterr()
    assert captured.err == "error: --count must be at least 1\n"
    assert "PASS" not in captured.out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "equivalence", "--count", "2"],
        ["verify", ROVER, PROB_NOCALI, "--suite", "acting-only"],
    ],
)
@pytest.mark.parametrize("depth", ["0", "-1"])
def test_verify_depth_below_one_is_an_input_error(capsys, argv, depth):
    assert main(argv + ["--depth", depth]) == 4
    captured = capsys.readouterr()
    assert captured.err == "error: --depth must be at least 1\n"
    assert captured.out == ""


def test_verify_acting_only(capsys):
    code = main(["verify", ROVER, PROB_NOCALI, "--suite", "acting-only"])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "8 . 9 . B . 1 . 4 . 5 . 3" in out


def test_verify_jumps(capsys):
    code = main(
        [
            "verify",
            ROVER_JUMP,
            PROB_NOCALI,
            "--suite",
            "jumps",
            "--target",
            WALKTHROUGH_TARGET,
        ]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_verify_jumps_requires_target(capsys):
    assert main(["verify", ROVER_JUMP, PROB_NOCALI, "--suite", "jumps"]) == 4


def test_verify_equivalence_small_corpus(capsys):
    code = main(["verify", "--suite", "equivalence", "--count", "5"])
    assert code == 0
    assert "PASS (5 checks)" in capsys.readouterr().out


def test_verify_dtrace_on_walkthrough(capsys):
    code = main(
        ["verify", ROVER, PROB_NOCALI, EVT, "--suite", "dtrace-soundness"]
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "extendability", "--count", "3"],
        ["verify", "--suite", "elimination", "--count", "3"],
        ["verify", ROVER, PROB_NOCALI, "--suite", "acting-only"],
    ],
)
def test_verify_stopped_by_the_search_budget_exits_3(monkeypatch, capsys, argv):
    monkeypatch.setattr(trace_module, "SEARCH_NODES", 5)
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err == "budget: more than 5 configurations\n"
    assert captured.out == ""


def test_verify_failure_exits_5(capsys):
    # the plain rover fixture admits no jump on this target, so the jumps
    # suite reports a failure
    code = main(
        [
            "verify",
            ROVER,
            PROB_NOCALI,
            "--suite",
            "jumps",
            "--target",
            "monitor . estabConn . extData(loc1) . sendExtData(loc1) . breakConn",
        ]
    )
    assert code == 5
    assert "FAIL" in capsys.readouterr().out


def feed_stdin(monkeypatch, lines):
    """Answer each ``input()`` prompt with the next line, then end of file."""
    pending = iter(lines)

    def fake_input(prompt=""):
        try:
            return next(pending)
        except StopIteration:
            raise EOFError

    monkeypatch.setattr("builtins.input", fake_input)


def test_act_interactive_reads_tasks_from_stdin(tmp_path, monkeypatch, capsys):
    feed_stdin(monkeypatch, ["transmitData(loc1), monitor", ""])
    out = tmp_path / "trace.txt"
    code = main(["act", ROVER, PROB, "--interactive", "--out", str(out)])
    assert code == 0
    text = out.read_text()
    assert "kind: observation" in text
    assert "classification: successful" in text


def test_act_interactive_rejects_trailing_input(tmp_path, monkeypatch, capsys):
    feed_stdin(monkeypatch, ["charge junk"])
    out = tmp_path / "trace.txt"
    main(["act", ROVER, PROB, "--interactive", "--out", str(out)])
    assert "cannot parse task 'charge junk'" in capsys.readouterr().err
    assert "kind: observation" not in out.read_text()


def test_act_interactive_rejects_a_primitive_of_the_wrong_arity(
    tmp_path, monkeypatch, capsys
):
    feed_stdin(monkeypatch, ["move(loc1, lan1)", ""])
    code = main(["act", ROVER, PROB, "--interactive", "--out", str(tmp_path / "t.txt")])
    assert code == 4
    err = capsys.readouterr().err
    assert "error: observed task move(loc1, lan1) does not match operator move/1" in err
    assert "Traceback" not in err


TWO_PLACE_DOMAIN = """\
domain two

operator move(X, Y)
  pre:
  add: at(Y)
  del: at(X)

operator charge
  pre:
  add: charged
  del:
"""


def test_act_interactive_keeps_commas_inside_arguments(tmp_path, monkeypatch, capsys):
    domain = tmp_path / "two.htn"
    domain.write_text(TWO_PLACE_DOMAIN)
    problem = tmp_path / "two.prob"
    problem.write_text("problem two\nstate: at(loc1)\n")
    feed_stdin(monkeypatch, ["move(loc1,lan1), charge"])
    out = tmp_path / "trace.txt"
    code = main(["act", str(domain), str(problem), "--interactive", "--out", str(out)])
    assert code == 0
    assert "cannot parse task" not in capsys.readouterr().err
    text = out.read_text()
    assert "observed: t:move(loc1, lan1) t_2:charge" in text
    assert "actions: nop . move(loc1, lan1) . charge" in text


def test_verify_elimination_reports_replay_failure(capsys):
    code = main(["verify", "--suite", "elimination", "--count", "1", "--seed", "100046"])
    assert code == 5
    captured = capsys.readouterr()
    assert captured.out.startswith("complete-replacement-elimination: FAIL")
    assert "Traceback" not in captured.out + captured.err


REFERENCE_DOMAIN = """\
domain refs

operator a
  pre: p
  add:
  del: p

operator c
  pre:
  add:
  del:
"""

REFERENCE_PROBLEM = """\
problem refs
state: p
tasks:
  n1: a
  n2: c
  n3: c
constraints:
  before p last[n1,n2]
"""


@pytest.mark.parametrize("command", [["act"], ["plan", "--depth", "3"]])
def test_a_problem_reference_acting_reads_differently_is_warned(tmp_path, capsys, command):
    """``last[n1,n2]`` in a before-constraint's slot: acting gives a.c.c,
    c.a.c and c.c.a, planning only the last two; both commands say so."""
    domain, problem = tmp_path / "refs.htn", tmp_path / "refs.prob"
    domain.write_text(REFERENCE_DOMAIN)
    problem.write_text(REFERENCE_PROBLEM)
    code = main([command[0], str(domain), str(problem), *command[1:]])
    assert code == 0
    err = capsys.readouterr().err
    assert err == (
        "warning [reference-form] problem refs: last[n1,n2] in before p last[n1,n2] "
        "is neither a plain label nor its slot's own form; acting reads it differently "
        "from planning\n"
    )


TRAILING_PROBLEM = """\
problem trailing
state: p
tasks:
  n1: c
  n2: a
constraints:
  ord n1 < n2
  after {label} p
"""


def trailing_problem(tmp_path, label: str):
    """The domain and problem files, and the parsed pair, for ``after`` on
    ``label``."""
    domain_path, problem_path = tmp_path / "refs.htn", tmp_path / "trailing.prob"
    domain_path.write_text(REFERENCE_DOMAIN)
    problem_path.write_text(TRAILING_PROBLEM.format(label=label))
    domain = parse_domain(REFERENCE_DOMAIN, "refs").value
    parsed = parse_problem(TRAILING_PROBLEM.format(label=label), domain)
    assert parsed.ok and not parsed.diagnostics
    return str(domain_path), str(problem_path), domain, parsed.value


@pytest.mark.parametrize("command", [["act"], ["plan", "--depth", "3"]])
def test_an_after_constraint_on_the_last_action_is_warned(tmp_path, capsys, command):
    """``after n2 p`` on the last action, which deletes ``p``: acting never
    checks it and gives c.a, planning gives nothing; both commands say so."""
    domain_path, problem_path, domain, problem = trailing_problem(tmp_path, "n2")
    acted = acting_solution_set(problem.network, problem.state, domain)
    assert [" . ".join(map(str, seq)) for seq in acted] == ["c . a"]
    assert not solutions_bounded(problem.network, problem.state, domain, 3)
    assert main([command[0], domain_path, problem_path, *command[1:]]) == 0
    assert capsys.readouterr().err == (
        "warning [trailing-task] problem trailing: an after-constraint but no task "
        "ordered after all others and free of after-constraints; acting reads an "
        "after-constraint on the last action differently from planning\n"
    )


@pytest.mark.parametrize("command", [["act"], ["plan", "--depth", "3"]])
def test_an_after_constraint_before_a_trailing_task_is_not_warned(
    tmp_path, capsys, command
):
    """``after n1 p``: ``n2`` is ordered last and free of after-constraints."""
    domain_path, problem_path, domain, problem = trailing_problem(tmp_path, "n1")
    planned = solutions_bounded(problem.network, problem.state, domain, 3)
    assert planned and acting_solution_set(problem.network, problem.state, domain) == planned
    assert main([command[0], domain_path, problem_path, *command[1:]]) == 0
    assert capsys.readouterr().err == ""
