import argparse
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from qproc import cli, cqp, criteria, protocols, qccs
from qproc.errors import InvalidArity, ParseError, UnknownName, WellFormednessError


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


TELEPORT = str(protocols.path("teleport.cqp"))
MEASUREMENT = str(protocols.path("measurement.cqp"))
COUNTEREXAMPLE = str(protocols.path("counterexample.qccs"))
ENCODED = str(protocols.path("teleport-encoded.qccs"))


def test_run_teleport_branch0(capsys):
    code, out, _ = run_cli(capsys, "run", TELEPORT, "--script", "0")
    assert code == 0
    assert "final state: q0,q1,q2 = |001>" in out
    assert out.rstrip().endswith("SUCCESS")


def test_run_teleport_branch3_applies_y(capsys):
    code, out, _ = run_cli(capsys, "run", TELEPORT, "--script", "3")
    assert code == 0
    assert "R-Trans[Y]" in out
    assert "SUCCESS" in out


def test_parse_json_dump(capsys):
    code, out, _ = run_cli(capsys, "parse", TELEPORT, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["qubits"] == ["q0", "q1", "q2"]
    assert payload["process"]["kind"] == "NewChan"


def test_typecheck_both_calculi(capsys):
    assert run_cli(capsys, "typecheck", TELEPORT)[0] == 0
    assert run_cli(capsys, "typecheck", COUNTEREXAMPLE)[0] == 0


def test_typecheck_rejects_illformed(tmp_path, capsys):
    bad = tmp_path / "bad.qccs"
    bad.write_text("state qubits q ; rho = outer(|0>) ; process c!q.nil | d!q.nil")
    code, _, err = run_cli(capsys, "typecheck", str(bad))
    assert code == 1
    assert "Cond2" in err


@pytest.mark.parametrize(
    "header, process, error, message",
    [
        ("def A(q) = tau.B(q)", "A(q0)", UnknownName, "unresolved process constant 'B' at def A"),
        ("def A(q) = c!q.A(q)", "A(q0)", WellFormednessError, "Cond1 violated at def A"),
        ("def A(q) = X[q, q].nil", "A(q0)", InvalidArity, "X[q, q] has arity 1, got 2 targets at def A"),
        ("def A(q) = FOO[q].nil", "A(q0)", UnknownName, "unknown operator 'FOO'"),
        ("", "X[q0, q1].nil", InvalidArity, "X[q0, q1] has arity 1, got 2 targets at process"),
        ("", "if tr(CNOT[q0]) != 0 then nil", InvalidArity, "CNOT[q0] has arity 2, got 1 targets at process"),
    ],
)
def test_typecheck_looks_inside_definitions_and_at_operator_arity(tmp_path, capsys, header, process, error, message):
    source = f"{header}\nstate qubits q0, q1 ; rho = outer(|00>) ; process {process}"
    with pytest.raises(error):
        qccs.parse_qccs(source)
    bad = tmp_path / "bad.qccs"
    bad.write_text(source)
    code, out, err = run_cli(capsys, "typecheck", str(bad))
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["parse", "run", "steps", "translate", "typecheck"])
def test_an_ill_typed_cqp_is_rejected_on_load(tmp_path, capsys, command):
    bad = tmp_path / "bad.cqp"
    bad.write_text("qubits q ; state |0> ; channels c ; process {c *= X}.ok")
    code, out, err = run_cli(capsys, command, str(bad))
    assert code == 1 and out == ""
    assert err.splitlines() == ["error: 'c' is not an available qubit"]


@pytest.mark.parametrize(
    "channels, message",
    [("c, c", "1:36: 'c' is declared twice as a channel"), ("q", "1:33: 'q' is declared as both a qubit and a channel")],
    ids=["channel-twice", "qubit-and-channel"],
)
def test_a_cqp_header_declares_each_name_once(tmp_path, capsys, channels, message):
    source = f"qubits q ; state |0> ; channels {channels} ; process (new d)d![q].0"
    with pytest.raises(ParseError, match=f"^{message}$"):
        cqp.parse_cqp(source)
    bad = tmp_path / "bad.cqp"
    bad.write_text(source)
    assert run_cli(capsys, "typecheck", str(bad)) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "source, message",
    [
        ("qubits 0 ; state |0> ; channels ; process {0 *= X}.ok", "1:8: an integer literal cannot name a qubit: '0'"),
        (
            "qubits q ; state |0> ; channels c ; process c![q].0 | c?[0].{0 *= X}.ok",
            "1:58: an integer literal cannot name a qubit: '0'",
        ),
        ("qubits ; state |> ; channels ; process (qbit 7){7 *= H}.ok", "1:46: an integer literal cannot name a qubit: '7'"),
        # '0' as a qubit and as the channel a measurement result selects
        (
            "qubits 0, q ; state |00> ; channels ; process {0 *= X}.0 | 0![q].0 | 0?[y].ok",
            "1:8: an integer literal cannot name a qubit: '0'",
        ),
    ],
    ids=["header", "input-binder", "qubit-creation", "qubit-and-literal-channel"],
)
def test_an_integer_literal_names_no_qubit(tmp_path, capsys, source, message):
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
        cqp.parse_cqp(source)
    bad = tmp_path / "bad.cqp"
    bad.write_text(source)
    assert run_cli(capsys, "typecheck", str(bad)) == (1, "", f"error: {message}\n")


def test_an_integer_literal_still_names_a_channel(tmp_path, capsys):
    good = tmp_path / "good.cqp"
    good.write_text("qubits q ; state |0> ; channels ; process (new 0)(0![q].0 | 0?[y].{y *= X}.ok)")
    assert run_cli(capsys, "typecheck", str(good)) == (0, "ok\n", "")


@pytest.mark.parametrize("script", ["7", "-1"])
def test_run_script_outside_the_outcomes_names_their_range(capsys, script):
    code, out, err = run_cli(capsys, "run", TELEPORT, "--script", script)
    assert code == 1 and out == ""
    assert err.splitlines() == [
        f"error: scripted branch {script} is not an outcome: measuring q0,q1 has outcomes 0 to 3"
    ]


def test_steps_listing(capsys):
    code, out, _ = run_cli(capsys, "steps", TELEPORT)
    assert code == 0
    assert "R-New" in out
    code, out, _ = run_cli(capsys, "steps", COUNTEREXAMPLE)
    assert code == 0
    assert "tau" in out


def test_translate_matches_bundled_output(capsys):
    code, out, _ = run_cli(capsys, "translate", TELEPORT)
    assert code == 0
    bundled = protocols.read("teleport-encoded.qccs")
    assert out.split() == bundled.split()  # modulo whitespace
    for i in range(4):
        assert f"E{{{i}}}[q0, q1].{i}!q0.nil" in out


def test_translate_output_reparses(tmp_path, capsys):
    target = tmp_path / "out.qccs"
    code, _, _ = run_cli(capsys, "translate", TELEPORT, "-o", str(target))
    assert code == 0
    assert run_cli(capsys, "typecheck", str(target))[0] == 0


@pytest.mark.parametrize("source", [TELEPORT, "missing.cqp"], ids=["teleport", "missing"])
def test_translate_has_no_json_report(tmp_path, capsys, source):
    # decided before the source is read or the -o file is written
    target = tmp_path / "out.qccs"
    code, out, err = run_cli(capsys, "translate", source, "-o", str(target), "--format", "json")
    assert (code, out) == (3, "")
    assert err == "usage error: translate writes .qccs text and has no JSON report\n"
    assert not target.exists()
    assert run_cli(capsys, "translate", TELEPORT, "--format", "json")[:2] == (3, "")


def test_check_exit_codes(capsys):
    for which in cli._CHECKS:
        code, out, _ = run_cli(capsys, "check", TELEPORT, "--which", which)
        assert code == 0, (which, out)


def test_a_dropped_measurement_outcome_runs_and_checks_at_the_tolerance_ceiling(tmp_path, capsys):
    # outcome 1 has probability 4e-4, below the CLI's largest tolerance
    src = tmp_path / "dropped.cqp"
    src.write_text("qubits q ; state sqrt(0.9996)|0> + 0.02|1> ; channels ; process (m := measure q).ok\n")
    code, out, err = run_cli(capsys, "run", str(src), "--tolerance", "1e-3")
    assert (code, err) == (0, "")
    assert out.rstrip().endswith("SUCCESS")
    for which in cli._CHECKS:
        code, out, _ = run_cli(capsys, "check", str(src), "--which", which, "--tolerance", "1e-3")
        assert code == 0, (which, out)


def test_a_scripted_dropped_outcome_names_its_probability_and_the_tolerance(tmp_path, capsys):
    src = tmp_path / "dropped.cqp"
    src.write_text("qubits q ; state sqrt(0.9996)|0> + 0.02|1> ; channels ; process (m := measure q).ok\n")
    code, _, err = run_cli(capsys, "run", str(src), "--script", "1", "--tolerance", "1e-3")
    assert code == 1
    assert "scripted branch 1 has probability 0.0004, not above the tolerance 0.001" in err
    assert "zero probability" not in err
    code, out, _ = run_cli(capsys, "run", str(src), "--script", "1")
    assert code == 0 and out.rstrip().endswith("SUCCESS")


def test_check_json_is_deterministic(capsys):
    args = ("check", MEASUREMENT, "--which", "soundness", "--format", "json", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["schema"] == 1 and payload["seed"] == 11


def test_check_divergence_on_recursive_qccs(tmp_path, capsys):
    src = tmp_path / "loop.qccs"
    src.write_text("def A(x) = tau.A(x)\nstate qubits q ; rho = outer(|0>) ; process A(q)")
    code, out, _ = run_cli(capsys, "check", str(src), "--which", "divergence")
    assert code == 0  # divergence detected: the check holds
    assert "holds" in out


def test_check_success_on_qccs_behaviour(capsys):
    code, out, _ = run_cli(capsys, "check", COUNTEREXAMPLE, "--which", "success", "--format", "json")
    assert code == 0  # from |0><0| the probe must reach success
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert payload["stats"]["must"] == "holds"
    code, _, _ = run_cli(capsys, "check", COUNTEREXAMPLE, "--which", "completeness")
    assert code == 3  # encoding checks need a .cqp source


@pytest.mark.parametrize("name", ["teleport.cqp", "measurement.cqp"])
@pytest.mark.parametrize("seed", [0, 7])
def test_check_reports_match_run_instance_checks(capsys, name, seed):
    expected = criteria.run_instance_checks(cqp.parse_cqp(protocols.read(name)), seed=seed)
    for which, key in cli._CHECKS.items():
        argv = ("check", str(protocols.path(name)), "--which", which, "--format", "json", "--seed", str(seed))
        payload = json.loads(run_cli(capsys, *argv)[1])
        assert (payload["verdict"], payload["stats"]) == (expected[key].status, expected[key].stats), which


def test_success_verdicts_do_not_depend_on_the_order_of_congruent_looking_branches(capsys, tmp_path):
    # the two branches differ only in whether the received name is also
    # the channel sent on; the input binds a qubit, so they are not
    # congruent, and whichever is explored first may not stand for the other
    branches = ["tau.(c?x.x!r.nil | x?z.ok | c!q.nil)", "tau.(c?y.y!r.nil | x?z.ok | c!q.nil)"]
    for order in (branches, branches[::-1]):
        src = tmp_path / "order.qccs"
        src.write_text(f"state qubits q, r ; rho = outer(|00>) ; process {order[0]} + {order[1]}\n")
        code, out, _ = run_cli(capsys, "check", str(src), "--which", "success", "--format", "json")
        stats = json.loads(out)["stats"]
        assert (code, stats["may"], stats["must"]) == (0, "holds", "fails")


@pytest.mark.parametrize("process", ["tau.tau.ok + tau.nil", "tau.nil + tau.tau.ok"])
def test_must_success_fails_on_a_reached_deadlock_whatever_the_order_of_a_choice(capsys, tmp_path, process):
    # at three states the budget cuts tau.ok before its barb, while the
    # barb-free deadlock is reached in either order
    src = tmp_path / "order.qccs"
    src.write_text(f"state qubits q ; rho = outer(|0>) ; process {process}\n")
    argv = ("check", str(src), "--which", "success", "--max-states", "3", "--format", "json")
    code, out, _ = run_cli(capsys, *argv)
    payload = json.loads(out)
    assert (code, payload["verdict"], payload["stats"]["may"], payload["stats"]["must"]) == (
        2,
        "inconclusive",
        "inconclusive",
        "fails",
    )


@pytest.mark.parametrize(
    "source",
    [
        "qubits u0 ; state |0> ; channels c ; process c![u0].0 | c?[x].{x *= X}.ok",
        "qubits u1 ; state |0> ; channels c, u0 ; process c![u1].0 | c?[x].{x *= X}.ok",
        "qubits q0 ; state |0> ; channels q1 ; process (qbit x){x *= H}.q1![x].0 | q1?[y].ok",
    ],
    ids=["channel-onto-register", "channel-onto-register-past-a-free-name", "channel-named-as-a-created-qubit"],
)
def test_name_invariance_holds_where_a_renamed_name_meets_a_qubit(capsys, tmp_path, source):
    src = tmp_path / "clash.cqp"
    src.write_text(source + "\n")
    assert run_cli(capsys, "check", str(src), "--which", "name-inv") == (0, "name-inv: holds\n", "")


@pytest.mark.parametrize("seed", ["0", "1"])
def test_a_congruent_variant_captures_no_free_name(capsys, tmp_path, seed):
    # at seed 1 the variant renames the binder y to y_r867, a name free in
    # its continuation; the renaming must pick another
    src = tmp_path / "capture.cqp"
    src.write_text("qubits q ; state |0> ; channels c, y_r867 ; process c?[y].y_r867![y].0 | c![q].0\n")
    code, out, _ = run_cli(capsys, "check", str(src), "--which", "congruence", "--seed", seed)
    assert (code, out) == (0, "congruence: holds\n")


def test_counterexample_table(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == 0
    for row in ("|0><0|", "|1><1|", "|+><+|", "|-><-|"):
        assert row in out
    code, out, _ = run_cli(capsys, "counterexample", "--format", "json")
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert len(payload["rows"]) == 4


def test_a_run_that_takes_no_step_starts_with_the_final_state(tmp_path, capsys):
    src = tmp_path / "zero.cqp"
    src.write_text("qubits q ; state |0> ; channels ; process 0\n")
    assert run_cli(capsys, "run", str(src)) == (0, "final state: q = |0>\nNO SUCCESS\n", "")


# each file holds the exact stdout of its call
# name -> (exit code, argv)
PINNED = {
    "run-teleport-script-0.txt": (0, ("run", TELEPORT, "--script", "0")),
    "run-teleport-max-depth-2.txt": (0, ("run", TELEPORT, "--max-depth", "2")),
    "steps-measurement.txt": (0, ("steps", MEASUREMENT)),
    "steps-counterexample.txt": (0, ("steps", COUNTEREXAMPLE)),
    "parse-teleport.txt": (0, ("parse", TELEPORT)),
    "parse-teleport.json": (0, ("parse", TELEPORT, "--format", "json")),
    "parse-counterexample.txt": (0, ("parse", COUNTEREXAMPLE)),
    "parse-counterexample.json": (0, ("parse", COUNTEREXAMPLE, "--format", "json")),
    "counterexample.txt": (0, ("counterexample",)),
    "counterexample.json": (0, ("counterexample", "--format", "json")),
    "check-measurement-success-seed-3.json": (
        0, ("check", MEASUREMENT, "--which", "success", "--format", "json", "--seed", "3")
    ),
    "check-counterexample-divergence.json": (1, ("check", COUNTEREXAMPLE, "--which", "divergence", "--format", "json")),
    "check-teleport-soundness-max-states-3.json": (
        2, ("check", TELEPORT, "--which", "soundness", "--max-states", "3", "--format", "json")
    ),
    "typecheck-teleport-encoded.json": (0, ("typecheck", ENCODED, "--format", "json")),
    "check-teleport-congruence.json": (0, ("check", TELEPORT, "--which", "congruence", "--format", "json")),
    "check-measurement-congruence.json": (0, ("check", MEASUREMENT, "--which", "congruence", "--format", "json")),
}


@pytest.mark.parametrize("name", PINNED)
def test_a_report_prints_the_same_bytes(capsys, name):
    expected = (Path(__file__).parent / "cli_outputs" / name).read_text(encoding="utf-8")
    code, argv = PINNED[name]
    assert run_cli(capsys, *argv) == (code, expected, "")


def test_usage_errors_exit_3(capsys):
    assert run_cli(capsys, "check", TELEPORT)[0] == 3  # missing --which
    assert run_cli(capsys, "run", TELEPORT, "--tolerance", "0.5")[0] == 3
    assert run_cli(capsys, "run", "nope.txt")[0] == 3
    assert run_cli(capsys, "run", "missing.cqp")[0] == 3


@pytest.mark.parametrize(
    "argv, message",
    [
        (("run", COUNTEREXAMPLE), "run drives .cqp sources; use steps for .qccs behaviour"),
        (("translate", COUNTEREXAMPLE), "translate takes a .cqp source"),
        (("check", TELEPORT, "--which", "size", "--max-depth", "0"), "budgets must be positive"),
        (("run", TELEPORT, "--max-states", "-1"), "budgets must be positive"),
    ],
)
def test_usage_errors_name_their_cause(capsys, argv, message):
    assert run_cli(capsys, *argv) == (3, "", f"usage error: {message}\n")


@pytest.mark.parametrize(
    "argv, option",
    [
        (("translate", TELEPORT, "--seed", "1"), "--seed"),
        (("translate", TELEPORT, "--max-depth", "5"), "--max-depth"),
        (("translate", TELEPORT, "--max-states", "5"), "--max-states"),
        (("counterexample", "--max-depth", "5"), "--max-depth"),
        (("counterexample", "--max-states", "5"), "--max-states"),
    ],
)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys, argv, option):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("usage error: unrecognized arguments: " + option)


COMMANDS = ("parse", "typecheck", "run", "steps", "translate", "check", "counterexample")


def subparsers(parser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def parse_outcome(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except cli.UsageError as err:
        return str(err)


@pytest.mark.parametrize("command", COMMANDS)
def test_one_subparser_parses_like_the_full_parser(command, monkeypatch):
    whole = cli.build_parser()
    alone, full = cli.build_parser(command), subparsers(whole)[command]
    for columns in ("40", "80", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        assert alone.format_help() == full.format_help()
    # the shared options precede the subcommand's own in its usage and help
    options = [a.option_strings[-1] for a in alone._actions if a.option_strings]
    assert options == [a.option_strings[-1] for a in full._actions if a.option_strings]
    shared = ["--tolerance", "--max-depth", "--max-states", "--seed", "--format"]
    taken = [flag for flag in shared if flag not in cli._UNREAD.get(command, ())]
    assert options[: 1 + len(taken)] == ["--help", *taken]
    tails = [
        [],
        [TELEPORT],
        [TELEPORT, "--which", "nope"],
        [TELEPORT, "--which", "size", "--seed", "4"],
        [TELEPORT, "--format", "xml"],
        [TELEPORT, "--format", "json", "--tolerance", "1e-9", "--max-depth", "5"],
        [TELEPORT, "--script", "0,1"],
        [TELEPORT, "-o", "out.qccs"],
        [TELEPORT, "-o"],
        [TELEPORT, "--bogus"],
        [TELEPORT, "check"],
        ["check", TELEPORT, "--which", "size"],
        ["--seed", "x"],
    ]
    for tail in tails:
        assert parse_outcome(alone, tail) == parse_outcome(whole, [command, *tail]), tail


def count_parsers(monkeypatch) -> list:
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", TELEPORT),
        ("typecheck", TELEPORT),
        ("run", TELEPORT, "--script", "0"),
        ("steps", TELEPORT),
        ("translate", TELEPORT),
        ("check", TELEPORT, "--which", "size"),
        ("counterexample",),
    ],
    ids=COMMANDS,
)
def test_a_named_command_builds_one_parser(capsys, monkeypatch, argv):
    built = count_parsers(monkeypatch)
    assert run_cli(capsys, *argv)[0] == 0
    assert len(built) == 1


def test_a_double_dash_before_a_command_is_dropped(capsys, monkeypatch):
    # argparse would take a leading "--" for the subcommand's name
    built = count_parsers(monkeypatch)
    assert run_cli(capsys, "--", "check", TELEPORT, "--which", "size") == (0, "size: holds\n", "")
    assert len(built) == 1
    # with no command after it, the call goes through the full parser
    for argv in (["--"], ["--", "bogus"]):
        outcome = parse_outcome(cli.build_parser(), argv)
        built.clear()
        assert run_cli(capsys, *argv) == (3, "", f"usage error: {outcome}\n")
        assert len(built) == 1 + len(COMMANDS)


@pytest.mark.parametrize("command", [None, "bogus", "-h", "--seed"])
def test_a_call_that_names_no_subcommand_builds_them_all(command):
    assert list(subparsers(cli.build_parser(command))) == list(COMMANDS)


def test_no_or_an_unknown_subcommand_lists_them_all(capsys):
    assert run_cli(capsys) == (3, "", "usage error: the following arguments are required: command\n")
    # argparse quotes the listed choices on some Python versions only
    for argv, value in ((["bogus"], "bogus"), (["--seed", "1", "check"], "1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith(f"usage error: argument command: invalid choice: '{value}' (choose from ")
        assert all(command in err for command in COMMANDS)


def test_main_without_argv_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["qproc", "typecheck", TELEPORT, "--format", "json"])
    assert cli.main() == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "holds"
    monkeypatch.setattr(sys, "argv", ["qproc"])
    assert cli.main(None) == 3


def test_parse_error_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cqp"
    bad.write_text("qubits q ; state |0> ; channels ; process c![q")
    code, _, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert "error" in err


def test_non_integer_seed_env_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QPROC_SEED", "abc")
    code, _, err = run_cli(capsys, "run", TELEPORT)
    assert code == 3
    assert err.startswith("usage error:") and "QPROC_SEED" in err


def test_unreadable_path_is_a_usage_error(tmp_path, capsys):
    folder = tmp_path / "x.cqp"
    folder.mkdir()
    code, _, err = run_cli(capsys, "parse", str(folder))
    assert code == 3
    assert err.startswith("usage error:")


def test_an_unwritable_output_path_is_a_usage_error(tmp_path, capsys):
    code, _, err = run_cli(capsys, "translate", TELEPORT, "-o", str(tmp_path / "missing" / "out.qccs"))
    assert code == 3
    assert err.startswith("usage error:")


def run_qproc(argv, env=os.environ, **kwargs) -> subprocess.CompletedProcess:
    """``python -m qproc.cli`` in a new process, importing this checkout."""
    path = [str(Path(cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])]
    env = dict(env, PYTHONPATH=os.pathsep.join(path))
    argv = [sys.executable, "-m", "qproc.cli", *argv]
    return subprocess.run(argv, env=env, stderr=subprocess.PIPE, timeout=60, **kwargs)


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    # the read end is closed before the call starts, so its first write fails
    read, write = os.pipe()
    os.close(read)
    try:
        proc = run_qproc(["parse", ENCODED, "--format", "json"], env, stdout=write)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_a_call_started_without_stdout_runs():
    proc = run_qproc(["typecheck", TELEPORT], preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (0, b"")


def test_non_utf8_source_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.cqp"
    bad.write_bytes("qubits q ; state |0> ; channels ; process 0 # caf\xe9".encode("latin-1"))
    code, out, err = run_cli(capsys, "parse", str(bad))
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error:") and "UTF-8" in err


@pytest.mark.parametrize("argv", [("typecheck",), ("check", "--which", "soundness")], ids=["typecheck", "check"])
@pytest.mark.parametrize(
    "process",
    ["(qbit a){a *= X}.ok | (qbit b){b *= H}.0", "c?[x].(qbit b){b *= X}.{x *= H}.ok | (qbit a)c![a].0"],
    ids=["unguarded", "guarded"],
)
def test_parallel_qubit_creations_are_a_type_error(tmp_path, capsys, argv, process):
    path = tmp_path / "parallel.cqp"
    path.write_text(f"qubits q0 ; state |0> ; channels c ; process {process}")
    code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, "", "error: parallel components both create qubits\n")


def test_mirror_interleavings_hold_on_soundness(tmp_path, capsys):
    path = tmp_path / "mirror.cqp"
    path.write_text(
        "qubits q0, q1, q2 ; state |000> ; channels ; "
        "process (x := measure q1).x![q1].0 | (z := measure q2).z![q2].0 | 0?[y].{y,q0 *= CNOT}.ok"
    )
    code, out, _ = run_cli(capsys, "check", str(path), "--which", "soundness")
    assert code == 0
    assert "soundness: holds" in out


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPROC_SEED", "23")
    code, out, _ = run_cli(capsys, "check", MEASUREMENT, "--which", "success", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 23


@pytest.mark.parametrize(
    "name, source",
    [
        ("zero.cqp", "qubits a ; state 1/0 * |0> ; channels ; process 0"),
        ("zero.qccs", "state qubits q ; rho = matrix [[1/0]] ; process nil"),
    ],
    ids=["cqp", "qccs"],
)
def test_a_zero_divisor_is_one_error_line(tmp_path, capsys, name, source):
    path = tmp_path / name
    path.write_text(source)
    code, out, err = run_cli(capsys, "parse", str(path))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error:") and "division by zero" in err


@pytest.mark.parametrize(
    "name, source, message",
    [
        (
            "trace.qccs",
            "state qubits q ; rho = matrix [[1e308, 0], [0, 1e308]] ; process tau.nil",
            "error: trace must be real and <= 1, got (inf+0j)",
        ),
        (
            "norm.cqp",
            "qubits q ; state 1e200|0> ; channels ; process 0",
            "error: 1:27: state amplitudes are not normalised (|psi|^2 = inf)",
        ),
        (
            "kraus.qccs",
            "superop Q(1) { +[[1e300, 0], [0, 1]]; } state qubits q ; rho = outer(|0>) ; process Q[q].nil",
            "error: non-finite entry in density matrix",
        ),
        (
            "mixture.qccs",
            "state qubits q ; rho = 1e300 * outer(1e100|0>) ; process tau.nil",
            "error: non-finite entry in density matrix",
        ),
    ],
    ids=["trace", "norm", "kraus", "mixture"],
)
def test_overflowing_numbers_give_the_typed_error_and_no_warning(tmp_path, capsys, name, source, message):
    path = tmp_path / name
    path.write_text(source)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "steps", str(path))
    assert (code, out, err) == (1, "", message + "\n")


GUARD_OVERFLOW = (
    "superop Q(1) { +[[1e300, 0], [0, 1]]; } state qubits q ; rho = outer(|0>) ; "
    "process if tr(Q[q]) != 0 then tau.ok"
)


@pytest.mark.parametrize("argv", [("steps",), ("check", "--which", "success")], ids=["steps", "check"])
def test_an_overflowing_guard_trace_gives_the_typed_error(tmp_path, capsys, argv):
    # the guard's raw trace is NaN; read as zero, it disabled the branch
    path = tmp_path / "guard.qccs"
    path.write_text(GUARD_OVERFLOW)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, argv[0], str(path), *argv[1:])
    assert (code, out, err) == (1, "", "error: non-finite trace in guard tr(Q[q])\n")


@pytest.mark.parametrize("which", ["completeness", "soundness", "name-inv", "qubit-inv", "size", "congruence"])
def test_an_encoding_criterion_on_a_qccs_file_is_refused_before_exploring(tmp_path, capsys, which):
    # exploring this file raises, so only a refusal made first exits 3
    path = tmp_path / "guard.qccs"
    path.write_text(GUARD_OVERFLOW)
    code, out, err = run_cli(capsys, "check", str(path), "--which", which)
    assert (code, out, err) == (3, "", f"usage error: check --which {which} needs a .cqp source\n")


def _readme_examples() -> dict[str, str]:
    """The ``.cqp`` and ``.qccs`` examples under README's "File formats"
    heading, each the code block after its "`.ext` sources:" line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## File formats\n", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^`(\.\w+)` sources:\n\n```\n(.*?)```$", section, re.DOTALL | re.MULTILINE))


@pytest.mark.parametrize("suffix", [".cqp", ".qccs"])
def test_readme_examples_typecheck_and_succeed(tmp_path, capsys, suffix):
    source = tmp_path / f"example{suffix}"
    source.write_text(_readme_examples()[suffix])
    assert run_cli(capsys, "typecheck", str(source))[0] == 0
    assert run_cli(capsys, "check", str(source), "--which", "success")[0] == 0
