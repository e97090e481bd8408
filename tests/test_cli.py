import json
import warnings

import pytest

from qproc import cli, cqp, criteria, protocols


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


def test_check_exit_codes(capsys):
    for which in ("completeness", "soundness", "name-inv", "qubit-inv", "size", "divergence", "success"):
        code, out, _ = run_cli(capsys, "check", TELEPORT, "--which", which)
        assert code == 0, (which, out)


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


def test_counterexample_table(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == 0
    for row in ("|0><0|", "|1><1|", "|+><+|", "|-><-|"):
        assert row in out
    code, out, _ = run_cli(capsys, "counterexample", "--format", "json")
    payload = json.loads(out)
    assert payload["verdict"] == "holds"
    assert len(payload["rows"]) == 4


def test_usage_errors_exit_3(capsys):
    assert run_cli(capsys, "check", TELEPORT)[0] == 3  # missing --which
    assert run_cli(capsys, "run", TELEPORT, "--tolerance", "0.5")[0] == 3
    assert run_cli(capsys, "run", "nope.txt")[0] == 3
    assert run_cli(capsys, "run", "missing.cqp")[0] == 3


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


def test_seed_env_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QPROC_SEED", "23")
    code, out, _ = run_cli(capsys, "check", MEASUREMENT, "--which", "success", "--format", "json")
    assert code == 0
    assert json.loads(out)["seed"] == 23


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

