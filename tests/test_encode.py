import numpy as np
import pytest

from qproc import cqp, criteria, encode, protocols, qccs, quantum
from qproc.errors import InvalidArity, SharedQubit

SQ2 = 1.0 / np.sqrt(2.0)


def sv(names, amps):
    return quantum.StateVector(tuple(names), np.array(amps, dtype=complex))


def teleport():
    return cqp.parse_cqp(protocols.read("teleport.cqp"))


# -- clause by clause -----------------------------------------------------------

def test_nil_and_success_are_homomorphic():
    assert encode.encode_term(cqp.Nil(), ("q",)) == qccs.Nil()
    assert encode.encode_term(cqp.Success(), ("q",)) == qccs.Success()


def test_channel_creation_becomes_tau_restriction():
    term = cqp.NewChan("x", cqp.In("x", "y", cqp.Nil()))
    got = encode.encode_term(term, ("q",))
    assert got == qccs.Tau(qccs.Restrict(qccs.In("x", "y", qccs.Nil()), ("x",)))


def test_qubit_creation_substitutes_static_fresh_name():
    term = cqp.NewQbit("x", cqp.Out("c", "x", cqp.Nil()))
    got = encode.encode_term(term, ("q0",))
    assert got == qccs.SuperOp(qccs.NewOp(), (), qccs.Out("c", "q1", qccs.Nil()))


def test_nested_qubit_creations_use_successive_names():
    term = cqp.NewQbit("x", cqp.NewQbit("y", cqp.Trans(("x", "y"), "CNOT", cqp.Nil())))
    got = encode.encode_term(term, ("q0",))
    assert got == qccs.SuperOp(
        qccs.NewOp(),
        (),
        qccs.SuperOp(qccs.NewOp(), (), qccs.SuperOp(qccs.GateOp("CNOT"), ("q1", "q2"), qccs.Nil())),
    )


def test_measure_becomes_unknown_measurement_then_choice():
    term = cqp.Measure(("q",), "x", cqp.Out("x", "q", cqp.Nil()))
    got = encode.encode_term(term, ("q",))
    body0 = qccs.SuperOp(qccs.ProjectOp(0), ("q",), qccs.Out("0", "q", qccs.Nil()))
    body1 = qccs.SuperOp(qccs.ProjectOp(1), ("q",), qccs.Out("1", "q", qccs.Nil()))
    want = qccs.SuperOp(
        qccs.MeasureOp(),
        ("q",),
        qccs.Choice(
            qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(0), ("q",)), body0),
            qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(1), ("q",)), body1),
        ),
    )
    assert got == want


def test_enc_dist_two_qubits_has_four_branches():
    got = encode.enc_dist(("a", "b"), "x", qccs.Out("x", "a", qccs.Nil()))
    flat = []
    t = got
    while isinstance(t, qccs.Choice):
        flat.append(t.right)
        t = t.left
    flat.append(t)
    flat.reverse()
    assert len(flat) == 4
    for i, branch in enumerate(flat):
        assert branch == qccs.IfThen(
            qccs.TraceNonzero(qccs.ProjectOp(i), ("a", "b")),
            qccs.SuperOp(qccs.ProjectOp(i), ("a", "b"), qccs.Out(str(i), "a", qccs.Nil())),
        )


def test_enc_dist_empty_is_identity_guarded():
    got = encode.enc_dist((), "x", qccs.Success())
    assert got == qccs.IfThen(
        qccs.TraceNonzero(qccs.ProjectOp(0), ()),
        qccs.SuperOp(qccs.ProjectOp(0), (), qccs.Success()),
    )


def test_enc_dist_rejects_duplicates():
    with pytest.raises(InvalidArity):
        encode.enc_dist(("a", "a"), "x", qccs.Nil())


# -- configurations ----------------------------------------------------------------

def test_pure_config_restricts_by_phi_and_takes_outer():
    config = cqp.CqpPure(sv("q", [SQ2, SQ2]), (), cqp.Nil())
    out = encode.encode_config(config)
    assert isinstance(out, qccs.QccsConfig)
    assert out.term == qccs.Restrict(qccs.Nil(), ())
    assert quantum.approx_eq(out.rho, quantum.outer(config.sigma), 1e-9)


def test_dist_config_builds_mixture():
    # measuring one of two entangled qubits, then translating the distribution
    src = cqp.CqpPure(
        sv(("q0", "q1"), [SQ2, 0, 0, SQ2]),
        (),
        cqp.Measure(("q0",), "x", cqp.Nil()),
    )
    (step,) = cqp.enumerate_steps(src)
    dist = step.next
    out = encode.encode_config(dist)
    want = np.zeros((4, 4), dtype=complex)
    want[0, 0] = 0.5
    want[3, 3] = 0.5
    assert np.allclose(out.rho.entries, want, atol=1e-9)
    term = out.term
    assert isinstance(term, qccs.Restrict)
    assert isinstance(term.cont, qccs.Choice)


def test_teleport_translation_matches_displayed_shape():
    out = encode.encode_config(teleport())
    term = out.term
    assert isinstance(term, qccs.Restrict) and term.chans == ()
    inner = term.cont
    for name in ("0", "1", "2", "3"):
        assert isinstance(inner, qccs.Tau)
        assert isinstance(inner.cont, qccs.Restrict) and inner.cont.chans == (name,)
        inner = inner.cont.cont
    assert isinstance(inner, qccs.Par)
    alice = inner.left
    assert alice == qccs.SuperOp(
        qccs.GateOp("CNOT"),
        ("q0", "q1"),
        qccs.SuperOp(
            qccs.GateOp("H"),
            ("q0",),
            qccs.SuperOp(
                qccs.MeasureOp(),
                ("q0", "q1"),
                encode.enc_dist(("q0", "q1"), "x", qccs.Out("x", "q0", qccs.Nil())),
            ),
        ),
    )
    bob = inner.right
    expect_bob = qccs.Par(
        qccs.In("0", "y", qccs.SuperOp(qccs.GateOp("I"), ("q2",), qccs.Success())),
        qccs.Par(
            qccs.In("1", "y", qccs.SuperOp(qccs.GateOp("X"), ("q2",), qccs.Success())),
            qccs.Par(
                qccs.In("2", "y", qccs.SuperOp(qccs.GateOp("Z"), ("q2",), qccs.Success())),
                qccs.In("3", "y", qccs.SuperOp(qccs.GateOp("Y"), ("q2",), qccs.Success())),
            ),
        ),
    )
    assert bob == expect_bob
    assert encode.emit_translation(out).startswith("# operators: CNOT, H, I, X, Y, Z;")


def test_translation_of_welltyped_source_is_wellformed():
    qccs.check_wellformed({}, encode.encode_config(teleport()))


def test_translation_rejects_illtyped_source():
    bad = cqp.CqpPure(
        sv("q", [1, 0]),
        ("c", "d"),
        cqp.Par(cqp.Out("c", "q", cqp.Nil()), cqp.Out("d", "q", cqp.Nil())),
    )
    with pytest.raises(SharedQubit):
        encode.encode_config(bad)


def test_register_size_is_preserved():
    src = teleport()
    out = encode.encode_config(src)
    assert out.rho.num_qubits == src.sigma.num_qubits


# -- structural properties -----------------------------------------------------------

def test_name_invariance_on_teleport_initial():
    # the protocol channels are binder-bound, so renaming them is absorbed
    # on both sides (substitution is capture avoiding)
    src = teleport()
    gamma = {"0": "a", "1": "b", "2": "c", "3": "d"}
    left = encode.encode_config(criteria.rename_source(src, gamma))
    right = criteria.rename_target(encode.encode_config(src), gamma)
    assert left.term == right.term
    assert quantum.approx_eq(left.rho, right.rho, 1e-9)


def test_name_invariance_on_free_channels():
    src = cqp.CqpPure(
        sv(("q0", "q1"), [SQ2, 0, 0, SQ2]),
        ("c", "d"),
        cqp.Par(
            cqp.Out("c", "q0", cqp.Nil()),
            cqp.In("c", "x", cqp.Measure(("q1",), "m", cqp.Out("d", "q1", cqp.Nil()))),
        ),
    )
    gamma = {"c": "u", "d": "v"}
    left = encode.encode_config(criteria.rename_source(src, gamma))
    right = criteria.rename_target(encode.encode_config(src), gamma)
    assert left.term == right.term
    assert quantum.approx_eq(left.rho, right.rho, 1e-9)


def test_qubit_invariance_on_two_qubit_source():
    src = cqp.CqpPure(
        sv(("q0", "q1"), [0, SQ2, SQ2, 0]),
        ("c",),
        cqp.Out("c", "q0", cqp.Trans(("q1",), "H", cqp.Nil())),
    )
    gamma = {"q0": "q1", "q1": "q0"}
    left = encode.encode_config(criteria.rename_source(src, gamma))
    right = criteria.rename_target(encode.encode_config(src), gamma)
    assert left.rho.qubit_names == ("q1", "q0")
    assert left.term == right.term
    assert left.rho.qubit_names == right.rho.qubit_names
    assert np.allclose(left.rho.entries, right.rho.entries, atol=1e-9)


def test_congruence_preservation():
    p = cqp.Out("c", "q0", cqp.Nil())
    q_ = cqp.In("c", "x", cqp.Success())
    sigma = sv(("q0",), [1, 0])
    c1 = cqp.CqpPure(sigma, ("c",), cqp.Par(p, cqp.Par(q_, cqp.Nil())))
    c2 = cqp.CqpPure(sigma, ("c",), cqp.Par(q_, p))
    assert cqp.congruent(c1, c2)
    t1 = encode.encode_config(c1)
    t2 = encode.encode_config(c2)
    assert qccs.congruent(t1, t2)


def test_compositionality_contexts():
    # the translation of each operator is a fixed context around the
    # translations of its pieces
    body = cqp.Trans(("q0",), "H", cqp.Nil())
    reg = ("q0", "q1")
    enc_body = encode.encode_term(body, reg)

    assert encode.encode_term(cqp.Par(body, cqp.Success()), reg) == qccs.Par(
        enc_body, encode.encode_term(cqp.Success(), reg)
    )
    assert encode.encode_term(cqp.In("c", "x", body), reg) == qccs.In("c", "x", enc_body)
    assert encode.encode_term(cqp.Out("c", "q1", body), reg) == qccs.Out("c", "q1", enc_body)
    assert encode.encode_term(cqp.NewChan("x", body), reg) == qccs.Tau(qccs.Restrict(enc_body, ("x",)))


# -- emission --------------------------------------------------------------------------

def test_emitted_translation_roundtrips():
    out = encode.encode_config(teleport())
    text1 = encode.emit_translation(out)
    defs2, config2, table2 = qccs.parse_qccs(text1)
    assert defs2 == {} and table2 == {}
    text2 = encode.emit_translation(config2)
    assert text1 == text2
    assert qccs.congruent(out, config2)


def test_emitted_translation_contains_four_branch_choice():
    out = encode.encode_config(teleport())
    text = encode.emit_translation(out)
    for i in range(4):
        assert f"if tr(E{{{i}}}[q0, q1]) != 0 then E{{{i}}}[q0, q1].{i}!q0.nil" in text
