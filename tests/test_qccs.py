import collections
import dataclasses
import gc
import random

import numpy as np
import pytest

from qproc import canon, cqp, protocols, qccs, quantum
from qproc.criteria import Budget, build_lts, gen_config, qccs_system, run_instance_checks
from qproc.encode import encode_config
from qproc.errors import (
    ArityMismatch,
    InvalidRegister,
    NoCloningViolation,
    ParseError,
    UnboundQubit,
    UnknownName,
    WellFormednessError,
)
from qproc.qccs import (
    BTrue,
    Choice,
    ConstCall,
    CustomOp,
    GateOp,
    IfThen,
    In,
    LIn,
    LOut,
    LTau,
    MeasureOp,
    NewOp,
    Nil,
    Out,
    Par,
    ProjectOp,
    QccsConfig,
    Restrict,
    Success,
    SuperOp,
    Tau,
    TraceNonzero,
)

SQ2 = 1.0 / np.sqrt(2.0)


def dm(names, amps):
    psi = quantum.StateVector(tuple(names), np.array(amps, dtype=complex))
    return quantum.outer(psi)


def cfg(term, names=("q",), amps=(1, 0)):
    return QccsConfig(term, dm(names, amps))


# -- parsing -----------------------------------------------------------------

def test_parse_nil_config():
    defs, config, table = qccs.parse_qccs("state qubits q ; rho = outer(|0>) ; process nil")
    assert config.term == Nil()
    assert np.allclose(config.rho.entries, [[1, 0], [0, 0]])
    assert defs == {} and table == {}


def test_parse_counterexample_file():
    defs, config, table = qccs.parse_qccs(protocols.read("counterexample.qccs"))
    assert set(table) == {"Q"}
    assert config.term == SuperOp(
        CustomOp("Q"),
        ("q",),
        Choice(
            IfThen(TraceNonzero(ProjectOp(0), ("q",)), Tau(Success())),
            IfThen(TraceNonzero(ProjectOp(1), ("q",)), Tau(Nil())),
        ),
    )
    (s0, k0), (s1, k1) = table["Q"].terms
    assert (s0, s1) == (1, -1)
    assert np.allclose(k0, [[1, 0], [0, np.sqrt(2)]])
    assert np.allclose(k1, [[0, 1], [0, 0]])


def test_parse_mixture_and_matrix_states():
    _, config, _ = qccs.parse_qccs(
        "state qubits q ; rho = 1/2*outer(|0>) + 1/2*outer(|1>) ; process nil"
    )
    assert np.allclose(config.rho.entries, [[0.5, 0], [0, 0.5]])
    _, config, _ = qccs.parse_qccs(
        "state qubits q ; rho = matrix [[0.5, 0.5], [0.5, 0.5]] ; process nil"
    )
    assert np.allclose(config.rho.entries, 0.5 * np.ones((2, 2)))
    _, config, _ = qccs.parse_qccs(
        "state qubits q ; rho = 2*(1/4)*outer(|0>) + 1/2*outer(|1>) ; process nil"
    )
    assert np.allclose(config.rho.entries, [[0.5, 0], [0, 0.5]])


def test_a_star_before_a_ket_is_optional_inside_outer():
    def rho(ket):
        return qccs.parse_qccs(f"state qubits q ; rho = outer({ket}) ; process nil")[1].rho.entries

    assert np.array_equal(rho("0.6 * |0> + 0.8 * |1>"), rho("0.6|0> + 0.8|1>"))
    assert np.allclose(rho("0.6 * |0> + 0.8 * |1>"), [[0.36, 0.48], [0.48, 0.64]])


def test_a_zero_divisor_is_a_parse_error_at_the_divisor():
    for rho, column in (("matrix [[1/0]]", 35), ("outer(1/0|0>)", 32), ("1/0 * outer(|0>)", 26)):
        with pytest.raises(ParseError, match=f"^1:{column}: division by zero in a coefficient$"):
            qccs.parse_qccs(f"state qubits q ; rho = {rho} ; process nil")


def test_mixture_weights_are_non_negative_reals():
    for weight in ("i", "2*i"):
        with pytest.raises(ParseError, match="mixture weights must be non-negative reals"):
            qccs.parse_qccs(f"state qubits q ; rho = {weight} * outer(|0>) ; process nil")


def test_parse_cond1_violation_is_located():
    text = "state qubits q ; rho = outer(|0>) ; process c!q.c?x.H[q].nil"
    with pytest.raises(WellFormednessError) as err:
        qccs.parse_qccs(text)
    assert err.value.condition == "Cond1"
    assert "process" in err.value.path


def test_parse_cond2_violation_is_located():
    text = "state qubits q ; rho = outer(|0>) ; process c!q.nil | d!q.nil"
    with pytest.raises(WellFormednessError) as err:
        qccs.parse_qccs(text)
    assert err.value.condition == "Cond2"


def test_parse_def_with_loose_qubit_rejected():
    text = "def A(x) = H[y].nil\nstate qubits q ; rho = outer(|0>) ; process A(q)"
    with pytest.raises(WellFormednessError):
        qccs.parse_qccs(text)


def test_parse_reserved_superop_name_rejected():
    with pytest.raises(ParseError):
        qccs.parse_qccs("superop M(1) { +[[1,0],[0,1]]; }\nstate qubits q ; rho = outer(|0>) ; process nil")


# -- well-formedness ----------------------------------------------------------

def test_wellformed_accepts_simple_comm():
    term = Par(Out("c", "q", Nil()), In("c", "x", Nil()))
    qccs.check_wellformed({}, cfg(term))


def test_wellformed_allows_guarded_sharing():
    # receiver arms on distinct channels may mention the same qubit
    term = Par(In("c", "x", SuperOp(GateOp("X"), ("q",), Nil())),
               In("d", "y", SuperOp(GateOp("Z"), ("q",), Nil())))
    qccs.check_wellformed({}, cfg(term))


def test_wellformed_rejects_unbound_qubit():
    with pytest.raises(UnboundQubit):
        qccs.check_wellformed({}, cfg(Out("c", "nope", Nil())))


def test_wellformed_rejects_unknown_operator_and_constant():
    with pytest.raises(UnknownName):
        qccs.check_wellformed({}, cfg(SuperOp(CustomOp("NOPE"), ("q",), Nil())))
    with pytest.raises(UnknownName):
        qccs.check_wellformed({}, cfg(ConstCall("A", ("q",))))


def test_wellformed_rejects_duplicate_constant_args():
    defs = {"A": (("x", "y"), Par(Out("c", "x", Nil()), Out("d", "y", Nil())))}
    with pytest.raises(NoCloningViolation):
        qccs.check_wellformed(defs, cfg(ConstCall("A", ("q", "q"))))


# -- substitution ---------------------------------------------------------------

def test_subst_respects_restriction_binders():
    term = Restrict(Out("c", "q", Nil()), ("c",))
    got = qccs.substitute(term, {"d": "c"})  # c is bound; the outer d->c must not capture
    assert qccs.congruent(cfg(got), cfg(term))
    term2 = Restrict(Par(Out("c", "q", Nil()), Out("d", "q2", Nil())), ("c",))
    got2 = qccs.substitute(term2, {"d": "c"})
    assert isinstance(got2, Restrict)
    assert got2.chans != ("c",)  # bound channel renamed away from the incoming c
    assert qccs.free_channels(got2) == {"c"}  # the free d became the free c


def test_subst_restriction_rebinds_channel_positions_only():
    # the restriction binds the channel c, not the free qubit c
    term = Restrict(Par(Out("c", "c", Nil()), Out("d", "p", Nil())), ("c",))
    captured = qccs.substitute(term, {"d": "c"})
    assert qccs.free_qubits(captured) == {"c", "p"}
    assert qccs.free_channels(captured) == {"c"}
    (bound,) = captured.chans
    assert captured.cont.left.chan == bound != "c"
    shadowed = qccs.substitute(term, {"c": "e"})
    assert qccs.free_qubits(shadowed) == {"e", "p"}
    assert shadowed.chans == ("c",) and shadowed.cont.left.chan == "c"


def test_subst_input_rebinds_qubit_positions_only():
    # the input binds the qubit x, not the channel x
    term = In("a", "x", Out("x", "x", Nil()))
    assert qccs.free_channels(term) == {"a", "x"}
    assert qccs.substitute(term, {"x": "e"}) == In("a", "x", Out("e", "x", Nil()))
    moved = qccs.substitute(In("a", "x", Out("y", "x", Nil())), {"y": "x"})
    # the channel y became the free channel x; the qubit stays bound
    assert (qccs.free_channels(moved), qccs.free_qubits(moved)) == ({"a", "x"}, set())
    assert moved.cont.qubit == moved.var
    received = Par(Out("a", "q", Nil()), term)
    (tau,) = qccs.reduce_steps(cfg(received))
    assert tau.next.term == Par(Nil(), Out("x", "q", Nil()))


# -- semantics --------------------------------------------------------------------

def test_tau_step():
    (step,) = qccs.lts_steps(cfg(Tau(Success())))
    assert step.label == LTau()
    assert step.next.term == Success()


def test_oper_step_applies_superop():
    config = cfg(SuperOp(MeasureOp(), ("q",), Nil()), amps=(SQ2, SQ2))
    (step,) = qccs.lts_steps(config)
    assert step.label == LTau()
    assert np.allclose(step.next.rho.entries, [[0.5, 0], [0, 0.5]])


def test_comm_step():
    term = Par(Out("c", "q", Nil()), In("c", "x", SuperOp(GateOp("X"), ("x",), Success())))
    steps = qccs.lts_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)))
    taus = [s for s in steps if s.label == LTau()]
    assert len(taus) == 1
    want = cfg(Par(Nil(), SuperOp(GateOp("X"), ("q",), Success())), names=("q", "p"), amps=(1, 0, 0, 0))
    assert qccs.congruent(taus[0].next, want)


def test_input_menu_excludes_held_qubits():
    term = Par(In("c", "x", Nil()), Out("d", "p", Nil()))
    steps = qccs.lts_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)))
    ins = sorted(s.label.qubit for s in steps if isinstance(s.label, LIn))
    assert ins == ["q"]  # p is held by the parallel output


def test_restriction_blocks_matching_channels():
    term = Restrict(Out("c", "q", Nil()), ("c",))
    assert qccs.lts_steps(cfg(term)) == []
    term2 = Restrict(Out("d", "q", Nil()), ("c",))
    (step,) = qccs.lts_steps(cfg(term2))
    assert step.label == LOut("d", "q")


def test_choice_steps_are_flagged():
    term = Choice(Tau(Success()), Tau(Nil()))
    steps = qccs.lts_steps(cfg(term))
    assert len(steps) == 2
    assert all(s.reduces_choice for s in steps)
    assert {type(s.next.term) for s in steps} == {Success, Nil}


def test_ifthen_guards_inner_action():
    yes = IfThen(TraceNonzero(ProjectOp(0), ("q",)), Tau(Success()))
    no = IfThen(TraceNonzero(ProjectOp(1), ("q",)), Tau(Success()))
    assert len(qccs.lts_steps(cfg(yes))) == 1
    assert qccs.lts_steps(cfg(no)) == []


def test_a_guard_steps_where_its_operator_does_not_overflow():
    # K+K of B overflows, but B applied to |1><1| gives the finite diag(0, 1)
    defs, config, table = qccs.parse_qccs(
        "superop B(1) { +[[1e200, 0], [0, 1]]; } state qubits q ; rho = outer(|1>) ; "
        "process if tr(B[q]) != 0 then tau.ok"
    )
    (step,) = qccs.lts_steps(config, defs, table)
    assert step.next.term == Success()


def test_guard_counts_negative_trace_as_nonzero():
    probe = qccs.parse_qccs(protocols.read("counterexample.qccs"))[2]["Q"]
    rho = quantum.superop_apply(probe, ("q",), dm("q", (0, 1)))  # diag(-1, 2)
    assert qccs.eval_bool(TraceNonzero(ProjectOp(0), ("q",)), rho)
    assert qccs.eval_bool(TraceNonzero(ProjectOp(1), ("q",)), rho)


def test_constant_call_steps_match_unfolded_body():
    defs = {"A": (("x", "y"), Par(Out("c", "x", Nil()), In("c", "z", SuperOp(GateOp("H"), ("y",), Nil()))))}
    call = cfg(ConstCall("A", ("q", "p")), names=("q", "p"), amps=(1, 0, 0, 0))
    body = cfg(
        qccs.substitute(defs["A"][1], {"x": "q", "y": "p"}),
        names=("q", "p"),
        amps=(1, 0, 0, 0),
    )
    call_steps = qccs.lts_steps(call, defs)
    body_steps = qccs.lts_steps(body, defs)
    assert len(call_steps) == len(body_steps)
    for a, b in zip(call_steps, body_steps):
        assert a.label == b.label
        assert qccs.congruent(a.next, b.next)


def test_steps_preserve_wellformedness():
    term = Par(
        Out("c", "q", Nil()),
        In("c", "x", SuperOp(GateOp("X"), ("x",), Out("d", "x", Nil()))),
    )
    config = cfg(term, names=("q", "p"), amps=(0, 1, 0, 0))
    qccs.check_wellformed({}, config)
    frontier = [config]
    seen = 0
    while frontier and seen < 50:
        cur = frontier.pop()
        seen += 1
        for step in qccs.lts_steps(cur):
            qccs.check_wellformed({}, step.next)
            frontier.append(step.next)


def test_def_unfolding_and_recursion_guard():
    defs = {"A": (("x",), Tau(ConstCall("A", ("x",))))}
    config = cfg(ConstCall("A", ("q",)))
    (step,) = qccs.lts_steps(config, defs)
    assert step.label == LTau()
    assert step.next.term == ConstCall("A", ("q",))
    looping = {"B": (("x",), ConstCall("B", ("x",)))}
    assert qccs.lts_steps(cfg(ConstCall("B", ("q",))), looping) == []


def test_new_operator_appends_qubit():
    config = cfg(SuperOp(NewOp(), (), Out("c", "q1", Nil())), names=("q0",), amps=(0, 1))
    (step,) = qccs.lts_steps(config)
    assert step.next.rho.qubit_names == ("q0", "q1")
    assert np.allclose(step.next.rho.entries[2, 2], 1.0)


def test_reduce_steps_are_tau_only():
    term = Par(Out("c", "q", Nil()), In("c", "x", Nil()))
    labels = {type(s.label) for s in qccs.lts_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)))}
    assert labels == {LTau, LIn, LOut}
    reduced = qccs.reduce_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)))
    assert all(s.label == LTau() for s in reduced)


# -- the late-input stepper against the early one -----------------------------------

def _early_steps(t, rho, defs, table, tol, unfolding):
    """The early labelled semantics, written directly: every input is
    substituted once per register qubit it may receive at every level."""

    def steps(p, unfolding=unfolding):
        return _early_steps(p, rho, defs, table, tol, unfolding)

    match t:
        case Nil() | Success():
            return []
        case Tau(p):
            return [(LTau(), p, rho, False)]
        case SuperOp(op, qs, p):
            try:
                rho2 = quantum.superop_apply(qccs.resolve_op(op, len(qs), table), qs, rho, tol)
            except qccs.ZeroBranch:
                return []
            return [(LTau(), p, rho2, False)]
        case In(c, x, p):
            blocked = qccs.free_qubits(t)
            received = [q for q in rho.qubit_names if q not in blocked]
            return [(LIn(c, q), qccs._substitute(p, {}, {x: q}), rho, False) for q in received]
        case Out(c, q, p):
            return [(LOut(c, q), p, rho, False)]
        case Choice(l, r):
            return [(lab, t2, r2, True) for lab, t2, r2, _ in steps(l) + steps(r)]
        case Par(l, r):
            lefts, rights = steps(l), steps(r)
            out = [(lab, Par(t2, r), r2, ch) for lab, t2, r2, ch in lefts
                   if not (isinstance(lab, LIn) and lab.qubit in qccs.free_qubits(r))]
            out += [(lab, Par(l, t2), r2, ch) for lab, t2, r2, ch in rights
                    if not (isinstance(lab, LIn) and lab.qubit in qccs.free_qubits(l))]
            for lab1, t1, _, ch1 in lefts:
                for lab2, t2, _, ch2 in rights:
                    if {type(lab1), type(lab2)} == {LIn, LOut} and (lab1.chan, lab1.qubit) == (lab2.chan, lab2.qubit):
                        out.append((LTau(), Par(t1, t2), rho, ch1 or ch2))
            return out
        case Restrict(p, chans):
            return [(lab, Restrict(t2, chans), r2, ch) for lab, t2, r2, ch in steps(p)
                    if getattr(lab, "chan", None) not in chans]
        case IfThen(b, p):
            return steps(p) if qccs.eval_bool(b, rho, table, tol) else []
        case ConstCall(name, args):
            if name in unfolding:
                return []
            params, body = defs[name]
            return steps(qccs.substitute(body, dict(zip(params, args))), unfolding | {name})
    raise TypeError(t)


def _same_steps(config, defs=None, table=None):
    """``lts_steps`` and ``reduce_steps`` list exactly the early steps:
    labels, order, terms, rho bytes and choice flags."""
    early = _early_steps(config.term, config.rho, defs or {}, table or {}, quantum.DEFAULT_TOL, frozenset())
    want = [(lab, t2, r2.qubit_names, r2.entries.tobytes(), ch) for lab, t2, r2, ch in early]

    def got(steps):
        return [
            (s.label, s.next.term, s.next.rho.qubit_names, s.next.rho.entries.tobytes(), s.reduces_choice)
            for s in steps
        ]

    assert got(qccs.lts_steps(config, defs, table)) == want
    assert got(qccs.reduce_steps(config, defs, table)) == [w for w in want if w[0] == LTau()]
    return want


def _explored(config, defs=None, table=None, budget=Budget(16, 200)):
    return build_lts(config, qccs_system(defs, table, labelled=True), budget).states


def test_steps_match_the_early_semantics_on_generated_configurations():
    for seed in range(100):
        for state in _explored(encode_config(gen_config(seed))):
            _same_steps(state)


def test_steps_match_the_early_semantics_on_the_bundled_protocols():
    for name in ("teleport-encoded.qccs", "counterexample.qccs"):
        defs, config, table = qccs.parse_qccs(protocols.read(name))
        for state in _explored(config, defs, table):
            _same_steps(state, defs, table)
    for name in ("teleport.cqp", "measurement.cqp"):
        for state in _explored(encode_config(cqp.parse_cqp(protocols.read(name)))):
            _same_steps(state)


def test_input_is_blocked_by_a_sibling_using_the_qubit_under_a_guard():
    guarded = IfThen(BTrue(), In("d", "y", SuperOp(GateOp("X"), ("q",), Nil())))
    term = Par(Par(In("c", "x", Success()), guarded), Out("c", "q", Nil()))
    steps = _same_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)))
    assert [lab for lab, *_ in steps] == [LIn("c", "p"), LIn("d", "p"), LOut("c", "q")]


def test_choice_sibling_does_not_block_an_input():
    term = Par(Choice(In("c", "x", Success()), Tau(SuperOp(GateOp("X"), ("q",), Nil()))), Out("c", "q", Nil()))
    steps = _same_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)))
    assert [(lab, ch) for lab, _, _, _, ch in steps if lab == LTau()] == [(LTau(), True), (LTau(), True)]


def test_restricted_channel_keeps_its_communication_and_hides_its_input():
    inner = Par(Par(In("c", "x", Success()), Out("c", "q", Nil())), In("d", "y", Nil()))
    steps = _same_steps(cfg(Restrict(inner, ("c",)), names=("q", "p"), amps=(1, 0, 0, 0)))
    assert [lab for lab, *_ in steps] == [LTau(), LIn("d", "p")]


def test_constant_unfolding_to_an_input_receives_like_the_input():
    defs = {"A": (("y",), In("c", "x", SuperOp(GateOp("CNOT"), ("x", "y"), Nil())))}
    term = Par(ConstCall("A", ("q",)), Out("c", "p", Nil()))
    steps = _same_steps(cfg(term, names=("q", "p"), amps=(1, 0, 0, 0)), defs)
    assert [lab for lab, *_ in steps] == [LOut("c", "p"), LTau()]


def test_one_input_meets_its_outputs_in_register_order():
    # the outputs are listed q1 first, but the early semantics offers the
    # input q0 first, so its communication with q0 comes first
    term = Par(In("c", "x", SuperOp(GateOp("X"), ("x",), Nil())), Par(Out("c", "q1", Nil()), Out("c", "q0", Nil())))
    steps = _same_steps(cfg(term, names=("q0", "q1"), amps=(1, 0, 0, 0)))
    taus = [t2 for lab, t2, *_ in steps if lab == LTau()]
    assert [t.left.qubits for t in taus] == [("q0",), ("q1",)]


# -- step templates are read only where they apply -------------------------------------

def test_one_term_steps_by_each_defs_it_is_stepped_under():
    term = Par(ConstCall("A", ("q",)), Out("c", "p", Nil()))
    config = cfg(term, names=("q", "p"), amps=(1, 0, 0, 0))
    receives = {"A": (("x",), In("c", "y", SuperOp(GateOp("CNOT"), ("y", "x"), Nil())))}
    flips = {"A": (("x",), Choice(Tau(SuperOp(GateOp("X"), ("x",), Success())), Out("d", "x", Nil())))}
    for stepper in (qccs.lts_steps, qccs.reduce_steps):
        with pytest.raises(UnknownName, match="unresolved process constant 'A'"):
            stepper(config)
    received = _same_steps(config, receives)
    flipped = _same_steps(config, flips)
    assert [lab for lab, *_ in received] == [LOut("c", "p"), LTau()]
    assert [lab for lab, *_ in flipped] == [LTau(), LOut("d", "q"), LOut("c", "p")]
    assert _same_steps(config, receives) == received
    assert _same_steps(config, flips) == flipped


def test_one_term_steps_by_each_operator_table_it_is_stepped_under():
    # Q keeps |0> in one file and annihilates it in the other
    process = "state qubits q ; rho = outer(|0>) ; process if tr(Q[q]) != 0 then tau.ok + Q[q].tau.nil"
    _, keeps, kept = qccs.parse_qccs("superop Q(1) { +[[1, 0], [0, 0]]; }\n" + process)
    _, drops, dropped = qccs.parse_qccs("superop Q(1) { +[[0, 0], [0, 1]]; }\n" + process)
    assert keeps.term is drops.term
    for _ in range(2):
        assert [t2 for _, t2, *_ in _same_steps(keeps, table=kept)] == [Success(), Tau(Nil())]
        (step,) = _same_steps(drops, table=dropped)
        assert step[1] == Tau(Nil()) and not np.frombuffer(step[3], dtype=complex).any()


def _spectated(config, before):
    """``config`` with three spectator qubits in |+0-> put before or after its register."""
    spectators = dm(("s0", "s1", "s2"), np.kron(np.kron([SQ2, SQ2], [1, 0]), [SQ2, -SQ2]))
    first, second = (spectators, config.rho) if before else (config.rho, spectators)
    rho = quantum.DensityMatrix(first.qubit_names + second.qubit_names, np.kron(first.entries, second.entries))
    return QccsConfig(config.term, rho)


def test_one_term_steps_by_each_register_order_it_is_stepped_under():
    term = Par(In("c", "x", SuperOp(GateOp("X"), ("x",), Nil())), Par(Out("c", "q1", Nil()), Out("c", "q0", Nil())))
    in_order = _same_steps(cfg(term, names=("q0", "q1"), amps=(1, 0, 0, 0)))
    reversed_order = _same_steps(cfg(term, names=("q1", "q0"), amps=(1, 0, 0, 0)))
    assert [t.left.qubits for lab, t, *_ in in_order if lab == LTau()] == [("q0",), ("q1",)]
    assert [t.left.qubits for lab, t, *_ in reversed_order if lab == LTau()] == [("q1",), ("q0",)]
    for seed in range(20):
        for state in _explored(encode_config(gen_config(seed)), budget=Budget(8, 40)):
            _same_steps(state)
            _same_steps(_spectated(state, before=False))
            _same_steps(_spectated(state, before=True))


def test_a_constant_body_steps_alike_inside_and_outside_its_unfolding():
    # inside its own unfolding A(q) has no action; outside it unfolds once
    defs = {"A": (("x",), Par(ConstCall("A", ("x",)), Tau(Success())))}
    body = qccs.substitute(defs["A"][1], {"x": "q"})
    for _ in range(2):
        assert len(_same_steps(cfg(ConstCall("A", ("q",))), defs)) == 1
        assert len(_same_steps(cfg(body), defs)) == 2


def test_a_guard_is_evaluated_where_the_walk_evaluates_it():
    # the guard's trace overflows; its body has no step, but it still raises
    overflow = "superop Q(1) { +[[1e300, 0], [0, 1]]; } state qubits q ; rho = outer(|0>) ; process nil"
    table = qccs.parse_qccs(overflow)[2]
    overflows = IfThen(TraceNonzero(CustomOp("Q"), ("q",)), Nil())
    unresolved = ConstCall("A", ("q",))
    for term, error in [
        (overflows, InvalidRegister),
        (Restrict(Par(Tau(Success()), overflows), ("c",)), InvalidRegister),
        (Par(overflows, unresolved), InvalidRegister),
        (Par(unresolved, overflows), UnknownName),
    ]:
        for stepper in (qccs.lts_steps, qccs.reduce_steps):
            with pytest.raises(error):
                stepper(cfg(term), table=table)
    unfolds_short = {"A": (("x", "y"), Nil())}
    for term, error in [(Par(overflows, unresolved), InvalidRegister), (Par(unresolved, overflows), ArityMismatch)]:
        with pytest.raises(error):
            qccs.reduce_steps(cfg(term), unfolds_short, table)
    # under a guard that fails, neither the overflow nor the constant is reached
    shut = IfThen(TraceNonzero(ProjectOp(1), ("q",)), Par(overflows, unresolved))
    assert qccs.reduce_steps(cfg(Par(shut, Tau(Nil()))), table=table)[0].next.term == Par(shut, Nil())


def test_an_unguarded_zero_probability_operator_has_no_step():
    zero = SuperOp(ProjectOp(1), ("q",), Success())
    assert _same_steps(cfg(zero)) == []
    assert [lab for lab, *_ in _same_steps(cfg(Par(zero, Tau(Nil()))))] == [LTau()]


def test_each_state_applies_and_traces_as_often_as_the_early_semantics(monkeypatch):
    calls = collections.Counter()

    def counted(name):
        inner = getattr(quantum, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        return count

    def early(config, defs, table):
        return _early_steps(config.term, config.rho, defs, table, quantum.DEFAULT_TOL, frozenset())

    defs, config, table = qccs.parse_qccs(protocols.read("teleport-encoded.qccs"))
    states = _explored(config, defs, table)
    for name in ("superop_apply", "raw_trace_after"):
        monkeypatch.setattr(quantum, name, counted(name))
    total = collections.Counter()
    for state in states:
        counts = []
        for stepper in (early, qccs.lts_steps, qccs.reduce_steps):
            calls.clear()
            stepper(state, defs, table)
            counts.append(dict(calls))
        assert counts[0] == counts[1] == counts[2]
        total.update(counts[0])
        calls.clear()
        qccs.has_success_barb(state, defs)  # the barb read evaluates no guard and applies no operator
        assert not calls
    assert len(states) > 10 and total["superop_apply"] > 10 and total["raw_trace_after"] == 4


def test_templates_keep_no_earlier_instance_alive():
    qccs._builtin_op.cache_clear()
    gc.collect()
    before = len(canon._table)
    for seed in range(40):
        verdicts = run_instance_checks(gen_config(seed), Budget(48, 800), seed)
        assert not any(v.fails for v in verdicts.values())
    del verdicts
    qccs._builtin_op.cache_clear()
    gc.collect()
    assert len(canon._table) == before


def _wrapped_teleport():
    """The bundled teleport translation, and the same process as the body
    of ``def T(q0, q1, q2)`` called on its register."""
    defs, config, table = qccs.parse_qccs(protocols.read("teleport-encoded.qccs"))
    names = config.rho.qubit_names
    wrapped = {**defs, "T": (names, config.term)}
    return (config, defs, table), (QccsConfig(ConstCall("T", names), config.rho), wrapped, table)


def _labelled(config, defs, table):
    return build_lts(config, qccs_system(defs, table, labelled=True), Budget(48, 800))


def test_a_constant_wrapped_process_keeps_its_templates(monkeypatch):
    (config, defs, table), (call, wrapped, _) = _wrapped_teleport()
    qccs.check_wellformed(wrapped, call, table)
    plain, first = _labelled(config, defs, table), _labelled(call, wrapped, table)
    assert first.complete and len(plain.states) > 10
    # the call unfolds to the file's process: the same LTS, state 0 aside
    assert first.edges == plain.edges and first.barbs == plain.barbs
    assert [(s.term, s.rho.entries.tobytes()) for s in first.states[1:]] == [
        (s.term, s.rho.entries.tobytes()) for s in plain.states[1:]
    ]
    # a second exploration reads every template from the nodes: each state's
    # steps and barb are one memo hit, which builds nothing below it
    calls = collections.Counter()

    def counted(name):
        inner = getattr(qccs, name)

        def count(*args):
            calls[name] += 1
            return inner(*args)

        return count

    for name in ("_root_template", "_template"):
        monkeypatch.setattr(qccs, name, counted(name))
    second = _labelled(call, wrapped, table)
    assert second.edges == first.edges
    assert calls["_template"] == calls["_root_template"] == 2 * len(second.states)


def test_a_recursive_constant_goes_at_the_next_collection():
    # the template of A(q) holds A's body, which holds A(q): a cycle
    gc.collect()
    before = len(canon._table)

    def explore():
        defs, config, table = qccs.parse_qccs("def A(q) = tau.A(q)\nstate qubits q ;\nrho = outer(|0>) ;\nprocess A(q)")
        lts = _labelled(config, defs, table)
        assert len(lts.states) == 1 and lts.edges == [(0, "tau", 0, False)]

    explore()
    gc.collect()
    assert len(canon._table) == before


# -- barbs ---------------------------------------------------------------------

def _barb_walk(t, defs, unfolding=frozenset()):
    """Unguarded success by a walk of its own, with its own unfolding of
    constants: the reference for the barb that ``has_success_barb`` reads
    from the template."""
    match t:
        case Success():
            return True
        case Par(l, r) | Choice(l, r):
            return _barb_walk(l, defs, unfolding) or _barb_walk(r, defs, unfolding)
        case Restrict(p, _):
            return _barb_walk(p, defs, unfolding)
        case ConstCall(name, args):
            if name in unfolding or name not in defs:
                return False
            params, body = defs[name]
            return _barb_walk(qccs.substitute(body, dict(zip(params, args))), defs, unfolding | {name})
    return False


def _same_barbs(states, defs=None):
    for state in states:
        assert qccs.has_success_barb(state, defs) == _barb_walk(state.term, defs or {})


def test_barbs_match_the_walk_on_generated_configurations_and_bundled_files():
    for seed in range(100):
        _same_barbs(_explored(encode_config(gen_config(seed))))
    for name in ("teleport-encoded.qccs", "counterexample.qccs"):
        defs, config, table = qccs.parse_qccs(protocols.read(name))
        _same_barbs(_explored(config, defs, table), defs)


def test_barbs_match_the_walk_through_constants():
    def call(name):
        return ConstCall(name, ("q",))

    defs = {
        "G": (("x",), Choice(Tau(ConstCall("G", ("x",))), Out("c", "x", Nil()))),  # guarded, no barb
        "H": (("x",), Par(Tau(ConstCall("H", ("x",))), Success())),  # guarded, barb
        "U": (("x",), Par(ConstCall("U", ("x",)), Tau(Success()))),  # unguarded, no barb
        "V": (("x",), Choice(ConstCall("V", ("x",)), Success())),  # unguarded, barb beside the recursion
        "M": (("x",), Choice(ConstCall("N", ("x",)), Tau(Nil()))),  # mutual, barb in the other body
        "N": (("x",), Par(ConstCall("M", ("x",)), Success())),
    }
    bodies = [qccs.substitute(body, {"x": "q"}) for _, body in defs.values()]
    # each body is reached outside its unfolding here and inside it below
    terms = [call(name) for name in defs] + bodies
    for order in (terms, terms[::-1]):
        for term in order:
            _same_barbs(_explored(cfg(term), defs), defs)
    barbs = [qccs.has_success_barb(cfg(t), defs) for t in terms]
    assert barbs == [False, True, False, True, True, True] * 2
    # A(q) has a barb, but not inside B's unfolding, where B(q) reaches it first
    inside = {"A": (("x",), ConstCall("B", ("x",))), "B": (("x",), Choice(ConstCall("A", ("x",)), Success()))}
    for term in (call("B"), call("A")):
        _same_barbs(_explored(cfg(term), inside), inside)
    # an unresolved constant has no barb, called directly or from a body
    unresolved = {**defs, "W": (("x",), Par(ConstCall("Z", ("x",)), Nil()))}
    terms = [call("Z"), call("W"), Choice(call("Z"), call("V"))]
    _same_barbs([cfg(t) for t in terms], unresolved)
    assert [qccs.has_success_barb(cfg(t), unresolved) for t in terms] == [False, False, True]
    # a call of the wrong arity reads as no barb (the walk would unfold it short)
    assert not qccs.has_success_barb(cfg(ConstCall("V", ("q", "p")), names=("q", "p"), amps=(1, 0, 0, 0)), defs)


def test_barbs():
    assert qccs.has_success_barb(cfg(Par(Success(), Nil())))
    assert qccs.has_success_barb(cfg(Choice(Success(), Tau(Nil()))))
    assert not qccs.has_success_barb(cfg(Tau(Success())))
    assert not qccs.has_success_barb(cfg(IfThen(BTrue(), Success())))
    assert qccs.has_success_barb(cfg(Restrict(Success(), ("c",))))


def test_barb_through_constants():
    defs = {"A": ((), Success()), "B": ((), ConstCall("B", ()))}
    assert qccs.has_success_barb(cfg(ConstCall("A", ())), defs)
    assert not qccs.has_success_barb(cfg(ConstCall("B", ())), defs)


# -- congruence -------------------------------------------------------------------

def test_par_laws():
    a = Out("c", "q", Nil())
    b = In("c", "x", Nil())
    assert qccs.congruent(cfg(Par(a, Nil())), cfg(a))
    assert qccs.congruent(cfg(Par(a, b)), cfg(Par(b, a)))
    assert qccs.congruent(cfg(Par(a, Par(b, Success()))), cfg(Par(Par(a, b), Success())))


def test_choice_is_not_commutative_for_congruence():
    a = Tau(Success())
    b = Tau(Nil())
    assert not qccs.congruent(cfg(Choice(a, b)), cfg(Choice(b, a)))


def _measured(i, body):
    return IfThen(TraceNonzero(ProjectOp(i), ("q",)), SuperOp(ProjectOp(i), ("q",), body))


def test_factor_measurement_choices_moves_out_what_every_branch_shares():
    shared = Out("d", "r", Nil())
    on_q = Tau(SuperOp(GateOp("X"), ("q",), Nil()))  # in every branch, but acts on the measured qubit
    sent = Out("0", "q", Nil())
    choice = Choice(_measured(0, Par(sent, Par(shared, on_q))), _measured(1, Par(on_q, shared)))
    term = Restrict(Par(choice, Success()), ("d",))
    factored = Choice(_measured(0, Par(sent, on_q)), _measured(1, on_q))
    assert qccs.factor_measurement_choices(term) == Restrict(Par(Par(factored, shared), Success()), ("d",))
    # a law, not a congruence
    assert not qccs.congruent(cfg(qccs.factor_measurement_choices(term)), cfg(term))
    # choices that miss an outcome, and choices under a prefix, stay as they are
    for other in (Choice(_measured(0, shared), _measured(0, shared)), Tau(choice)):
        assert qccs.factor_measurement_choices(other) == other


def test_nested_restrictions_merge():
    a = Out("c", "q", Nil())
    assert qccs.congruent(
        cfg(Restrict(Restrict(a, ("d",)), ("e",))),
        cfg(Restrict(a, ("d", "e"))),
    )
    assert qccs.congruent(cfg(Restrict(a, ())), cfg(a))


def test_register_renaming_is_not_congruence():
    # qubit-name invariance is a criterion of its own, not congruence
    left = QccsConfig(Out("c", "a", Nil()), dm(("a",), (0, 1)))
    right = QccsConfig(Out("c", "b", Nil()), dm(("b",), (0, 1)))
    assert not qccs.congruent(left, right)
    assert qccs.canonical_key(left) != qccs.canonical_key(right)


def test_register_is_a_set_of_named_qubits():
    # qCCS has no permutation rule: the register reordered, with rho
    # permuted to match, is the same configuration
    term = Par(Out("c", "a", Nil()), SuperOp(GateOp("X"), ("b",), Nil()))
    rho = dm(("a", "b", "q"), (0, 0.6, 0, 0, 0, 0, 0.8, 0))
    reordered = quantum.DensityMatrix(("q", "a", "b"), quantum._permuted_entries(rho, (2, 0, 1)))
    assert reordered.qubit_names == ("q", "a", "b")
    left, right = QccsConfig(term, rho), QccsConfig(term, reordered)
    assert qccs.congruent(left, right) and qccs.congruent(right, left)
    assert qccs.canonical_key(left) == qccs.canonical_key(right)
    # the names reordered but rho left as it was is another state
    stale = QccsConfig(term, quantum.DensityMatrix(reordered.qubit_names, rho.entries))
    assert not qccs.congruent(left, stale)


def test_binders_bind_one_sort_of_name_in_congruence():
    # an input binds a qubit and a restriction binds channels, as in
    # substitution and in the free names
    def same(t1, t2):
        return qccs.congruent(cfg(t1), cfg(t2))

    assert not same(In("c", "x", Out("x", "q", Nil())), In("c", "y", Out("y", "q", Nil())))
    assert same(In("c", "x", Out("x", "q", Nil())), In("c", "y", Out("x", "q", Nil())))
    assert not same(Restrict(Out("c", "c", Nil()), ("c",)), Restrict(Out("d", "d", Nil()), ("d",)))
    assert same(Restrict(Out("c", "c", Nil()), ("c",)), Restrict(Out("d", "c", Nil()), ("d",)))


def test_extruded_restrictions_are_numbered_by_structure():
    # (va)a!q | (vb)b!r  and  (vb)b!q | (va)a!r  differ only in the
    # restricted names, so the channel order may not follow the names
    two = (("q", "r"), (1, 0, 0, 0))
    left = Par(Restrict(Out("a", "q", Nil()), ("a",)), Restrict(Out("b", "r", Nil()), ("b",)))
    right = Par(Restrict(Out("b", "q", Nil()), ("b",)), Restrict(Out("a", "r", Nil()), ("a",)))
    assert qccs.congruent(cfg(left, *two), cfg(right, *two))


def _rename_and_shuffle(t, rng, fresh):
    """A congruent variant: restricted channels renamed to fresh names,
    parallel components shuffled and reassociated."""
    match t:
        case Par():
            parts = []
            work = [t]
            while work:
                cur = work.pop()
                if isinstance(cur, Par):
                    work += [cur.left, cur.right]
                else:
                    parts.append(_rename_and_shuffle(cur, rng, fresh))
            rng.shuffle(parts)
            out = parts[0]
            for p in parts[1:]:
                out = Par(out, p) if rng.random() < 0.5 else Par(p, out)
            return out
        case Restrict(p, chans):
            renames = {c: next(fresh) for c in chans}
            body = _rename_and_shuffle(qccs.substitute(p, renames), rng, fresh)
            return Restrict(body, tuple(renames[c] for c in chans))
        case Choice(l, r):
            return Choice(_rename_and_shuffle(l, rng, fresh), _rename_and_shuffle(r, rng, fresh))
        case Tau() | SuperOp() | In() | Out() | IfThen():
            return dataclasses.replace(t, cont=_rename_and_shuffle(t.cont, rng, fresh))
    return t


def test_congruence_survives_renaming_restrictions_and_shuffling():
    checked, misses = 0, []
    for i in range(300):
        rng = random.Random(i)
        fresh = (f"z{k}" for k in rng.sample(range(10**6), 1000))
        lts = build_lts(encode_config(gen_config(i)), qccs_system(), Budget(8, 60))
        for state in lts.states:
            variant = QccsConfig(_rename_and_shuffle(state.term, rng, fresh), state.rho)
            checked += 1
            if not qccs.congruent(state, variant):
                misses.append((i, qccs.format_term(state.term), qccs.format_term(variant.term)))
    assert checked > 1000
    assert misses == [], (len(misses), checked)


def test_congruence_keeps_restriction_scopes_apart():
    two = (("q", "r"), (1, 0, 0, 0))
    aq, ar, br = Out("a", "q", Nil()), Out("a", "r", Nil()), Out("b", "r", Nil())
    # a restricted channel is not the free channel of the same name
    assert not qccs.congruent(cfg(Restrict(aq, ("a",)), *two), cfg(aq, *two))
    # one shared restricted channel is not two separate ones
    assert not qccs.congruent(
        cfg(Restrict(Par(aq, ar), ("a",)), *two),
        cfg(Restrict(Par(aq, br), ("a", "b")), *two),
    )
    # an inner restriction shadowing a free name is not the captured form
    shadowing = Par(aq, Restrict(ar, ("a",)))
    assert not qccs.congruent(cfg(shadowing, *two), cfg(Restrict(Par(aq, ar), ("a",)), *two))
    assert qccs.congruent(cfg(shadowing, *two), cfg(Par(aq, Restrict(br, ("b",))), *two))
    # restricted channels are told apart by the components they link
    def linked(first, second):
        inputs = Par(In(first, "x", Success()), In(second, "y", Nil()))
        return cfg(Restrict(Par(Par(aq, br), inputs), ("a", "b")), *two)

    assert not qccs.congruent(linked("a", "b"), linked("b", "a"))


def _links(edges, order=None):
    """(v channels) the parallel composition of c?x.d?y.0 for each edge (c, d)."""
    parts = [In(c, "x", In(d, "y", Nil())) for c, d in edges]
    if order is not None:
        parts = [parts[k] for k in order]
    term = parts[0]
    for p in parts[1:]:
        term = Par(term, p)
    chans = tuple(dict.fromkeys(c for edge in edges for c in edge))
    return cfg(Restrict(term, chans))


def test_tied_restricted_channels_are_numbered_independently_of_order():
    # a, b and c occur in two components each and refinement cannot tell them
    # apart; every order of the components and every renaming stays congruent
    edges = [("a", "b"), ("a", "c"), ("b", "c")]
    reference = _links(edges)
    for order in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert qccs.congruent(reference, _links(edges, order))
    for perm in [("c", "a", "b"), ("b", "c", "a"), ("c", "b", "a")]:
        rename = dict(zip("abc", perm))
        assert qccs.congruent(reference, _links([(rename[c], rename[d]) for c, d in edges]))
    # the cycle a -> b -> c -> a has the same refinement but is a different term
    assert not qccs.congruent(reference, _links([("a", "b"), ("b", "c"), ("c", "a")]))


def test_symmetric_restriction_groups():
    # one 6-cycle and two 3-cycles: every channel is read by two components
    # of the same shape, so only the full numbering tells them apart
    ring = [(f"a{k}", f"a{(k + 1) % 6}") for k in range(6)]
    triangles = [(f"a{k}", f"a{(k + 1) % 3}") for k in range(3)]
    triangles += [(f"a{k + 3}", f"a{(k + 1) % 3 + 3}") for k in range(3)]
    assert not qccs.congruent(_links(ring), _links(triangles))
    rng = random.Random(7)
    for edges in (ring, triangles):
        order = list(range(6))
        rng.shuffle(order)
        assert qccs.congruent(_links(edges), _links(edges, order))
    # interchangeable channels, and interchangeable pairs of them
    star = [(f"a{k}", "s") for k in range(8)]
    assert qccs.congruent(_links(star), _links(star, list(reversed(range(8)))))
    matching = [(f"a{k}", f"b{k}") for k in range(6)]
    assert qccs.congruent(_links(matching), _links(matching, [3, 5, 0, 4, 1, 2]))


# 0.1234567895 lies halfway between two 9-digit roundings
BOUNDARY = 0.1234567895


def test_states_astride_a_rounding_boundary_share_key_and_congruence():
    def at(p):
        return QccsConfig(Tau(Success()), quantum.DensityMatrix(("q",), np.diag([p, 1 - p])))

    low, high, far = at(BOUNDARY - 1e-12), at(BOUNDARY + 1e-12), at(BOUNDARY + 1e-6)
    assert round(low.rho.entries[0, 0].real, 9) != round(high.rho.entries[0, 0].real, 9)
    assert qccs.canonical_key(low) == qccs.canonical_key(high)
    assert qccs.congruent(low, high)
    # the key names the structure only; the tolerance decides the state
    assert qccs.canonical_key(far) == qccs.canonical_key(low)
    assert not qccs.congruent(low, far)


def test_success_as_choice_branch_barbs():
    assert qccs.has_success_barb(cfg(Choice(Success(), IfThen(BTrue(), Tau(Nil())))))
    assert not qccs.has_success_barb(cfg(IfThen(BTrue(), Success())))


# -- formatting roundtrip -----------------------------------------------------------

def test_format_parse_roundtrip_is_identity_on_text():
    defs, config, table = qccs.parse_qccs(protocols.read("counterexample.qccs"))
    text1 = qccs.format_qccs_file(config, defs, table)
    defs2, config2, table2 = qccs.parse_qccs(text1)
    text2 = qccs.format_qccs_file(config2, defs2, table2)
    assert text1 == text2
    assert qccs.congruent(config, config2)


def test_format_term_examples():
    term = Choice(
        IfThen(TraceNonzero(ProjectOp(0), ("q",)), SuperOp(ProjectOp(0), ("q",), Out("0", "q", Nil()))),
        IfThen(TraceNonzero(ProjectOp(1), ("q",)), SuperOp(ProjectOp(1), ("q",), Out("1", "q", Nil()))),
    )
    text = qccs.format_term(term)
    assert "if tr(E{0}[q]) != 0 then E{0}[q].0!q.nil" in text
    assert " + " in text
