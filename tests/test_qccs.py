import dataclasses
import random

import numpy as np
import pytest

from qproc import protocols, qccs, quantum
from qproc.criteria import Budget, build_lts, gen_config, qccs_system
from qproc.encode import encode_config
from qproc.errors import (
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


def test_guard_counts_negative_trace_as_nonzero():
    probe = quantum.amplitude_damping_probe()
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


# -- barbs ---------------------------------------------------------------------

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


def test_alpha_on_register_names():
    left = QccsConfig(Out("c", "a", Nil()), dm(("a",), (0, 1)))
    right = QccsConfig(Out("c", "b", Nil()), dm(("b",), (0, 1)))
    assert qccs.congruent(left, right)


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
