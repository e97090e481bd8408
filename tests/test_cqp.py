import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import cqp, protocols, quantum
from qproc.cqp import (
    CqpDist,
    CqpPure,
    In,
    Measure,
    NewChan,
    NewQbit,
    Nil,
    Out,
    Par,
    Success,
    Trans,
)
from qproc.errors import (
    ArityMismatch,
    DuplicateQubitArg,
    InvalidOutcome,
    ParseError,
    SharedQubit,
    UnknownName,
)

SQ2 = 1.0 / np.sqrt(2.0)


def sv(names, amps):
    return quantum.StateVector(tuple(names), np.array(amps, dtype=complex))


def pure(names, amps, term, phi=()):
    return CqpPure(sv(names, amps), tuple(phi), term)


def teleport():
    return cqp.parse_cqp(protocols.read("teleport.cqp"))


# -- parsing -------------------------------------------------------------------

def test_parse_nil():
    got = cqp.parse_cqp("qubits ; state |> ; channels ; process 0")
    assert got.term == Nil()
    assert got.sigma.num_qubits == 0


def test_parse_simple_par():
    got = cqp.parse_cqp("qubits q ; state |0> ; channels c ; process c![q].0 | c?[x].ok")
    assert got.term == Par(Out("c", "q", Nil()), In("c", "x", Success()))


def test_parse_teleport_source():
    got = teleport()
    assert got.sigma.qubit_names == ("q0", "q1", "q2")
    want = np.zeros(8)
    want[0b100] = SQ2
    want[0b111] = SQ2
    assert np.allclose(got.sigma.amps, want)
    assert got.phi == ()
    # the System term: four channel binders around Alice | Bob
    t = got.term
    for name in ("0", "1", "2", "3"):
        assert isinstance(t, NewChan) and t.var == name
        t = t.cont
    assert isinstance(t, Par)
    alice = t.left
    assert alice == Trans(
        ("q0", "q1"),
        "CNOT",
        Trans(("q0",), "H", Measure(("q0", "q1"), "x", Out("x", "q0", Nil()))),
    )


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        cqp.parse_cqp("qubits q ; state |0> ; channels ; process c![q]")
    assert err.value.line is not None
    with pytest.raises(ParseError):
        cqp.parse_cqp("qubits q ; state |0> + |1> ; channels ; process 0")  # not normalised
    with pytest.raises(ParseError):
        cqp.parse_cqp("qubits q ; state |00> ; channels ; process 0")  # wrong ket width


def test_parse_rejects_undeclared_names():
    with pytest.raises(ParseError):
        cqp.parse_cqp("qubits q ; state |0> ; channels ; process d![q].0")


def test_amp_expression_forms():
    got = cqp.parse_cqp(
        "qubits a, b ; state 1/2|00> + 1/2|01> - 1/sqrt(2)|11> ; channels ; process 0"
    )
    assert np.allclose(got.sigma.amps, [0.5, 0.5, 0, -SQ2])
    got = cqp.parse_cqp("qubits a ; state 1/sqrt(2)|0> + i*1/sqrt(2)|1> ; channels ; process 0")
    assert np.allclose(got.sigma.amps, [SQ2, SQ2 * 1j])


def test_a_star_before_a_ket_is_optional():
    starred = cqp.parse_cqp("qubits a ; state 0.5 * |0> + sqrt(3)/2 * |1> ; channels ; process 0")
    plain = cqp.parse_cqp("qubits a ; state 0.5|0> + sqrt(3)/2|1> ; channels ; process 0")
    assert np.array_equal(starred.sigma.amps, plain.sigma.amps)
    assert np.allclose(starred.sigma.amps, [0.5, np.sqrt(3) / 2])


# -- substitution ---------------------------------------------------------------

def test_substitute_on_channels():
    term = In("c", "x", Out("x", "q", Nil()))
    assert cqp.substitute(term, {"c": "d"}) == In("d", "x", Out("x", "q", Nil()))


def test_subst_avoids_capture():
    # (c?[x].c![q].0){x/q}: the binder must be renamed before q becomes x
    term = In("c", "x", Out("c", "q", Nil()))
    got = cqp.substitute(term, {"q": "x"})
    assert isinstance(got, In) and got.chan == "c"
    assert got.var != "x"
    assert got.cont == Out("c", "x", Nil())


# -- congruence -----------------------------------------------------------------

def test_par_unit_commutative_associative():
    p = Out("c", "q", Nil())
    q_ = In("c", "x", Success())
    r = Success()
    base = pure("q", [1, 0], Par(p, Nil()))
    assert cqp.congruent(base, pure("q", [1, 0], p))
    assert cqp.congruent(
        pure("q", [1, 0], Par(p, Par(q_, r))),
        pure("q", [1, 0], Par(Par(p, q_), r)),
    )
    assert cqp.congruent(pure("q", [1, 0], Par(p, q_)), pure("q", [1, 0], Par(q_, p)))


def test_congruence_distinguishes_processes():
    assert not cqp.congruent(
        pure("q", [1, 0], Out("c", "q", Nil())),
        pure("q", [1, 0], In("c", "x", Nil())),
    )


def test_congruence_alpha_on_binders_and_register():
    left = pure("q", [0, 1], In("c", "x", Out("x", "q", Nil())))
    right = pure("p", [0, 1], In("c", "y", Out("y", "p", Nil())))
    assert cqp.congruent(left, right)


def test_congruence_respects_register_order():
    # same physical state, permuted register: related by a step, not congruent
    left = pure("ab", [0, 1, 0, 0], Nil())
    right = pure("ba", [0, 0, 1, 0], Nil())
    assert not cqp.congruent(left, right)


CHANNEL_LISTS = st.lists(st.sampled_from(["a", "b", "c", "0", "1"]), max_size=4)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data(), CHANNEL_LISTS, CHANNEL_LISTS, st.booleans())
def test_channel_list_is_compared_as_a_multiset(data, phi, other, dist):
    def config(channels):
        term = Par(Out("a", "q", Nil()), In("0", "x", Success()))
        if dist:
            cases = ((0.5, sv("q", [1, 0])), (0.5, sv("q", [0, 1])))
            return CqpDist(cases, "m", 1, channels, Par(term, Out("m", "q", Nil())))
        return pure("q", [SQ2, SQ2], term, phi=channels)

    reordered = config(phi), config(data.draw(st.permutations(phi)))
    assert cqp.congruent(*reordered)
    assert cqp.canonical_key(reordered[0]) == cqp.canonical_key(reordered[1])
    if sorted(other) != sorted(phi):
        apart = config(phi), config(other)
        assert not cqp.congruent(*apart)
        assert cqp.canonical_key(apart[0]) != cqp.canonical_key(apart[1])


# 0.1234567895 lies halfway between two 9-digit roundings
BOUNDARY = 0.1234567895


def test_amplitudes_astride_a_rounding_boundary_share_key_and_congruence():
    def at(a):
        return pure("q", [a, np.sqrt(1 - a * a)], Trans(("q",), "H", Success()))

    low, high, far = at(BOUNDARY - 1e-12), at(BOUNDARY + 1e-12), at(BOUNDARY + 1e-6)
    assert cqp.canonical_key(low) == cqp.canonical_key(high)
    assert cqp.congruent(low, high)
    assert cqp.canonical_key(far) == cqp.canonical_key(low)
    assert not cqp.congruent(low, far)


def test_probabilities_astride_a_rounding_boundary_share_key_and_congruence():
    def at(p):
        cases = ((p, sv("q", [1, 0])), (1 - p, sv("q", [0, 1])))
        return CqpDist(cases, "m", 1, ("c",), Out("c", "m", Nil()))

    low, high, far = at(BOUNDARY - 1e-12), at(BOUNDARY + 1e-12), at(BOUNDARY + 1e-6)
    assert cqp.canonical_key(low) == cqp.canonical_key(high)
    assert cqp.congruent(low, high)
    assert cqp.canonical_key(far) == cqp.canonical_key(low)
    assert not cqp.congruent(low, far)


# -- type systems -----------------------------------------------------------------

def test_surface_accepts_single_gate():
    cqp.typecheck_internal(pure("q", [1, 0], Trans(("q",), "H", Nil())))


def test_surface_rejects_shared_qubit():
    term = Par(Out("c", "q", Nil()), Out("c", "q", Nil()))
    with pytest.raises(SharedQubit):
        cqp.typecheck_internal(pure("q", [1, 0], term, phi=("c",)))


def test_surface_rejects_use_after_send():
    term = Out("c", "q", Trans(("q",), "H", Nil()))
    with pytest.raises(UnknownName):
        cqp.typecheck_internal(pure("q", [1, 0], term, phi=("c",)))


def test_surface_checks_gate_arity_and_duplicates():
    for term, error in (
        (Trans(("q",), "CNOT", Nil()), ArityMismatch),
        (Trans(("q", "q"), "CNOT", Nil()), DuplicateQubitArg),
        (Trans(("q",), "NOPE", Nil()), UnknownName),
    ):
        with pytest.raises(error):
            cqp.typecheck_internal(pure("q", [1, 0], term))


def test_surface_accepts_teleport_system():
    src = teleport()
    assert src.sigma_names == ("q0", "q1", "q2") and src.phi == ()
    cqp.typecheck_internal(src)


def test_measured_variable_usable_as_channel():
    term = Measure(("q",), "x", Out("x", "q", Nil()))
    cqp.typecheck_internal(pure("q", [1, 0], term))


def test_internal_accepts_output_of_register_qubit():
    cqp.typecheck_internal(pure("q", [1, 0], Out("c", "q", Nil()), phi=("c",)))


def test_internal_rejects_shared_register_qubit():
    config = pure("q", [1, 0], Par(Out("c", "q", Nil()), Out("d", "q", Nil())), phi=("c", "d"))
    with pytest.raises(SharedQubit):
        cqp.typecheck_internal(config)


PARALLEL_CREATIONS = [
    "(qbit a){a *= X}.ok | (qbit b){b *= H}.0",
    # guarded creations count too
    "c?[x].(qbit b){b *= X}.{x *= H}.ok | (qbit a)c![a].0",
]


@pytest.mark.parametrize("process", PARALLEL_CREATIONS)
def test_internal_rejects_parallel_qubit_creations(process):
    # the translation names a created qubit by its register, so both
    # components would create the same qubit
    src = cqp.parse_cqp(f"qubits q0 ; state |0> ; channels c ; process {process}")
    with pytest.raises(SharedQubit, match="parallel components both create qubits"):
        cqp.typecheck_internal(src)


def test_internal_rejects_unknown_qubit():
    with pytest.raises(cqp.UnknownQubitName):
        cqp.typecheck_internal(pure("q", [1, 0], Out("c", "nope", Nil()), phi=("c",)))


def test_teleport_run_stays_internally_typed():
    src = teleport()
    cqp.typecheck_internal(src)
    result = cqp.run(src, script=[0], max_steps=32)
    cur = src
    for step in result.steps:
        cqp.typecheck_internal(step.next)
        cur = step.next


# -- semantics ---------------------------------------------------------------------

def test_nil_has_no_steps():
    assert cqp.enumerate_steps(pure("q", [1, 0], Nil())) == []


def test_comm_preserves_state_and_channels():
    config = pure("q", [0, 1], Par(Out("c", "q", Nil()), In("c", "x", Success())), phi=("c",))
    (step,) = cqp.enumerate_steps(config)
    assert step.rule == "R-Comm"
    assert step.next.phi == config.phi
    assert np.array_equal(step.next.sigma.amps, config.sigma.amps)
    assert cqp.has_success_barb(step.next)


def test_new_channel_keeps_fresh_binder_name():
    config = pure("q", [1, 0], NewChan("c", Out("c", "q", Nil())))
    (step,) = cqp.enumerate_steps(config)
    assert step.rule == "R-New" and step.channel == "c"
    assert step.next.phi == ("c",)


def test_new_channel_renames_clashing_binder():
    term = Par(NewChan("c", In("c", "x", Nil())), Out("c", "q", Nil()))
    config = pure("q", [1, 0], term, phi=("c",))
    steps = [s for s in cqp.enumerate_steps(config) if s.rule == "R-New"]
    assert steps and steps[0].channel == "#ch0"
    assert steps[0].next.phi == ("c", "#ch0")


def test_qbit_appends_zero_qubit():
    config = pure(["q0"], [0, 1], NewQbit("x", Trans(("x",), "H", Nil())))
    (step,) = cqp.enumerate_steps(config)
    assert step.rule == "R-Qbit"
    assert step.next.sigma.qubit_names == ("q0", "q1")
    assert np.allclose(step.next.sigma.amps, [0, 0, 1, 0])
    assert step.next.term == Trans(("q1",), "H", Nil())


def test_trans_requires_fronted_operands_and_perm_is_offered():
    config = pure("ab", [0, 1, 0, 0], Trans(("b",), "X", Nil()))
    steps = cqp.enumerate_steps(config)
    assert [s.rule for s in steps] == ["R-Perm"]
    permed = steps[0].next
    assert permed.sigma.qubit_names == ("b", "a")
    assert np.allclose(permed.sigma.amps, [0, 0, 1, 0])
    (op,) = cqp.enumerate_steps(permed)
    assert op.rule == "R-Trans"
    assert np.allclose(op.next.sigma.amps, [1, 0, 0, 0])  # b flipped back to 0


def test_measure_produces_distribution_with_zero_cases():
    config = pure("q", [1, 0], Measure(("q",), "x", Out("x", "q", Nil())))
    (step,) = cqp.enumerate_steps(config)
    dist = step.next
    assert isinstance(dist, CqpDist)
    assert [p for p, _ in dist.cases] == [pytest.approx(1.0), 0.0]
    probs = [s.branch for s in cqp.enumerate_steps(dist)]
    assert probs == [0]  # zero-probability branch filtered


def test_measure_probabilities_sum_to_one():
    rng = np.random.default_rng(0)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    config = pure("ab", amps, Measure(("a",), "x", Nil()))
    (step,) = cqp.enumerate_steps(config)
    assert sum(p for p, _ in step.next.cases) == pytest.approx(1.0, abs=1e-9)


def test_enumerate_closed_under_congruence():
    p = Measure(("q",), "x", Out("x", "q", Nil()))
    c1 = pure("q", [SQ2, SQ2], Par(p, Nil()))
    c2 = pure("q", [SQ2, SQ2], p)
    steps1 = cqp.enumerate_steps(c1)
    steps2 = cqp.enumerate_steps(c2)
    assert len(steps1) == len(steps2) == 1
    assert cqp.congruent(steps1[0].next, steps2[0].next)


def test_barbs():
    assert cqp.has_success_barb(pure("q", [1, 0], Par(Success(), Nil())))
    assert not cqp.has_success_barb(pure("q", [1, 0], In("c", "x", Success())))
    assert not cqp.has_success_barb(pure("q", [1, 0], NewChan("c", Success())))


# -- the teleportation golden trace ------------------------------------------------

def expected_psi(indices_signs):
    want = np.zeros(8, dtype=complex)
    for idx, val in indices_signs:
        want[idx] = val
    return want


def test_teleport_step_listing():
    src = teleport()
    cur = src
    for expected_channel in ("0", "1", "2", "3"):
        (step,) = cqp.enumerate_steps(cur)
        assert step.rule == "R-New" and step.channel == expected_channel
        cur = step.next
    assert cur.phi == ("0", "1", "2", "3")

    (cnot,) = cqp.enumerate_steps(cur)
    assert cnot.rule == "R-Trans" and cnot.gate == "CNOT"
    psi1 = expected_psi([(0b110, SQ2), (0b101, SQ2)])
    assert np.allclose(cnot.next.sigma.amps, psi1, atol=1e-9)

    (had,) = cqp.enumerate_steps(cnot.next)
    assert had.rule == "R-Trans" and had.gate == "H"
    psi2 = expected_psi([(0b001, 0.5), (0b010, 0.5), (0b101, -0.5), (0b110, -0.5)])
    assert np.allclose(had.next.sigma.amps, psi2, atol=1e-9)

    (meas,) = cqp.enumerate_steps(had.next)
    assert meas.rule == "R-Measure"
    dist = meas.next
    assert isinstance(dist, CqpDist) and dist.r == 2
    posts = [(0b001, 1.0), (0b010, 1.0), (0b101, -1.0), (0b110, -1.0)]
    for (p, s), (idx, val) in zip(dist.cases, posts):
        assert p == pytest.approx(0.25, abs=1e-9)
        assert np.allclose(s.amps, expected_psi([(idx, val)]), atol=1e-9)
    branch_steps = cqp.enumerate_steps(dist)
    assert [s.branch for s in branch_steps] == [0, 1, 2, 3]


def test_teleport_branch0_reaches_success_with_final_state():
    src = teleport()
    result = cqp.run(src, script=[0], max_steps=32)
    final = result.final
    assert isinstance(final, CqpPure)
    assert cqp.has_success_barb(final)
    assert final.sigma.qubit_names == ("q0", "q1", "q2")
    assert np.allclose(final.sigma.amps, expected_psi([(0b001, 1.0)]), atol=1e-9)


def test_teleport_branch3_applies_y():
    src = teleport()
    result = cqp.run(src, script=[3], max_steps=32)
    final = result.final
    assert cqp.has_success_barb(final)
    assert final.sigma.qubit_names == ("q0", "q1", "q2")
    # branch 3 post-state is -|110>; Y on q2 sends |0> to i|1>, giving -i|111>
    assert np.allclose(final.sigma.amps, expected_psi([(0b111, -1j)]), atol=1e-9)
    rules = [s.rule for s in result.steps]
    assert rules.count("R-Comm") == 1


def test_teleport_every_branch_reaches_success():
    src = teleport()
    for branch in range(4):
        result = cqp.run(src, script=[branch], max_steps=32)
        assert cqp.has_success_barb(result.final), f"branch {branch}"


def test_scripted_zero_probability_branch_rejected():
    config = pure("q", [1, 0], Measure(("q",), "x", Nil()))
    (step,) = cqp.enumerate_steps(config)
    with pytest.raises(InvalidOutcome):
        cqp.run(step.next, script=[1])


def test_run_empty_process_is_empty_trace():
    result = cqp.run(pure("q", [1, 0], Nil()))
    assert result.steps == [] and not result.truncated
