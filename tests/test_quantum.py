import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import protocols, qccs
from qproc import quantum as q
from qproc.errors import (
    InvalidArity,
    InvalidOutcome,
    InvalidRegister,
    ShapeMismatch,
    UnknownQubit,
    ZeroBranch,
)

SQ2 = 1.0 / np.sqrt(2.0)

# the signed two-Kraus operator Q of the bundled separation probe
PROBE = qccs.parse_qccs(protocols.read("counterexample.qccs")).table["Q"]


def sv(names, amps):
    return q.StateVector(tuple(names), np.array(amps, dtype=complex))


def same(a, b, tol):
    """Equal registers, and entries equal within tol."""
    return a.qubit_names == b.qubit_names and q.within_tol(a.entries, b.entries, tol)


def random_state(rng, names):
    amps = rng.standard_normal(2 ** len(names)) + 1j * rng.standard_normal(2 ** len(names))
    return sv(names, amps / np.linalg.norm(amps))


# -- construction invariants -------------------------------------------------

def test_state_vector_rejects_bad_shapes_and_norms():
    with pytest.raises(InvalidRegister):
        sv(("a",), [1, 0, 0])
    with pytest.raises(InvalidRegister):
        sv(("a", "a"), [1, 0, 0, 0])
    with pytest.raises(InvalidRegister):
        sv(("a",), [1, 1])
    with pytest.raises(InvalidRegister):
        sv(("a",), [np.nan, 0])


def test_density_matrix_rejects_non_hermitian_and_bad_trace():
    with pytest.raises(InvalidRegister):
        q.DensityMatrix(("a",), [[0, 1], [0, 0]])
    with pytest.raises(InvalidRegister):
        q.DensityMatrix(("a",), [[2, 0], [0, 0]])
    # indefinite but Hermitian with trace 1 is fine (signed probes produce it)
    q.DensityMatrix(("a",), [[-1, 0], [0, 2]])


# -- one-pass validation against the checks run one by one -------------------

def _reference_names(names):
    names = tuple(names)
    if len(set(names)) != len(names):
        raise InvalidRegister(f"duplicate qubit names in {names}")
    return names


def _reference_state_vector(names, amps):
    """The state-vector checks one by one, as they ran before the fused pass."""
    names = _reference_names(names)
    arr = np.array(amps, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise InvalidRegister("non-finite entry in state vector")
    if arr.ndim != 1 or arr.shape[0] != 2 ** len(names):
        raise InvalidRegister(
            f"expected {2 ** len(names)} amplitudes for {len(names)} qubits, got {arr.shape}"
        )
    norm2 = float(np.sum(np.abs(arr) ** 2))
    if norm2 > q.DEFAULT_TOL and abs(norm2 - 1.0) > 1e-6:
        raise InvalidRegister(f"state vector not normalised: |psi|^2 = {norm2}")
    return arr


def _reference_density(names, entries):
    """The density-matrix checks one by one, as they ran before the fused pass."""
    names = _reference_names(names)
    arr = np.array(entries, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise InvalidRegister("non-finite entry in density matrix")
    dim = 2 ** len(names)
    if arr.shape != (dim, dim):
        raise InvalidRegister(f"expected a {dim}x{dim} grid, got {arr.shape}")
    if np.max(np.abs(arr - arr.conj().T)) > 1e-7:
        raise InvalidRegister("density matrix not Hermitian")
    tr = complex(np.trace(arr))
    if abs(tr.imag) > 1e-7 or tr.real > 1.0 + 1e-7:
        raise InvalidRegister(f"trace must be real and <= 1, got {tr}")
    return arr


def _assert_validates_like(reference, build, names, data):
    """Same exception type and message as the reference, or acceptance with
    a bitwise-equal, read-only, private copy of the data."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            want = reference(names, data)
    except InvalidRegister as err:
        with pytest.raises(InvalidRegister) as got:
            build(names, data)
        assert str(got.value) == str(err)
        return
    got = build(names, data)
    assert got.dtype == np.complex128 and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable
    assert not np.shares_memory(got, data)


# Offsets that land on, just inside and just outside an accept edge, and
# across the 1e-12 band in which the squared norm falls back to the
# reference formula.
_NEAR = st.sampled_from([0.0, 1e-16, 1e-13, 5e-13, 1e-12, 1.5e-12, 1e-11, 1e-9, 1e-7]).flatmap(
    lambda d: st.sampled_from([d, -d])
)


@st.composite
def _names(draw):
    n = draw(st.integers(0, 3))
    if n >= 2 and draw(st.integers(0, 9)) == 0:
        return ("a",) * n
    return tuple(f"q{i}" for i in range(n))


def _poison(draw, arr):
    """NaN or an infinity in the real or the imaginary part of one entry,
    on or off a grid's diagonal."""
    bad = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    flat = arr.reshape(-1)
    i = draw(st.integers(0, flat.size - 1))
    if draw(st.booleans()):
        flat[i] = complex(bad, flat[i].imag)
    else:
        flat[i] = complex(flat[i].real, bad)


@st.composite
def state_vector_inputs(draw):
    names = draw(_names())
    dim = 2 ** len(names)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = draw(st.sampled_from(["ok"] * 6 + ["short", "long", "grid"]))
    size = {"ok": dim, "short": dim - 1, "long": dim + 1, "grid": dim}[shape]
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if size:
        norm2 = draw(st.sampled_from([1.0, 1.0 - 1e-6, 1.0 + 1e-6, q.DEFAULT_TOL, 0.0])) + draw(_NEAR)
        amps *= np.sqrt(max(norm2, 0.0)) / np.linalg.norm(amps)
        if draw(st.integers(0, 4)) == 0:
            _poison(draw, amps)
    if shape == "grid":
        amps = amps.reshape(1, -1)
    return names, amps


@st.composite
def density_inputs(draw):
    names = draw(_names())
    dim = 2 ** len(names)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = (a + a.conj().T) / 2
    trace = draw(st.sampled_from([1.0, 1.0 + 1e-7, 0.5, -3.0])) + draw(_NEAR)
    rho += np.eye(dim) * (trace - rho.trace().real) / dim
    if draw(st.booleans()):
        # an imaginary trace part near the bound, spread over the diagonal;
        # it is also a Hermiticity defect of twice its share
        rho += np.eye(dim) * 1j * (1e-7 + draw(_NEAR)) / dim
    if dim > 1 and draw(st.booleans()):
        phase = np.exp(1j * draw(st.floats(0, 2 * np.pi)))
        rho[0, dim - 1] += phase * (1e-7 + draw(_NEAR))
    if draw(st.integers(0, 3)) == 0:
        _poison(draw, rho)
    shape = draw(st.sampled_from(["ok"] * 6 + ["row", "flat"]))
    if shape == "row":
        rho = rho[:-1]
    elif shape == "flat":
        rho = rho.reshape(-1)
    return names, rho


@settings(max_examples=400, deadline=None)
@given(state_vector_inputs())
def test_state_vector_validates_like_the_checks_one_by_one(data):
    names, amps = data
    _assert_validates_like(_reference_state_vector, lambda n, a: q.StateVector(n, a).amps, names, amps)


@settings(max_examples=400, deadline=None)
@given(density_inputs())
def test_density_matrix_validates_like_the_checks_one_by_one(data):
    names, entries = data
    _assert_validates_like(
        _reference_density, lambda n, e: q.DensityMatrix(n, e).entries, names, entries
    )


def test_unitary_validation():
    with pytest.raises(InvalidArity):
        q.Unitary([[1, 1], [0, 1]])
    assert q.GATES["CNOT"].arity == 2


# -- tensor ------------------------------------------------------------------

def test_tensor_basis_product():
    got = q.tensor(sv("a", [1, 0]), sv("b", [1, 0]))
    assert got.qubit_names == ("a", "b")
    assert np.allclose(got.amps, [1, 0, 0, 0])


def test_tensor_appends_fresh_zero_qubit_interleaving():
    rng = np.random.default_rng(7)
    psi = random_state(rng, ("a", "b"))
    got = q.tensor(psi, sv("c", [1, 0]))
    assert np.allclose(got.amps[0::2], psi.amps)
    assert np.allclose(got.amps[1::2], 0)


def test_tensor_plus_one():
    got = q.tensor(sv("a", [SQ2, SQ2]), sv("b", [0, 1]))
    assert np.allclose(got.amps, [0, SQ2, 0, SQ2])


def test_tensor_rejects_name_collision():
    with pytest.raises(InvalidRegister):
        q.tensor(sv("a", [1, 0]), sv("a", [1, 0]))


def test_tensor_associative_up_to_name_ordering():
    rng = np.random.default_rng(3)
    a, b, c = random_state(rng, "a"), random_state(rng, "b"), random_state(rng, "c")
    left = q.tensor(q.tensor(a, b), c)
    right = q.tensor(a, q.tensor(b, c))
    assert left.qubit_names == right.qubit_names
    assert np.allclose(left.amps, right.amps)


# -- unitary application -----------------------------------------------------

def test_hadamard_creates_plus():
    got = q.apply_unitary(q.GATES["H"], sv("a", [1, 0]), ("a",))
    assert np.allclose(got.amps, [SQ2, SQ2])


def test_tensor_gates_on_two_qubits():
    xx = q.Unitary(np.kron(q.GATES["X"].matrix, q.GATES["X"].matrix), "XX")
    ix = q.Unitary(np.kron(np.eye(2), q.GATES["X"].matrix), "IX")
    zero2 = sv("ab", [1, 0, 0, 0])
    assert np.allclose(q.apply_unitary(xx, zero2, ("a", "b")).amps, [0, 0, 0, 1])
    assert np.allclose(q.apply_unitary(ix, zero2, ("a", "b")).amps, [0, 1, 0, 0])
    # the operands in the other order: the identity factor lands on b
    assert np.allclose(q.apply_unitary(ix, zero2, ("b", "a")).amps, [0, 0, 1, 0])


def test_cnot_prefix_on_three_qubits():
    psi0 = sv("abc", [0, 0, 0, 0, SQ2, 0, 0, SQ2])  # (|100> + |111>)/sqrt2
    got = q.apply_unitary(q.GATES["CNOT"], psi0, ("a", "b"))
    want = np.zeros(8)
    want[0b110] = SQ2
    want[0b101] = SQ2
    assert np.allclose(got.amps, want)


def test_arity_overflow_rejected():
    with pytest.raises(InvalidArity, match="CNOT has arity 2"):
        q.apply_unitary(q.GATES["CNOT"], sv("a", [1, 0]), ("a",))
    with pytest.raises(UnknownQubit):
        q.apply_unitary(q.GATES["CNOT"], sv("a", [1, 0]), ("a", "b"))
    with pytest.raises(InvalidArity, match="duplicate targets"):
        q.apply_unitary(q.GATES["CNOT"], sv("ab", [1, 0, 0, 0]), ("a", "a"))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 30), st.sampled_from(["I", "X", "Y", "Z", "H", "CNOT"]), st.integers(2, 4))
def test_unitary_prefix_preserves_norm(seed, gate, n):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, [f"q{i}" for i in range(n)])
    got = q.apply_unitary(q.GATES[gate], psi, psi.qubit_names[: q.GATES[gate].arity])
    assert abs(np.sum(np.abs(got.amps) ** 2) - 1.0) <= 1e-9


# -- permutations ------------------------------------------------------------

def permutation_unitary(perm):
    """Oracle for the register permutations: the unitary sending
    |b_0..b_{n-1}> to |b_{perm^-1(0)}..b_{perm^-1(n-1)}>, built bit by bit."""
    n = len(perm)
    inv = q.inverse_perm(perm)
    matrix = np.zeros((2 ** n, 2 ** n))
    for b in range(2 ** n):
        bits = [(b >> (n - 1 - j)) & 1 for j in range(n)]
        c = 0
        for i in range(n):
            c = (c << 1) | bits[inv[i]]
        matrix[c, b] = 1.0
    return q.Unitary(matrix, "Perm")


def test_identity_permutation_is_identity_matrix():
    assert np.allclose(permutation_unitary((0, 1, 2)).matrix, np.eye(8))


def test_swap_permutation_on_basis_state():
    pi = permutation_unitary((1, 0))
    got = pi.matrix @ np.array([0, 1, 0, 0])  # |01>
    assert np.allclose(got, [0, 0, 1, 0])  # |10>


def test_permutation_times_inverse_is_identity():
    rng = np.random.default_rng(5)
    for n in range(1, 5):
        perm = tuple(rng.permutation(n))
        prod = permutation_unitary(perm).matrix @ permutation_unitary(q.inverse_perm(perm)).matrix
        assert np.allclose(prod, np.eye(2 ** n))


def reorder(psi, perm):
    """Reference reorder of a register: new position i holds the old qubit
    at perm[i], through the permutation unitary."""
    names = tuple(psi.qubit_names[p] for p in perm)
    return q.StateVector(names, permutation_unitary(q.inverse_perm(perm)).matrix @ psi.amps)


def test_permute_state_matches_permutation_unitary():
    rng = np.random.default_rng(11)
    psi = random_state(rng, ("a", "b", "c"))
    for perm in ((2, 0, 1), (1, 2, 0), (0, 1, 2)):
        moved = reorder(psi, perm)
        assert np.allclose(q._permuted_entries(q.outer(psi), perm), q.outer(moved).entries)


def test_permute_density_consistent_with_state():
    # reordering a mixture reorders each of its pure states, and the result
    # is the same state read under the new name order
    rng = np.random.default_rng(13)
    names = ("a", "b", "c")
    psis = [random_state(rng, names) for _ in range(2)]
    weights = (0.3, 0.7)
    mix = q.DensityMatrix(names, sum(w * q.outer(psi).entries for w, psi in zip(weights, psis)))
    perm = (1, 2, 0)
    moved = sum(w * q.outer(reorder(psi, perm)).entries for w, psi in zip(weights, psis))
    assert np.allclose(q._permuted_entries(mix, perm), moved)
    assert q.density_equal_mod_order(mix, q.DensityMatrix(tuple(names[p] for p in perm), moved))


@pytest.mark.parametrize("gate, operands", [("CNOT", ("q2", "q0")), ("CNOT", ("q1", "q0")), ("H", ("q1",)), ("Y", ("q2",))])
def test_apply_unitary_on_named_operands_matches_permutation_reference(gate, operands):
    # front the operands, apply the gate to the leading qubits, put them back
    rng = np.random.default_rng(12)
    psi = random_state(rng, ("q0", "q1", "q2"))
    names = psi.qubit_names
    perm = tuple(names.index(o) for o in operands) + tuple(i for i, n in enumerate(names) if n not in operands)
    fronted = reorder(psi, perm)
    u = np.kron(q.GATES[gate].matrix, np.eye(2 ** (3 - len(operands))))
    want = reorder(q.StateVector(fronted.qubit_names, u @ fronted.amps), q.inverse_perm(perm))
    got = q.apply_unitary(q.GATES[gate], psi, operands)
    assert got.qubit_names == names == want.qubit_names
    assert q.within_tol(got.amps, want.amps, 1e-12)


@pytest.mark.parametrize("operands", [("q1", "q0"), ("q2",), ("q2", "q0", "q1")])
def test_measure_on_named_operands_matches_permutation_reference(operands):
    # outcome m of measuring the fronted register's leading qubits, put back
    rng = np.random.default_rng(14)
    psi = random_state(rng, ("q0", "q1", "q2"))
    names = psi.qubit_names
    perm = tuple(names.index(o) for o in operands) + tuple(i for i, n in enumerate(names) if n not in operands)
    fronted = reorder(psi, perm).amps
    width = 2 ** (3 - len(operands))
    outcomes = q.measure(psi, operands)
    assert [o.result for o in outcomes] == list(range(2 ** len(operands)))
    for m, outcome in enumerate(outcomes):
        block = np.zeros(8, dtype=complex)
        block[m * width : (m + 1) * width] = fronted[m * width : (m + 1) * width]
        p = float(np.sum(np.abs(block) ** 2))
        assert outcome.probability == pytest.approx(p, abs=1e-12)
        want = reorder(q.StateVector(reorder(psi, perm).qubit_names, block / np.sqrt(p)), q.inverse_perm(perm))
        assert outcome.post_state.qubit_names == names
        assert q.within_tol(outcome.post_state.amps, want.amps, 1e-12)


# -- measurement -------------------------------------------------------------

def test_measure_bell_first_qubit():
    bell = sv("ab", [SQ2, 0, 0, SQ2])
    outcomes = q.measure(bell, ("a",))
    assert [o.result for o in outcomes] == [0, 1]
    assert outcomes[0].probability == pytest.approx(0.5, abs=1e-9)
    assert np.allclose(outcomes[0].post_state.amps, [1, 0, 0, 0])
    assert np.allclose(outcomes[1].post_state.amps, [0, 0, 0, 1])


def test_measure_teleport_intermediate_state():
    # 1/2 (|001> + |010> - |101> - |110>), measuring the first two qubits
    amps = np.zeros(8)
    amps[0b001], amps[0b010], amps[0b101], amps[0b110] = 0.5, 0.5, -0.5, -0.5
    outcomes = q.measure(sv("abc", amps), ("a", "b"))
    posts = []
    for o in outcomes:
        assert o.probability == pytest.approx(0.25, abs=1e-9)
        posts.append(o.post_state.amps)
    want = [(0b001, 1.0), (0b010, 1.0), (0b101, -1.0), (0b110, -1.0)]
    for got, (idx, val) in zip(posts, want):
        expect = np.zeros(8)
        expect[idx] = val
        assert np.allclose(got, expect)


def test_measure_zero_qubits_is_trivial():
    psi = sv("a", [0, 1])
    (only,) = q.measure(psi, ())
    assert only.result == 0 and only.probability == pytest.approx(1.0)
    assert np.allclose(only.post_state.amps, psi.amps)


def test_zero_probability_branch_is_flagged():
    outcomes = q.measure(sv("a", [1, 0]), ("a",))
    assert outcomes[1].probability == 0.0
    assert not outcomes[1].post_state.amps.any()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 30), st.integers(1, 3), st.integers(0, 3))
def test_measurement_probabilities_sum_to_one(seed, n, r):
    r = min(r, n)
    rng = np.random.default_rng(seed)
    psi = random_state(rng, [f"q{i}" for i in range(n)])
    outcomes = q.measure(psi, tuple(rng.permutation(psi.qubit_names)[:r]))
    assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 30), st.integers(1, 3), st.integers(1, 3))
def test_measurement_links_to_unknown_result_superop(seed, n, r):
    # sum_m p_m |post_m><post_m| equals the unknown-result measurement on outer(psi)
    r = min(r, n)
    rng = np.random.default_rng(seed)
    names = [f"q{i}" for i in range(n)]
    psi = random_state(rng, names)
    measured = tuple(rng.permutation(names)[:r])
    mixed = q.mix([(o.probability, o.post_state) for o in q.measure(psi, measured) if o.probability > 0])
    via_superop = q.superop_apply(q.SuperOperator.measure_unknown(r), measured, q.outer(psi))
    assert same(mixed, via_superop, 1e-9)


# -- outer products ----------------------------------------------------------

def test_outer_of_basis_zero():
    assert np.allclose(q.outer(sv("a", [1, 0])).entries, [[1, 0], [0, 0]])


def test_outer_matches_entrywise_oracle():
    rng = np.random.default_rng(23)
    psi = random_state(rng, ("a", "b"))
    got = q.outer(psi).entries
    for i in range(4):
        for j in range(4):
            assert got[i, j] == pytest.approx(psi.amps[i] * np.conj(psi.amps[j]), abs=1e-12)


def test_outer_of_plus():
    assert np.allclose(q.outer(sv("a", [SQ2, SQ2])).entries, 0.5 * np.ones((2, 2)))


# -- super-operators ---------------------------------------------------------

def test_expected_result_on_empty_target_set_is_identity():
    op = q.SuperOperator.measure_expected(0, 0)
    rng = np.random.default_rng(2)
    rho = q.outer(random_state(rng, ("a", "b")))
    assert same(q.superop_apply(op, (), rho), rho, 1e-9)


def test_unitary_superop_matches_vector_path():
    rho = q.superop_apply(
        q.SuperOperator.from_unitary(q.GATES["H"]), ("a",), q.outer(sv("a", [1, 0]))
    )
    oracle = q.outer(q.apply_unitary(q.GATES["H"], sv("a", [1, 0]), ("a",)))
    assert same(rho, oracle, 1e-9)


def test_probe_kraus_terms_have_paper_values():
    # the bundled counterexample.qccs against the paper's probe
    probe = PROBE
    assert (probe.name, probe.arity) == ("Q", 1)
    (s0, k0), (s1, k1) = probe.terms
    assert (s0, s1) == (1, -1)
    assert np.allclose(k0, [[1, 0], [0, np.sqrt(2)]])
    assert np.allclose(k1, [[0, 1], [0, 0]])
    assert probe.advisories()  # not CP: flagged, not fatal


def test_measure_unknown_dissolves_plus():
    rho = q.superop_apply(q.SuperOperator.measure_unknown(1), ("a",), q.outer(sv("a", [SQ2, SQ2])))
    assert np.allclose(rho.entries, [[0.5, 0], [0, 0.5]])


def test_probe_action_on_basis_and_diagonal_states():
    probe = PROBE
    zero = q.superop_apply(probe, ("a",), q.outer(sv("a", [1, 0])))
    assert np.allclose(zero.entries, [[1, 0], [0, 0]])
    one = q.superop_apply(probe, ("a",), q.outer(sv("a", [0, 1])))
    assert np.allclose(one.entries, [[-1, 0], [0, 2]])
    plus = q.superop_apply(probe, ("a",), q.outer(sv("a", [SQ2, SQ2])))
    assert np.allclose(plus.entries, [[0, SQ2], [SQ2, 1]])
    minus = q.superop_apply(probe, ("a",), q.outer(sv("a", [SQ2, -SQ2])))
    assert np.allclose(minus.entries, [[0, -SQ2], [-SQ2, 1]])


def test_measure_unknown_on_bell_matches_projector_oracle():
    bell = sv("ab", [SQ2, 0, 0, SQ2])
    rho = q.outer(bell)
    got = q.superop_apply(q.SuperOperator.measure_unknown(1), ("a",), rho)
    oracle = np.zeros((4, 4), dtype=complex)
    for m in range(2):
        proj = np.zeros((2, 2))
        proj[m, m] = 1
        full = np.kron(proj, np.eye(2))
        oracle += full @ rho.entries @ full.conj().T
    assert np.allclose(got.entries, oracle)


def test_superop_targets_by_name_with_permutation():
    # X on the *second* register qubit, addressed by name
    rng = np.random.default_rng(4)
    psi = random_state(rng, ("a", "b"))
    got = q.superop_apply(q.SuperOperator.from_unitary(q.GATES["X"]), ("b",), q.outer(psi))
    oracle = q.outer(q.apply_unitary(q.Unitary(np.kron(np.eye(2), q.GATES["X"].matrix)), psi, ("a", "b")))
    assert same(got, oracle, 1e-9)


def test_unitary_superop_preserves_trace_expected_reduces_then_normalises():
    rng = np.random.default_rng(9)
    psi = random_state(rng, ("a", "b"))
    rho = q.outer(psi)
    after = q.superop_apply(q.SuperOperator.from_unitary(q.GATES["CNOT"]), ("a", "b"), rho)
    assert after.trace == pytest.approx(1.0, abs=1e-9)
    raw = q.raw_trace_after(q.SuperOperator.measure_expected(0, 1), ("a",), rho)
    p0 = q.measure(psi, ("a",))[0].probability
    assert raw == pytest.approx(p0, abs=1e-9)


def test_new_qubit_operator_appends_zero():
    rng = np.random.default_rng(6)
    psi = random_state(rng, ("q0",))
    got = q.superop_apply(q.SuperOperator.new_qubit(), (), q.outer(psi))
    assert got.qubit_names == ("q0", "q1")
    oracle = q.outer(q.tensor(psi, sv(("q1",), [1, 0])))
    assert same(got, oracle, 1e-9)


def test_zero_branch_raises():
    op = q.SuperOperator.measure_expected(1, 1)
    with pytest.raises(ZeroBranch):
        q.superop_apply(op, ("a",), q.outer(sv("a", [1, 0])))


def test_unknown_target_rejected():
    with pytest.raises(UnknownQubit):
        q.superop_apply(q.SuperOperator.measure_unknown(1), ("nope",), q.outer(sv("a", [1, 0])))


def test_invalid_outcome_rejected():
    with pytest.raises(InvalidOutcome):
        q.SuperOperator.measure_expected(4, 2)


def test_negative_outcome_rejected():
    # a negative index would wrap round to the last projector
    with pytest.raises(InvalidOutcome, match="outcome -1 out of range for 1 qubits"):
        q.SuperOperator.measure_expected(-1, 1)


def test_super_operator_without_terms_rejected():
    with pytest.raises(InvalidArity, match="super-operator Q needs at least one Kraus term"):
        q.SuperOperator("Q", 1, ())


def _kron_oracle(e, targets, rho):
    """Reference construction: permute the targets to the front, apply
    sum_j s_j (K_j (x) I) rho (K_j (x) I)+ to the whole register, permute
    back.  Returns the applied state and the raw trace before normalising."""
    names = rho.qubit_names
    front = [names.index(t) for t in targets]
    perm = tuple(front + [i for i in range(len(names)) if i not in front])
    work = q._permuted_entries(rho, perm)
    rest = np.eye(2 ** (len(names) - e.arity))
    acc = sum(s * (np.kron(k, rest) @ work @ np.kron(k, rest).conj().T) for s, k in e.terms)
    raw = float(np.trace(acc).real)
    if e.normalize_after:
        acc = acc / raw
    fronted = q.DensityMatrix(tuple(names[p] for p in perm), acc)
    return q.DensityMatrix(names, q._permuted_entries(fronted, q.inverse_perm(perm))), raw


KERNEL_OPS = (
    [q.SuperOperator.from_unitary(u) for u in q.GATES.values()]
    + [q.SuperOperator.measure_unknown(1), q.SuperOperator.measure_unknown(2)]
    + [q.SuperOperator.measure_expected(i, r) for r in range(3) for i in range(2 ** r)]
    + [PROBE, q.SuperOperator.new_qubit()]
    # diagonal operators that no builtin covers
    + [
        q.SuperOperator("S", 1, ((1, np.diag([1, 1j])),)),
        q.SuperOperator("D", 1, ((1, np.diag([1, 0.5])), (-1, np.diag([0, 0.5])))),
        q.SuperOperator("D2", 2, ((1, np.diag([1, -1j, 0.5, 0])),)),
    ]
)

# The builtin operators that the mask applies, all of whose entries are 0, 1 or -1.
MASKED_OPS = (
    [q.SuperOperator.from_unitary(q.GATES[g]) for g in ("I", "Z")]
    + [q.SuperOperator.measure_unknown(r) for r in (1, 2, 3)]
    + [q.SuperOperator.measure_expected(i, r) for r in range(3) for i in range(2 ** r)]
)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kernel_matches_kron_construction(n):
    rng = np.random.default_rng(100 + n)
    names = tuple(f"r{i}" for i in range(n))
    for _ in range(3):
        rho = q.mix([(0.7, random_state(rng, names)), (0.3, random_state(rng, names))])
        for e in KERNEL_OPS:
            if e.arity > n:
                continue
            targets = tuple(rng.permutation(names)[: e.arity])
            got = q.superop_apply(e, targets, rho)
            assert got.qubit_names == (names + (q.fresh_qubit_name(names),) if e.extends_register else names)
            assert not got.entries.flags.writeable
            want, raw = _kron_oracle(e, targets, rho)
            if e.extends_register:
                want = q.DensityMatrix(got.qubit_names, np.kron(rho.entries, np.diag([1.0, 0.0])))
            assert same(got, want, 1e-12)
            assert q.raw_trace_after(e, targets, rho) == pytest.approx(raw, abs=1e-12)


def test_the_terms_choose_the_path():
    rho = q.outer(sv("abc", [SQ2, 0, 0, 0, 0, 0, 0, SQ2]))
    ops = [e for e in KERNEL_OPS + MASKED_OPS if not e.extends_register]
    for e in ops:
        q.raw_trace_after(e, ("a", "b", "c")[: e.arity], rho)
    diagonal = {e.name for e in ops if e._mask is not None}
    assert diagonal == {"I", "Z", "M", "E0", "E1", "E2", "E3", "S", "D", "D2"}
    assert not diagonal & {"H", "X", "Y", "CNOT", "Q"}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_masked_operators_give_the_dense_sum_byte_for_byte(n):
    # An instance's register table keys on rho's bytes, so a -0.0 where
    # the dense sum gives +0.0 would make a second entry for an equal state.
    rng = np.random.default_rng(200 + n)
    names = tuple(f"r{i}" for i in range(n))
    minus = sv(names, [(-1) ** bin(i).count("1") / 2 ** (n / 2) for i in range(2 ** n)])
    for _ in range(4):
        rho = q.mix([(0.8, minus), (0.2, random_state(rng, names))])
        assert (rho.entries.real < 0).any() and (rho.entries.imag < 0).any()
        for e in MASKED_OPS:
            if e.arity > n:
                continue
            targets = tuple(rng.permutation(names)[: e.arity])
            want = q._signed_kraus_sum(e, [names.index(t) for t in targets], rho)
            if e.normalize_after:
                want = want / float(np.trace(want).real)
            got = q.superop_apply(e, targets, rho)
            assert e._mask is not None
            assert got.entries.tobytes() == want.tobytes()


def test_an_overflowing_mask_keeps_the_dense_sum():
    # W[0, 0] = 1e400 overflows, and 0 * inf would be NaN where the Kraus
    # term gives 0
    e = q.SuperOperator("B", 1, ((1, np.diag([1e200, 1.0])),))
    rho = q.outer(sv("a", [0, 1]))
    got = q.superop_apply(e, ("a",), rho)
    assert got.entries.tolist() == [[0, 0], [0, 1]]
    assert e._mask is None
    # K+K overflows too; K rho K+ does not
    assert q.raw_trace_after(e, ("a",), rho) == 1.0


def test_a_guard_passes_exactly_when_its_branch_fires():
    # The guard tr(E{i}[q]) != 0 and the normalisation of the branch it
    # guards read one number, so they agree even with tol on that number or
    # one ulp either side of it, where two sums in different orders do not.
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(200):
        n = int(rng.integers(1, 6))
        names = tuple(f"r{k}" for k in range(n))
        rho = q.outer(random_state(rng, names))
        r = int(rng.integers(1, n + 1))
        targets = tuple(rng.permutation(names)[:r])
        for i in range(2 ** r):
            e = q.SuperOperator.measure_expected(i, r)
            t = q.raw_trace_after(e, targets, rho)
            for tol in (np.nextafter(t, 0.0), t, np.nextafter(t, 1.0)):
                guard = qccs.eval_bool(qccs.TraceNonzero(qccs.ProjectOp(i), targets), rho, None, tol)
                try:
                    q.superop_apply(e, targets, rho, tol)
                    fires = True
                except ZeroBranch:
                    fires = False
                assert guard == fires, (n, targets, i, tol)
                checked += 1
    assert checked > 3000


# -- results kept on the matrix -----------------------------------------------

# every builtin gate, M and E{i} over one and two qubits, and a new qubit
KEPT_OPS = (
    [q.SuperOperator.from_unitary(u) for u in q.GATES.values()]
    + [q.SuperOperator.measure_unknown(r) for r in (1, 2)]
    + [q.SuperOperator.measure_expected(i, r) for r in (1, 2) for i in range(2 ** r)]
    + [q.SuperOperator.new_qubit()]
)


def _twin(rho):
    """A new matrix with rho's names and entries, and nothing kept on it."""
    return q.DensityMatrix(rho.qubit_names, rho.entries.copy())


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_a_repeated_application_returns_the_kept_result(n):
    rng = np.random.default_rng(400 + n)
    names = tuple(f"r{i}" for i in range(n))
    # on a basis state one of E0, E1 on any qubit is a zero branch
    rhos = [q.outer(q.basis_state(names, int(rng.integers(2 ** n))))] + [
        q.mix([(0.6, random_state(rng, names)), (0.4, random_state(rng, names))]) for _ in range(2)
    ]
    zero_branches = 0
    for rho in rhos:
        for e in KEPT_OPS:
            if e.arity > n:
                continue
            picked = tuple(rng.permutation(names)[: e.arity])
            # a two-qubit operator (CNOT among them) in both operand orders
            for targets in dict.fromkeys([picked, picked[::-1]]):
                if not e.extends_register:
                    trace = q.raw_trace_after(e, targets, rho)
                    assert q.raw_trace_after(e, list(targets), rho) == trace
                    assert q.raw_trace_after(e, targets, _twin(rho)) == trace
                try:
                    got = q.superop_apply(e, targets, rho)
                except ZeroBranch:
                    zero_branches += 1
                    # nothing was kept: the application raises again
                    with pytest.raises(ZeroBranch):
                        q.superop_apply(e, targets, rho)
                    with pytest.raises(ZeroBranch):
                        q.superop_apply(e, targets, _twin(rho))
                    continue
                assert q.superop_apply(e, list(targets), rho) is got
                fresh = q.superop_apply(e, targets, _twin(rho))
                assert fresh is not got
                assert (fresh.qubit_names, fresh.entries.tobytes()) == (got.qubit_names, got.entries.tobytes())
    assert zero_branches > 0


def test_each_tol_keeps_its_own_result():
    rho = q.outer(sv("ab", [0.6, 0, 0, 0.8]))
    e = q.SuperOperator.measure_expected(0, 1)  # a branch of trace 0.36
    default = q.superop_apply(e, ("a",), rho)
    other = q.superop_apply(e, ("a",), rho, 1e-6)
    assert other is not default and other.entries.tobytes() == default.entries.tobytes()
    assert q.superop_apply(e, ("a",), rho, 1e-6) is other
    # a tol above the branch's trace raises, whatever a smaller one keeps
    with pytest.raises(ZeroBranch):
        q.superop_apply(e, ("a",), rho, 0.5)
    assert q.superop_apply(e, ("a",), rho) is default


@pytest.mark.parametrize(
    "e, targets, error, message",
    [
        (q.SuperOperator.from_unitary(q.GATES["CNOT"]), ("a", "a"), InvalidArity, "duplicate targets"),
        (q.SuperOperator.from_unitary(q.GATES["X"]), ("a", "b"), InvalidArity, "has arity 1"),
        (q.SuperOperator.measure_expected(0, 1), ("nope",), UnknownQubit, "unknown qubit 'nope'"),
    ],
)
def test_kernel_rejects_bad_targets(e, targets, error, message):
    rho = q.outer(sv("ab", [1, 0, 0, 0]))
    with pytest.raises(error, match=message):
        q.superop_apply(e, targets, rho)
    with pytest.raises(error, match=message):
        q.raw_trace_after(e, targets, rho)


def test_permutation_superop_matches_permute_state():
    rng = np.random.default_rng(8)
    psi = random_state(rng, ("a", "b", "c"))
    perm = (2, 0, 1)
    pi = permutation_unitary(q.inverse_perm(perm))
    via_superop = q.superop_apply(q.SuperOperator.from_unitary(pi), psi.qubit_names, q.outer(psi))
    direct = q.outer(q.StateVector(psi.qubit_names, pi.matrix @ psi.amps))
    assert same(via_superop, direct, 1e-9)


# -- comparison --------------------------------------------------------------

def test_within_tol_basics():
    a = q.outer(sv("a", [1, 0]))
    assert q.within_tol(a.entries, a.entries, 1e-9)
    assert not q.within_tol(sv("a", [1, 0]).amps, sv("a", [0, 1]).amps, 1e-9)
    plus = q.DensityMatrix(("a",), 0.5 * np.ones((2, 2)))
    assert same(plus, q.outer(sv("a", [SQ2, SQ2])), 1e-9)
    assert q.within_tol(np.zeros(0), np.zeros(0))


def test_within_tol_shape_mismatch():
    # different shapes are unequal, not an error; names are the caller's check
    assert not q.within_tol(sv("a", [1, 0]).amps, q.outer(sv("a", [1, 0])).entries, 1e-9)
    assert not same(q.outer(sv("a", [1, 0])), q.outer(sv("b", [1, 0])), 1e-9)


def test_density_equal_mod_order():
    rng = np.random.default_rng(10)
    psi = random_state(rng, ("a", "b"))
    rho = q.outer(psi)
    swapped = q.outer(reorder(psi, (1, 0)))
    assert swapped.qubit_names == ("b", "a")
    assert q.density_equal_mod_order(rho, rho)
    assert q.density_equal_mod_order(rho, swapped)
    # the names swapped but the entries left as they were is another state
    assert not q.density_equal_mod_order(rho, q.DensityMatrix(("b", "a"), rho.entries))
    assert not q.density_equal_mod_order(rho, q.outer(random_state(rng, ("a", "c"))))


def test_fresh_qubit_name_skips_collisions():
    assert q.fresh_qubit_name(("q0", "q1")) == "q2"
    assert q.fresh_qubit_name(("q2", "b")) == "q3"
    assert q.fresh_qubit_name(()) == "q0"
