"""Dense complex linear algebra for small, named qubit registers.

State vectors carry an ordered tuple of distinct qubit names next to their
2**n amplitudes; density matrices do the same for their 2**n x 2**n grid.
All target addressing is by name: an operator acts on the axes of the
named targets in the register's tensor, and the result keeps the
register's name order.  Super-operators are signed Kraus sums, which is
deliberately more permissive than completely positive maps so that
non-physical probe operators stay executable;
``SuperOperator.advisories`` reports CP and trace violations without
blocking anything.  One whose Kraus terms are all diagonal (I, Z,
measurements, projectors) applies as an entry-by-entry mask, for these
builtins with the dense sum's bytes; the rest take the dense Kraus sum.  A
guard's trace is the trace of that same application.

Everything is immutable and pure, so a density matrix keeps what is
computed from it, as an interned term keeps its key: ``superop_apply``'s
result and ``raw_trace_after``'s trace, under the operator object and the
targets.  Applying one operator to one matrix again returns the kept
value, and a caller that holds one object per equal matrix (as
``criteria.Instance`` does) applies each operator to it once.  Registers
beyond a dozen qubits are out of scope and dense numpy is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import (
    InvalidArity,
    InvalidOutcome,
    InvalidRegister,
    ShapeMismatch,
    UnknownQubit,
    ZeroBranch,
)

DEFAULT_TOL = 1e-9


def _as_complex_array(data, shape_name):
    arr = np.array(data, dtype=np.complex128)
    if not np.all(np.isfinite(arr)):
        raise InvalidRegister(f"non-finite entry in {shape_name}")
    arr.setflags(write=False)
    return arr


def _check_names(names):
    names = tuple(names)
    if len(set(names)) != len(names):
        raise InvalidRegister(f"duplicate qubit names in {names}")
    return names


def _clearly_normalised(amps: np.ndarray) -> bool:
    """A squared norm more than 1e-12 inside ``_check_state_vector``'s
    accepted band.  ``vdot`` raises no floating-point warning, and its sum
    differs from the reference formula by far less than that margin."""
    norm2 = np.vdot(amps, amps).real
    return norm2 <= DEFAULT_TOL - 1e-12 or abs(norm2 - 1.0) <= 1e-6 - 1e-12


@np.errstate(over="ignore", invalid="ignore")
def _check_state_vector(names: tuple[str, ...], amps: np.ndarray) -> None:
    """The state-vector checks one by one, in their order of precedence."""
    if not np.all(np.isfinite(amps)):
        raise InvalidRegister("non-finite entry in state vector")
    if amps.ndim != 1 or amps.shape[0] != 2 ** len(names):
        raise InvalidRegister(
            f"expected {2 ** len(names)} amplitudes for {len(names)} qubits, got {amps.shape}"
        )
    norm2 = float(np.sum(np.abs(amps) ** 2))
    if norm2 > DEFAULT_TOL and abs(norm2 - 1.0) > 1e-6:
        raise InvalidRegister(f"state vector not normalised: |psi|^2 = {norm2}")


def _clearly_density(entries: np.ndarray) -> bool:
    """``_check_density``'s Hermiticity and trace checks on a square grid,
    with the same arithmetic.  A NaN defect fails the first comparison, and
    an overflow fails a check (the caller ignores overflows and NaNs)."""
    if not abs(entries - entries.conj().T).max() <= 1e-7:
        return False
    tr = entries.trace()
    return abs(tr.imag) <= 1e-7 and tr.real <= 1.0 + 1e-7


def _check_density(entries: np.ndarray, dim: int) -> None:
    """The density-matrix checks one by one, in their order of precedence."""
    if not np.all(np.isfinite(entries)):
        raise InvalidRegister("non-finite entry in density matrix")
    if entries.shape != (dim, dim):
        raise InvalidRegister(f"expected a {dim}x{dim} grid, got {entries.shape}")
    if np.max(np.abs(entries - entries.conj().T)) > 1e-7:
        raise InvalidRegister("density matrix not Hermitian")
    tr = complex(np.trace(entries))
    if abs(tr.imag) > 1e-7 or tr.real > 1.0 + 1e-7:
        raise InvalidRegister(f"trace must be real and <= 1, got {tr}")


def fresh_qubit_name(names: Sequence[str]) -> str:
    """Deterministic name for a register extension: smallest free q<k>, k >= n.

    Shared by the CQP- qbit rule, the qCCS register-extension operator and
    the encoding, so that all three agree on the appended name.
    """
    k = len(names)
    while f"q{k}" in names:
        k += 1
    return f"q{k}"


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalised amplitude vector over an ordered, named register.

    A zero vector is accepted as the placeholder carried by
    zero-probability measurement outcomes; every other stored vector must
    have unit norm within DEFAULT_TOL.

    The checks run as one pass over a private copy of the amplitudes: a
    squared norm that is finite and more than 1e-12 inside the accepted
    band accepts the vector, since a finite squared norm implies finite
    amplitudes.  Anything else runs the full check sequence
    (``_check_state_vector``), so a rejected vector raises the same typed
    error, in the same order of precedence, as the checks run one by one.
    """

    qubit_names: tuple[str, ...]
    amps: np.ndarray

    def __post_init__(self):
        names = _check_names(self.qubit_names)
        amps = np.array(self.amps, dtype=np.complex128)
        if not (amps.shape == (2 ** len(names),) and _clearly_normalised(amps)):
            _check_state_vector(names, amps)
        amps.setflags(write=False)
        object.__setattr__(self, "qubit_names", names)
        object.__setattr__(self, "amps", amps)

    @property
    def num_qubits(self) -> int:
        return len(self.qubit_names)

    @cached_property
    def density(self) -> "DensityMatrix":
        """``outer(self)``, built on first use and kept on the vector, the
        way a configuration keeps its congruence key: a translation reads
        its density matrix here, so the configurations that hold one vector
        share one matrix, and it goes when the vector does."""
        return outer(self)

    def __repr__(self):
        return f"StateVector({','.join(self.qubit_names)}; {np.round(self.amps, 6)})"


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian grid with real trace <= 1 over an ordered, named register.

    Positivity is not enforced: signed Kraus probes legitimately produce
    indefinite matrices.

    The checks run as one pass over a private copy of the entries: a
    Hermiticity defect <= 1e-7 cannot be NaN, so it also shows that every
    entry is finite, and the trace is checked next.  Anything else runs the
    full check sequence (``_check_density``), so a rejected grid raises the
    same typed error, in the same order of precedence, as the checks run
    one by one, all under one ``np.errstate`` that ignores overflows.

    The matrix keeps the results of the super-operators applied to it
    (``_kept``); each is a new matrix that holds no reference back, so
    they go when the matrix does.
    """

    qubit_names: tuple[str, ...]
    entries: np.ndarray

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        self._accept(self.qubit_names, self.entries)

    def _accept(self, names, entries) -> None:
        names = _check_names(names)
        entries = np.array(entries, dtype=np.complex128)
        dim = 2 ** len(names)
        if not (entries.shape == (dim, dim) and _clearly_density(entries)):
            _check_density(entries, dim)
        entries.setflags(write=False)
        object.__setattr__(self, "qubit_names", names)
        object.__setattr__(self, "entries", entries)

    @property
    def num_qubits(self) -> int:
        return len(self.qubit_names)

    @property
    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    @cached_property
    def _kept(self) -> dict:
        """``superop_apply``'s results under (operator, targets, tol) and
        ``raw_trace_after``'s traces under (operator, targets)."""
        return {}

    def __repr__(self):
        return f"DensityMatrix({','.join(self.qubit_names)}; tr={self.trace:.6f})"


def _density_under_errstate(names: tuple[str, ...], entries: np.ndarray) -> DensityMatrix:
    """``DensityMatrix(names, entries)`` for a caller that already holds its
    ``np.errstate``: the same checks, without entering that state again."""
    rho = object.__new__(DensityMatrix)
    rho._accept(names, entries)
    return rho


@dataclass(frozen=True, eq=False)
class Unitary:
    """2**k x 2**k matrix with U+ U = I within tolerance."""

    matrix: np.ndarray
    name: str | None = None

    def __post_init__(self):
        matrix = _as_complex_array(self.matrix, "unitary")
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise InvalidArity(f"unitary matrix must be square, got {matrix.shape}")
        k = int(matrix.shape[0]).bit_length() - 1
        if 2 ** k != matrix.shape[0]:
            raise InvalidArity(f"unitary dimension {matrix.shape[0]} is not a power of two")
        if np.max(np.abs(matrix.conj().T @ matrix - np.eye(matrix.shape[0]))) > 1e-7:
            raise InvalidArity(f"matrix is not unitary: {self.name or matrix}")
        object.__setattr__(self, "matrix", matrix)

    @property
    def arity(self) -> int:
        return int(self.matrix.shape[0]).bit_length() - 1

    def __repr__(self):
        return f"Unitary({self.name or '?'}, arity={self.arity})"


_SQ2 = 1.0 / np.sqrt(2.0)

GATES: dict[str, Unitary] = {
    "I": Unitary(np.eye(2), "I"),
    "X": Unitary([[0, 1], [1, 0]], "X"),
    "Y": Unitary([[0, -1j], [1j, 0]], "Y"),
    "Z": Unitary([[1, 0], [0, -1]], "Z"),
    "H": Unitary([[_SQ2, _SQ2], [_SQ2, -_SQ2]], "H"),
    "CNOT": Unitary([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], "CNOT"),
}


@dataclass(frozen=True, eq=False)
class MeasurementOutcome:
    """One outcome of measuring named qubits.

    ``probability`` is the outcome's true probability, so the outcomes'
    probabilities sum to 1 however many are dropped.  ``post_state`` is the
    zero vector whenever the probability is at most the tolerance; the
    branch rule (``cqp.enumerate_steps``) skips those outcomes.
    """

    result: int
    probability: float
    post_state: StateVector


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """Signed Kraus sum applied to a named target set.

    Application semantics: rho' = sum_j sign_j K_j rho K_j+, with each K_j
    acting on the target axes and the identity on the rest.
    ``normalize_after`` marks the expected-outcome measurement operators,
    whose branch rule divides by the trace.  ``extends_register`` marks the
    register-extension operator that appends a fresh qubit in |0>.
    """

    name: str
    arity: int
    terms: tuple[tuple[int, np.ndarray], ...]
    normalize_after: bool = False
    extends_register: bool = False

    def __post_init__(self):
        if not self.terms and not self.extends_register:
            raise InvalidArity(f"super-operator {self.name} needs at least one Kraus term")
        dim = 2 ** self.arity
        frozen = []
        for sign, matrix in self.terms:
            if sign not in (1, -1):
                raise InvalidArity(f"Kraus sign must be +1 or -1, got {sign}")
            matrix = _as_complex_array(matrix, f"Kraus term of {self.name}")
            if matrix.shape != (dim, dim):
                raise InvalidArity(
                    f"Kraus term of {self.name} must be {dim}x{dim}, got {matrix.shape}"
                )
            frozen.append((sign, matrix))
        object.__setattr__(self, "terms", tuple(frozen))

    @classmethod
    def from_unitary(cls, u: Unitary) -> "SuperOperator":
        return cls(u.name or "U", u.arity, ((1, u.matrix),))

    @classmethod
    def measure_unknown(cls, r: int) -> "SuperOperator":
        """Measurement with the result unknown: sum over all outcome projectors."""
        terms = []
        for m in range(2 ** r):
            proj = np.zeros((2 ** r, 2 ** r))
            proj[m, m] = 1.0
            terms.append((1, proj))
        return cls("M", r, tuple(terms))

    @classmethod
    def measure_expected(cls, i: int, r: int) -> "SuperOperator":
        """Measurement with expected result i; normalises the surviving branch.

        With r = 0 this is the identity operator on the whole register.
        """
        if not 0 <= i < 2 ** r:
            raise InvalidOutcome(f"outcome {i} out of range for {r} qubits")
        proj = np.zeros((2 ** r, 2 ** r))
        proj[i, i] = 1.0
        return cls(f"E{i}", r, ((1, proj),), normalize_after=True)

    @classmethod
    def new_qubit(cls) -> "SuperOperator":
        return cls("new", 0, ((1, np.eye(1)),), extends_register=True)

    @cached_property
    def _mask(self) -> np.ndarray | None:
        """W = sum_j sign_j d_j d_j+ when every Kraus term is diagonal,
        K_j = diag(d_j), and W is finite.  Otherwise None: where W overflows,
        its 0 * inf would be NaN where the terms give 0.  Built on the first
        application, under that kernel's ``np.errstate``, so an overflow
        does not warn."""
        if any(np.count_nonzero(k) != np.count_nonzero(k.diagonal()) for _, k in self.terms):
            return None
        zero = np.zeros((2 ** self.arity,) * 2)
        grid = sum((s * np.outer(k.diagonal(), k.diagonal().conj()) for s, k in self.terms), zero)
        return grid if np.isfinite(grid).all() else None

    def advisories(self) -> list[str]:
        """Report CP / trace-nonincreasing violations without blocking."""
        notes = []
        dim = 2 ** self.arity
        acc = np.zeros((dim, dim), dtype=np.complex128)
        choi = np.zeros((dim * dim, dim * dim), dtype=np.complex128)
        for sign, k in self.terms:
            acc += sign * (k.conj().T @ k)
            # |v> = sum_i |i> (x) K|i>, so the Choi matrix is sum sign |v><v|.
            vec = k.T.reshape(-1)
            choi += sign * np.outer(vec, vec.conj())
        eigs = np.linalg.eigvalsh((choi + choi.conj().T) / 2)
        if eigs.min() < -1e-7:
            notes.append(f"{self.name}: not completely positive (Choi eigenvalue {eigs.min():.3g})")
        top = np.linalg.eigvalsh((acc + acc.conj().T) / 2).max()
        if top > 1 + 1e-7:
            notes.append(f"{self.name}: trace may increase (sum K+K eigenvalue {top:.3g})")
        return notes

    def __repr__(self):
        return f"SuperOperator({self.name}, arity={self.arity}, terms={len(self.terms)})"


# -- operations on state vectors --------------------------------------------

def tensor(v1: StateVector, v2: StateVector) -> StateVector:
    if set(v1.qubit_names) & set(v2.qubit_names):
        raise InvalidRegister(
            f"registers share names: {set(v1.qubit_names) & set(v2.qubit_names)}"
        )
    return StateVector(v1.qubit_names + v2.qubit_names, np.kron(v1.amps, v2.amps))


def basis_state(names: Sequence[str], index: int) -> StateVector:
    amps = np.zeros(2 ** len(tuple(names)))
    amps[index] = 1.0
    return StateVector(tuple(names), amps)


def _fronted(psi: StateVector, name: str | None, arity: int, qs: tuple[str, ...]) -> tuple[np.ndarray, list[int]]:
    """psi's amplitudes as a 2**r x 2**(n-r) grid whose row index reads the
    bits of the named qubits ``qs`` in order, and the axis order that fronts
    them."""
    front = _target_positions(name, arity, qs, psi.qubit_names)
    n = psi.num_qubits
    axes = front + [i for i in range(n) if i not in front]
    return psi.amps.reshape([2] * n).transpose(axes).reshape(2 ** len(qs), -1), axes


def _unfronted(grid: np.ndarray, axes: list[int]) -> np.ndarray:
    """The inverse of ``_fronted``: amplitudes in the register's own order."""
    return grid.reshape([2] * len(axes)).transpose(inverse_perm(axes)).reshape(-1)


def apply_unitary(u: Unitary, psi: StateVector, qs: Sequence[str]) -> StateVector:
    """U on the named qubits ``qs``, in order, and the identity on the rest;
    the register keeps its order."""
    grid, axes = _fronted(psi, u.name, u.arity, tuple(qs))
    return StateVector(psi.qubit_names, _unfronted(u.matrix @ grid, axes))


def inverse_perm(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def _permuted_entries(rho: DensityMatrix, perm: Sequence[int]) -> np.ndarray:
    """rho's entries with position i holding the old qubit at perm[i]."""
    n = rho.num_qubits
    if n == 0:
        return rho.entries
    axes = list(perm) + [n + p for p in perm]
    return rho.entries.reshape([2] * (2 * n)).transpose(axes).reshape(2 ** n, 2 ** n)


def measure(psi: StateVector, qs: Sequence[str], tol: float = DEFAULT_TOL) -> list[MeasurementOutcome]:
    """Measure the named qubits ``qs``: outcome m reads their bits in order,
    the first operand most significant, and keeps the amplitudes that agree
    with it, rescaled by 1/sqrt(p_m).  The register keeps its order."""
    qs = tuple(qs)
    grid, axes = _fronted(psi, "measurement", len(qs), qs)
    outcomes = []
    for m, block in enumerate(grid):
        p = float(np.sum(np.abs(block) ** 2))
        kept = np.zeros_like(grid)
        if p > tol:
            kept[m] = block / np.sqrt(p)
        outcomes.append(MeasurementOutcome(m, p, StateVector(psi.qubit_names, _unfronted(kept, axes))))
    return outcomes


def outer(psi: StateVector) -> DensityMatrix:
    return DensityMatrix(psi.qubit_names, np.outer(psi.amps, psi.amps.conj()))


def mix(parts: Sequence[tuple[float, StateVector]]) -> DensityMatrix:
    """Weighted sum of outer products, sum p_i |psi_i><psi_i|."""
    names = parts[0][1].qubit_names
    entries = np.zeros((2 ** len(names), 2 ** len(names)), dtype=np.complex128)
    for p, psi in parts:
        if psi.qubit_names != names:
            raise ShapeMismatch("mixture components over different registers")
        if p > 0:
            entries += p * np.outer(psi.amps, psi.amps.conj())
    return DensityMatrix(names, entries)


# -- super-operator application ---------------------------------------------

def _target_positions(name: str | None, arity: int, targets: tuple[str, ...], names: tuple[str, ...]) -> list[int]:
    """Register positions of the named targets, in target order."""
    if len(set(targets)) != len(targets):
        raise InvalidArity(f"duplicate targets {targets}")
    if len(targets) != arity:
        raise InvalidArity(f"{name} has arity {arity}, got targets {targets}")
    for t in targets:
        if t not in names:
            raise UnknownQubit(f"unknown qubit {t!r} in {names}")
    return [names.index(t) for t in targets]


def _signed_kraus_sum(e: SuperOperator, front: list[int], rho: DensityMatrix) -> np.ndarray:
    """The raw signed Kraus sum on the target positions ``front``, as a grid
    in rho's own name order; unvalidated.

    The 2n-axis tensor of rho is transposed once so that the target row
    axes lead and the target column axes trail.  Each term is then two plain
    matmuls, K on the rows and K+ on the columns, before one transpose back.
    """
    n = rho.num_qubits
    rest = [i for i in range(n) if i not in front]
    axes = front + rest + [n + i for i in rest] + [n + i for i in front]
    dim = 2 ** e.arity
    work = rho.entries.reshape([2] * (2 * n)).transpose(axes).reshape(dim, -1)
    acc = 0
    for sign, k in e.terms:
        rows = (k @ work).reshape(-1, dim)
        acc = acc + sign * (rows @ k.conj().T)
    return acc.reshape([2] * (2 * n)).transpose(inverse_perm(axes)).reshape(2 ** n, 2 ** n)


def _spread(grid: np.ndarray, front: list[int], n: int) -> np.ndarray:
    """``grid``, over the targets at positions ``front``, reshaped to
    broadcast against rho's 2n-axis tensor."""
    order = sorted(range(len(front)), key=front.__getitem__)
    axes = [g * len(front) + j for g in range(2) for j in order]
    shape = [2 if i % n in front else 1 for i in range(2 * n)]
    return grid.reshape([2] * len(axes)).transpose(axes).reshape(shape)


def _raw_apply(e: SuperOperator, targets: tuple[str, ...], rho: DensityMatrix) -> np.ndarray:
    """e's signed Kraus sum on the named targets of rho, in rho's name
    order: never normalised, unvalidated, blind to ``extends_register``.
    With a mask W (``SuperOperator._mask``) rho's tensor is multiplied entry
    by entry by W spread over the target axes, else ``_signed_kraus_sum``.
    The + 0.0 turns a masked -0.0 into the dense sum's +0.0, so for W in
    {0, 1, -1} the bytes, which ``criteria.Instance``'s register table
    keys on, are the same."""
    front = _target_positions(e.name, e.arity, targets, rho.qubit_names)
    if e._mask is None:
        return _signed_kraus_sum(e, front, rho)
    n = rho.num_qubits
    masked = rho.entries.reshape([2] * (2 * n)) * _spread(e._mask, front, n)
    return masked.reshape(2 ** n, 2 ** n) + 0.0


@np.errstate(over="ignore", invalid="ignore")
def superop_apply(
    e: SuperOperator,
    targets: Sequence[str],
    rho: DensityMatrix,
    tol: float = DEFAULT_TOL,
) -> DensityMatrix:
    """Apply e to the named targets of rho (``_raw_apply``), keeping rho's
    name order.  With ``normalize_after`` the result is divided by its
    trace, the number ``raw_trace_after`` returns (ZeroBranch when it is at
    most tol).  An overflow raises no warning; the result's check rejects it.

    The result is kept on rho (``DensityMatrix._kept``), so applying one
    operator object to the same targets of one matrix again returns the
    same object; an application that raises keeps nothing.
    """
    targets = tuple(targets)
    key = (e, targets, tol)
    out = rho._kept.get(key)
    if out is not None:
        return out
    if e.extends_register:
        if targets:
            raise InvalidArity("register extension takes no targets")
        fresh = fresh_qubit_name(rho.qubit_names)
        zero = np.array([[1.0, 0.0], [0.0, 0.0]])
        out = _density_under_errstate(rho.qubit_names + (fresh,), np.kron(rho.entries, zero))
    else:
        acc = _raw_apply(e, targets, rho)
        if e.normalize_after:
            tr = float(np.trace(acc).real)
            if tr <= tol:
                raise ZeroBranch(f"{e.name} applied to a branch of trace {tr}")
            acc = acc / tr
        out = _density_under_errstate(rho.qubit_names, acc)
    rho._kept[key] = out
    return out


@np.errstate(over="ignore", invalid="ignore")
def raw_trace_after(e: SuperOperator, targets: Sequence[str], rho: DensityMatrix) -> float:
    """Trace of the raw, never normalised application, for a guard: the
    number ``superop_apply`` divides by, so a guard tr(E[q]) > tol passes
    exactly when its branch raises no ZeroBranch.  An overflow gives an
    infinite or NaN trace without a warning.  The trace is kept on rho
    under (operator, targets), as ``superop_apply`` keeps its result."""
    targets = tuple(targets)
    key = (e, targets)
    tr = rho._kept.get(key)
    if tr is None:
        tr = rho._kept[key] = float(np.trace(_raw_apply(e, targets, rho)).real)
    return tr


# -- comparison --------------------------------------------------------------

def within_tol(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Same shape and max|a - b| <= tol: ``np.allclose(a, b, rtol=0, atol=tol)``
    on finite entries, at a fraction of its cost on small arrays."""
    return a.shape == b.shape and (not a.size or bool(np.abs(a - b).max() <= tol))


def density_equal_mod_order(a: DensityMatrix, b: DensityMatrix, tol: float = DEFAULT_TOL) -> bool:
    """Equality after reordering b's register to a's name order; one
    matrix equals itself at once."""
    if a is b:
        return True
    if a.qubit_names == b.qubit_names:
        return within_tol(a.entries, b.entries, tol)
    if set(a.qubit_names) != set(b.qubit_names):
        return False
    perm = [b.qubit_names.index(name) for name in a.qubit_names]
    return within_tol(a.entries, _permuted_entries(b, perm), tol)
