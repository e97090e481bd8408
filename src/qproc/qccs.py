"""The qCCS calculus: terms over density-matrix states, well-formedness,
and the labelled + reduction semantics.

Terms apply super-operators to named qubit sets, so no permutation rule is
needed; states are partial density operators.  The no-cloning conditions
are syntactic: an output may not keep its payload free in the continuation
(checked literally), and parallel components may not both actively demand
a qubit (input-guarded uses do not count, mirroring the source type
system; the translated teleportation relies on this).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import canon, quantum
from .errors import (
    ArityMismatch,
    InvalidRegister,
    NoCloningViolation,
    ParseError,
    UnboundQubit,
    UnknownName,
    WellFormednessError,
    ZeroBranch,
)
from .cqp import TokenStream, parse_amp_expr, parse_coefficient_product, parse_coefficient_sum
from .quantum import DEFAULT_TOL, GATES, DensityMatrix, SuperOperator, fresh_qubit_name as _fresh_register_name

RESERVED_OPS = {"M", "E", "new", "tau", "nil", "ok", "if", "then", "true", "false", "tr"}


# -- operator references -------------------------------------------------------

@dataclass(frozen=True, eq=False)
class GateOp(canon.Interned):
    gate: str


@dataclass(frozen=True, eq=False)
class MeasureOp(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class ProjectOp(canon.Interned):
    index: int


@dataclass(frozen=True, eq=False)
class NewOp(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class CustomOp(canon.Interned):
    name: str


OpRef = GateOp | MeasureOp | ProjectOp | NewOp | CustomOp


def resolve_op(op: OpRef, arity: int, table: Mapping[str, SuperOperator]) -> SuperOperator:
    match op:
        case GateOp(g) if g in table:
            return table[g]
        case CustomOp(name):
            if name not in table:
                raise UnknownName(f"unknown operator {name!r}")
            return table[name]
    return _builtin_op(op, arity)


@lru_cache(maxsize=1024)
def _builtin_op(op: OpRef, arity: int) -> SuperOperator:
    """A built-in operator, built and validated once per reference and arity."""
    match op:
        case GateOp(g):
            if g in GATES:
                return SuperOperator.from_unitary(GATES[g])
            raise UnknownName(f"unknown operator {g!r}")
        case MeasureOp():
            return SuperOperator.measure_unknown(arity)
        case ProjectOp(i):
            return SuperOperator.measure_expected(i, arity)
        case NewOp():
            return SuperOperator.new_qubit()
    raise TypeError(f"not an operator reference: {op!r}")


def format_op(op: OpRef, qubits: Sequence[str]) -> str:
    args = ", ".join(qubits)
    match op:
        case GateOp(g):
            return f"{g}[{args}]"
        case MeasureOp():
            return f"M[{args}]"
        case ProjectOp(i):
            return f"E{{{i}}}[{args}]"
        case NewOp():
            return "new"
        case CustomOp(name):
            return f"{name}[{args}]"
    raise TypeError(f"not an operator reference: {op!r}")


# -- boolean guards --------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class BTrue(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class BFalse(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class TraceNonzero(canon.Interned):
    op: OpRef
    qubits: tuple[str, ...]


BoolExpr = BTrue | BFalse | TraceNonzero


def eval_bool(b: BoolExpr, rho: DensityMatrix, table=None, tol: float = DEFAULT_TOL) -> bool:
    table = table or {}
    match b:
        case BTrue():
            return True
        case BFalse():
            return False
        case TraceNonzero(op, qubits):
            resolved = resolve_op(op, len(qubits), table)
            # raw application: the guard inspects the unnormalised branch.
            # An overflowing trace is rejected like an overflowing prefix,
            # not read as zero (a NaN fails the comparison below).
            trace = quantum.raw_trace_after(resolved, qubits, rho)
            if not math.isfinite(trace):
                raise InvalidRegister(f"non-finite trace in guard tr({format_op(op, qubits)})")
            return abs(trace) > tol
    raise TypeError(f"not a boolean guard: {b!r}")


# -- terms -----------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Nil(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class Success(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class Tau(canon.Interned):
    cont: "Term"


@dataclass(frozen=True, eq=False)
class SuperOp(canon.Interned):
    op: OpRef
    qubits: tuple[str, ...]
    cont: "Term"


@dataclass(frozen=True, eq=False)
class In(canon.Interned):
    chan: str
    var: str
    cont: "Term"


@dataclass(frozen=True, eq=False)
class Out(canon.Interned):
    chan: str
    qubit: str
    cont: "Term"


@dataclass(frozen=True, eq=False)
class Choice(canon.Interned):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Par(canon.Interned):
    left: "Term"
    right: "Term"


@dataclass(frozen=True, eq=False)
class Restrict(canon.Interned):
    cont: "Term"
    chans: tuple[str, ...]


@dataclass(frozen=True, eq=False)
class IfThen(canon.Interned):
    cond: BoolExpr
    cont: "Term"


@dataclass(frozen=True, eq=False)
class ConstCall(canon.Interned):
    name: str
    args: tuple[str, ...]


Term = Nil | Success | Tau | SuperOp | In | Out | Choice | Par | Restrict | IfThen | ConstCall


def choice_chain(branches: Sequence[Term]) -> Term:
    out = branches[0]
    for b in branches[1:]:
        out = Choice(out, b)
    return out


@dataclass(frozen=True, eq=False)
class QccsConfig:
    term: Term
    rho: DensityMatrix


ProcessDefs = dict[str, tuple[tuple[str, ...], Term]]


# -- free names -------------------------------------------------------------------

def _bool_qubits(b: BoolExpr) -> frozenset[str]:
    match b:
        case TraceNonzero(_, qubits):
            return frozenset(qubits)
        case _:
            return frozenset()


@canon.per_node
def free_qubits(t: Term) -> frozenset[str]:
    match t:
        case Nil() | Success():
            return frozenset()
        case Tau(p) | Restrict(p, _):
            return free_qubits(p)
        case SuperOp(_, qs, p):
            return frozenset(qs) | free_qubits(p)
        case In(_, x, p):
            return free_qubits(p) - {x}
        case Out(_, q, p):
            return frozenset({q}) | free_qubits(p)
        case Choice(l, r) | Par(l, r):
            return free_qubits(l) | free_qubits(r)
        case IfThen(b, p):
            return _bool_qubits(b) | free_qubits(p)
        case ConstCall(_, args):
            return frozenset(args)
    raise TypeError(f"not a qCCS term: {t!r}")


@canon.per_node
def _demanded_qubits(t: Term) -> frozenset[str]:
    """Free qubits outside input-guarded continuations: the demand notion
    of the parallel no-cloning condition."""
    match t:
        case In():
            return frozenset()
        case Nil() | Success() | ConstCall():
            return free_qubits(t)
        case Tau(p) | Restrict(p, _):
            return _demanded_qubits(p)
        case SuperOp(_, qs, p):
            return frozenset(qs) | _demanded_qubits(p)
        case Out(_, q, p):
            return frozenset({q}) | _demanded_qubits(p)
        case Choice(l, r) | Par(l, r):
            return _demanded_qubits(l) | _demanded_qubits(r)
        case IfThen(b, p):
            return _bool_qubits(b) | _demanded_qubits(p)
    raise TypeError(f"not a qCCS term: {t!r}")


@canon.per_node
def free_channels(t: Term) -> frozenset[str]:
    match t:
        case Nil() | Success() | ConstCall():
            return frozenset()
        case Tau(p) | SuperOp(_, _, p) | IfThen(_, p):
            return free_channels(p)
        case In(c, _, p) | Out(c, _, p):
            return frozenset({c}) | free_channels(p)
        case Choice(l, r) | Par(l, r):
            return free_channels(l) | free_channels(r)
        case Restrict(p, chans):
            return free_channels(p) - set(chans)
    raise TypeError(f"not a qCCS term: {t!r}")


# -- substitution -----------------------------------------------------------------

def _subst_bool(b: BoolExpr, mapping: Mapping[str, str]) -> BoolExpr:
    if isinstance(b, TraceNonzero):
        return TraceNonzero(b.op, tuple(mapping.get(q, q) for q in b.qubits))
    return b


def substitute(t: Term, mapping: Mapping[str, str]) -> Term:
    """Simultaneous capture-avoiding substitution on channels and qubits."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    return _substitute(t, mapping, mapping)


def _substitute(t: Term, chans: Mapping[str, str], qubits: Mapping[str, str]) -> Term:
    """``substitute`` with one mapping for channel positions and one for
    qubit positions.  They part below a binder, which binds one sort: a
    restriction's channels and an input's qubit shadow and are renamed
    apart in that sort only, and a free name of the other sort is
    substituted as usual.  ``t`` itself when no mapped name is free in it."""
    if chans.keys().isdisjoint(free_channels(t)) and qubits.keys().isdisjoint(free_qubits(t)):
        return t

    def sub(p):
        return _substitute(p, chans, qubits)

    match t:
        case Nil() | Success():
            return t
        case Tau(p):
            return Tau(sub(p))
        case SuperOp(op, qs, p):
            return SuperOp(op, tuple(qubits.get(q, q) for q in qs), sub(p))
        case In(c, x, p):
            (x,), p = canon.rebind((x,), p, qubits, _free_all, lambda body, inner: _substitute(body, chans, inner))
            return In(chans.get(c, c), x, p)
        case Out(c, q, p):
            return Out(chans.get(c, c), qubits.get(q, q), sub(p))
        case Choice(l, r):
            return Choice(sub(l), sub(r))
        case Par(l, r):
            return Par(sub(l), sub(r))
        case Restrict(p, bound):
            bound, p = canon.rebind(bound, p, chans, _free_all, lambda body, inner: _substitute(body, inner, qubits))
            return Restrict(p, bound)
        case IfThen(b, p):
            return IfThen(_subst_bool(b, qubits), sub(p))
        case ConstCall(name, args):
            return ConstCall(name, tuple(qubits.get(a, a) for a in args))
    raise TypeError(f"not a qCCS term: {t!r}")


def _free_all(t: Term) -> frozenset[str]:
    return free_qubits(t) | free_channels(t)


# -- well-formedness --------------------------------------------------------------

def check_wellformed(
    defs: ProcessDefs,
    config: QccsConfig,
    table: Mapping[str, SuperOperator] | None = None,
) -> None:
    """Cond1 (no output keeps its payload), Cond2 (parallel components
    demand disjoint qubits), closed constants, resolvable operators, and
    every free qubit bound by the state."""
    table = table or {}

    for name, (params, body) in defs.items():
        if len(set(params)) != len(params):
            raise WellFormednessError("Defs", name, f"repeated parameters {params}")
        loose = free_qubits(body) - set(params)
        if loose:
            raise WellFormednessError("Defs", name, f"body uses qubits {sorted(loose)} outside {params}")

    def visit(t: Term, path: str, bound: frozenset[str], register: tuple[str, ...]):
        match t:
            case Nil() | Success():
                return
            case Tau(p):
                visit(p, path + ".tau", bound, register)
            case SuperOp(op, qs, p):
                resolve_op(op, len(qs), table)
                for q in qs:
                    _check_qubit(q, bound, path)
                if len(set(qs)) != len(qs):
                    raise WellFormednessError("Cond2", path, f"operator targets {qs} repeat a qubit")
                if isinstance(op, NewOp):
                    # the extension operator appends a deterministically
                    # named qubit that the continuation may reference
                    fresh = _fresh_register_name(register)
                    visit(p, path + ".op", bound | {fresh}, register + (fresh,))
                else:
                    visit(p, path + ".op", bound, register)
            case In(c, x, p):
                visit(p, path + ".in", bound | {x}, register)
            case Out(c, q, p):
                _check_qubit(q, bound, path)
                if q in free_qubits(p):
                    raise WellFormednessError(
                        "Cond1", path, f"output keeps sent qubit {q!r} free in its continuation"
                    )
                visit(p, path + ".out", bound, register)
            case Choice(l, r):
                visit(l, path + ".choice.left", bound, register)
                visit(r, path + ".choice.right", bound, register)
            case Par(l, r):
                shared = _demanded_qubits(l) & _demanded_qubits(r)
                if shared:
                    raise WellFormednessError(
                        "Cond2", path, f"parallel components both demand {sorted(shared)}"
                    )
                visit(l, path + ".par.left", bound, register)
                visit(r, path + ".par.right", bound, register)
            case Restrict(p, _):
                visit(p, path + ".res", bound, register)
            case IfThen(b, p):
                for q in sorted(_bool_qubits(b)):
                    _check_qubit(q, bound, path)
                match b:
                    case TraceNonzero(op, qs):
                        resolve_op(op, len(qs), table)
                    case _:
                        pass
                visit(p, path + ".if", bound, register)
            case ConstCall(name, args):
                if name not in defs:
                    raise UnknownName(f"unresolved process constant {name!r} at {path}")
                params, _ = defs[name]
                if len(params) != len(args):
                    raise ArityMismatch(f"{name} takes {len(params)} qubits, got {len(args)} at {path}")
                if len(set(args)) != len(args):
                    raise NoCloningViolation(f"constant call {name}{args} repeats a qubit at {path}")
                for q in args:
                    _check_qubit(q, bound, path)
            case _:
                raise TypeError(f"not a qCCS term: {t!r}")

    def _check_qubit(q: str, bound: frozenset[str], path: str):
        if q not in bound:
            raise UnboundQubit(f"qubit {q!r} at {path} is not in the state or received")

    visit(config.term, "process", frozenset(config.rho.qubit_names), config.rho.qubit_names)


# -- semantics ---------------------------------------------------------------------

@dataclass(frozen=True)
class LTau:
    pass


@dataclass(frozen=True)
class LIn:
    chan: str
    qubit: str


@dataclass(frozen=True)
class LOut:
    chan: str
    qubit: str


Label = LTau | LIn | LOut


def cn(label: Label) -> frozenset[str]:
    """The (possibly empty) set of channels in a label."""
    match label:
        case LTau():
            return frozenset()
        case LIn(c, _) | LOut(c, _):
            return frozenset({c})
    raise TypeError(f"not a label: {label!r}")


def format_label(label: Label) -> str:
    match label:
        case LTau():
            return "tau"
        case LIn(c, q):
            return f"{c}?{q}"
        case LOut(c, q):
            return f"{c}!{q}"
    raise TypeError(f"not a label: {label!r}")


@dataclass(frozen=True, eq=False)
class QccsStep:
    label: Label
    next: QccsConfig
    reduces_choice: bool = False


def _term_steps(t, rho, defs, table, tol, unfolding):
    """All labelled transitions of <t, rho> as (label, term', rho', choice-flag)."""
    match t:
        case Nil() | Success():
            return []
        case Tau(p):
            return [(LTau(), p, rho, False)]
        case SuperOp(op, qs, p):
            resolved = resolve_op(op, len(qs), table)
            try:
                rho2 = quantum.superop_apply(resolved, qs, rho, tol)
            except ZeroBranch:
                return []  # an unguarded zero-probability branch cannot fire
            return [(LTau(), p, rho2, False)]
        case In(c, x, p):
            blocked = free_qubits(t)
            out = []
            for q in rho.qubit_names:
                if q not in blocked:
                    # x is a qubit variable: a channel named x stays free
                    out.append((LIn(c, q), _substitute(p, {}, {x: q}), rho, False))
            return out
        case Out(c, q, p):
            return [(LOut(c, q), p, rho, False)]
        case Choice(l, r):
            inner = _term_steps(l, rho, defs, table, tol, unfolding)
            inner += _term_steps(r, rho, defs, table, tol, unfolding)
            return [(lab, t2, r2, True) for lab, t2, r2, _ in inner]
        case Par(l, r):
            lefts = _term_steps(l, rho, defs, table, tol, unfolding)
            rights = _term_steps(r, rho, defs, table, tol, unfolding)
            out = []
            for lab, t2, r2, ch in lefts:
                if isinstance(lab, LIn) and lab.qubit in free_qubits(r):
                    continue
                out.append((lab, Par(t2, r), r2, ch))
            for lab, t2, r2, ch in rights:
                if isinstance(lab, LIn) and lab.qubit in free_qubits(l):
                    continue
                out.append((lab, Par(l, t2), r2, ch))
            for lab1, t1, _, ch1 in lefts:
                for lab2, t2, _, ch2 in rights:
                    if isinstance(lab1, LIn) and isinstance(lab2, LOut):
                        if (lab1.chan, lab1.qubit) == (lab2.chan, lab2.qubit):
                            out.append((LTau(), Par(t1, t2), rho, ch1 or ch2))
                    if isinstance(lab1, LOut) and isinstance(lab2, LIn):
                        if (lab1.chan, lab1.qubit) == (lab2.chan, lab2.qubit):
                            out.append((LTau(), Par(t1, t2), rho, ch1 or ch2))
            return out
        case Restrict(p, chans):
            scope = set(chans)
            out = []
            for lab, t2, r2, ch in _term_steps(p, rho, defs, table, tol, unfolding):
                if cn(lab) & scope:
                    continue
                out.append((lab, Restrict(t2, chans), r2, ch))
            return out
        case IfThen(b, p):
            if not eval_bool(b, rho, table, tol):
                return []
            return _term_steps(p, rho, defs, table, tol, unfolding)
        case ConstCall(name, args):
            if name in unfolding:
                return []  # unguarded recursion has no actions
            if name not in defs:
                raise UnknownName(f"unresolved process constant {name!r}")
            params, body = defs[name]
            if len(params) != len(args):
                raise ArityMismatch(f"{name} takes {len(params)} qubits, got {len(args)}")
            unfolded = substitute(body, dict(zip(params, args)))
            return _term_steps(unfolded, rho, defs, table, tol, unfolding | {name})
    raise TypeError(f"not a qCCS term: {t!r}")


def lts_steps(
    config: QccsConfig,
    defs: ProcessDefs | None = None,
    table: Mapping[str, SuperOperator] | None = None,
    tol: float = DEFAULT_TOL,
) -> list[QccsStep]:
    raw = _term_steps(config.term, config.rho, defs or {}, table or {}, tol, frozenset())
    return [QccsStep(lab, QccsConfig(t2, r2), ch) for lab, t2, r2, ch in raw]


def reduce_steps(
    config: QccsConfig,
    defs: ProcessDefs | None = None,
    table: Mapping[str, SuperOperator] | None = None,
    tol: float = DEFAULT_TOL,
) -> list[QccsStep]:
    """The tau-labelled subset: the reduction semantics."""
    return [s for s in lts_steps(config, defs, table, tol) if isinstance(s.label, LTau)]


def has_success_barb(config: QccsConfig, defs: ProcessDefs | None = None) -> bool:
    """Unguarded success: reachable through parallel, restriction and bare
    choice branches; prefixes and unresolved conditionals guard."""
    defs = defs or {}

    def walk(t: Term, unfolding: frozenset) -> bool:
        match t:
            case Success():
                return True
            case Par(l, r) | Choice(l, r):
                return walk(l, unfolding) or walk(r, unfolding)
            case Restrict(p, _):
                return walk(p, unfolding)
            case ConstCall(name, args):
                if name in unfolding or name not in defs:
                    return False
                params, body = defs[name]
                return walk(substitute(body, dict(zip(params, args))), unfolding | {name})
            case _:
                return False

    return walk(config.term, frozenset())


# -- structural congruence ----------------------------------------------------------

def _node(t: Term | BoolExpr) -> tuple:
    """The term, or guard, as a node of the shared congruence signature pass."""
    match t:
        case Nil():
            return canon.UNIT
        case Par(l, r):
            return (canon.PAR, l, r)
        case Restrict(p, chans):
            return (canon.RES, tuple(sorted(set(chans) & free_channels(p))), p)
        case Success():
            return ("ok", (), (), ())
        case Tau(p):
            return ("tau", (), (), (p,))
        case SuperOp(op, qs, p):
            return ("so:" + format_op(op, ()), qs, (), (p,))
        case In(c, x, p):
            return ("in", (c,), (x,), (p,))
        case Out(c, q, p):
            return ("out", (c, q), (), (p,))
        case Choice(l, r):
            return ("+", (), (), (l, r))
        case IfThen(b, p):
            return ("if", (), (), (b, p))
        case ConstCall(name, args):
            return ("call:" + name, args, (), ())
        case BTrue():
            return ("tt", (), (), ())
        case BFalse():
            return ("ff", (), (), ())
        case TraceNonzero(op, qs):
            return ("tr:" + format_op(op, ()), qs, (), ())
    raise TypeError(f"not a qCCS term: {t!r}")


def _signature(config: QccsConfig) -> str:
    """Term signature with register qubits named by position."""
    cached = getattr(config, "_sig", None)
    if cached is None:
        cached = canon.signature(config.term, _node, canon.register_env(config.rho.qubit_names))
        object.__setattr__(config, "_sig", cached)
    return cached


def congruent(c1: QccsConfig, c2: QccsConfig, tol: float = DEFAULT_TOL) -> bool:
    """Parallel laws, alpha conversion (binders and register names), nested
    and parallel restrictions merged; states compared entrywise within tol."""
    return quantum.within_tol(c1.rho.entries, c2.rho.entries, tol) and _signature(c1) == _signature(c2)


def canonical_key(config: QccsConfig) -> str:
    """Hash key modulo congruence: register size and term signature only.
    Congruent configurations share it; ``congruent`` decides the state."""
    cached = getattr(config, "_key", None)
    if cached is None:
        cached = f"Q{config.rho.num_qubits}|{_signature(config)}"
        object.__setattr__(config, "_key", cached)
    return cached


# -- the measurement-choice law -------------------------------------------------------

def _components(t: Term, kind: type) -> list[Term]:
    """The operands of a nest of ``kind`` (``Par`` or ``Choice``) nodes."""
    if isinstance(t, kind):
        return _components(t.left, kind) + _components(t.right, kind)
    return [t]


def _par_of(parts: Iterable[Term]) -> Term:
    parts = list(parts)
    return reduce(Par, parts) if parts else Nil()


def _measurement_branches(t: Choice) -> tuple[tuple[str, ...], list[IfThen]] | None:
    """``qs`` and the branches of a measurement choice
    ``Σ_i if tr(E{i}[qs]) != 0 then E{i}[qs].body_i`` whose branches
    cover every outcome of ``qs`` once, or None for any other choice."""
    branches = _components(t, Choice)
    qs = None
    for branch in branches:
        match branch:
            case IfThen(TraceNonzero(ProjectOp(i), guarded), SuperOp(ProjectOp(j), applied, _)) if (
                i == j and guarded == applied and qs in (None, applied)
            ):
                qs = applied
            case _:
                return None
    if sorted(b.cond.op.index for b in branches) != list(range(2 ** len(qs))):
        return None
    return qs, branches


def factor_measurement_choices(t: Term) -> Term:
    """Move the components every branch of a measurement choice shares out
    of the choice:  Σ_i if tr(E{i}[qs]) != 0 then E{i}[qs].(P_i | R)
    becomes  (Σ_i if tr(E{i}[qs]) != 0 then E{i}[qs].P_i) | R.

    Measurement choices are found through ``Par`` and ``Restrict`` only.
    ``R`` is the multiset of parallel components, compared by term
    equality, that occur in every ``body_i`` and have no free qubit in
    ``qs``; everything else is left as it is.  The two sides are
    correspondence similar, not congruent (see ``criteria``), so the
    congruence and the state keys never call this.
    """
    match t:
        case Par(l, r):
            return Par(factor_measurement_choices(l), factor_measurement_choices(r))
        case Restrict(p, chans):
            return Restrict(factor_measurement_choices(p), chans)
        case Choice():
            found = _measurement_branches(t)
            if found is None:
                return t
            qs, branches = found
            parts = [Counter(_components(b.cont.cont, Par)) for b in branches]
            shared = Counter({c: n for c, n in parts[0].items() if free_qubits(c).isdisjoint(qs)})
            for counted in parts[1:]:
                shared &= counted
            if not shared:
                return t
            factored = [
                IfThen(b.cond, SuperOp(b.cont.op, qs, _par_of((own - shared).elements())))
                for b, own in zip(branches, parts)
            ]
            return Par(choice_chain(factored), _par_of(shared.elements()))
    return t


# -- concrete syntax ------------------------------------------------------------------

def _parse_names(ts: TokenStream) -> list[str]:
    names = [ts.name()]
    while ts.accept(","):
        names.append(ts.name())
    return names


def _parse_opref(ts: TokenStream) -> tuple[OpRef, tuple[str, ...]]:
    tok = ts.peek()
    if tok.text == "E" and ts.peek(1).text == "{":
        ts.next()
        ts.expect("{")
        idx = ts.next()
        if idx.kind != "num" or not idx.text.isdigit():
            ts.error("expected an outcome index")
        ts.expect("}")
        qubits = _parse_bracket_args(ts)
        return ProjectOp(int(idx.text)), qubits
    name = ts.name()
    qubits = _parse_bracket_args(ts)
    if name == "M":
        return MeasureOp(), qubits
    if name in GATES:
        return GateOp(name), qubits
    return CustomOp(name), qubits


def _parse_bracket_args(ts: TokenStream) -> tuple[str, ...]:
    ts.expect("[")
    args: list[str] = []
    if ts.peek().text != "]":
        args = _parse_names(ts)
    ts.expect("]")
    return tuple(args)


def _parse_bool(ts: TokenStream) -> BoolExpr:
    if ts.accept("true"):
        return BTrue()
    if ts.accept("false"):
        return BFalse()
    ts.expect("tr")
    ts.expect("(")
    op, qubits = _parse_opref(ts)
    ts.expect(")")
    ts.expect("!=")
    zero = ts.next()
    if zero.text != "0":
        ts.error("guards compare the trace against 0")
    return TraceNonzero(op, qubits)


def _parse_atom(ts: TokenStream) -> Term:
    tok = ts.peek()
    if ts.accept("nil"):
        return Nil()
    if ts.accept("ok"):
        return Success()
    if ts.accept("tau"):
        ts.expect(".")
        return Tau(_parse_item(ts))
    if tok.text == "new":
        ts.next()
        ts.expect(".")
        return SuperOp(NewOp(), (), _parse_item(ts))
    if ts.accept("if"):
        cond = _parse_bool(ts)
        ts.expect("then")
        return IfThen(cond, _parse_item(ts))
    if ts.accept("("):
        inner = parse_term(ts)
        ts.expect(")")
        return inner
    if tok.kind in ("id", "num"):
        nxt = ts.peek(1).text
        if nxt == "?" :
            chan = ts.name()
            ts.next()
            var = ts.name()
            ts.expect(".")
            return In(chan, var, _parse_item(ts))
        if nxt == "!":
            chan = ts.name()
            ts.next()
            payload = ts.name()
            ts.expect(".")
            return Out(chan, payload, _parse_item(ts))
        if nxt == "(":
            name = ts.name()
            ts.expect("(")
            args: list[str] = []
            if ts.peek().text != ")":
                args = _parse_names(ts)
            ts.expect(")")
            return ConstCall(name, tuple(args))
        if nxt == "[" or (tok.text == "E" and nxt == "{"):
            op, qubits = _parse_opref(ts)
            ts.expect(".")
            return SuperOp(op, qubits, _parse_item(ts))
    ts.error(f"unexpected {tok.text or 'end of input'!r} in qCCS term")


def _parse_item(ts: TokenStream) -> Term:
    term = _parse_atom(ts)
    while ts.accept("\\"):
        ts.expect("{")
        chans: list[str] = []
        if ts.peek().text != "}":
            chans = _parse_names(ts)
        ts.expect("}")
        term = Restrict(term, tuple(chans))
    return term


def _parse_par(ts: TokenStream) -> Term:
    term = _parse_item(ts)
    while ts.accept("|"):
        term = Par(term, _parse_item(ts))
    return term


def parse_term(ts: TokenStream) -> Term:
    term = _parse_par(ts)
    while ts.accept("+"):
        term = Choice(term, _parse_par(ts))
    return term


def _parse_matrix(ts: TokenStream) -> np.ndarray:
    ts.expect("[")
    rows = []
    while True:
        ts.expect("[")
        row = [parse_coefficient_sum(ts)]
        while ts.accept(","):
            row.append(parse_coefficient_sum(ts))
        ts.expect("]")
        rows.append(row)
        if not ts.accept(","):
            break
    ts.expect("]")
    width = len(rows[0])
    if any(len(r) != width for r in rows) or len(rows) != width:
        ts.error(f"matrix must be square, got rows of {[len(r) for r in rows]}")
    return np.array(rows, dtype=complex)


def _parse_rho(ts: TokenStream, names: tuple[str, ...]) -> DensityMatrix:
    if ts.accept("matrix"):
        return DensityMatrix(names, _parse_matrix(ts))
    parts = []

    def outer_part():
        coef = 1.0
        if ts.peek().text != "outer":
            value = parse_coefficient_product(ts)
            ts.expect("*")
            if abs(value.imag) > 1e-12 or value.real < 0:
                ts.error("mixture weights must be non-negative reals")
            coef = value.real
        ts.expect("outer")
        ts.expect("(")
        amps = parse_amp_expr(ts, len(names))
        ts.expect(")")
        parts.append((coef, amps))

    outer_part()
    while ts.accept("+"):
        outer_part()
    dim = 2 ** len(names)
    entries = np.zeros((dim, dim), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        # an overflowing mixture is left to the DensityMatrix checks
        for p, amps in parts:
            entries += p * np.outer(amps, amps.conj())
    return DensityMatrix(names, entries)


def parse_qccs(text: str):
    """Parse the .qccs format.

    Returns (defs, config, table): process constant definitions, the
    initial configuration, and the named super-operator table.
    """
    ts = TokenStream(text)
    defs: ProcessDefs = {}
    table: dict[str, SuperOperator] = {}
    while ts.peek().text in ("superop", "def"):
        if ts.accept("superop"):
            tok = ts.peek()
            name = ts.name()
            if name in RESERVED_OPS or name in GATES:
                raise ParseError(f"operator name {name!r} is reserved", tok.line, tok.column)
            ts.expect("(")
            arity_tok = ts.next()
            if arity_tok.kind != "num" or not arity_tok.text.isdigit():
                ts.error("expected the operator arity")
            arity = int(arity_tok.text)
            ts.expect(")")
            ts.expect("{")
            terms = []
            while ts.peek().text != "}":
                sign = 1
                if ts.accept("-"):
                    sign = -1
                else:
                    ts.accept("+")
                matrix = _parse_matrix(ts)
                if matrix.shape != (2 ** arity, 2 ** arity):
                    ts.error(f"Kraus term must be {2 ** arity}x{2 ** arity} for arity {arity}")
                terms.append((sign, matrix))
                ts.expect(";")
            ts.expect("}")
            table[name] = SuperOperator(name, arity, tuple(terms))
        else:
            ts.expect("def")
            name = ts.name()
            ts.expect("(")
            params: list[str] = []
            if ts.peek().text != ")":
                params = _parse_names(ts)
            ts.expect(")")
            ts.expect("=")
            defs[name] = (tuple(params), parse_term(ts))
    ts.expect("state")
    ts.expect("qubits")
    names: list[str] = []
    if ts.peek().text != ";":
        names = _parse_names(ts)
    ts.expect(";")
    ts.expect("rho")
    ts.expect("=")
    rho = _parse_rho(ts, tuple(names))
    ts.expect(";")
    ts.expect("process")
    term = parse_term(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        ts.error(f"unexpected {tok.text!r} after process term")
    config = QccsConfig(term, rho)
    check_wellformed(defs, config, table)
    return defs, config, table


# -- pretty printing --------------------------------------------------------------------

def format_bool(b: BoolExpr) -> str:
    match b:
        case BTrue():
            return "true"
        case BFalse():
            return "false"
        case TraceNonzero(op, qs):
            return f"tr({format_op(op, qs)}) != 0"
    raise TypeError(f"not a boolean guard: {b!r}")


def format_term(t: Term) -> str:
    return _fmt_sum(t)


def _fmt_sum(t: Term) -> str:
    if isinstance(t, Choice):
        right = _fmt_par(t.right)
        if isinstance(t.right, Choice):
            right = f"({_fmt_sum(t.right)})"
        return f"{_fmt_sum(t.left)} + {right}"
    return _fmt_par(t)


def _fmt_par(t: Term) -> str:
    if isinstance(t, Choice):
        return f"({_fmt_sum(t)})"
    if isinstance(t, Par):
        right = _fmt_item(t.right)
        if isinstance(t.right, Par):
            right = f"({_fmt_par(t.right)})"
        return f"{_fmt_par(t.left)} | {right}"
    return _fmt_item(t)


def _fmt_item(t: Term) -> str:
    match t:
        case Nil():
            return "nil"
        case Success():
            return "ok"
        case Tau(p):
            return f"tau.{_fmt_item(p)}"
        case SuperOp(op, qs, p):
            return f"{format_op(op, qs)}.{_fmt_item(p)}"
        case In(c, x, p):
            return f"{c}?{x}.{_fmt_item(p)}"
        case Out(c, q, p):
            return f"{c}!{q}.{_fmt_item(p)}"
        case IfThen(b, p):
            return f"if {format_bool(b)} then {_fmt_item(p)}"
        case ConstCall(name, args):
            return f"{name}({', '.join(args)})"
        case Restrict(p, chans):
            if not chans:
                return _fmt_item(p)
            body = _fmt_item(p) if not isinstance(p, (Par, Choice)) else f"({_fmt_sum(p)})"
            if isinstance(p, (Tau, SuperOp, In, Out, IfThen)):
                body = f"({body})"
            return f"{body} \\ {{{', '.join(chans)}}}"
        case Par() | Choice():
            return f"({_fmt_sum(t)})"
    raise TypeError(f"not a qCCS term: {t!r}")


def _fmt_complex(z: complex) -> str:
    re, im = float(z.real), float(z.imag)
    if im == 0.0:
        return repr(re)
    return f"({re!r} + {im!r}*i)"


def _fmt_matrix(m: np.ndarray) -> str:
    rows = ", ".join("[" + ", ".join(_fmt_complex(z) for z in row) + "]" for row in m)
    return f"[{rows}]"


def format_qccs_file(
    config: QccsConfig,
    defs: ProcessDefs | None = None,
    table: Mapping[str, SuperOperator] | None = None,
) -> str:
    """Deterministic .qccs source for a configuration; reparsing it and
    formatting again reproduces the same text."""
    lines = []
    for name in sorted(table or {}):
        op = table[name]
        body = " ".join(
            f"{'+' if sign > 0 else '-'}{_fmt_matrix(k)};" for sign, k in op.terms
        )
        lines.append(f"superop {name}({op.arity}) {{ {body} }}")
    for name in sorted(defs or {}):
        params, body = defs[name]
        lines.append(f"def {name}({', '.join(params)}) = {format_term(body)}")
    lines.append(f"state qubits {', '.join(config.rho.qubit_names)} ;")
    lines.append(f"rho = matrix {_fmt_matrix(config.rho.entries)} ;")
    lines.append(f"process {format_term(config.term)}")
    return "\n".join(lines) + "\n"
