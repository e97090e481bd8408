"""The qCCS calculus: terms over density-matrix states, well-formedness,
and the labelled + reduction semantics.  One stepper gives both: an input
is late, so a reduction substitutes a qubit only where an output sends it,
and only the labelled semantics lists an input once per receivable qubit.

Terms apply super-operators to named qubit sets, so no permutation rule is
needed; states are partial density operators.  The no-cloning conditions
are syntactic: an output may not keep its payload free in the continuation
(checked literally), and parallel components may not both actively demand
a qubit.  That is the source type system's rule, read from the same node
tuples (``canon.demand``): input-guarded uses do not count, and the
translated teleportation relies on this.

Each interned term keeps its template, built from its children's and keyed
by all it reads (the register order, the process definitions and the
constants being unfolded): the tests a walk of the term evaluates, in its
order (each guard, super-operator and error, with the guards over it), its
steps (label or late input, successor term or function of the received
qubit, guards passed, super-operator applied or None, choice flag) and its
success barb.  A state runs the tests on its rho in one flat pass, each where
its guards hold, so it evaluates and raises what the walk would, where it
would; equal tests give equal results, so results are keyed by test.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import canon, quantum
from .errors import (
    ArityMismatch,
    InvalidArity,
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

@canon.per_node
def free_qubits(t: Term | BoolExpr) -> frozenset[str]:
    return frozenset([x for x in canon.free_names(t, _node) if x[0] != "@"])


@canon.per_node
def free_channels(t: Term) -> frozenset[str]:
    return frozenset([x[1:] for x in canon.free_names(t, _node) if x[0] == "@"])


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

    def visit(t: Term, path: str, bound: frozenset[str], register: tuple[str, ...]):
        match t:
            case Nil() | Success():
                return
            case Tau(p):
                visit(p, path + ".tau", bound, register)
            case SuperOp(op, qs, p):
                _check_op(op, qs, path)
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
                shared = [x for x in canon.demand(l, _node) & canon.demand(r, _node) if x[0] != "@"]
                if shared:
                    raise WellFormednessError(
                        "Cond2", path, f"parallel components both demand {sorted(shared)}"
                    )
                visit(l, path + ".par.left", bound, register)
                visit(r, path + ".par.right", bound, register)
            case Restrict(p, _):
                visit(p, path + ".res", bound, register)
            case IfThen(b, p):
                for q in sorted(free_qubits(b)):
                    _check_qubit(q, bound, path)
                if isinstance(b, TraceNonzero):
                    _check_op(b.op, b.qubits, path)
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

    def _check_op(op: OpRef, qs: tuple[str, ...], path: str):
        arity = resolve_op(op, len(qs), table).arity
        if arity != len(qs):
            raise InvalidArity(f"{format_op(op, qs)} has arity {arity}, got {len(qs)} targets at {path}")

    for name, (params, body) in defs.items():
        if len(set(params)) != len(params):
            raise WellFormednessError("Defs", name, f"repeated parameters {params}")
        loose = free_qubits(body) - set(params)
        if loose:
            raise WellFormednessError("Defs", name, f"body uses qubits {sorted(loose)} outside {params}")
        visit(body, f"def {name}", frozenset(params), tuple(params))
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


@dataclass(frozen=True)
class _LateIn:
    """The label of an input whose qubit is not yet chosen: it may receive
    any register qubit but those free in it or in a parallel sibling."""

    chan: str
    blocked: frozenset[str]


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


def _meets(inp, out) -> bool:
    """The late input ``inp`` may receive what the output ``out`` sends."""
    return isinstance(inp, _LateIn) and isinstance(out, LOut) and inp.chan == out.chan and out.qubit not in inp.blocked


def _template(t, key):
    """The template of ``t`` (module docstring) as ``(tests, steps, barb)``,
    kept on the node by ``key``: (register order, the definitions' items, the
    constants being unfolded).  ``barb`` is ``has_success_barb``'s answer."""
    memo = t.__dict__.setdefault("_templates", {})
    if key in memo:
        return memo[key]
    names, defs, unfolding = key
    match t:
        case Nil() | Success():
            out = (), (), type(t) is Success
        case Tau(p):
            out = (), ((LTau(), p, (), None, False),), False
        case SuperOp(op, qs, p):
            out = (((), (op, qs)),), ((LTau(), p, (), (op, qs), False),), False
        case In(c, x, p):
            # x is a qubit variable: a channel named x stays free
            out = (), ((_LateIn(c, free_qubits(t)), lambda q: _substitute(p, {}, {x: q}), (), None, False),), False
        case Out(c, q, p):
            out = (), ((LOut(c, q), p, (), None, False),), False
        case Choice(l, r):
            ltests, lefts, lbarb = _template(l, key)
            rtests, rights, rbarb = _template(r, key)
            out = ltests + rtests, tuple([(*s[:4], True) for s in lefts + rights]), lbarb or rbarb
        case Par(l, r):
            ltests, lefts, lbarb = _template(l, key)
            rtests, rights, rbarb = _template(r, key)
            steps = _wrapped(lefts, lambda u: Par(u, r), free_qubits(r))
            steps += _wrapped(rights, lambda u: Par(l, u), free_qubits(l))
            for lab, t1, g1, _, ch1 in lefts:
                met = [s for s in rights if _meets(lab, s[0]) or _meets(s[0], lab)]
                if isinstance(lab, _LateIn):  # the early order: by the sent qubit's place in the register
                    met.sort(key=lambda m: names.index(m[0].qubit))
                for lab2, t2, g2, _, ch2 in met:
                    pair = Par(t1, t2(lab.qubit)) if isinstance(lab, LOut) else Par(t1(lab2.qubit), t2)
                    steps += ((LTau(), pair, g1 + g2, None, ch1 or ch2),)
            out = ltests + rtests, steps, lbarb or rbarb
        case Restrict(p, chans):
            tests, steps, barb = _template(p, key)
            shown = [s for s in steps if getattr(s[0], "chan", None) not in chans]
            out = tests, _wrapped(shown, lambda u: Restrict(u, chans)), barb
        case IfThen(b, p):
            tests, steps, _ = _template(p, key)
            tests = (((), b),) + tuple([((b, *guards), x) for guards, x in tests])
            out = tests, tuple([(lab, t2, (b, *guards), op, ch) for lab, t2, guards, op, ch in steps]), False
        case ConstCall(name, args) if name in unfolding:
            out = (), (), False  # unguarded recursion has no actions
        case ConstCall(name, args):
            params, body = dict(defs).get(name, (None, None))
            if params is None:
                out = (((), partial(UnknownName, f"unresolved process constant {name!r}")),), (), False
            elif len(params) != len(args):
                out = (((), partial(ArityMismatch, f"{name} takes {len(params)} qubits, got {len(args)}")),), (), False
            else:
                out = _template(substitute(body, dict(zip(params, args))), (names, defs, unfolding | {name}))
        case _:
            raise TypeError(f"not a qCCS term: {t!r}")
    memo[key] = out
    return out


def _root_template(config, defs):
    """The template of ``config``'s term under ``defs``, outside any unfolding."""
    return _template(config.term, (config.rho.qubit_names, tuple((defs or {}).items()), frozenset()))


def _wrapped(steps, wrap, blocked=frozenset()) -> tuple:
    """A subterm's template steps as steps of the term ``wrap`` puts it
    in; an input also may not receive the ``blocked`` qubits."""
    out = []
    for lab, t2, guards, op, ch in steps:
        if type(lab) is _LateIn:
            if blocked - lab.blocked:
                lab = _LateIn(lab.chan, lab.blocked | blocked)
            out.append((lab, lambda q, f=t2: wrap(f(q)), guards, op, ch))
        else:
            out.append((lab, wrap(t2), guards, op, ch))
    return tuple(out)


def _steps(config, defs, table, tol):
    """All transitions of ``config`` as (label, term', rho', choice-flag):
    its term's template, with the tests run on rho in order."""
    rho, table, done = config.rho, table or {}, {}
    tests, steps, _ = _root_template(config, defs)
    for guards, x in tests:
        if not all(map(done.get, guards)):
            continue
        if type(x) is tuple:
            try:
                done[x] = quantum.superop_apply(resolve_op(x[0], len(x[1]), table), x[1], rho, tol)
            except ZeroBranch:
                done[x] = None  # an unguarded zero-probability branch cannot fire
        elif type(x) is partial:
            raise x()
        else:
            done[x] = eval_bool(x, rho, table, tol)
    # a step fires where its guards hold and its super-operator, if any, gave a state
    out = [(lab, t2, rho if op is None else done.get(op), ch) for lab, t2, g, op, ch in steps if all(map(done.get, g))]
    return [step for step in out if step[2] is not None]


def lts_steps(
    config: QccsConfig,
    defs: ProcessDefs | None = None,
    table: Mapping[str, SuperOperator] | None = None,
    tol: float = DEFAULT_TOL,
) -> list[QccsStep]:
    """The early labelled semantics: an input once per qubit it may receive."""
    out = []
    for lab, t2, r2, ch in _steps(config, defs, table, tol):
        if isinstance(lab, _LateIn):
            received = [q for q in r2.qubit_names if q not in lab.blocked]
            out += [QccsStep(LIn(lab.chan, q), QccsConfig(t2(q), r2), ch) for q in received]
        else:
            out.append(QccsStep(lab, QccsConfig(t2, r2), ch))
    return out


def reduce_steps(
    config: QccsConfig,
    defs: ProcessDefs | None = None,
    table: Mapping[str, SuperOperator] | None = None,
    tol: float = DEFAULT_TOL,
) -> list[QccsStep]:
    """The reduction semantics: the tau steps, with no input expanded."""
    raw = _steps(config, defs, table, tol)
    return [QccsStep(lab, QccsConfig(t2, r2), ch) for lab, t2, r2, ch in raw if isinstance(lab, LTau)]


def has_success_barb(config: QccsConfig, defs: ProcessDefs | None = None) -> bool:
    """Unguarded success: reachable through parallel, restriction and bare
    choice branches; prefixes and conditionals guard.  Read from the
    template, so it evaluates no guard and applies no super-operator."""
    return _root_template(config, defs)[2]


# -- structural congruence ----------------------------------------------------------

def _node(t: Term | BoolExpr) -> tuple:
    """The term, or guard, as a node of the shared congruence signature
    pass, whose node tuples also give the free names.  A channel name
    reads with a leading "@", so channels and qubits are two namespaces
    there too: an input binds no channel, a restriction no qubit.  A
    restriction lists every channel it binds; the pass drops those not
    free in its body."""
    match t:
        case Nil():
            return canon.UNIT
        case Par(l, r):
            return (canon.PAR, l, r)
        case Restrict(p, chans):
            return (canon.RES, tuple(sorted({"@" + c for c in chans})), p)
        case Success():
            return ("ok", (), (), ())
        case Tau(p):
            return ("tau", (), (), (p,))
        case SuperOp(op, qs, p):
            return ("so:" + format_op(op, ()), qs, (), (p,))
        case In(c, x, p):
            return ("in", ("@" + c,), (x,), (p,))
        case Out(c, q, p):
            return ("out", ("@" + c, q), (), (p,))
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


def congruent(c1: QccsConfig, c2: QccsConfig, tol: float = DEFAULT_TOL) -> bool:
    """Parallel laws, alpha conversion on binders, nested and parallel
    restrictions merged: equal ``canonical_key``s.  A register is a set of
    named qubits: the states are compared within tol after reordering one
    register to the other's names, and renaming a qubit is not
    congruence."""
    return canonical_key(c1) == canonical_key(c2) and quantum.density_equal_mod_order(c1.rho, c2.rho, tol)


def canonical_key(config: QccsConfig) -> str:
    """Hash key modulo congruence: the register names sorted and the term
    signature, in which register qubits read literally.  ``congruent`` is
    key equality plus the state."""
    cached = getattr(config, "_key", None)
    if cached is None:
        cached = f"Q{','.join(sorted(config.rho.qubit_names))}|{canon.signature(config.term, _node)}"
        object.__setattr__(config, "_key", cached)
    return cached


# -- the measurement-choice law -------------------------------------------------------

def _summands(t: Term) -> list[Term]:
    """The operands of a nest of ``Choice`` nodes."""
    if isinstance(t, Choice):
        return _summands(t.left) + _summands(t.right)
    return [t]


def _par_of(parts: Iterable[Term]) -> Term:
    parts = list(parts)
    return reduce(Par, parts) if parts else Nil()


def _measurement_branches(t: Choice) -> tuple[tuple[str, ...], list[IfThen]] | None:
    """``qs`` and the branches of a measurement choice
    ``Σ_i if tr(E{i}[qs]) != 0 then E{i}[qs].body_i`` whose branches
    cover every outcome of ``qs`` once, or None for any other choice."""
    branches = _summands(t)
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
    ``R`` is the multiset of parallel components (``canon.components``,
    so no unit), compared by term equality, that occur in every ``body_i``
    and have no free qubit in ``qs``; everything else is left as it is.  The two sides are
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
            parts = [Counter(canon.components(b.cont.cont, _node)) for b in branches]
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
    args = ts.names("]")
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
            args = ts.names(")")
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
        chans = ts.names("}")
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
            params = ts.names(")")
            ts.expect(")")
            ts.expect("=")
            defs[name] = (tuple(params), parse_term(ts))
    ts.expect("state")
    ts.expect("qubits")
    names = ts.names(";")
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
