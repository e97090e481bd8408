"""The CQP- calculus: terms, both type systems, congruence and semantics.

Configurations pair a process term with a state-vector register and a
channel list.  Measurement produces an intermediate probability
distribution that stores the shared continuation once, with the measured
variable unsubstituted; the branch rule materialises the instantiated
term on demand.

Gate and measurement rules act on the leading register qubits, so the
step enumerator synthesises register permutations on demand: exactly the
reorderings that front the operands of an enabled gate or measurement.
Permutations never rename the term; qubit references are by name and a
reorder leaves them attached to the same qubits.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import canon, quantum
from .errors import (
    ArityMismatch,
    DuplicateQubitArg,
    InvalidOutcome,
    ParseError,
    SharedQubit,
    UnknownName,
)
from .quantum import DEFAULT_TOL, GATES, StateVector


class UnknownQubitName(UnknownName):
    """Qubit-position reference outside the register and binders."""


# -- terms --------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Nil(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class Success(canon.Interned):
    pass


@dataclass(frozen=True, eq=False)
class Par(canon.Interned):
    left: "Term"
    right: "Term"


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
class Trans(canon.Interned):
    qubits: tuple[str, ...]
    gate: str
    cont: "Term"


@dataclass(frozen=True, eq=False)
class Measure(canon.Interned):
    qubits: tuple[str, ...]
    var: str
    cont: "Term"


@dataclass(frozen=True, eq=False)
class NewChan(canon.Interned):
    var: str
    cont: "Term"


@dataclass(frozen=True, eq=False)
class NewQbit(canon.Interned):
    var: str
    cont: "Term"


Term = Nil | Success | Par | In | Out | Trans | Measure | NewChan | NewQbit


# -- configurations -----------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CqpPure:
    sigma: StateVector
    phi: tuple[str, ...]
    term: Term

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))

    @property
    def sigma_names(self):
        return self.sigma.qubit_names


@dataclass(frozen=True, eq=False)
class CqpDist:
    """Probability distribution after measuring the leading r qubits.

    ``cases[i]`` is (p_i, sigma_i); the shared term keeps ``var`` free and
    case i reads term{i/var}.  All 2**r cases are stored, including the
    zero-probability ones, which the branch rule skips.
    """

    cases: tuple[tuple[float, StateVector], ...]
    var: str
    r: int
    phi: tuple[str, ...]
    term: Term

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "cases", tuple((float(p), s) for p, s in self.cases))
        if self.r <= 0:
            raise InvalidOutcome("distributions need r > 0; r = 0 is the pure configuration")
        if len(self.cases) != 2 ** self.r:
            raise InvalidOutcome(f"expected {2 ** self.r} cases, got {len(self.cases)}")
        total = sum(p for p, _ in self.cases)
        if abs(total - 1.0) > 1e-6:
            raise InvalidOutcome(f"branch probabilities sum to {total}")
        names = self.cases[0][1].qubit_names
        if any(s.qubit_names != names for _, s in self.cases):
            raise InvalidOutcome("distribution cases disagree on the register")

    @property
    def sigma_names(self):
        return self.cases[0][1].qubit_names

    def case_term(self, i: int) -> Term:
        return substitute(self.term, {self.var: str(i)})


CqpConfig = CqpPure | CqpDist


# -- free names and substitution ----------------------------------------------

@canon.per_node
def free_names(t: Term) -> frozenset[str]:
    match t:
        case Nil() | Success():
            return frozenset()
        case Par(l, r):
            return free_names(l) | free_names(r)
        case In(c, x, p):
            return frozenset({c}) | (free_names(p) - {x})
        case Out(c, q, p):
            return frozenset({c, q}) | free_names(p)
        case Trans(qs, _, p):
            return frozenset(qs) | free_names(p)
        case Measure(qs, x, p):
            return frozenset(qs) | (free_names(p) - {x})
        case NewChan(x, p) | NewQbit(x, p):
            return free_names(p) - {x}
    raise TypeError(f"not a CQP- term: {t!r}")


def substitute(t: Term, mapping: Mapping[str, str]) -> Term:
    """Simultaneous capture-avoiding substitution on names and qubit refs;
    ``t`` itself when no mapped name is free in it."""
    mapping = {k: v for k, v in mapping.items() if k != v}
    if mapping.keys().isdisjoint(free_names(t)):
        return t

    def sub(name):
        return mapping.get(name, name)

    match t:
        case Nil() | Success():
            return t
        case Par(l, r):
            return Par(substitute(l, mapping), substitute(r, mapping))
        case In(c, x, p):
            (x,), p = canon.rebind((x,), p, mapping, free_names, substitute)
            return In(sub(c), x, p)
        case Out(c, q, p):
            return Out(sub(c), sub(q), substitute(p, mapping))
        case Trans(qs, g, p):
            return Trans(tuple(sub(q) for q in qs), g, substitute(p, mapping))
        case Measure(qs, x, p):
            (x,), p = canon.rebind((x,), p, mapping, free_names, substitute)
            return Measure(tuple(sub(q) for q in qs), x, p)
        case NewChan(x, p):
            (x,), p = canon.rebind((x,), p, mapping, free_names, substitute)
            return NewChan(x, p)
        case NewQbit(x, p):
            (x,), p = canon.rebind((x,), p, mapping, free_names, substitute)
            return NewQbit(x, p)
    raise TypeError(f"not a CQP- term: {t!r}")


# -- structural congruence ----------------------------------------------------

def _node(t: Term) -> tuple:
    """The term as a node of the shared congruence signature pass."""
    match t:
        case Nil():
            return canon.UNIT
        case Par(l, r):
            return (canon.PAR, l, r)
        case Success():
            return ("ok", (), (), ())
        case In(c, x, p):
            return ("in", (c,), (x,), (p,))
        case Out(c, q, p):
            return ("out", (c, q), (), (p,))
        case Trans(qs, g, p):
            return ("tr:" + g, qs, (), (p,))
        case Measure(qs, x, p):
            return ("ms", qs, (x,), (p,))
        case NewChan(x, p):
            return ("nc", (), (x,), (p,))
        case NewQbit(x, p):
            return ("nq", (), (x,), (p,))
    raise TypeError(f"not a CQP- term: {t!r}")


def _signature(config: CqpConfig) -> str:
    """Term signature, register qubits by position, the measured variable anonymous."""
    cached = getattr(config, "_sig", None)
    if cached is None:
        env = canon.register_env(config.sigma_names)
        if isinstance(config, CqpDist):
            env[config.var] = "x"
        cached = canon.signature(config.term, _node, env)
        object.__setattr__(config, "_sig", cached)
    return cached


def congruent(c1: CqpConfig, c2: CqpConfig, tol: float = DEFAULT_TOL) -> bool:
    """Structural congruence of configurations.

    Parallel unit/commutativity/associativity, alpha conversion on binders
    and on the register's qubit names; quantum states compared entrywise
    within tol.  The channel lists are compared as multisets: no rule reads
    their order (R-New tests membership, and the translation restricts by
    the list as one group), so two orders of the same channel creations are
    one state.  Channel names stay literal, so a channel named by a
    measurement result keeps its meaning.
    """
    if isinstance(c1, CqpPure) != isinstance(c2, CqpPure) or sorted(c1.phi) != sorted(c2.phi):
        return False
    if isinstance(c1, CqpPure):
        if not quantum.within_tol(c1.sigma.amps, c2.sigma.amps, tol):
            return False
    elif c1.r != c2.r or len(c1.cases) != len(c2.cases) or not all(
        abs(p1 - p2) <= tol and quantum.within_tol(s1.amps, s2.amps, tol)
        for (p1, s1), (p2, s2) in zip(c1.cases, c2.cases)
    ):
        return False
    return _signature(c1) == _signature(c2)


def canonical_key(config: CqpConfig) -> str:
    """Hash key modulo congruence: register size, the channel list sorted,
    the shape of a distribution and the term signature.  Congruent
    configurations share it; ``congruent`` decides the amplitudes and
    probabilities."""
    cached = getattr(config, "_key", None)
    if cached is not None:
        return cached
    phi = ";".join(sorted(config.phi))
    if isinstance(config, CqpPure):
        cached = f"P{config.sigma.num_qubits}|{phi}|{_signature(config)}"
    else:
        cached = f"D{len(config.sigma_names)}|{config.r}|{len(config.cases)}|{phi}|{_signature(config)}"
    object.__setattr__(config, "_key", cached)
    return cached


def has_success_barb(config: CqpConfig) -> bool:
    """Unguarded success: not under an input, output, gate, measurement or
    binder prefix.  A distribution barbs iff all non-zero cases barb; the
    cases only differ by a channel-name instantiation, so they agree."""

    def unguarded(t: Term) -> bool:
        match t:
            case Success():
                return True
            case Par(l, r):
                return unguarded(l) or unguarded(r)
            case _:
                return False

    return unguarded(config.term)


# -- type systems ---------------------------------------------------------------

@dataclass(frozen=True)
class TInt:
    pass


@dataclass(frozen=True)
class TQbit:
    pass


@dataclass(frozen=True)
class TChan:
    pass


CqpType = TInt | TQbit | TChan


def _is_int_literal(name: str) -> bool:
    return name.isdigit()


def _check_chan(c: str, env: Mapping[str, CqpType]):
    if _is_int_literal(c):
        return  # measurement results are valid channel identifiers
    ty = env.get(c)
    if isinstance(ty, (TChan, TInt)):
        return
    raise UnknownName(f"{c!r} is not usable as a channel")


def _check_qbit(q: str, env: Mapping[str, CqpType]):
    if not isinstance(env.get(q), TQbit):
        raise UnknownQubitName(f"{q!r} is not an available qubit")


def _check_operands(qs: Sequence[str], env):
    if len(set(qs)) != len(qs):
        raise DuplicateQubitArg(f"operands {qs} repeat a qubit")
    for q in qs:
        _check_qbit(q, env)


@canon.per_node
def _creates_qubit(t: Term) -> bool:
    """Whether a ``NewQbit`` occurs in the term, guarded or not."""
    match t:
        case Nil() | Success():
            return False
        case Par(l, r):
            return _creates_qubit(l) or _creates_qubit(r)
    return isinstance(t, NewQbit) or _creates_qubit(t.cont)


def _check_term(t: Term, env: dict) -> set[str]:
    """Returns the set of qubits the term demands; raises on errors.

    Parallel components must demand disjoint qubits.  A demand is an
    unguarded use: input-prefixed continuations are checked recursively but
    contribute nothing to the enclosing split, since their qubits come into
    play only when the input fires.  (The canonical protocol example relies
    on this: four receiver arms on distinct channels apply gates to the same
    qubit, and only one of them can ever be woken.)
    """
    match t:
        case Nil() | Success():
            return set()
        case Par(l, r):
            ul = _check_term(l, env)
            ur = _check_term(r, env)
            clash = ul & ur
            if clash:
                raise SharedQubit(f"parallel components share qubits {sorted(clash)}")
            if _creates_qubit(l) and _creates_qubit(r):
                raise SharedQubit("parallel components both create qubits")
            return ul | ur
        case In(c, x, p):
            _check_chan(c, env)
            inner = dict(env, **{x: TQbit()})
            _check_term(p, inner)
            return set()
        case Out(c, q, p):
            _check_chan(c, env)
            _check_qbit(q, env)
            inner = dict(env)
            del inner[q]  # transmitted qubit leaves the continuation's environment
            return _check_term(p, inner) | {q}
        case Trans(qs, g, p):
            if g not in GATES:
                raise UnknownName(f"unknown gate {g!r}")
            if GATES[g].arity != len(qs):
                raise ArityMismatch(f"gate {g} has arity {GATES[g].arity}, got {len(qs)} operands")
            _check_operands(qs, env)
            return _check_term(p, env) | set(qs)
        case Measure(qs, x, p):
            if not qs:
                raise ArityMismatch("measurement needs at least one qubit")
            _check_operands(qs, env)
            inner = dict(env, **{x: TInt()})
            return (_check_term(p, inner) - {x}) | set(qs)
        case NewChan(x, p):
            inner = dict(env, **{x: TChan()})
            return _check_term(p, inner) - {x}
        case NewQbit(x, p):
            inner = dict(env, **{x: TQbit()})
            return _check_term(p, inner) - {x}
    raise TypeError(f"not a CQP- term: {t!r}")


def typecheck_internal(config: CqpConfig) -> None:
    """Runtime configurations: register names are the qubit assumptions,
    the channel list supplies the channel assumptions.

    The fragment is CQP- with at most one chain of qubit creations: the two
    operands of a parallel composition may not both contain a ``(qbit x)``,
    guarded or not.  The translation names a created qubit statically, by
    the register it is created beside, so two parallel creations would get
    the same name."""
    env: dict[str, CqpType] = {} if isinstance(config, CqpPure) else {config.var: TInt()}
    env.update({q: TQbit() for q in config.sigma_names})
    env.update({c: TChan() for c in config.phi if not _is_int_literal(c)})
    _check_term(config.term, env)


# -- semantics -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CqpStep:
    rule: str
    next: CqpConfig
    gate: str | None = None
    perm: tuple[int, ...] | None = None
    branch: int | None = None
    channel: str | None = None

    def label(self) -> str:
        if self.rule == "R-Perm":
            return f"R-Perm{list(self.perm)}"
        if self.rule == "R-Prob":
            return f"R-Prob({self.branch})"
        if self.rule == "R-Trans":
            return f"R-Trans[{self.gate}]"
        if self.rule == "R-Comm":
            return f"R-Comm[{self.channel}]"
        return self.rule


def _redexes(t: Term, path=()) -> list[tuple[tuple[int, ...], Term]]:
    """Prefix positions reachable through parallel composition only."""
    if isinstance(t, Par):
        return _redexes(t.left, path + (0,)) + _redexes(t.right, path + (1,))
    if isinstance(t, (Nil, Success)):
        return []
    return [(path, t)]


def _replace(t: Term, path: tuple[int, ...], new: Term) -> Term:
    if not path:
        return new
    assert isinstance(t, Par)
    if path[0] == 0:
        return Par(_replace(t.left, path[1:], new), t.right)
    return Par(t.left, _replace(t.right, path[1:], new))


def fresh_channel(taken: Iterable[str]) -> str:
    taken = set(taken)
    k = 0
    while f"#ch{k}" in taken:
        k += 1
    return f"#ch{k}"


def fronting_perm(names: Sequence[str], operands: Sequence[str]) -> tuple[int, ...]:
    """Register order that moves ``operands`` (in order) to the front and
    keeps the remaining qubits in their current relative order."""
    front = [names.index(q) for q in operands]
    return tuple(front + [i for i in range(len(names)) if i not in front])


def apply_perm(config: CqpPure, perm: Sequence[int]) -> CqpStep:
    """An explicit permutation step; always a legal rule application."""
    sigma = quantum.permute_state(config.sigma, perm)
    return CqpStep("R-Perm", CqpPure(sigma, config.phi, config.term), perm=tuple(perm))


def restore_perm(config: CqpPure, target_names: Sequence[str]) -> CqpStep:
    perm = tuple(config.sigma.qubit_names.index(n) for n in target_names)
    return apply_perm(config, perm)


def enumerate_steps(config: CqpConfig, tol: float = DEFAULT_TOL) -> list[CqpStep]:
    """All derivable steps, modulo structural congruence on the term.

    The enumeration offers exactly the permutation steps that front the
    operands of an enabled gate or measurement whose operands do not
    already lead the register.
    """
    if isinstance(config, CqpDist):
        steps = []
        for j, (p, sigma_j) in enumerate(config.cases):
            if p > tol:
                term = config.case_term(j)
                steps.append(CqpStep("R-Prob", CqpPure(sigma_j, config.phi, term), branch=j))
        return steps

    sigma, phi, term = config.sigma, config.phi, config.term
    names = sigma.qubit_names
    steps: list[CqpStep] = []
    needed_orders: dict[tuple[str, ...], tuple[int, ...]] = {}
    outs: list[tuple[tuple[int, ...], Out]] = []
    ins: list[tuple[tuple[int, ...], In]] = []

    for path, node in _redexes(term):
        match node:
            case Out():
                outs.append((path, node))
            case In():
                ins.append((path, node))
            case NewChan(x, p):
                # keep the binder's name when it is fresh for the whole
                # configuration (the protocol idiom binds integer channels
                # that measurement results must match); otherwise draw from
                # the reserved #ch namespace
                taken = set(phi) | set(names) | free_names(term)
                c = x if x not in taken else fresh_channel(taken)
                nxt = CqpPure(sigma, phi + (c,), _replace(term, path, substitute(p, {x: c})))
                steps.append(CqpStep("R-New", nxt, channel=c))
            case NewQbit(x, p):
                qn = quantum.fresh_qubit_name(names)
                sigma2 = quantum.tensor(sigma, quantum.basis_state((qn,), 0))
                nxt = CqpPure(sigma2, phi, _replace(term, path, substitute(p, {x: qn})))
                steps.append(CqpStep("R-Qbit", nxt))
            case Trans(_, g, _) if g not in GATES:
                raise UnknownName(f"unknown gate {g!r}")
            case Trans(qs, _, _) | Measure(qs, _, _) if qs != names[: len(qs)]:
                if set(qs) <= set(names):
                    order = tuple(qs) + tuple(n for n in names if n not in qs)
                    needed_orders.setdefault(order, fronting_perm(names, qs))
            case Trans(qs, g, p):
                sigma2 = quantum.apply_unitary_prefix(GATES[g], sigma)
                steps.append(CqpStep("R-Trans", CqpPure(sigma2, phi, _replace(term, path, p)), gate=g))
            case Measure(qs, x, p):
                outcomes = quantum.measure_prefix(sigma, len(qs), tol)
                rest = free_names(_replace(term, path, Nil()))
                var = x
                cont = p
                if var in rest:
                    var = canon.fresh_name(x, rest | free_names(p))
                    cont = substitute(p, {x: var})
                shared = _replace(term, path, cont)
                dist = CqpDist(
                    tuple((o.probability, o.post_state) for o in outcomes),
                    var,
                    len(qs),
                    phi,
                    shared,
                )
                steps.append(CqpStep("R-Measure", dist))

    for opath, onode in outs:
        for ipath, inode in ins:
            if onode.chan != inode.chan or opath == ipath:
                continue
            new = _replace(term, opath, onode.cont)
            new = _replace(new, ipath, substitute(inode.cont, {inode.var: onode.qubit}))
            steps.append(CqpStep("R-Comm", CqpPure(sigma, phi, new), channel=onode.chan))

    for order in sorted(needed_orders):
        steps.append(apply_perm(config, needed_orders[order]))
    return steps


@dataclass
class RunResult:
    steps: list[CqpStep]
    final: CqpConfig
    truncated: bool


def run(
    config: CqpConfig,
    seed: int = 0,
    script: Sequence[int] | None = None,
    max_steps: int = 64,
    tol: float = DEFAULT_TOL,
) -> RunResult:
    """Seeded execution.  ``script`` resolves distribution branches by
    outcome value; other nondeterminism is uniform in the seed.  After an
    on-demand fronting permutation the enabled operation fires next and the
    inverse permutation is replayed afterwards, so traces end in the
    original register order."""
    rng = random.Random(seed)
    pending = list(script or ())
    trace: list[CqpStep] = []
    cur = config
    restore_to: tuple[str, ...] | None = None
    after_perm = False
    while len(trace) < max_steps:
        if restore_to is not None and isinstance(cur, CqpPure) and not after_perm:
            if cur.sigma.qubit_names == restore_to:
                restore_to = None
            elif set(cur.sigma.qubit_names) == set(restore_to):
                step = restore_perm(cur, restore_to)
                trace.append(step)
                cur = step.next
                restore_to = None
                continue
            else:
                restore_to = None
        steps = enumerate_steps(cur, tol)
        if not steps:
            return RunResult(trace, cur, False)
        chosen = None
        if isinstance(cur, CqpDist) and pending:
            j = pending.pop(0)
            for s in steps:
                if s.branch == j:
                    chosen = s
                    break
            if chosen is None:
                raise InvalidOutcome(f"scripted branch {j} has zero probability")
        elif after_perm:
            for s in steps:
                if s.rule in ("R-Trans", "R-Measure"):
                    chosen = s
                    break
        if chosen is None:
            chosen = steps[rng.randrange(len(steps))]
        if chosen.rule == "R-Perm" and restore_to is None:
            restore_to = cur.sigma.qubit_names
        after_perm = chosen.rule == "R-Perm"
        trace.append(chosen)
        cur = chosen.next
    return RunResult(trace, cur, bool(enumerate_steps(cur, tol)))


# -- concrete syntax ------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<id>[A-Za-z_#][A-Za-z0-9_#']*)
      | (?P<op>:=|\*=|!=|[;,.|!?(){}\[\]<>*/+\-=\\])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            tokens.append(Token(m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.peek()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.next()

    def accept(self, text: str) -> bool:
        if self.peek().text == text:
            self.next()
            return True
        return False

    def error(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.column)

    def name(self) -> str:
        tok = self.peek()
        if tok.kind == "id" or (tok.kind == "num" and tok.text.isdigit()):
            return self.next().text
        self.error(f"expected a name, found {tok.text or 'end of input'!r}")


def parse_coefficient_product(ts: TokenStream) -> complex:
    """One coefficient: rationals, decimals, sqrt(...), i, products and
    quotients; parenthesised sums allowed.  A '*' multiplies only when an
    atom follows it, so the '*' of ``0.5 * |0>`` or ``0.5 * outer(...)``
    is left to the caller."""

    def atom() -> complex:
        tok = ts.peek()
        if ts.accept("("):
            value = parse_coefficient_sum(ts)
            ts.expect(")")
            return value
        if tok.text == "sqrt":
            ts.next()
            ts.expect("(")
            value = parse_coefficient_sum(ts)
            ts.expect(")")
            return complex(np.sqrt(value))
        if tok.text == "i":
            ts.next()
            return 1j
        if tok.kind == "num":
            ts.next()
            return complex(float(tok.text))
        ts.error(f"expected a coefficient, found {tok.text!r}")

    def multiplies() -> bool:
        op, after = ts.peek(), ts.peek(1)
        return op.text == "/" or (op.text == "*" and (after.kind == "num" or after.text in ("(", "sqrt", "i")))

    value = atom()
    while multiplies():
        op = ts.next().text
        rhs = atom()
        value = value * rhs if op == "*" else value / rhs
    return value


def parse_coefficient_sum(ts: TokenStream) -> complex:
    def signed() -> complex:
        sign = 1.0
        while ts.peek().text in ("+", "-"):
            if ts.next().text == "-":
                sign = -sign
        return sign * parse_coefficient_product(ts)

    value = signed()
    while ts.peek().text in ("+", "-"):
        value = value + signed()
    return value


def parse_amp_expr(ts: TokenStream, num_qubits: int) -> np.ndarray:
    """Sums of coef|bits> with coefficients over rationals, sqrt(k) and i."""
    amps = np.zeros(2 ** num_qubits, dtype=complex)

    def ket_term(sign: float):
        coef = complex(sign)
        if ts.peek().text != "|":
            value = parse_coefficient_product(ts)
            ts.accept("*")
            coef *= value
        tok = ts.expect("|")
        bits = ""
        if ts.peek().text != ">":
            bt = ts.next()
            bits = bt.text
            if not re.fullmatch(r"[01]*", bits):
                raise ParseError(f"kets contain only 0/1 bits, found {bits!r}", bt.line, bt.column)
        ts.expect(">")
        if len(bits) != num_qubits:
            raise ParseError(
                f"ket |{bits}> has {len(bits)} bits but the register has {num_qubits} qubits",
                tok.line,
                tok.column,
            )
        index = int(bits, 2) if bits else 0
        amps[index] += coef

    sign = 1.0
    if ts.accept("-"):
        sign = -1.0
    ket_term(sign)
    while ts.peek().text in ("+", "-"):
        sign = 1.0 if ts.next().text == "+" else -1.0
        ket_term(sign)
    return amps


def _parse_cqp_prefix(ts: TokenStream) -> Term:
    tok = ts.peek()
    if tok.text == "0" and ts.peek(1).text not in ("!", "?"):
        ts.next()
        return Nil()
    if tok.text == "ok":
        ts.next()
        return Success()
    if tok.text == "{":
        ts.next()
        qubits = [ts.name()]
        while ts.accept(","):
            qubits.append(ts.name())
        ts.expect("*=")
        gate = ts.name()
        ts.expect("}")
        ts.expect(".")
        return Trans(tuple(qubits), gate, _parse_cqp_prefix(ts))
    if tok.text == "(":
        nxt = ts.peek(1)
        if nxt.text == "new":
            ts.next(), ts.next()
            var = ts.name()
            ts.expect(")")
            return NewChan(var, _parse_cqp_prefix(ts))
        if nxt.text == "qbit":
            ts.next(), ts.next()
            var = ts.name()
            ts.expect(")")
            return NewQbit(var, _parse_cqp_prefix(ts))
        if ts.peek(2).text == ":=":
            ts.next()
            var = ts.name()
            ts.expect(":=")
            ts.expect("measure")
            qubits = [ts.name()]
            while ts.accept(","):
                qubits.append(ts.name())
            ts.expect(")")
            ts.expect(".")
            if not qubits:
                ts.error("measurement needs at least one qubit")
            return Measure(tuple(qubits), var, _parse_cqp_prefix(ts))
        ts.next()
        inner = parse_cqp_term(ts)
        ts.expect(")")
        return inner
    if tok.kind in ("id", "num"):
        chan = ts.name()
        if ts.accept("?"):
            ts.expect("[")
            var = ts.name()
            ts.expect("]")
            ts.expect(".")
            return In(chan, var, _parse_cqp_prefix(ts))
        if ts.accept("!"):
            ts.expect("[")
            payload = ts.name()
            ts.expect("]")
            ts.expect(".")
            return Out(chan, payload, _parse_cqp_prefix(ts))
        ts.error(f"name {chan!r} must be followed by ! or ?")
    ts.error(f"unexpected {tok.text or 'end of input'!r} in process term")


def parse_cqp_term(ts: TokenStream) -> Term:
    term = _parse_cqp_prefix(ts)
    while ts.accept("|"):
        term = Par(term, _parse_cqp_prefix(ts))
    return term


def parse_cqp(text: str) -> CqpPure:
    """Parse the .cqp format: qubit/state/channel header, then the process."""
    ts = TokenStream(text)
    ts.expect("qubits")
    qubits: list[str] = []
    if ts.peek().text != ";":
        qubits.append(ts.name())
        while ts.accept(","):
            qubits.append(ts.name())
    ts.expect(";")
    ts.expect("state")
    amps = parse_amp_expr(ts, len(qubits))
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(norm2 - 1.0) > 1e-6:
        ts.error(f"state amplitudes are not normalised (|psi|^2 = {norm2:.9f})")
    ts.expect(";")
    ts.expect("channels")
    channels: list[str] = []
    if ts.peek().text != ";":
        channels.append(ts.name())
        while ts.accept(","):
            channels.append(ts.name())
    ts.expect(";")
    ts.expect("process")
    term = parse_cqp_term(ts)
    tok = ts.peek()
    if tok.kind != "eof":
        ts.error(f"unexpected {tok.text!r} after process term")
    sigma = StateVector(tuple(qubits), amps)
    config = CqpPure(sigma, tuple(channels), term)
    missing = {
        n for n in free_names(term)
        if n not in qubits and n not in channels and not _is_int_literal(n)
    }
    if missing:
        raise ParseError(f"undeclared free names {sorted(missing)}", tok.line, tok.column)
    return config


# -- pretty printing -------------------------------------------------------------

def format_term(t: Term) -> str:
    match t:
        case Nil():
            return "0"
        case Success():
            return "ok"
        case Par(l, r):
            right = format_term(r)
            if isinstance(r, Par):
                right = f"({right})"
            return f"{format_term(l)} | {right}"
        case In(c, x, p):
            return f"{c}?[{x}].{_fmt_cont(p)}"
        case Out(c, q, p):
            return f"{c}![{q}].{_fmt_cont(p)}"
        case Trans(qs, g, p):
            return f"{{{','.join(qs)} *= {g}}}.{_fmt_cont(p)}"
        case Measure(qs, x, p):
            return f"({x} := measure {','.join(qs)}).{_fmt_cont(p)}"
        case NewChan(x, p):
            return f"(new {x}){_fmt_cont(p)}"
        case NewQbit(x, p):
            return f"(qbit {x}){_fmt_cont(p)}"
    raise TypeError(f"not a CQP- term: {t!r}")


def _fmt_cont(t: Term) -> str:
    if isinstance(t, Par):
        return f"({format_term(t)})"
    return format_term(t)


def format_amps(sigma: StateVector, digits: int = 6) -> str:
    parts = []
    n = sigma.num_qubits
    for idx, amp in enumerate(sigma.amps):
        if abs(amp) <= 10 ** (-digits):
            continue
        bits = format(idx, f"0{n}b") if n else ""
        if abs(amp.imag) <= 10 ** (-digits):
            real = amp.real
            if abs(real - 1.0) <= 10 ** (-digits):
                coef = ""
            elif abs(real + 1.0) <= 10 ** (-digits):
                coef = "-"
            else:
                coef = f"{real:.6g}"
        else:
            coef = f"({amp.real:.6g}{amp.imag:+.6g}i)"
        parts.append(f"{coef}|{bits}>")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def format_config(config: CqpConfig) -> str:
    if isinstance(config, CqpPure):
        names = ",".join(config.sigma.qubit_names)
        return f"({names} = {format_amps(config.sigma)}; {','.join(config.phi) or 'empty'}; {format_term(config.term)})"
    rows = []
    for i, (p, s) in enumerate(config.cases):
        rows.append(f"{p:.4g} * ({','.join(s.qubit_names)} = {format_amps(s)}; {format_term(config.case_term(i))})")
    return " (+) ".join(rows)
