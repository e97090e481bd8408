"""The CQP- calculus: terms, the type system, congruence and semantics.

Configurations pair a process term with a state-vector register and a
channel list.  Measurement produces an intermediate probability
distribution that stores the shared continuation once, with the measured
variable unsubstituted; the branch rule materialises the instantiated
term on demand.

Gates and measurements act on their operands by name, so the register
order never changes: only the qubit rule changes the register, and it
appends.  A gate step is the paper's R-Perm[pi]; R-Trans[g]; R-Perm[pi^-1]
taken as one step, the permutations fronting the operands and putting
them back, and a measurement step is the same with R-Measure.  Their
labels stay R-Trans[g] and R-Measure; no bare R-Perm is offered, as the
translation emulates R-Perm by no qCCS step.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    """Qubit reference outside the register and binders."""


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
    """Probability distribution after measuring the named qubits ``measured``.

    ``cases[i]`` is (p_i, sigma_i), outcome i reading the bits of
    ``measured`` in order; the shared term keeps ``var`` free and case i
    reads term{i/var}.  All 2**r cases are stored, r = len(measured),
    including those of probability at most the tolerance, which carry the
    zero vector and which the branch rule skips.
    """

    cases: tuple[tuple[float, StateVector], ...]
    var: str
    measured: tuple[str, ...]
    phi: tuple[str, ...]
    term: Term

    def __post_init__(self):
        object.__setattr__(self, "phi", tuple(self.phi))
        object.__setattr__(self, "measured", tuple(self.measured))
        object.__setattr__(self, "cases", tuple((float(p), s) for p, s in self.cases))
        if not self.measured:
            raise InvalidOutcome("distributions measure a qubit; measuring none is the pure configuration")
        if len(self.cases) != 2 ** len(self.measured):
            raise InvalidOutcome(f"expected {2 ** len(self.measured)} cases, got {len(self.cases)}")
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

def free_names(t: Term) -> frozenset[str]:
    return canon.free_names(t, _node)


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


def congruent(c1: CqpConfig, c2: CqpConfig, tol: float = DEFAULT_TOL) -> bool:
    """Structural congruence of configurations: equal ``canonical_key``s
    and quantum states equal entrywise within tol.

    The key takes parallel unit/commutativity/associativity and alpha
    conversion on binders.  The registers must name the same qubits in the
    same order: renaming a qubit is the paper's qubit-name invariance, not
    congruence, and no step reorders the register, so the states of one
    exploration share its order.  The channel lists are compared as
    multisets: no rule reads their order (R-New tests membership, and the
    translation restricts by the list as one group), so two orders of the
    same channel creations are one state.  Channel names stay literal, so a
    channel named by a measurement result keeps its meaning.
    """
    if canonical_key(c1) != canonical_key(c2):
        return False
    if isinstance(c1, CqpPure):
        return quantum.within_tol(c1.sigma.amps, c2.sigma.amps, tol)
    return all(
        abs(p1 - p2) <= tol and quantum.within_tol(s1.amps, s2.amps, tol)
        for (p1, s1), (p2, s2) in zip(c1.cases, c2.cases)
    )


def canonical_key(config: CqpConfig) -> str:
    """Hash key modulo congruence: the register names in order, the channel
    list sorted, a distribution's measured qubits and the term signature,
    in which register qubits read literally and the measured variable
    anonymously.  ``congruent`` is key equality plus the amplitudes."""
    cached = getattr(config, "_key", None)
    if cached is not None:
        return cached
    names = ",".join(config.sigma_names)
    phi = ";".join(sorted(config.phi))
    if isinstance(config, CqpPure):
        cached = f"P{names}|{phi}|{canon.signature(config.term, _node)}"
    else:
        sig = canon.signature(config.term, _node, {config.var: "x"})
        cached = f"D{names}|{','.join(config.measured)}|{phi}|{sig}"
    object.__setattr__(config, "_key", cached)
    return cached


def has_success_barb(config: CqpConfig) -> bool:
    """Unguarded success: a parallel component that is ``ok``, not under an
    input, output, gate, measurement or binder prefix.  A distribution barbs
    iff all non-zero cases barb; the cases only differ by a channel-name
    instantiation, so they agree."""
    return any(isinstance(c, Success) for c in canon.components(config.term, _node))


# -- the type system ------------------------------------------------------------

def is_int_literal(name: str) -> bool:
    """An integer literal names a measurement-result channel."""
    return name.isdigit()


def _check_chan(c: str, env: Mapping[str, str]):
    if is_int_literal(c):
        return  # measurement results are valid channel identifiers
    if env.get(c) not in ("chan", "int"):
        raise UnknownName(f"{c!r} is not usable as a channel")


def _check_qbit(q: str, env: Mapping[str, str]):
    if env.get(q) != "qbit":
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


def _check_term(t: Term, env: dict) -> None:
    """Raises on the first error, in the order of a left-to-right walk.
    ``env`` maps each name in scope to its type: "int", "qbit" or "chan".

    Parallel components must demand disjoint qubits: the names of both
    sides' ``canon.demand`` that ``env`` types "qbit".  A demand is an
    unguarded use: input-prefixed continuations are checked recursively but
    contribute nothing to the enclosing split, since their qubits come into
    play only when the input fires.  (The canonical protocol example relies
    on this: four receiver arms on distinct channels apply gates to the same
    qubit, and only one of them can ever be woken.)
    """
    match t:
        case Nil() | Success():
            return
        case Par(l, r):
            _check_term(l, env)
            _check_term(r, env)
            clash = [x for x in canon.demand(l, _node) & canon.demand(r, _node) if env.get(x) == "qbit"]
            if clash:
                raise SharedQubit(f"parallel components share qubits {sorted(clash)}")
            if _creates_qubit(l) and _creates_qubit(r):
                raise SharedQubit("parallel components both create qubits")
        case In(c, x, p):
            _check_chan(c, env)
            _check_term(p, dict(env, **{x: "qbit"}))
        case Out(c, q, p):
            _check_chan(c, env)
            _check_qbit(q, env)
            inner = dict(env)
            del inner[q]  # transmitted qubit leaves the continuation's environment
            _check_term(p, inner)
        case Trans(qs, g, p):
            if g not in GATES:
                raise UnknownName(f"unknown gate {g!r}")
            if GATES[g].arity != len(qs):
                raise ArityMismatch(f"gate {g} has arity {GATES[g].arity}, got {len(qs)} operands")
            _check_operands(qs, env)
            _check_term(p, env)
        case Measure(qs, x, p):
            if not qs:
                raise ArityMismatch("measurement needs at least one qubit")
            _check_operands(qs, env)
            _check_term(p, dict(env, **{x: "int"}))
        case NewChan(x, p):
            _check_term(p, dict(env, **{x: "chan"}))
        case NewQbit(x, p):
            _check_term(p, dict(env, **{x: "qbit"}))
        case _:
            raise TypeError(f"not a CQP- term: {t!r}")


def typecheck_internal(config: CqpConfig) -> None:
    """Runtime configurations: register names are the qubit assumptions,
    the channel list supplies the channel assumptions.

    The fragment is CQP- with at most one chain of qubit creations: the two
    operands of a parallel composition may not both contain a ``(qbit x)``,
    guarded or not.  The translation names a created qubit statically, by
    the register it is created beside, so two parallel creations would get
    the same name."""
    env = {} if isinstance(config, CqpPure) else {config.var: "int"}
    env.update({q: "qbit" for q in config.sigma_names})
    env.update({c: "chan" for c in config.phi if not is_int_literal(c)})
    _check_term(config.term, env)


# -- semantics -----------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class CqpStep:
    rule: str
    next: CqpConfig
    gate: str | None = None
    branch: int | None = None
    channel: str | None = None

    def label(self) -> str:
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


def enumerate_steps(config: CqpConfig, tol: float = DEFAULT_TOL) -> list[CqpStep]:
    """All derivable steps, modulo structural congruence on the term.
    Gates and measurements act on their named operands (module docstring),
    so no step reorders the register."""
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
            case Trans(qs, g, p):
                sigma2 = quantum.apply_unitary(GATES[g], sigma, qs)
                steps.append(CqpStep("R-Trans", CqpPure(sigma2, phi, _replace(term, path, p)), gate=g))
            case Measure(qs, x, p):
                outcomes = quantum.measure(sigma, qs, tol)
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
                    qs,
                    phi,
                    shared,
                )
                steps.append(CqpStep("R-Measure", dist))

    for opath, onode in outs:
        for ipath, inode in ins:
            if onode.chan != inode.chan:
                continue
            new = _replace(term, opath, onode.cont)
            new = _replace(new, ipath, substitute(inode.cont, {inode.var: onode.qubit}))
            steps.append(CqpStep("R-Comm", CqpPure(sigma, phi, new), channel=onode.chan))
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
    outcome value; other nondeterminism is uniform in the seed."""
    rng = random.Random(seed)
    pending = list(script or ())
    trace: list[CqpStep] = []
    cur = config
    while len(trace) < max_steps:
        steps = enumerate_steps(cur, tol)
        if not steps:
            return RunResult(trace, cur, False)
        if isinstance(cur, CqpDist) and pending:
            j = pending.pop(0)
            if j not in range(len(cur.cases)):
                raise InvalidOutcome(
                    f"scripted branch {j} is not an outcome: measuring "
                    f"{','.join(cur.measured)} has outcomes 0 to {len(cur.cases) - 1}"
                )
            chosen = next((s for s in steps if s.branch == j), None)
            if chosen is None:  # an outcome at or below the tolerance has no step
                p = cur.cases[j][0]
                reason = "zero probability" if p == 0 else f"probability {p:g}, not above the tolerance {tol:g}"
                raise InvalidOutcome(f"scripted branch {j} has {reason}")
        else:
            chosen = steps[rng.randrange(len(steps))]
        trace.append(chosen)
        cur = chosen.next
    return RunResult(trace, cur, bool(enumerate_steps(cur, tol)))


# -- concrete syntax ------------------------------------------------------------

_TOKEN = re.compile(
    r"""(?P<ws>\s+|\#[^\n]*)
      | (?P<num>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (?P<id>[A-Za-z_][A-Za-z0-9_']*)
      | (?P<op>:=|\*=|!=|[;,.|!?(){}\[\]<>*/+\-=\\])
      | (?P<bad>.)
    """,
    re.VERBOSE | re.DOTALL,
)


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """One pass of ``_TOKEN``; only whitespace spans a line break, and a
    column counts from the start of its line."""
    tokens = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "ws":
            start, end = m.span()
            newlines = text.count("\n", start, end)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", start, end) + 1
        elif kind == "bad":
            raise ParseError(f"unexpected character {m[0]!r}", line, m.start() - line_start + 1)
        else:
            tokens.append(Token(kind, m[0], line, m.start() - line_start + 1))
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


class TokenStream:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0

    def peek(self, ahead=0) -> Token:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else self.tokens[-1]

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

    def name(self, qubit: bool = False) -> str:
        """An identifier or an integer literal.  A ``qubit`` name may not be
        an integer literal: that is the channel a measurement result
        selects, so CQP- reads it as a channel wherever it stands."""
        tok = self.peek()
        if tok.kind == "num" and tok.text.isdigit():
            if qubit:
                self.error(f"an integer literal cannot name a qubit: {tok.text!r}")
            return self.next().text
        if tok.kind == "id":
            return self.next().text
        self.error(f"expected a name, found {tok.text or 'end of input'!r}")

    def names(self, end: str | None = None, qubit: bool = False) -> list[str]:
        """A comma-separated list of names; empty where the token ``end``
        comes first."""
        if end is not None and self.peek().text == end:
            return []
        names = [self.name(qubit)]
        while self.accept(","):
            names.append(self.name(qubit))
        return names


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
        tok = ts.peek()
        rhs = atom()
        if op == "/" and rhs == 0:
            raise ParseError("division by zero in a coefficient", tok.line, tok.column)
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
        qubits = ts.names()
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
            var = ts.name(qubit=True)
            ts.expect(")")
            return NewQbit(var, _parse_cqp_prefix(ts))
        if ts.peek(2).text == ":=":
            ts.next()
            var = ts.name()
            ts.expect(":=")
            ts.expect("measure")
            qubits = ts.names()
            ts.expect(")")
            ts.expect(".")
            return Measure(tuple(qubits), var, _parse_cqp_prefix(ts))
        ts.next()
        inner = parse_cqp_term(ts)
        ts.expect(")")
        return inner
    if tok.kind in ("id", "num"):
        chan = ts.name()
        if ts.accept("?"):
            ts.expect("[")
            var = ts.name(qubit=True)
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
    qubits = ts.names(";", qubit=True)
    ts.expect(";")
    ts.expect("state")
    amps = parse_amp_expr(ts, len(qubits))
    with np.errstate(over="ignore", invalid="ignore"):
        norm2 = float(np.sum(np.abs(amps) ** 2))
    if abs(norm2 - 1.0) > 1e-6:
        ts.error(f"state amplitudes are not normalised (|psi|^2 = {norm2:.9f})")
    ts.expect(";")
    ts.expect("channels")
    start = ts.pos
    channels = ts.names(";")
    for k, c in enumerate(channels):
        if c in qubits or c in channels[:k]:
            tok = ts.tokens[start + 2 * k]  # the names alternate with commas
            what = "as both a qubit and a channel" if c in qubits else "twice as a channel"
            raise ParseError(f"{c!r} is declared {what}", tok.line, tok.column)
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
        if n not in qubits and n not in channels and not is_int_literal(n)
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
