"""The translation from CQP- configurations into qCCS.

Gate applications and measurements become super-operator prefixes on the
same named qubits; the probabilistic branch rule becomes a guarded choice
between expected-result measurement operators; channel creation becomes a
silent step guarding a single-name restriction; qubit creation becomes the
register-extension operator with the statically determined fresh name
substituted into the continuation.  Configurations restrict the translated
term by their channel list and map the state vector (or the distribution's
mixture) to a density matrix.

Names translate to themselves, so the translation commutes with both
channel and qubit substitutions, preserves structural congruence, and
never changes the register size.

``encode_config`` returns the ``qccs.QccsConfig`` itself: the translation
adds no process constants, and gates resolve as builtins of the target.
"""

from __future__ import annotations

from typing import Sequence

from . import cqp, qccs, quantum
from .errors import InvalidArity


def enc_dist(qbar: Sequence[str], var: str, body: qccs.Term) -> qccs.Term:
    """The guarded choice over the outcomes of measuring ``qbar``.

    Branch i checks that outcome i has non-zero probability and then
    adjusts the state with the expected-result operator.  An empty qubit
    list yields the single identity-guarded branch.
    """
    qbar = tuple(qbar)
    if len(set(qbar)) != len(qbar):
        raise InvalidArity(f"measured qubits {qbar} repeat a name")
    branches = []
    for i in range(2 ** len(qbar)):
        guard = qccs.TraceNonzero(qccs.ProjectOp(i), qbar)
        resolved = qccs.substitute(body, {var: str(i)})
        branches.append(qccs.IfThen(guard, qccs.SuperOp(qccs.ProjectOp(i), qbar, resolved)))
    return qccs.choice_chain(branches)


def encode_term(term: cqp.Term, register: Sequence[str]) -> qccs.Term:
    """Clause-by-clause translation of a term over the given register.

    The register is threaded so that nested qubit creations substitute
    successive fresh names, matching what the extension operator appends
    at run time.  It is the only context a clause reads, so the translation
    is compositional and each node keeps its translations per register:
    the states of one exploration translate the subterms they share once.
    A clause reads the register only through ``fresh_qubit_name`` and by
    extending it with that name, and both depend on which names it holds,
    not on their order.  So the memo is keyed by the sorted names, and the
    register is threaded sorted: every order of one register shares a
    translation.
    """
    register = tuple(sorted(register))
    memo = getattr(term, "_encoded", None)
    if memo is None:
        memo = {}
    elif register in memo:
        return memo[register]
    match term:
        case cqp.Nil():
            out = qccs.Nil()
        case cqp.Success():
            out = qccs.Success()
        case cqp.Par(l, r):
            out = qccs.Par(encode_term(l, register), encode_term(r, register))
        case cqp.In(c, x, p):
            out = qccs.In(c, x, encode_term(p, register))
        case cqp.Out(c, q, p):
            out = qccs.Out(c, q, encode_term(p, register))
        case cqp.Trans(qs, g, p):
            out = qccs.SuperOp(qccs.GateOp(g), qs, encode_term(p, register))
        case cqp.Measure(qs, x, p):
            out = qccs.SuperOp(qccs.MeasureOp(), qs, enc_dist(qs, x, encode_term(p, register)))
        case cqp.NewChan(x, p):
            out = qccs.Tau(qccs.Restrict(encode_term(p, register), (x,)))
        case cqp.NewQbit(x, p):
            fresh = quantum.fresh_qubit_name(register)
            body = encode_term(p, register + (fresh,))
            out = qccs.SuperOp(qccs.NewOp(), (), qccs.substitute(body, {x: fresh}))
        case _:
            raise TypeError(f"not a CQP- term: {term!r}")
    memo[register] = out
    term.__dict__["_encoded"] = memo
    return out


def _used_gates(t: qccs.Term) -> set[str]:
    match t:
        case qccs.SuperOp(qccs.GateOp(g), _, p):
            return {g} | _used_gates(p)
        case qccs.Tau(p) | qccs.SuperOp(_, _, p) | qccs.In(_, _, p) | qccs.Out(_, _, p) | qccs.IfThen(_, p):
            return _used_gates(p)
        case qccs.Par(l, r) | qccs.Choice(l, r):
            return _used_gates(l) | _used_gates(r)
        case qccs.Restrict(p, _):
            return _used_gates(p)
        case _:
            return set()


def encode_config(config: cqp.CqpConfig, check: bool = True) -> qccs.QccsConfig:
    """Translate a configuration; requires an internally well-typed source.

    ``check=False`` skips re-typechecking, for callers that already hold a
    checked configuration's derivative (subject reduction).  A pure
    configuration's density matrix is its state vector's ``density``, so
    configurations that hold one vector share one matrix
    (``criteria.Instance.translate``).
    """
    if check:
        cqp.typecheck_internal(config)
    names = config.sigma_names
    term = encode_term(config.term, names)
    if isinstance(config, cqp.CqpPure):
        rho = config.sigma.density
    else:
        term = enc_dist(config.measured, config.var, term)
        rho = quantum.mix(config.cases)
    return qccs.QccsConfig(qccs.Restrict(term, config.phi), rho)


def emit_translation(config: qccs.QccsConfig) -> str:
    """Deterministic .qccs text for a translation.

    Gate-backed operators are spelled with their gate names, which the
    target parser resolves as builtins; the header comment lists them and
    is derived from the term, so emit . parse . emit is the identity on
    emitted text.
    """
    gates = ", ".join(sorted(_used_gates(config.term)))
    header = f"# operators: {gates or 'none'}; builtins M, E{{i}}, new"
    return header + "\n" + qccs.format_qccs_file(config)
