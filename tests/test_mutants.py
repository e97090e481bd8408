"""Each encodability check catches a broken translation.

Every test runs one check on one source twice: with a mutant of the
paper's encoding, monkeypatched over ``encode.encode_term`` or
``encode.encode_config``, where the check must return ``fails``, and with
the encoding itself, where it must hold.  Completeness and soundness are
caught the same way in ``test_criteria.test_completeness_catches_a_wrong_gate``.

Divergence reflection is the one check no mutant here can fail: a
translation that emits no process constants (``defs``) has no recursion,
so every target path is finite and the target never diverges.

``encode_term`` keeps each translation on its interned CQP- node, and a
mutant's translations would outlive it there.  So the ``mutant`` fixture
takes every kept translation off the live nodes before it installs a
mutant, and after the test drops what the mutant left and puts the
translations it took back: the other tests find the nodes as they were.
"""

import random

import numpy as np
import pytest

from qproc import canon, cqp, criteria, encode, qccs, quantum

BUDGET = criteria.Budget(48, 2000)


def _take_translations() -> list:
    """Each live node that keeps translations, with them, taken off it."""
    taken = []
    for ref in list(canon._table.values()):
        node = ref()
        memo = None if node is None else node.__dict__.pop("_encoded", None)
        if memo is not None:
            taken.append((node, memo))
    return taken


@pytest.fixture
def mutant(monkeypatch):
    """``mutant(name, fn)`` replaces ``encode.<name>`` by ``fn`` on a clean
    slate of translations."""
    taken = []

    def install(name, fn):
        taken.extend(_take_translations())
        monkeypatch.setattr(encode, name, fn)

    yield install
    monkeypatch.undo()
    _take_translations()
    for node, memo in taken:
        node.__dict__["_encoded"] = memo


def source(qubits: str, channels: str, process: str) -> cqp.CqpPure:
    amps = "|" + "0" * len(qubits.split(",")) + ">"
    return cqp.parse_cqp(f"qubits {qubits} ; state {amps} ; channels {channels} ; process {process}")


def test_success_catches_a_lost_success(mutant):
    src = source("q", "", "{q *= H}.ok")
    assert criteria.check_success(criteria.Instance(src, BUDGET)).holds
    real = encode.encode_term

    def ok_as_nil(term, register):
        return qccs.Nil() if isinstance(term, cqp.Success) else real(term, register)

    mutant("encode_term", ok_as_nil)
    verdict = criteria.check_success(criteria.Instance(src, BUDGET))
    assert verdict.status == "fails"
    assert (verdict.stats["source_may"], verdict.stats["target_may"]) == ("holds", "fails")


def test_register_size_catches_a_spectator_qubit(mutant):
    src = source("q", "", "{q *= H}.ok")
    assert criteria.check_register_size(criteria.Instance(src, BUDGET)).holds
    real = encode.encode_config

    def with_spectator(config, check=True):
        enc = real(config, check)
        entries = np.kron(enc.rho.entries, np.diag([1, 0]))
        return qccs.QccsConfig(enc.term, quantum.DensityMatrix(enc.rho.qubit_names + ("s",), entries))

    mutant("encode_config", with_spectator)
    verdict = criteria.check_register_size(criteria.Instance(src, BUDGET))
    assert (verdict.status, verdict.witness) == ("fails", ["sizes 1 vs 2"])


def test_qubit_invariance_catches_operands_read_by_name(mutant):
    src = source("q0, q1", "", "{q0, q1 *= CNOT}.ok")
    gamma = {"q0": "q1", "q1": "q0"}
    assert criteria.check_qubit_invariance(criteria.Instance(src, BUDGET), gamma).holds
    real = encode.encode_term

    def sorted_operands(term, register):
        if isinstance(term, cqp.Trans) and term.gate == "CNOT":
            cont = encode.encode_term(term.cont, register)
            return qccs.SuperOp(qccs.GateOp("CNOT"), tuple(sorted(term.qubits)), cont)
        return real(term, register)

    mutant("encode_term", sorted_operands)
    verdict = criteria.check_qubit_invariance(criteria.Instance(src, BUDGET), gamma)
    assert (verdict.status, verdict.witness) == ("fails", [f"gamma={gamma}"])


def test_name_invariance_catches_a_renamed_channel(mutant):
    src = source("q", "c", "c![q].0 | c?[x].ok")
    gamma = {"c": "d"}
    assert criteria.check_name_invariance(criteria.Instance(src, BUDGET), gamma).holds
    real = encode.encode_term

    def suffixed(term, register):
        if isinstance(term, cqp.Out):
            return qccs.Out(term.chan + "_out", term.qubit, encode.encode_term(term.cont, register))
        return real(term, register)

    mutant("encode_term", suffixed)
    verdict = criteria.check_name_invariance(criteria.Instance(src, BUDGET), gamma)
    assert (verdict.status, verdict.witness) == ("fails", [f"gamma={gamma}"])


def _delayed_right(real):
    """``P | Q`` translated as ``[[P]] | tau.[[Q]]``: not symmetric, so a
    variant that swaps the components translates to another term."""

    def translate(term, register):
        if isinstance(term, cqp.Par):
            left, right = (encode.encode_term(p, register) for p in (term.left, term.right))
            return qccs.Par(left, qccs.Tau(right))
        return real(term, register)

    return translate


@pytest.mark.parametrize("seed, status", [(1, "fails"), (0, "holds"), (8, "holds")])
def test_congruence_preservation_catches_an_asymmetric_parallel(mutant, seed, status):
    # seed 1 swaps the two components in the congruent variant; seeds 0
    # and 8 keep their order, so the mutant translates both sides alike
    src = source("q", "c", "c![q].0 | c?[x].ok")
    assert criteria.check_congruence_preservation(criteria.Instance(src, BUDGET, seed)).holds
    variant = criteria.congruent_variant(src, random.Random(seed))
    assert isinstance(canon.components(variant.term, cqp._node)[0], cqp.In) == (status == "fails")
    mutant("encode_term", _delayed_right(encode.encode_term))
    verdict = criteria.check_congruence_preservation(criteria.Instance(src, BUDGET, seed))
    assert verdict.status == status
    if status == "fails":
        assert verdict.witness == [f"seed={seed}"]
