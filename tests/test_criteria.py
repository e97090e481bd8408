import dataclasses
import gc
import random
import weakref

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qproc import cqp, criteria, encode, protocols, qccs, quantum
from qproc.criteria import Budget, build_lts, cqp_system, qccs_system
from qproc.errors import NoCloningViolation

BUDGET = Budget(48, 2000)


def teleport():
    return cqp.parse_cqp(protocols.read("teleport.cqp"))


def probe_config(amps):
    rho = quantum.outer(quantum.StateVector(("q",), np.array(amps, dtype=complex)))
    term = qccs.SuperOp(
        qccs.CustomOp("Q"),
        ("q",),
        qccs.Choice(
            qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(0), ("q",)), qccs.Tau(qccs.Success())),
            qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(1), ("q",)), qccs.Tau(qccs.Nil())),
        ),
    )
    return qccs.QccsConfig(term, rho)


PROBE_TABLE = {"Q": quantum.amplitude_damping_probe(1.0)}


# -- exploration ------------------------------------------------------------------

def test_nil_lts_is_single_state():
    config = qccs.QccsConfig(qccs.Nil(), quantum.outer(quantum.StateVector(("q",), [1, 0])))
    lts = build_lts(config, qccs_system(), BUDGET)
    assert len(lts.states) == 1 and not lts.edges


def test_probe_lts_is_tiny_and_untruncated():
    for amps in ([1, 0], [0, 1], [0.6, 0.8]):
        lts = build_lts(probe_config(amps), qccs_system(table=PROBE_TABLE), BUDGET)
        assert len(lts.states) <= 6
        assert lts.complete


def test_teleport_source_lts_has_probabilistic_fanout():
    lts = build_lts(teleport(), cqp_system(), BUDGET)
    assert lts.complete
    prob_labels = [label for _, label, _, _ in lts.edges if label.startswith("R-Prob")]
    assert sorted(prob_labels) == ["R-Prob(0)", "R-Prob(1)", "R-Prob(2)", "R-Prob(3)"]


def test_truncation_is_flagged():
    defs = {"A": (("x",), qccs.Tau(qccs.ConstCall("A", ("x",))))}
    config = qccs.QccsConfig(
        qccs.ConstCall("A", ("q",)), quantum.outer(quantum.StateVector(("q",), [1, 0]))
    )
    lts = build_lts(config, qccs_system(defs=defs), Budget(2, 10))
    assert lts.complete  # the self-loop folds back into one state
    lts2 = build_lts(teleport(), cqp_system(), Budget(3, 10000))
    assert lts2.truncated


# 0.1234567895 lies halfway between two 9-digit roundings
BOUNDARY = 0.1234567895


@pytest.mark.parametrize("shift, states", [(1e-12, 2), (1e-6, 3)])
def test_build_lts_merges_states_within_tolerance_only(shift, states):
    def at(p):
        return qccs.QccsConfig(qccs.Tau(qccs.Success()), quantum.DensityMatrix(("q",), np.diag([p, 1 - p])))

    initial = qccs.QccsConfig(qccs.Nil(), quantum.outer(quantum.StateVector(("q",), [1, 0])))
    twins = [at(BOUNDARY - shift), at(BOUNDARY + shift)]
    system = dataclasses.replace(
        qccs_system(), steps=lambda c: [("tau", t, False) for t in twins] if c is initial else []
    )
    lts = build_lts(initial, system, BUDGET)
    assert len(lts.states) == states and len(lts.edges) == 2


@pytest.mark.parametrize("shift, verdict", [(2e-12, "holds"), (1e-6, "fails")])
def test_soundness_matches_translations_within_tolerance_only(shift, verdict):
    a = np.sqrt(BOUNDARY - 1e-12)
    source = cqp.CqpPure(
        quantum.StateVector(("q",), [a, np.sqrt(1 - a * a)]), (), cqp.Trans(("q",), "X", cqp.Success())
    )
    root = encode.encode_config(source)
    p = root.rho.entries[0, 0].real
    assert round(p, 9) != round(p + shift, 9)
    moved = qccs.QccsConfig(
        root.term, quantum.DensityMatrix(root.rho.qubit_names, root.rho.entries + np.diag([shift, -shift]))
    )
    inst = criteria.Instance(source, BUDGET)
    inst.target_lts = build_lts(moved, qccs_system(), BUDGET)
    assert criteria.check_soundness(inst).status == verdict


# -- verdicts ----------------------------------------------------------------------

def test_probe_verdict_table():
    sq2 = 1 / np.sqrt(2)
    expect = {
        (1, 0): ("holds", "holds"),
        (0, 1): ("holds", "fails"),
        (sq2, sq2): ("fails", "fails"),
        (sq2, -sq2): ("fails", "fails"),
    }
    for amps, (may, must) in expect.items():
        lts = build_lts(probe_config(list(amps)), qccs_system(table=PROBE_TABLE), BUDGET)
        assert criteria.may_reach_success(lts).status == may
        assert criteria.must_reach_success(lts).status == must


def test_must_ignores_barb_free_cycles():
    # divergent loop beside an inevitable success: all *finite* maximal paths succeed
    defs = {"Loop": ((), qccs.Tau(qccs.ConstCall("Loop", ())))}
    term = qccs.Par(qccs.ConstCall("Loop", ()), qccs.Tau(qccs.Success()))
    config = qccs.QccsConfig(term, quantum.outer(quantum.StateVector(("q",), [1, 0])))
    lts = build_lts(config, qccs_system(defs=defs), BUDGET)
    assert criteria.must_reach_success(lts).holds
    assert criteria.detect_divergence(lts).holds


def test_divergence_detection():
    defs = {"A": (("x",), qccs.Tau(qccs.ConstCall("A", ("x",))))}
    config = qccs.QccsConfig(
        qccs.ConstCall("A", ("q",)), quantum.outer(quantum.StateVector(("q",), [1, 0]))
    )
    assert criteria.detect_divergence(build_lts(config, qccs_system(defs=defs), BUDGET)).holds
    assert criteria.detect_divergence(build_lts(teleport(), cqp_system(), BUDGET)).fails


def test_fails_verdicts_carry_replayable_traces():
    lts = build_lts(probe_config([0, 1]), qccs_system(table=PROBE_TABLE), BUDGET)
    verdict = criteria.must_reach_success(lts)
    assert verdict.fails and verdict.witness is not None
    # replay the witness through the reduction semantics
    config = probe_config([0, 1])
    for label in verdict.witness:
        steps = qccs.reduce_steps(config, {}, PROBE_TABLE)
        assert steps, "witness longer than the behaviour"
        config = steps[0].next if len(steps) == 1 else None
        if config is None:
            break


def test_counterexample_suite_report():
    report = criteria.counterexample_suite()
    assert report["ok"]
    assert [row["input"] for row in report["rows"]] == ["|0><0|", "|1><1|", "|+><+|", "|-><-|"]
    for row in report["rows"]:
        assert row["probe_matrix_ok"]
        assert row["may"] == row["expected_may"]
        assert row["must"] == row["expected_must"]
        assert row["states"] <= 6


def test_counterexample_suite_checks_probe_matrices_to_tolerance(monkeypatch):
    # A probe off by ~1e-6 must fail at tol 1e-9; np.allclose's default rtol would pass it.
    probe = quantum.amplitude_damping_probe
    monkeypatch.setattr(quantum, "amplitude_damping_probe", lambda p=1.0: probe(1.0 + 1e-6))
    rows = {row["input"]: row for row in criteria.counterexample_suite(1e-9)["rows"]}
    assert rows["|0><0|"]["probe_matrix_ok"]
    assert not rows["|1><1|"]["probe_matrix_ok"]
    assert not rows["|1><1|"]["ok"]


# -- simulation games ----------------------------------------------------------------

def test_corr_sim_reflexive_on_identical_lts():
    lts = build_lts(probe_config([1, 0]), qccs_system(table=PROBE_TABLE, labelled=True), BUDGET)
    assert criteria.corr_sim_check(lts, lts).holds


def test_corr_sim_transitive_along_permutation_chain():
    # two register permutations: each pair of translations is related, and
    # relatedness composes across the chain
    src = cqp.CqpPure(
        quantum.StateVector(("a", "b", "c"), np.array([0, 1, 0, 0, 0, 0, 0, 0], dtype=complex)),
        (),
        cqp.Par(cqp.Trans(("b",), "X", cqp.Success()), cqp.Trans(("c", "a"), "CNOT", cqp.Nil())),
    )
    perms = [s for s in cqp.enumerate_steps(src) if s.rule == "R-Perm"]
    assert len(perms) >= 2
    t0 = encode.encode_config(src)
    t1 = encode.encode_config(perms[0].next)
    t2 = encode.encode_config(perms[1].next)
    l0, l1, l2 = (build_lts(t, qccs_system(labelled=True), BUDGET) for t in (t0, t1, t2))
    assert criteria.corr_sim_check(l0, l1).holds
    assert criteria.corr_sim_check(l1, l2).holds
    assert criteria.corr_sim_check(l0, l2).holds  # composes


def test_corr_sim_reflexive_under_congruent_presentation():
    base = quantum.outer(quantum.StateVector(("q",), [1, 0]))
    c1 = qccs.QccsConfig(qccs.Tau(qccs.Success()), base)
    c2 = qccs.QccsConfig(qccs.Par(qccs.Tau(qccs.Success()), qccs.Nil()), base)
    l1 = build_lts(c1, qccs_system(labelled=True), BUDGET)
    l2 = build_lts(c2, qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(l1, l2).holds
    assert criteria.corr_sim_check(l2, l1).holds


def test_corr_sim_requires_success_agreement():
    base = quantum.outer(quantum.StateVector(("q",), [1, 0]))
    ok = build_lts(qccs.QccsConfig(qccs.Success(), base), qccs_system(labelled=True), BUDGET)
    no = build_lts(qccs.QccsConfig(qccs.Nil(), base), qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(ok, no).fails


def _measurement_instance():
    src = cqp.parse_cqp(protocols.read("measurement.cqp"))
    (meas,) = [s for s in cqp.enumerate_steps(src) if s.rule == "R-Measure"]
    enc_dist = encode.encode_config(meas.next)
    enc_src = encode.encode_config(src)
    stepped = None
    for s in qccs.reduce_steps(enc_src):
        if not np.allclose(s.next.rho.entries, enc_src.rho.entries):
            stepped = s.next
    return enc_dist, stepped


def test_measurement_example_separates_corr_sim_from_strong_bisim():
    enc_dist, stepped = _measurement_instance()
    l1 = build_lts(enc_dist, qccs_system(labelled=True), BUDGET)
    l2 = build_lts(stepped, qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(l1, l2).holds
    assert criteria.bisim_check(l1, l2).fails


def test_permutation_steps_relate_translations_both_ways():
    # a source permutation step: the two translations simulate each other
    src = cqp.CqpPure(
        quantum.StateVector(("a", "b"), np.array([0, 1, 0, 0], dtype=complex)),
        (),
        cqp.Trans(("b",), "X", cqp.Success()),
    )
    (perm,) = [s for s in cqp.enumerate_steps(src) if s.rule == "R-Perm"]
    t1 = encode.encode_config(src)
    t2 = encode.encode_config(perm.next)
    l1 = build_lts(t1, qccs_system(labelled=True), BUDGET)
    l2 = build_lts(t2, qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(l1, l2).holds
    assert criteria.corr_sim_check(l2, l1).holds


def test_game_pair_counts_on_measurement_and_permutation_instances():
    # the greatest relations' sizes, as reported in the verdicts' stats
    enc_dist, stepped = _measurement_instance()
    l1 = build_lts(enc_dist, qccs_system(labelled=True), BUDGET)
    l2 = build_lts(stepped, qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(l1, l2).stats == {"pairs": 17, "states": (11, 12)}
    assert criteria.corr_sim_check(l2, l1).stats == {"pairs": 16, "states": (12, 11)}
    assert criteria.bisim_check(l1, l2).stats == {"pairs": 16}
    src = cqp.CqpPure(
        quantum.StateVector(("a", "b"), np.array([0, 1, 0, 0], dtype=complex)),
        (),
        cqp.Trans(("b",), "X", cqp.Success()),
    )
    (perm,) = [s for s in cqp.enumerate_steps(src) if s.rule == "R-Perm"]
    p1 = build_lts(encode.encode_config(src), qccs_system(labelled=True), BUDGET)
    p2 = build_lts(encode.encode_config(perm.next), qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(p1, p2).stats == {"pairs": 3, "states": (2, 2)}
    assert criteria.corr_sim_check(p2, p1).stats == {"pairs": 3, "states": (2, 2)}
    assert criteria.bisim_check(p1, p2).stats == {"pairs": 2}


def test_size_sensitive_mode_rejects_size_changing_relations():
    base = quantum.outer(quantum.StateVector(("q",), [1, 0]))
    grown = qccs.QccsConfig(qccs.SuperOp(qccs.NewOp(), (), qccs.Success()), base)
    flat = qccs.QccsConfig(qccs.Tau(qccs.Success()), base)
    l1 = build_lts(grown, qccs_system(labelled=True), BUDGET)
    l2 = build_lts(flat, qccs_system(labelled=True), BUDGET)
    assert criteria.corr_sim_check(l1, l2).holds
    assert criteria.corr_sim_check(l1, l2, size_sensitive=True).fails


# -- the encoding criteria on concrete instances ----------------------------------------

def test_teleport_passes_all_instance_checks():
    src = teleport()
    results = criteria.run_instance_checks(src, BUDGET, seed=1)
    for name, verdict in results.items():
        assert verdict.holds, f"{name}: {verdict.status} {verdict.reason or ''}"


def test_measurement_example_passes_all_instance_checks():
    src = cqp.parse_cqp(protocols.read("measurement.cqp"))
    results = criteria.run_instance_checks(src, BUDGET, seed=2)
    for name, verdict in results.items():
        assert verdict.holds, f"{name}: {verdict.status} {verdict.reason or ''}"


@pytest.mark.parametrize(
    "text, law_matches",
    [
        ("qubits q0, q1 ; state |00> ; channels ; process (new d)(d![q0].{q1 *= H}.ok | d?[v].{v *= X}.0)", 0),
        (
            "qubits q0, q1 ; state 1/sqrt(2)|00> + 1/sqrt(2)|11> ; channels ; "
            "process (m := measure q1).m![q0].0 | 0?[y].ok | 1?[y].{y *= X}.ok",
            1,
        ),
        ("qubits q0 ; state |0> ; channels ; process (qbit a)((qbit b){b *= X}.ok | {a *= H}.0)", 0),
    ],
    ids=["restricted-pair", "signal", "nested-creations"],
)
def test_hand_written_sources_pass_all_instance_checks(text, law_matches):
    results = criteria.run_instance_checks(cqp.parse_cqp(text), BUDGET, seed=3)
    for name, verdict in results.items():
        assert verdict.holds, f"{name}: {verdict.status} {verdict.reason or ''}"
    assert results["completeness"].stats["law_matches"] == law_matches


def test_instance_translates_its_source_once(monkeypatch):
    src = teleport()
    calls = []
    real = encode.encode_config

    def counted(config, check=True):
        calls.append(config is src)
        return real(config, check)

    monkeypatch.setattr(encode, "encode_config", counted)
    criteria.run_instance_checks(src, BUDGET, seed=1)
    assert calls.count(True) == 1


# -- the reduction table --------------------------------------------------------------

def _measurement():
    return cqp.parse_cqp(protocols.read("measurement.cqp"))


def test_reduction_table_returns_the_stored_steps_for_an_equal_key():
    inst = criteria.Instance(_measurement(), BUDGET)
    root = inst.root
    steps = inst.reductions(root)
    copy = qccs.QccsConfig(root.term, quantum.DensityMatrix(root.rho.qubit_names, root.rho.entries.copy()))
    assert inst.reductions(copy) is steps


def test_reduction_table_keys_rho_bitwise(monkeypatch):
    calls = []
    real = qccs.reduce_steps

    def counted(config, *args):
        calls.append(config)
        return real(config, *args)

    monkeypatch.setattr(qccs, "reduce_steps", counted)
    inst = criteria.Instance(_measurement(), BUDGET)
    root = inst.root
    entries = root.rho.entries.copy()
    entries[0, 0] = np.nextafter(entries[0, 0].real, 2.0)
    nudged = qccs.QccsConfig(root.term, quantum.DensityMatrix(root.rho.qubit_names, entries))
    assert quantum.within_tol(entries, root.rho.entries, 1e-15)
    steps = inst.reductions(root)
    assert inst.reductions(nudged) is not steps
    assert calls == [root, nudged]


def test_reduction_table_dies_with_its_instance():
    inst = criteria.Instance(_measurement(), BUDGET)
    criteria.check_soundness(inst)
    criteria.check_completeness(inst)
    step = inst.reductions(inst.root)[0]
    gone = weakref.ref(inst), weakref.ref(step), weakref.ref(step.next.rho)
    del inst, step
    gc.collect()
    assert [ref() for ref in gone] == [None, None, None]


def test_every_translation_is_stepped_once_per_instance(monkeypatch):
    keys = []
    real = qccs.reduce_steps

    def counted(config, *args):
        keys.append((config.term, config.rho.qubit_names, config.rho.entries.tobytes()))
        return real(config, *args)

    monkeypatch.setattr(qccs, "reduce_steps", counted)
    inst = criteria.Instance(_measurement(), BUDGET, seed=2)
    for check in criteria.CHECKS.values():
        assert check(inst).holds
    assert len(keys) == len(set(keys))
    # completeness looks up the translation of each edge's source, and the
    # target exploration that of each state it expands: 10 + 9 lookups on
    # this instance, for 13 distinct configurations
    edges = [label for _, label, _, _ in inst.source_lts.edges if not label.startswith("R-Perm")]
    assert (len(edges), len(inst.target_lts.states), len(keys)) == (10, 9, 13)


# -- source states up to channel-list order, shared density matrices ----------------

def test_channel_list_order_makes_no_second_source_state():
    src = cqp.parse_cqp("qubits q ; state |0> ; channels ; process (new a)0 | (new b)0 | (new c)0")
    inst = criteria.Instance(src, BUDGET)
    # one state per set of created channels (2^3), where each order of the
    # creations was a state of its own (1 + 3 + 6 + 6 = 16, over 15 edges)
    assert (len(inst.source_lts.states), len(inst.source_lts.edges)) == (8, 12)
    assert len(inst.target_lts.states) == 4
    for name, check in criteria.CHECKS.items():
        assert check(inst).holds, name


def _count_outer(monkeypatch) -> list:
    built = []
    real = quantum.outer

    def counted(psi):
        built.append((psi.qubit_names, psi.amps.tobytes()))
        return real(psi)

    monkeypatch.setattr(quantum, "outer", counted)
    return built


@pytest.mark.parametrize("name", ["teleport.cqp", "measurement.cqp"])
def test_one_density_matrix_per_register_state_per_instance(monkeypatch, name):
    built = _count_outer(monkeypatch)
    pure = []
    real = encode.encode_config

    def counted(config, check=True):
        if isinstance(config, cqp.CqpPure):
            pure.append(config)
        return real(config, check)

    monkeypatch.setattr(encode, "encode_config", counted)
    inst = criteria.Instance(cqp.parse_cqp(protocols.read(name)), BUDGET, seed=1)
    for check in criteria.CHECKS.values():
        assert check(inst).holds
    distinct = {(c.sigma.qubit_names, c.sigma.amps.tobytes()) for c in pure}
    assert len(built) == len(set(built)) == len(distinct) < len(pure)


def test_an_amplitude_one_ulp_away_gets_its_own_density_matrix(monkeypatch):
    built = _count_outer(monkeypatch)
    sq2 = 1.0 / np.sqrt(2.0)
    src = cqp.CqpPure(quantum.StateVector(("q",), [sq2, sq2]), (), cqp.Trans(("q",), "H", cqp.Success()))
    inst = criteria.Instance(src, BUDGET)
    amps = src.sigma.amps.copy()
    equal = cqp.CqpPure(quantum.StateVector(("q",), amps), (), src.term)
    amps[0] = np.nextafter(amps[0].real, 1.0)
    near = cqp.CqpPure(quantum.StateVector(("q",), amps), (), src.term)
    assert inst.translate(equal).rho is inst.root.rho
    assert inst.translate(near).rho is not inst.root.rho
    assert len(built) == 2


def test_shared_density_matrices_die_with_their_instance():
    src = teleport()
    inst = criteria.Instance(src, BUDGET, seed=1)
    criteria.check_soundness(inst)
    root = weakref.ref(inst.root.rho)
    # every matrix but the source's own hangs on a vector of the exploration
    others = {id(enc.rho): enc.rho for enc in inst.encoded if enc.rho is not root()}
    assert len(others) > 1
    gone = [weakref.ref(inst)] + [weakref.ref(rho) for rho in others.values()]
    del inst, others
    gc.collect()
    assert [ref() for ref in gone] == [None] * len(gone)
    # the source's vector keeps its own, as the source keeps its congruence key
    assert root() is src.sigma.density
    del src
    gc.collect()
    assert root() is None


def test_renaming_and_variant_checks_typecheck_every_translation(monkeypatch):
    inst = criteria.Instance(teleport(), BUDGET, seed=1)
    inst.root
    checked = []
    real = cqp.typecheck_internal

    def counted(config):
        checked.append(config)
        return real(config)

    monkeypatch.setattr(cqp, "typecheck_internal", counted)
    for name in ("name_invariance", "qubit_invariance", "congruence_preservation"):
        assert criteria.CHECKS[name](inst).holds
    assert len(checked) == 3
    with pytest.raises(NoCloningViolation, match="non-injective qubit substitution"):
        criteria.check_qubit_invariance(inst, {"q0": "q", "q1": "q"})


def test_register_size_does_not_report_a_completeness_failure_as_its_own(monkeypatch):
    # a mutant that drops every gate: completeness fails on the gate step,
    # but every translation keeps the source's one qubit
    real = encode.encode_term

    def drop_gates(term, register):
        return qccs.Nil() if isinstance(term, cqp.Trans) else real(term, register)

    monkeypatch.setattr(encode, "encode_term", drop_gates)
    src = cqp.CqpPure(quantum.StateVector(("q",), [1, 0]), (), cqp.Trans(("q",), "X", cqp.Success()))
    inst = criteria.Instance(src, BUDGET)
    assert criteria.check_completeness(inst).fails
    verdict = criteria.check_register_size(inst)
    assert (verdict.status, verdict.reason, verdict.witness) == ("inconclusive", "completeness fails", None)


def test_completeness_matches_measurement_edges_by_the_law():
    src = cqp.parse_cqp(protocols.read("measurement.cqp"))
    verdict = criteria.check_completeness(criteria.Instance(src, BUDGET))
    assert verdict.holds
    assert verdict.stats["law_matches"] == 2
    # no fallback-game counter: the law and congruence are the only ways
    assert list(verdict.stats) == ["matched_edges", "law_matches", "states", "edges", "truncated"]


def test_completeness_catches_a_wrong_gate(monkeypatch):
    # a mutant that translates X as Z: the target steps to the wrong state,
    # so no candidate is congruent, factored or not
    real = encode.encode_term

    def x_as_z(term, register):
        if isinstance(term, cqp.Trans) and term.gate == "X":
            return qccs.SuperOp(qccs.GateOp("Z"), term.qubits, real(term.cont, register))
        return real(term, register)

    monkeypatch.setattr(encode, "encode_term", x_as_z)
    src = cqp.CqpPure(quantum.StateVector(("q",), [1, 0]), (), cqp.Trans(("q",), "X", cqp.Success()))
    inst = criteria.Instance(src, BUDGET)
    verdict = criteria.check_completeness(inst)
    assert (verdict.status, verdict.stats["edge"]) == ("fails", "R-Trans[X]")
    size = criteria.check_register_size(inst)
    assert (size.status, size.reason) == ("inconclusive", "completeness fails")
    assert criteria.check_soundness(inst).fails


@pytest.mark.parametrize("seed", [4, 122, 235, 403])
def test_law_matches_only_where_the_game_holds(seed):
    # these seeds each matched some measurement edges only by a
    # correspondence-simulation game before the law: the game must hold on
    # the candidate the law picks
    inst = criteria.Instance(criteria.gen_config(seed, size=4, depth=6), Budget(48, 800), seed)
    verdict = inst.completeness
    labelled = qccs_system(tol=inst.tol, labelled=True)

    def explore(config):
        return build_lts(config, labelled, Budget(32, 220))

    def factor(config):
        return qccs.QccsConfig(qccs.factor_measurement_choices(config.term), config.rho)

    law_edges = 0
    for src, label, dst, _ in inst.source_lts.edges:
        if label.startswith("R-Perm"):
            continue
        enc_dst = inst.encoded[dst]
        candidates = [s.next for s in inst.reductions(inst.encoded[src])]
        if any(qccs.congruent(enc_dst, c, inst.tol) for c in candidates):
            continue
        hit = next(
            c
            for c in candidates
            if c.rho.num_qubits == enc_dst.rho.num_qubits and qccs.congruent(factor(enc_dst), factor(c), inst.tol)
        )
        law_edges += 1
        game = criteria.corr_sim_check(explore(enc_dst), explore(hit), size_sensitive=True)
        assert game.holds, (seed, label)
    assert verdict.holds
    assert law_edges == verdict.stats["law_matches"] > 0


def test_name_invariance_rejects_literal_remapping():
    src = teleport()
    verdict = criteria.check_name_invariance(criteria.Instance(src), {"0": "a"})
    assert verdict.status == "inconclusive"


def test_identity_renamings_hold():
    inst = criteria.Instance(teleport())
    assert criteria.check_name_invariance(inst, {}).holds
    assert criteria.check_qubit_invariance(inst, {}).holds
    swap = {"q0": "q1", "q1": "q0"}
    assert criteria.check_qubit_invariance(inst, swap).holds


def test_qubit_invariance_rejects_merging():
    with pytest.raises(Exception):
        criteria.check_qubit_invariance(criteria.Instance(teleport()), {"q0": "q", "q1": "q"})


# -- renaming and the binder rule ----------------------------------------------------------

def _swap_config(calculus):
    """A two-qubit configuration whose term uses both qubits, and the term
    expected after swapping them."""
    if calculus == "source":
        sigma = quantum.StateVector(("a", "b"), np.array([1, 0, 0, 0], dtype=complex))
        term = cqp.Par(cqp.Out("c", "a", cqp.Nil()), cqp.In("d", "x", cqp.Trans(("b",), "H", cqp.Nil())))
        swapped = cqp.Par(cqp.Out("c", "b", cqp.Nil()), cqp.In("d", "x", cqp.Trans(("a",), "H", cqp.Nil())))
        return cqp.CqpPure(sigma, ("c", "d"), term), swapped
    rho = quantum.DensityMatrix(("a", "b"), np.diag([1, 0, 0, 0]).astype(complex))
    term = qccs.Par(qccs.Out("c", "a", qccs.Nil()), qccs.In("d", "x", qccs.SuperOp(qccs.GateOp("H"), ("b",), qccs.Nil())))
    swapped = qccs.Par(qccs.Out("c", "b", qccs.Nil()), qccs.In("d", "x", qccs.SuperOp(qccs.GateOp("H"), ("a",), qccs.Nil())))
    return qccs.QccsConfig(term, rho), swapped


RENAME = {"source": criteria.rename_source, "target": criteria.rename_target}


@pytest.mark.parametrize("calculus", RENAME)
def test_rename_swaps_qubits_simultaneously(calculus):
    config, swapped = _swap_config(calculus)
    got = RENAME[calculus](config, {"a": "b", "b": "a"})
    assert got.term == swapped
    names = got.sigma_names if calculus == "source" else got.rho.qubit_names
    assert names == ("b", "a")


@pytest.mark.parametrize("calculus", RENAME)
def test_rename_rejects_merging_qubits(calculus):
    config, _ = _swap_config(calculus)
    with pytest.raises(NoCloningViolation, match="non-injective qubit substitution"):
        RENAME[calculus](config, {"a": "q", "b": "q"})


# Each mapping sends a free name onto a binder and also maps the binder's
# first fresh candidate ``<binder>_0``, so a renamed binder that the mapping
# reaches again would escape as a free name.
CAPTURE_CASES = {
    "cqp-NewChan": (
        cqp.substitute,
        cqp.NewChan("c", cqp.Par(cqp.Out("c", "q", cqp.Nil()), cqp.Out("d", "p", cqp.Nil()))),
        {"d": "c", "c_0": "e"},
        cqp.NewChan("c_1", cqp.Par(cqp.Out("c_1", "q", cqp.Nil()), cqp.Out("c", "p", cqp.Nil()))),
    ),
    "cqp-In": (
        cqp.substitute,
        cqp.In("a", "x", cqp.Out("y", "x", cqp.Nil())),
        {"y": "x", "x_0": "e"},
        cqp.In("a", "x_1", cqp.Out("x", "x_1", cqp.Nil())),
    ),
    "qccs-Restrict": (
        qccs.substitute,
        qccs.Restrict(qccs.Par(qccs.Out("c", "q", qccs.Nil()), qccs.Out("d", "p", qccs.Nil())), ("c",)),
        {"d": "c", "c_0": "e"},
        qccs.Restrict(qccs.Par(qccs.Out("c_1", "q", qccs.Nil()), qccs.Out("c", "p", qccs.Nil())), ("c_1",)),
    ),
    "qccs-Restrict-two-channels": (
        qccs.substitute,
        qccs.Restrict(qccs.Par(qccs.Out("c", "q", qccs.Nil()), qccs.Out("d", "p", qccs.Nil())), ("c", "c_1")),
        {"d": "c", "c_0": "e"},
        qccs.Restrict(qccs.Par(qccs.Out("c_2", "q", qccs.Nil()), qccs.Out("c", "p", qccs.Nil())), ("c_2", "c_1")),
    ),
    "qccs-In": (
        qccs.substitute,
        qccs.In("a", "x", qccs.Out("c", "y", qccs.Out("d", "x", qccs.Nil()))),
        {"y": "x", "x_0": "e"},
        qccs.In("a", "x_1", qccs.Out("c", "x", qccs.Out("d", "x_1", qccs.Nil()))),
    ),
}


@pytest.mark.parametrize("case", CAPTURE_CASES)
def test_substitution_renames_captured_binders_apart(case):
    substitute, term, mapping, expected = CAPTURE_CASES[case]
    assert substitute(term, mapping) == expected


def _bound_names(t) -> set[str]:
    """Every name a binder inside ``t`` introduces."""
    names = set()
    for f in dataclasses.fields(t):
        value = getattr(t, f.name)
        if dataclasses.is_dataclass(value):
            names |= _bound_names(value)
    if isinstance(t, (cqp.In, cqp.Measure, cqp.NewChan, cqp.NewQbit, qccs.In)):
        names.add(t.var)
    elif isinstance(t, qccs.Restrict):
        names.update(t.chans)
    return names


CALCULI = {
    "cqp": (cqp.substitute, cqp.free_names, lambda c: c.term),
    "qccs": (
        qccs.substitute,
        lambda t: qccs.free_qubits(t) | qccs.free_channels(t),
        lambda c: encode.encode_config(c).term,
    ),
}


@pytest.mark.parametrize("calculus", CALCULI)
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 499), data=st.data())
def test_substitution_maps_exactly_the_free_names(calculus, seed, data):
    substitute, free, term_of = CALCULI[calculus]
    term = term_of(criteria.gen_config(seed))
    bound = sorted(_bound_names(term))
    assume(bound)
    keys = sorted(free(term) | {f"{b}_0" for b in bound})
    chosen = data.draw(st.lists(st.sampled_from(keys), unique=True, min_size=1, max_size=4))
    sigma = {k: data.draw(st.sampled_from(bound)) for k in chosen}
    assert free(substitute(term, sigma)) == {sigma.get(n, n) for n in free(term)}


# -- generator ----------------------------------------------------------------------------

def test_generator_is_deterministic():
    a = criteria.gen_config(42)
    b = criteria.gen_config(42)
    assert cqp.congruent(a, b)
    assert cqp.format_term(a.term) == cqp.format_term(b.term)


def test_generated_configs_typecheck():
    for seed in range(1000):
        config = criteria.gen_config(seed)
        cqp.typecheck_internal(config)  # raises on failure


def test_generated_configs_satisfy_subject_reduction():
    for seed in range(40):
        config = criteria.gen_config(seed)
        lts = build_lts(config, cqp_system(), Budget(16, 200))
        for state in lts.states:
            cqp.typecheck_internal(state)


def test_generated_translations_are_wellformed():
    for seed in range(120):
        config = criteria.gen_config(seed)
        qccs.check_wellformed({}, encode.encode_config(config))


def test_congruent_variant_is_congruent():
    rng = random.Random(7)
    for seed in range(60):
        config = criteria.gen_config(seed)
        variant = criteria.congruent_variant(config, rng)
        assert cqp.congruent(config, variant)


def test_step_enumeration_closed_under_congruence():
    # congruent presentations step to pairwise congruent successor sets
    rng = random.Random(3)
    for seed in range(40):
        config = criteria.gen_config(seed)
        variant = criteria.congruent_variant(config, rng)
        succ1 = [s.next for s in cqp.enumerate_steps(config)]
        succ2 = [s.next for s in cqp.enumerate_steps(variant)]
        assert len(succ1) == len(succ2)
        for a in succ1:
            assert any(cqp.congruent(a, b) for b in succ2), cqp.format_term(config.term)


def test_property_campaign_sample():
    fails = []
    inconclusive = 0
    for seed in range(30):
        src = criteria.gen_config(seed)
        for name, verdict in criteria.run_instance_checks(src, Budget(48, 800), seed).items():
            if verdict.fails:
                fails.append((seed, name))
            if verdict.status == "inconclusive":
                inconclusive += 1
    assert fails == []
    assert inconclusive == 0
