"""The acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import io
import json
from contextlib import contextmanager

import numpy as np
import pytest

from qproc import cli, cqp, criteria, encode, protocols, qccs, quantum

TOL = 1e-9
SQ2 = 1.0 / np.sqrt(2.0)


def same(a, b, tol):
    """Equal registers, and entries equal within tol."""
    return a.qubit_names == b.qubit_names and quantum.within_tol(a.entries, b.entries, tol)


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def _basis(n, index, value=1.0):
    amps = np.zeros(2 ** n, dtype=complex)
    amps[index] = value
    return amps


def teleport_source():
    return cqp.parse_cqp(protocols.read("teleport.cqp"))


def test_criterion_1_teleportation_source_run():
    with criterion(1, "teleportation source run"):
        cur = teleport_source()
        psi0 = np.zeros(8, dtype=complex)
        psi0[0b100] = psi0[0b111] = SQ2
        assert np.allclose(cur.sigma.amps, psi0, atol=TOL)
        for _ in range(4):
            (step,) = cqp.enumerate_steps(cur)
            assert step.rule == "R-New"
            cur = step.next
        (cnot,) = cqp.enumerate_steps(cur)
        psi1 = np.zeros(8, dtype=complex)
        psi1[0b110] = psi1[0b101] = SQ2
        assert cnot.rule == "R-Trans" and np.allclose(cnot.next.sigma.amps, psi1, atol=TOL)
        (had,) = cqp.enumerate_steps(cnot.next)
        psi2 = np.zeros(8, dtype=complex)
        psi2[0b001] = psi2[0b010] = 0.5
        psi2[0b101] = psi2[0b110] = -0.5
        assert had.rule == "R-Trans" and np.allclose(had.next.sigma.amps, psi2, atol=TOL)
        (meas,) = cqp.enumerate_steps(had.next)
        dist = meas.next
        assert isinstance(dist, cqp.CqpDist) and len(dist.cases) == 4
        # branch signs follow the measurement rule: the surviving block keeps
        # its amplitudes rescaled, so branches 2 and 3 carry a global minus
        posts = [(0b001, 1.0), (0b010, 1.0), (0b101, -1.0), (0b110, -1.0)]
        for (p, sigma), (idx, val) in zip(dist.cases, posts):
            assert p == pytest.approx(0.25, abs=TOL)
            assert np.allclose(sigma.amps, _basis(3, idx, val), atol=TOL)
        result = cqp.run(teleport_source(), script=[0], max_steps=32)
        assert cqp.has_success_barb(result.final)
        assert result.final.sigma.qubit_names == ("q0", "q1", "q2")
        assert np.allclose(result.final.sigma.amps, _basis(3, 0b001), atol=TOL)


def test_criterion_2_teleportation_translation():
    with criterion(2, "teleportation translation"):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert cli.main(["translate", str(protocols.path("teleport.cqp"))]) == 0
        defs, config, table = qccs.parse_qccs(buffer.getvalue())

        src = teleport_source()
        vectors = []
        cur = src
        for _ in range(4):
            (step,) = cqp.enumerate_steps(cur)
            cur = step.next
        vectors.append(cur.sigma)  # psi0
        (cnot,) = cqp.enumerate_steps(cur)
        vectors.append(cnot.next.sigma)  # psi1
        (had,) = cqp.enumerate_steps(cnot.next)
        vectors.append(had.next.sigma)  # psi2
        (meas,) = cqp.enumerate_steps(had.next)
        dist = meas.next
        rho3_oracle = quantum.mix([(p, s) for p, s in dist.cases if p > 0])

        state = config
        for _ in range(4):  # the four channel-creation taus
            (step,) = qccs.reduce_steps(state, defs, table)
            state = step.next
        assert same(state.rho, quantum.outer(vectors[0]), TOL)
        (step,) = qccs.reduce_steps(state, defs, table)  # CNOT
        assert same(step.next.rho, quantum.outer(vectors[1]), TOL)
        (step,) = qccs.reduce_steps(step.next, defs, table)  # H
        assert same(step.next.rho, quantum.outer(vectors[2]), TOL)
        (step,) = qccs.reduce_steps(step.next, defs, table)  # measurement
        assert same(step.next.rho, rho3_oracle, TOL)
        branches = qccs.reduce_steps(step.next, defs, table)
        assert len(branches) == 4 and all(b.reduces_choice for b in branches)
        state = branches[0].next  # expected result 0, normalised
        assert same(
            state.rho, quantum.outer(quantum.StateVector(("q0", "q1", "q2"), _basis(3, 0b001))), TOL
        )
        state = qccs.reduce_steps(state, defs, table)[0].next  # communication on 0
        state = qccs.reduce_steps(state, defs, table)[0].next  # identity correction
        assert qccs.has_success_barb(state, defs)


def test_criterion_3_counterexample_suite():
    with criterion(3, "separation counterexample"):
        probe = qccs.parse_qccs(protocols.read("counterexample.qccs"))[2]["Q"]
        zero = quantum.outer(quantum.StateVector(("q",), [1, 0]))
        one = quantum.outer(quantum.StateVector(("q",), [0, 1]))
        plus = quantum.outer(quantum.StateVector(("q",), [SQ2, SQ2]))
        minus = quantum.outer(quantum.StateVector(("q",), [SQ2, -SQ2]))
        assert np.allclose(quantum.superop_apply(probe, ("q",), zero).entries, [[1, 0], [0, 0]], atol=TOL)
        assert np.allclose(quantum.superop_apply(probe, ("q",), one).entries, [[-1, 0], [0, 2]], atol=TOL)
        assert np.allclose(quantum.superop_apply(probe, ("q",), plus).entries, [[0, SQ2], [SQ2, 1]], atol=TOL)
        assert np.allclose(quantum.superop_apply(probe, ("q",), minus).entries, [[0, -SQ2], [-SQ2, 1]], atol=TOL)
        report = criteria.counterexample_suite(TOL)
        assert report["ok"]
        verdicts = {row["input"]: (row["may"], row["must"]) for row in report["rows"]}
        assert verdicts == {
            "|0><0|": ("holds", "holds"),
            "|1><1|": ("holds", "fails"),
            "|+><+|": ("fails", "fails"),
            "|-><-|": ("fails", "fails"),
        }


def test_criterion_4_measurement_linkage():
    with criterion(4, "measurement linkage"):
        rng = np.random.default_rng(2024)
        for trial in range(200):
            n = int(rng.integers(1, 4))
            r = int(rng.integers(0, n + 1))
            names = tuple(f"q{i}" for i in range(n))
            amps = rng.standard_normal(2 ** n) + 1j * rng.standard_normal(2 ** n)
            psi = quantum.StateVector(names, amps / np.linalg.norm(amps))
            measured = tuple(rng.permutation(names)[:r])
            mixed = quantum.mix(
                [(o.probability, o.post_state) for o in quantum.measure(psi, measured) if o.probability > 0]
            )
            via_superop = quantum.superop_apply(
                quantum.SuperOperator.measure_unknown(r), measured, quantum.outer(psi)
            )
            assert same(mixed, via_superop, TOL)
        # the single-qubit example: measuring |+> dissolves it into an even mixture
        plus = quantum.StateVector(("q",), [SQ2, SQ2])
        rho_prime = quantum.superop_apply(
            quantum.SuperOperator.measure_unknown(1), ("q",), quantum.outer(plus)
        )
        assert np.allclose(rho_prime.entries, [[0.5, 0], [0, 0.5]], atol=TOL)
        # and the same value arises by stepping the bundled example's translation
        src = cqp.parse_cqp(protocols.read("measurement.cqp"))
        translated = encode.encode_config(src)
        stepped = [
            s.next
            for s in qccs.reduce_steps(translated)
            if not np.allclose(s.next.rho.entries, translated.rho.entries)
        ]
        assert len(stepped) == 1
        assert np.allclose(stepped[0].rho.entries, [[0.5, 0], [0, 0.5]], atol=TOL)


def test_criterion_5_property_campaign():
    with criterion(5, "property campaign (500 configurations)"):
        budget = criteria.Budget(48, 800)
        checks = 0
        fails = []
        inconclusive = []
        totals = dict.fromkeys(
            (
                "source_states",
                "matched_edges",
                "law_matches",
                "target_states",
                "may_success",
                "diverging",
            ),
            0,
        )
        for seed in range(500):
            source = criteria.gen_config(seed, size=4, depth=6)
            verdicts = criteria.run_instance_checks(source, budget, seed)
            for name, verdict in verdicts.items():
                checks += 1
                if verdict.fails:
                    fails.append((seed, name))
                if verdict.status == "inconclusive":
                    inconclusive.append((seed, name))
            completeness = verdicts["completeness"].stats
            totals["source_states"] += completeness["states"]
            totals["matched_edges"] += completeness.get("matched_edges", 0)
            totals["law_matches"] += completeness.get("law_matches", 0)
            totals["target_states"] += verdicts["soundness"].stats["target_states"]
            totals["may_success"] += verdicts["success"].stats["source_may"] == "holds"
            totals["diverging"] += verdicts["divergence_reflection"].stats["source"] == "holds"
        rate = len(inconclusive) / checks
        print(
            f"  campaign: {checks} checks over 500 configurations, "
            f"{len(fails)} fails, inconclusive rate {rate:.4%}, explored {totals}"
        )
        assert fails == []
        assert rate < 0.01
        # The explorations behind the verdicts are pinned too: a change to
        # stepping, dedup or translation that keeps every verdict but
        # explores a different state space shows here.
        assert totals == {
            "source_states": 2446,
            "matched_edges": 2325,
            "law_matches": 151,
            "target_states": 2437,
            "may_success": 138,
            "diverging": 0,
        }


def test_criterion_6_corr_sim_vs_bisimulation():
    with criterion(6, "correspondence simulation vs bisimulation"):
        budget = criteria.Budget(64, 4000)
        src = cqp.parse_cqp(protocols.read("measurement.cqp"))
        (meas,) = [s for s in cqp.enumerate_steps(src) if s.rule == "R-Measure"]
        enc_dist = encode.encode_config(meas.next)
        enc_src = encode.encode_config(src)
        stepped = None
        for s in qccs.reduce_steps(enc_src):
            if not np.allclose(s.next.rho.entries, enc_src.rho.entries):
                stepped = s.next
        l1 = criteria.build_lts(enc_dist, criteria.qccs_system(labelled=True), budget)
        l2 = criteria.build_lts(stepped, criteria.qccs_system(labelled=True), budget)
        # the direction operational completeness relies on
        assert criteria.corr_sim_check(l1, l2).holds
        # while the bisimulation diagnostic separates the two
        assert criteria.bisim_check(l1, l2).fails
        # and the translations of a register and of its reorder by the
        # paper's R-Perm (fronting b, no step here) simulate each other
        perm_src = cqp.CqpPure(
            quantum.StateVector(("a", "b"), np.array([0, 1, 0, 0], dtype=complex)),
            (),
            cqp.Trans(("b",), "X", cqp.Success()),
        )
        permed = cqp.CqpPure(
            quantum.StateVector(("b", "a"), np.array([0, 0, 1, 0], dtype=complex)), (), perm_src.term
        )
        t1 = encode.encode_config(perm_src)
        t2 = encode.encode_config(permed)
        p1 = criteria.build_lts(t1, criteria.qccs_system(labelled=True), budget)
        p2 = criteria.build_lts(t2, criteria.qccs_system(labelled=True), budget)
        assert criteria.corr_sim_check(p1, p2).holds
        assert criteria.corr_sim_check(p2, p1).holds


def test_criterion_7_wellformedness_bridge():
    with criterion(7, "well-formedness bridge"):
        for seed in range(200):
            source = criteria.gen_config(seed)
            qccs.check_wellformed({}, encode.encode_config(source))
        from qproc.errors import WellFormednessError

        with pytest.raises(WellFormednessError) as cond1:
            qccs.parse_qccs("state qubits q ; rho = outer(|0>) ; process c!q.c?x.H[q].nil")
        assert cond1.value.condition == "Cond1" and "process" in cond1.value.path
        with pytest.raises(WellFormednessError) as cond2:
            qccs.parse_qccs("state qubits q ; rho = outer(|0>) ; process c!q.nil | d!q.nil")
        assert cond2.value.condition == "Cond2" and "process" in cond2.value.path


def test_criterion_8_deterministic_reports():
    with criterion(8, "byte-identical reports"):
        def check_once():
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(
                    [
                        "check",
                        str(protocols.path("teleport.cqp")),
                        "--which",
                        "soundness",
                        "--format",
                        "json",
                        "--seed",
                        "13",
                    ]
                )
            return code, buffer.getvalue()

        first = check_once()
        second = check_once()
        assert first == second
        assert first[0] == 0
        payload = json.loads(first[1])
        assert payload["schema"] == 1 and payload["verdict"] == "holds"
