"""Self-tests of the benchmark: the gate can fail, every traced layer is
reached where it should work, and the layer accounts add up.

    python3 -m pytest -q perfbench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import pytest

import run

sys.path.insert(0, str(run.SRC))

import hostspeed  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from qproc import cli, criteria  # noqa: E402

# Small passes: the campaign seeds include 466 and 138, which each play a
# fallback simulation game; wide seed 4 plays four.
SMALL = {
    "campaign": lambda: workloads.Campaign(0, gen_seeds=[0, 1, 2, 138, 466]),
    "wide": lambda: workloads.Wide(0, gen_seeds=range(5)),
    "protocols": lambda: workloads.Protocols(0, rounds=1),
}

# Where each layer is predicted to do its work (the README's table).
CHECK_LAYERS = [n for n in layers.layer_names() if n not in ("cqp.parse_cqp", "qccs.parse_qccs", "encode.emit_translation", "cli.main")]
PREDICTED = {
    "campaign": CHECK_LAYERS,
    "wide": CHECK_LAYERS,
    "protocols": ["cqp.parse_cqp", "qccs.parse_qccs", "encode.emit_translation", "cli.main", "criteria.corr_sim_check"],
}


def _traced(name):
    workload = SMALL[name]()
    with layers.Tracer() as tracer:
        start = time.perf_counter()
        instances = workload.run_pass()
        wall = time.perf_counter() - start
    return tracer, instances, wall


@pytest.mark.parametrize("name", sorted(SMALL))
def test_known_answers_hold_and_layers_are_reached(name):
    tracer, instances, wall = _traced(name)
    assert [i.error or i.name for i in instances if i.failed] == []
    missed = [layer for layer in PREDICTED[name] if tracer.layers[layer].calls == 0]
    assert missed == []
    values = tracer.metrics(wall, wall, 0)
    assert sum(layer.self_s for layer in tracer.layers.values()) <= wall
    assert values["other.self_s"] >= 0.0


def test_tracer_restores_the_modules():
    before = criteria.build_lts
    with layers.Tracer():
        assert criteria.build_lts is not before
    assert criteria.build_lts is before


def _stub_verdicts(status):
    def checks(source, budget, seed):
        return {"completeness": criteria.Verdict(status), "soundness": criteria.Verdict("holds")}

    return checks


def _raise(*args, **kwargs):
    raise RuntimeError("stubbed check")


@pytest.mark.parametrize(
    "name,target,stub",
    [
        ("campaign", (criteria, "run_instance_checks"), _stub_verdicts("fails")),
        ("wide", (criteria, "run_instance_checks"), _raise),
        ("protocols", (cli, "main"), lambda argv: 0),  # exit 0 with no report
        ("protocols", (cli, "main"), _raise),
    ],
)
def test_gate_fails_on_wrong_verdicts_and_exceptions(monkeypatch, name, target, stub):
    monkeypatch.setattr(*target, stub)
    metrics, result = run.end_to_end(name, 0, 0.01)
    assert result["failed"] == result["attempted"] > 0
    assert result["details"]["failed_share"] == 1.0
    assert result["details"]["errors"]


def test_gate_fails_on_output_that_changes_between_repeats(monkeypatch):
    seen = set()
    real = cli.main

    def drifting(argv):
        code = real(argv)
        if tuple(argv) in seen:
            print(" ")  # still valid JSON with the right verdict, but other bytes
        seen.add(tuple(argv))
        return code

    monkeypatch.setattr(cli, "main", drifting)
    instances = workloads.Protocols(0, rounds=2).run_pass()
    first, repeat = instances[: len(instances) // 2], instances[len(instances) // 2 :]
    assert not any(i.failed for i in first)
    assert all(i.failed for i in repeat)


def test_inconclusive_verdicts_lower_the_conclusive_share(monkeypatch):
    monkeypatch.setattr(criteria, "run_instance_checks", _stub_verdicts("inconclusive"))
    metrics, result = run.end_to_end("campaign", 0, 0.01)
    assert result["failed"] == 0
    assert metrics["conclusive_share"][0] == 0.5


def test_inputs_follow_the_seed():
    assert workloads.Campaign(3).inputs == workloads.Campaign(3).inputs
    assert workloads.Campaign(3).inputs != workloads.Campaign(4).inputs
    a, b = workloads.Wide(3).inputs[0], workloads.Wide(3).inputs[0]
    assert a[:2] == b[:2] and (a[2] == b[2]).all()
    assert workloads.protocol_calls(3) == workloads.protocol_calls(3)


def test_tail_estimates_the_percentile_with_ten_samples_beyond():
    value, pct = run.tail_sample([float(i) for i in range(500)])
    assert pct == 98.0
    assert abs(value - 489.5) < 0.05  # the Beta weights centre on rank pn + 1/2
    shuffled = [5.0, 1.0, 4.0, 2.0, 3.0] * 10
    assert 4.0 < run.tail_sample(shuffled)[0] <= 5.0


def test_probed_instances_carry_the_host_speed_and_scale_by_it():
    instances = SMALL["campaign"]().run_pass(probe=True)
    assert all(i.probe_s > 0 for i in instances)
    assert [i.probe_s for i in SMALL["campaign"]().run_pass()] == [0.0] * len(instances)
    assert hostspeed.normalised(3.0, 2 * hostspeed.NOMINAL_S) == 1.5


def test_each_instance_takes_its_median_over_the_passes():
    passes = [[workloads.Instance("a", t, 1, 0, False), workloads.Instance("b", 10 * t, 1, 0, False)] for t in (1.0, 5.0, 2.0)]
    assert run.per_instance(passes, lambda i: i.seconds) == [2.0, 20.0]
    assert run.instance_metrics([2.0, 20.0], 2)["verdicts_per_s"] == 2 / 22.0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.metric_specs()
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "campaign", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert child.returncode != 0
    assert child.stdout == ""
