"""The benchmark's workloads and the known-answer gate each instance meets.

Every workload is a closed loop in one process: one instance at a time, the
next one starting when the previous one has returned.  A pass has a fixed
composition, so metrics taken per pass compare like with like across
commits whatever the speed.  The seed draws everything random in a pass;
the program receives only the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hostspeed
from qproc import cli, cqp, criteria, encode, protocols, qccs, quantum

BUDGET = criteria.Budget(48, 800)

# The criterion-5 campaign.  The set is fixed rather than drawn from the
# seed: cost has a heavy tail (one configuration in 1,500 takes 8.7 s, the
# top 15 of 500 take 57% of the time), so disjoint seed ranges differ in
# throughput by 2x and would hide any change.
CAMPAIGN_SEEDS = range(500)
WIDE_SEEDS = range(100)
SPECTATORS = ("s0", "s1", "s2")

# Repeats of the call list per pass: the tail sample (11th slowest call)
# then falls inside the slowest call's own repeats rather than between calls.
PROTOCOL_ROUNDS = 20

# functools caches are per process; clearing them before a pass (campaign)
# or a call (CLI) makes it start as cold as a fresh ``qproc`` process would.
_CACHES = [
    obj
    for module in (quantum, cqp, qccs, encode, criteria, cli)
    for obj in vars(module).values()
    if callable(getattr(obj, "cache_clear", None))
]


def clear_caches() -> None:
    for cache in _CACHES:
        cache.cache_clear()


def run_all(run_one, items, probe: bool) -> list[Instance]:
    """``run_one`` over ``items`` in order.  With ``probe``, each instance
    is bracketed by host-speed probes and carries their mean."""
    if not probe:
        return [run_one(item) for item in items]
    instances = []
    for item in items:
        before = hostspeed.probe()
        instance = run_one(item)
        instance.probe_s = (before + hostspeed.probe()) / 2
        instances.append(instance)
    return instances


@dataclass
class Instance:
    """One measured instance: a configuration, or one CLI call."""

    name: str
    seconds: float
    verdicts: int
    inconclusive: int
    failed: bool
    fallbacks: int = 0
    states: int = 0
    error: str | None = None
    probe_s: float = 0.0  # host-speed probe around the instance (hostspeed.py)


class Campaign:
    """``gen_config`` configurations through ``run_instance_checks``.

    Registers stay at 4 qubits or fewer, so term canonicalisation, dedup
    and translation do most of the work.  The seed draws the instance order
    and the seed of each instance's checks (renamings and congruent
    variants); seed 0 gives each configuration the check seed criterion 5
    uses.
    """

    name = "campaign"

    def __init__(self, seed: int, gen_seeds=CAMPAIGN_SEEDS):
        order = list(gen_seeds)
        random.Random(seed).shuffle(order)
        self.inputs = [(i, seed * 1_000_000 + i, self._extra(seed, i)) for i in order]
        self.warm_input = (min(gen_seeds), min(gen_seeds), self._extra(seed, min(gen_seeds)))

    def _extra(self, seed: int, i: int):
        return None

    def make(self, i: int, extra) -> cqp.CqpConfig:
        return criteria.gen_config(i, size=4, depth=6)

    def warm_up(self) -> None:
        self.run_one(self.warm_input)

    def run_pass(self, probe: bool = False) -> list[Instance]:
        clear_caches()
        return run_all(self.run_one, self.inputs, probe)

    def run_one(self, item) -> Instance:
        i, check_seed, extra = item
        start = time.perf_counter()
        try:
            verdicts = criteria.run_instance_checks(self.make(i, extra), BUDGET, check_seed)
        except Exception as err:  # an exception is a failed instance, not the end of the run
            return Instance(f"seed {i}", time.perf_counter() - start, 0, 0, True, error=repr(err))
        seconds = time.perf_counter() - start
        statuses = [v.status for v in verdicts.values()]
        # The encoding satisfies every criterion (the paper's theorem), so
        # any ``fails`` is a wrong verdict.
        wrong = any(s not in ("holds", "inconclusive") for s in statuses)
        comp = verdicts["completeness"].stats
        return Instance(
            f"seed {i}",
            seconds,
            len(statuses),
            statuses.count("inconclusive"),
            wrong,
            comp.get("corr_sim_fallbacks", 0),
            comp.get("states", 0),
        )


class Wide(Campaign):
    """The campaign's terms with three spectator qubits appended.

    Registers are 4-7 qubits wide, so dense density-matrix work
    (``superop_apply`` and the 4^n-entry keys) dominates.  The spectators'
    joint state is drawn from the workload seed and the configuration seed.
    """

    name = "wide"

    def __init__(self, seed: int, gen_seeds=WIDE_SEEDS):
        super().__init__(seed, gen_seeds)

    def _extra(self, seed: int, i: int):
        rng = np.random.default_rng([seed, i])
        amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        return amps / np.linalg.norm(amps)

    def make(self, i: int, extra) -> cqp.CqpConfig:
        base = criteria.gen_config(i, size=4, depth=6)
        sigma = quantum.StateVector(base.sigma.qubit_names + SPECTATORS, np.kron(base.sigma.amps, extra))
        return cqp.CqpPure(sigma, base.phi, base.term)


# -- the CLI path ----------------------------------------------------------------

CQP_CHECKS = ("completeness", "soundness", "name-inv", "qubit-inv", "size", "divergence", "success")

# Known answers, written from the paper and the criterion-3 probe table,
# never from a qproc run.  The encoding satisfies every criterion, so every
# check on a .cqp source holds.  Teleportation succeeds on every branch;
# the measurement example succeeds only on outcome 0 (may holds, must
# fails).  None of the programs has an infinite run, so divergence
# reflection holds with both sides ``fails``, and divergence on a .qccs
# file fails.  From |0><0| the probe reaches success inevitably.
_MAY_MUST = {"teleport.cqp": ("holds", "holds"), "measurement.cqp": ("holds", "fails")}
_PROBE_TABLE = [
    ("|0><0|", "holds", "holds"),
    ("|1><1|", "holds", "fails"),
    ("|+><+|", "fails", "fails"),
    ("|-><-|", "fails", "fails"),
]


@dataclass(frozen=True)
class Call:
    """One ``qproc`` invocation and its expected answer."""

    argv: tuple[str, ...]
    exit_code: int
    verdict: str | None = None  # None: the output is compared with ``text``
    stats: tuple = ()  # (key, value) pairs the JSON ``stats`` must contain
    rows: tuple = ()  # (input, may, must) rows of the counterexample table
    text: str | None = None

    @property
    def name(self) -> str:
        head = self.argv[: self.argv.index("--format")] if "--format" in self.argv else self.argv
        return " ".join(Path(a).name for a in head)

    def matches(self, code: int, out: str) -> bool:
        if code != self.exit_code:
            return False
        if self.verdict is None:
            return out == self.text
        try:
            report = json.loads(out)
        except json.JSONDecodeError:
            return False
        if report.get("verdict") != self.verdict:
            return False
        if any(report.get("stats", {}).get(k) != v for k, v in self.stats):
            return False
        got = [(r["input"], r["may"], r["must"]) for r in report.get("rows", [])]
        return not self.rows or got == list(self.rows)


def protocol_calls(seed: int) -> list[Call]:
    """The call list of one round: 21 calls, an odd number, so the median
    call is one call's own sample rather than the mean of two calls."""
    path = lambda name: str(protocols.path(name))  # noqa: E731
    opts = ("--format", "json", "--seed", str(seed))
    calls = []
    for source, (may, must) in _MAY_MUST.items():
        for which in CQP_CHECKS:
            stats = ()
            if which == "success":
                stats = (("source_may", may), ("target_may", may), ("source_must", must), ("target_must", must))
            elif which == "divergence":
                stats = (("source", "fails"), ("target", "fails"))
            calls.append(Call(("check", path(source), "--which", which, *opts), 0, "holds", stats))
    for target in ("counterexample.qccs", "teleport-encoded.qccs"):
        calls.append(Call(("check", path(target), "--which", "divergence", *opts), 1, "fails", (("cycle", False),)))
        calls.append(
            Call(("check", path(target), "--which", "success", *opts), 0, "holds", (("may", "holds"), ("must", "holds")))
        )
    calls.append(Call(("counterexample", *opts), 0, "holds", rows=tuple(_PROBE_TABLE)))
    # The emitted translation is the bundled teleport-encoded.qccs fixture,
    # and the translation of a well-typed source is well-formed.
    calls.append(Call(("translate", path("teleport.cqp")), 0, text=protocols.read("teleport-encoded.qccs")))
    calls.append(Call(("typecheck", path("teleport-encoded.qccs"), *opts), 0, "holds"))
    return calls


class Protocols:
    """``cli.main`` in process on the bundled protocols, JSON output.

    Every call re-parses its input and builds its own explorations; caches
    are cleared before each call, as a separate process would start.  Each
    call must give its known answer and the same bytes on every repeat.
    """

    name = "protocols"

    def __init__(self, seed: int, rounds: int = PROTOCOL_ROUNDS):
        self.calls = protocol_calls(seed)
        self.rounds = rounds
        self.first_output: dict[tuple, str] = {}

    def warm_up(self) -> None:
        for call in self.calls:
            self.run_one(call)

    def run_pass(self, probe: bool = False) -> list[Instance]:
        return run_all(self.run_one, [call for _ in range(self.rounds) for call in self.calls], probe)

    def run_one(self, call: Call) -> Instance:
        out, errors = io.StringIO(), io.StringIO()
        clear_caches()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
                code = cli.main(list(call.argv))
        except Exception as err:  # an exception is a failed call, not the end of the run
            return Instance(call.name, time.perf_counter() - start, 1, 0, True, error=repr(err))
        seconds = time.perf_counter() - start
        text = out.getvalue()
        same = self.first_output.setdefault(call.argv, text) == text
        fallbacks = 0
        if "--which" in call.argv:
            try:
                fallbacks = json.loads(text).get("stats", {}).get("corr_sim_fallbacks", 0)
            except json.JSONDecodeError:
                pass
        wrong = not (same and call.matches(code, text))
        return Instance(call.name, seconds, 1, int(code == cli.EXIT_INCONCLUSIVE), wrong, fallbacks)


WORKLOADS = {cls.name: cls for cls in (Campaign, Wide, Protocols)}
