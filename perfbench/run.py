"""The qproc benchmark.

    python3 perfbench/run.py --workload campaign|wide|protocols --seed N \
        --seconds S --trace 0|1

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the run measures whole passes of the workload with
tracing off and reports the end-to-end metrics; with ``--trace 1`` it times
one pass untraced and one pass with every layer wrapped, and reports the
per-layer metrics and the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.

End-to-end times are normalised to a nominal host speed (``hostspeed.py``):
each instance is bracketed by a fixed probe, its time is scaled by the
probe's nominal over its measured time, and each instance reports the
median of its normalised times over the run's passes.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy is first imported: default OpenBLAS
# threading doubled the spread of dense kernel times on two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# Each instance's time is its median over the passes of a run, so that one
# pass disturbed by the host does not move it.
MIN_PASSES = 3

# The end-to-end metrics of a --trace 0 run: (name, unit, better).
END_TO_END = (
    ("verdicts_per_s", "1/s", "higher"),
    ("instance_p50_ms", "ms", "lower"),
    ("instance_tail_ms", "ms", "lower"),
    ("conclusive_share", "share", "higher"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
    }


def _commit() -> str:
    """HEAD of a git checkout at ROOT, read without running git (which would
    search directories above the checkout)."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def tail_sample(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, p = (n-10)/n,
    and p itself.

    The percentile is the Harrell-Davis estimate: a Beta(p(n+1), (1-p)(n+1))
    weighted mean of the order statistics.  The 11th-largest sample alone
    carries one instance's noise; this averages the few ranks around it.
    """
    ordered = sorted(times)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    p = (n - 10) / n
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 16  # midpoint rule inside each rank's interval ((i-1)/n, i/n)
    log_density = lambda x: (a - 1) * math.log(x) + (b - 1) * math.log1p(-x)  # noqa: E731
    weights = [
        sum(math.exp(log_density((i + (k + 0.5) / steps) / n)) for k in range(steps)) for i in range(n)
    ]
    return sum(w * t for w, t in zip(weights, ordered)) / sum(weights), 100.0 * p


def instance_metrics(times: list[float], verdicts: int) -> dict:
    """The metrics of one pass whose instances took ``times`` seconds."""
    tail, pct = tail_sample(times)
    return {
        "verdicts_per_s": verdicts / sum(times),
        "instance_p50_ms": statistics.median(times) * 1e3,
        "instance_tail_ms": tail * 1e3,
        "tail_percentile": pct,
    }


def measure(workload, seconds: float) -> list[list]:
    """Whole passes with host-speed probes, as many as come closest to
    ``seconds`` at the speed of the first, and at least ``MIN_PASSES``."""
    passes = []
    count = MIN_PASSES
    while len(passes) < count:
        start = time.perf_counter()
        passes.append(workload.run_pass(probe=True))
        if len(passes) == 1:
            wall = time.perf_counter() - start
            count = max(MIN_PASSES, round(seconds / wall))
    return passes


def per_instance(passes: list[list], time_of) -> list[float]:
    """Each instance's median over the passes of ``time_of(instance)``."""
    return [statistics.median(time_of(i) for i in repeats) for repeats in zip(*passes)]


def setup_seconds(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Process start to inputs ready, in fresh processes: import, inputs and
    warm-up, each timed against the system-wide monotonic clock.  Returns
    the samples normalised to the nominal host speed, by probes run just
    before and after each process, and as measured."""
    normalised, measured = [], []
    for _ in range(SETUP_PROBES):
        before = hostspeed.probe_median()
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        elapsed = float(child.stdout.split()[-1]) - start
        measured.append(elapsed)
        normalised.append(hostspeed.normalised(elapsed, (before + hostspeed.probe_median()) / 2))
    return normalised, measured


def gate(instances) -> tuple[int, int, int, int]:
    """(attempted, failed, verdicts, inconclusive) over instances."""
    return (
        len(instances),
        sum(i.failed for i in instances),
        sum(i.verdicts for i in instances),
        sum(i.inconclusive for i in instances),
    )


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    setups, measured_setups = setup_seconds(name, seed)
    workload = WORKLOADS[name](seed)
    workload.warm_up()
    passes = measure(workload, seconds)
    everything = [i for instances in passes for i in instances]
    attempted, failed, verdicts, inconclusive = gate(everything)
    pass_verdicts = sum(i.verdicts for i in passes[0])
    values = instance_metrics(per_instance(passes, lambda i: hostspeed.normalised(i.seconds, i.probe_s)), pass_verdicts)
    measured = instance_metrics(per_instance(passes, lambda i: i.seconds), pass_verdicts)
    values["conclusive_share"] = 1.0 - inconclusive / verdicts if verdicts else 0.0
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values["setup_s"] = statistics.median(setups)
    metrics = {name: (values[name], unit) for name, unit, _ in END_TO_END}
    details = {
        "passes": len(passes),
        "instances_per_pass": len(passes[0]),
        "tail_percentile": values["tail_percentile"],
        "inconclusive_share": inconclusive / verdicts if verdicts else 0.0,
        "failed_share": failed / attempted,
        "host_slowdown": statistics.median(i.probe_s for i in everything) / hostspeed.NOMINAL_S,
        "measured": {key: measured[key] for key in ("verdicts_per_s", "instance_p50_ms", "instance_tail_ms")},
        "setup_samples_s": setups,
        "measured_setup_samples_s": measured_setups,
        "errors": sorted({i.name + ": " + (i.error or "wrong answer") for i in everything if i.failed})[:10],
    }
    return metrics, {"attempted": attempted, "failed": failed, "details": details}


def traced(name: str, seed: int) -> tuple[dict, dict]:
    from layers import Tracer, metric_specs
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.warm_up()
    t0 = time.perf_counter()
    plain = workload.run_pass()
    untraced_wall = time.perf_counter() - t0
    with Tracer() as tracer:
        t0 = time.perf_counter()
        instances = workload.run_pass()
        wall = time.perf_counter() - t0
    values = tracer.metrics(wall, untraced_wall, sum(i.fallbacks for i in instances))
    units = {metric: unit for metric, unit, _ in metric_specs()}
    metrics = {metric: (values[metric], units[metric]) for metric in units}
    attempted, failed, _, _ = gate(plain + instances)
    slowest = sorted(instances, key=lambda i: -i.seconds)[:5]
    details = {
        "overhead_share": (wall - untraced_wall) / untraced_wall,
        "slowest": [
            {"instance": i.name, "ms": i.seconds * 1e3, "fallback_games": i.fallbacks, "states": i.states}
            for i in slowest
        ],
        "errors": sorted({i.name + ": " + (i.error or "wrong answer") for i in plain + instances if i.failed})[:10],
    }
    return metrics, {"attempted": attempted, "failed": failed, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("campaign", "wide", "protocols"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qproc" / "__init__.py").is_file():
        print(f"error: no qproc sources under {SRC}; run from a qproc checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        from workloads import WORKLOADS

        WORKLOADS[args.workload](args.seed).warm_up()
        print(time.monotonic())
        return 0

    env = environment()
    if args.trace:
        metrics, result = traced(args.workload, args.seed)
    else:
        metrics, result = end_to_end(args.workload, args.seed, args.seconds)
    details = result.pop("details")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env.items()))
    for metric, (value, unit) in metrics.items():
        print(f"{metric:<40} {value:>16.6f} {unit}")
    print("details " + json.dumps({"environment": env, **details}))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
