"""Every workload, untraced and traced, in one table.

    python3 perfbench/report.py [--seed N] [--seconds S] [--write perfbench/baseline.json]

Runs ``perfbench/run.py`` once per workload with ``--trace 0`` and once with
``--trace 1`` and prints every end-to-end metric with its unit, the
inconclusive and failed shares, the tail percentile, the layer table with
the tracing overhead, and the slowest instances.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("campaign", "wide", "protocols")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = child.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["details"] = json.loads(next(line for line in lines if line.startswith("details "))[len("details ") :])
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--write", type=Path, default=None, help="also write the results as JSON")
    args = parser.parse_args()

    results = {w: {"untraced": run_once(w, args.seed, args.seconds, 0), "traced": run_once(w, args.seed, args.seconds, 1)} for w in WORKLOADS}
    env = results[WORKLOADS[0]]["untraced"]["details"]["environment"]
    print("environment: " + ", ".join(f"{k} {v}" for k, v in env.items()))

    print(f"\n{'metric':<22}{'unit':<8}" + "".join(f"{w:>14}" for w in WORKLOADS))
    rows = [(m, v["unit"]) for m, v in results[WORKLOADS[0]]["untraced"]["metrics"].items()]
    for metric, unit in rows:
        print(f"{metric:<22}{unit:<8}" + "".join(f"{results[w]['untraced']['metrics'][metric]['value']:>14.4f}" for w in WORKLOADS))
    for key, unit in (("inconclusive_share", "share"), ("failed_share", "share"), ("tail_percentile", "%"), ("instances_per_pass", "count")):
        print(f"{key:<22}{unit:<8}" + "".join(f"{results[w]['untraced']['details'][key]:>14.4f}" for w in WORKLOADS))

    print(f"\n{'layer metric (traced)':<42}{'unit':<7}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for metric, value in results[WORKLOADS[0]]["traced"]["metrics"].items():
        print(f"{metric:<42}{value['unit']:<7}" + "".join(f"{results[w]['traced']['metrics'][metric]['value']:>14.4f}" for w in WORKLOADS))
    print(f"{'trace.overhead_share':<42}{'share':<7}" + "".join(f"{results[w]['traced']['details']['overhead_share']:>14.4f}" for w in WORKLOADS))

    for w in WORKLOADS:
        print(f"\nslowest {w} instances (traced):")
        for row in results[w]["traced"]["details"]["slowest"]:
            print(f"  {row['instance']:<44}{row['ms']:>10.1f} ms  fallback games {row['fallback_games']:<4} states {row['states']}")

    failed = sum(r[k]["failed"] for r in results.values() for k in r)
    if args.write:
        args.write.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds, "environment": env, "results": results}, indent=1) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
