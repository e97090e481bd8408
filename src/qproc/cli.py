"""The qproc command line.

Subcommands tie parsing, execution, translation and checking together with
reproducible outputs: identical inputs, options and seed produce
byte-identical JSON.  Exit codes: 0 for ok/holds, 1 for fails or rejected
input, 2 for inconclusive, 3 for usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cqp, criteria, encode, qccs, quantum
from .errors import ParseError, QprocError

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_FAILS = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass(frozen=True)
class RunOptions:
    tolerance: float = quantum.DEFAULT_TOL
    max_depth: int = 64
    max_states: int = 100_000
    seed: int = 0
    format: str = "text"
    script: tuple[int, ...] = ()

    def __post_init__(self):
        if not (0.0 < self.tolerance <= 1e-3):
            raise UsageError(f"tolerance must lie in (0, 1e-3], got {self.tolerance}")
        if self.max_depth <= 0 or self.max_states <= 0:
            raise UsageError("budgets must be positive")

    @property
    def budget(self) -> criteria.Budget:
        return criteria.Budget(self.max_depth, self.max_states)


def _options(args) -> RunOptions:
    seed = args.seed
    if seed is None:
        try:
            seed = int(os.environ.get("QPROC_SEED", "0"))
        except ValueError:
            raise UsageError(f"QPROC_SEED takes an integer, got {os.environ['QPROC_SEED']!r}")
    script = ()
    if getattr(args, "script", None):
        try:
            script = tuple(int(part) for part in args.script.split(",") if part != "")
        except ValueError:
            raise UsageError(f"--script takes comma-separated integers, got {args.script!r}")
    return RunOptions(
        tolerance=args.tolerance,
        max_depth=args.max_depth,
        max_states=args.max_states,
        seed=seed,
        format=args.format,
        script=script,
    )


def _load(path: str):
    """Returns ("cqp", config) or ("qccs", (defs, config, table))."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text (byte {err.start})")
    if path.endswith(".cqp"):
        return "cqp", cqp.parse_cqp(text)
    if path.endswith(".qccs"):
        return "qccs", qccs.parse_qccs(text)
    raise UsageError(f"cannot tell the calculus of {path!r}; use a .cqp or .qccs extension")


def _emit_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1)


def _report(check: str, verdict: criteria.Verdict, opts: RunOptions) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "check": check,
        **verdict.as_dict(),
        "tolerance": opts.tolerance,
        "seed": opts.seed,
    }


def _verdict_exit(verdict: criteria.Verdict) -> int:
    if verdict.holds:
        return EXIT_OK
    if verdict.fails:
        return EXIT_FAILS
    return EXIT_INCONCLUSIVE


# -- AST dumps ------------------------------------------------------------------

def _to_dict(node):
    if dataclasses.is_dataclass(node):
        out = {"kind": type(node).__name__}
        for field in dataclasses.fields(node):
            out[field.name] = _to_dict(getattr(node, field.name))
        return out
    if isinstance(node, tuple):
        return [_to_dict(x) for x in node]
    return node


def cmd_parse(args) -> int:
    opts = _options(args)
    kind, parsed = _load(args.file)
    if kind == "cqp":
        config = parsed
        payload = {
            "schema": SCHEMA_VERSION,
            "calculus": "cqp",
            "qubits": list(config.sigma.qubit_names),
            "state": cqp.format_amps(config.sigma, 9),
            "channels": list(config.phi),
            "process": _to_dict(config.term),
        }
        text = f"{cqp.format_config(config)}"
    else:
        defs, config, table = parsed
        payload = {
            "schema": SCHEMA_VERSION,
            "calculus": "qccs",
            "qubits": list(config.rho.qubit_names),
            "operators": sorted(table),
            "constants": sorted(defs),
            "process": _to_dict(config.term),
        }
        text = qccs.format_term(config.term)
    print(_emit_json(payload) if opts.format == "json" else text)
    return EXIT_OK


def cmd_typecheck(args) -> int:
    opts = _options(args)
    kind, parsed = _load(args.file)
    if kind == "cqp":
        cqp.typecheck_internal(parsed)
        payload = {"schema": SCHEMA_VERSION, "check": "typecheck", "verdict": "holds", "calculus": "cqp"}
    else:
        defs, config, table = parsed
        qccs.check_wellformed(defs, config, table)
        payload = {"schema": SCHEMA_VERSION, "check": "wellformed", "verdict": "holds", "calculus": "qccs"}
    print(_emit_json(payload) if opts.format == "json" else "ok")
    return EXIT_OK


def cmd_run(args) -> int:
    opts = _options(args)
    kind, config = _load(args.file)
    if kind != "cqp":
        raise UsageError("run drives .cqp sources; use steps for .qccs behaviour")
    result = cqp.run(
        config,
        seed=opts.seed,
        script=list(opts.script),
        max_steps=opts.max_depth,
        tol=opts.tolerance,
    )
    lines = []
    for i, step in enumerate(result.steps):
        lines.append(f"{i + 1:3d}. {step.label():<14} {cqp.format_config(step.next)}")
    final = result.final
    success = cqp.has_success_barb(final)
    if isinstance(final, cqp.CqpPure):
        state = f"{','.join(final.sigma.qubit_names)} = {cqp.format_amps(final.sigma)}"
    else:
        state = cqp.format_config(final)
    if opts.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "check": "run",
            "trace": [s.label() for s in result.steps],
            "final_state": state,
            "success": success,
            "truncated": result.truncated,
            "seed": opts.seed,
            "tolerance": opts.tolerance,
        }
        print(_emit_json(payload))
    else:
        print("\n".join(lines))
        print(f"final state: {state}")
        if result.truncated:
            print("TRUNCATED: step budget reached with steps remaining")
        print("SUCCESS" if success else "NO SUCCESS")
    return EXIT_OK


def cmd_steps(args) -> int:
    opts = _options(args)
    kind, parsed = _load(args.file)
    rows = []
    if kind == "cqp":
        for step in cqp.enumerate_steps(parsed, opts.tolerance):
            rows.append({"label": step.label(), "next": cqp.format_config(step.next)})
    else:
        defs, config, table = parsed
        for step in qccs.lts_steps(config, defs, table, opts.tolerance):
            rows.append(
                {
                    "label": qccs.format_label(step.label),
                    "reduces_choice": step.reduces_choice,
                    "next": qccs.format_term(step.next.term),
                }
            )
    if opts.format == "json":
        print(_emit_json({"schema": SCHEMA_VERSION, "check": "steps", "steps": rows}))
    else:
        if not rows:
            print("no steps")
        for row in rows:
            print(f"{row['label']:<14} -> {row['next']}")
    return EXIT_OK


def cmd_translate(args) -> int:
    opts = _options(args)
    kind, config = _load(args.file)
    if kind != "cqp":
        raise UsageError("translate takes a .cqp source")
    text = encode.emit_translation(encode.encode_config(config))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# --which value -> key in criteria.CHECKS
_CHECKS = {
    "completeness": "completeness",
    "soundness": "soundness",
    "name-inv": "name_invariance",
    "qubit-inv": "qubit_invariance",
    "size": "register_size",
    "divergence": "divergence_reflection",
    "success": "success",
}


def cmd_check(args) -> int:
    opts = _options(args)
    kind, parsed = _load(args.file)
    which = args.which
    if kind == "cqp":
        check = criteria.CHECKS[_CHECKS[which]]
        verdict = check(criteria.Instance(parsed, opts.budget, opts.seed, opts.tolerance))
    else:
        defs, config, table = parsed
        lts = criteria.build_lts(config, criteria.qccs_system(defs, table, opts.tolerance), opts.budget)
        if which == "divergence":
            verdict = criteria.detect_divergence(lts)
        elif which == "success":
            may = criteria.may_reach_success(lts)
            must = criteria.must_reach_success(lts)
            verdict = criteria.Verdict(
                may.status, may.witness, may.reason, {"may": may.status, "must": must.status, **lts.stats()}
            )
        else:
            raise UsageError(f"check --which {which} needs a .cqp source")
    payload = _report(which, verdict, opts)
    if opts.format == "json":
        print(_emit_json(payload))
    else:
        print(f"{which}: {verdict.status}" + (f" ({verdict.reason})" if verdict.reason else ""))
    return _verdict_exit(verdict)


def cmd_counterexample(args) -> int:
    opts = _options(args)
    report = criteria.counterexample_suite(opts.tolerance)
    if opts.format == "json":
        payload = {
            "schema": SCHEMA_VERSION,
            "check": "counterexample",
            "verdict": "holds" if report["ok"] else "fails",
            "rows": report["rows"],
            "tolerance": opts.tolerance,
            "seed": opts.seed,
        }
        print(_emit_json(payload))
    else:
        header = f"{'input':<10} {'probe ok':<9} {'may':<7} {'must':<7} {'expected':<16} ok"
        print(header)
        print("-" * len(header))
        for row in report["rows"]:
            expected = f"{row['expected_may']}/{row['expected_must']}"
            print(
                f"{row['input']:<10} {str(row['probe_matrix_ok']):<9} {row['may']:<7} "
                f"{row['must']:<7} {expected:<16} {row['ok']}"
            )
    return EXIT_OK if report["ok"] else EXIT_FAILS


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--tolerance", type=float, default=quantum.DEFAULT_TOL)
    shared.add_argument("--max-depth", type=int, default=64)
    shared.add_argument("--max-states", type=int, default=100_000)
    shared.add_argument("--seed", type=int, default=None, help="falls back to QPROC_SEED, then 0")
    shared.add_argument("--format", choices=("text", "json"), default="text")

    parser = _Parser(prog="qproc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", parents=[shared], help="dump the parsed configuration")
    p.add_argument("file")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("typecheck", parents=[shared], help="type/well-formedness check a file")
    p.add_argument("file")
    p.set_defaults(func=cmd_typecheck)

    p = sub.add_parser("run", parents=[shared], help="execute a .cqp source")
    p.add_argument("file")
    p.add_argument("--script", default="", help="comma-separated branch choices for measurements")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("steps", parents=[shared], help="list the one-step successors")
    p.add_argument("file")
    p.set_defaults(func=cmd_steps)

    p = sub.add_parser("translate", parents=[shared], help="translate a .cqp source to .qccs")
    p.add_argument("file")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", parents=[shared], help="run an encodability criterion")
    p.add_argument("file")
    p.add_argument("--which", choices=_CHECKS, required=True)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("counterexample", parents=[shared], help="the separation suite table")
    p.set_defaults(func=cmd_counterexample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (UsageError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except QprocError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
