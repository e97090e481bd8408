"""The qproc command line.

Subcommands tie parsing, execution, translation and checking together with
reproducible outputs: identical inputs, options and seed produce
byte-identical JSON.  Exit codes: 0 for ok/holds, 1 for fails or rejected
input, 2 for inconclusive, 3 for usage errors.

A call whose first argument names a subcommand, or is ``--`` followed by
one, builds that subcommand's parser alone; any other call builds all seven,
so help and usage errors read the same either way.  A closed stdout
(``qproc ... | head -1``) ends a call with exit code 1 and nothing on
stderr.
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


# `qproc -h` shows the docstring's first two paragraphs
_DESCRIPTION = "\n\n".join(__doc__.split("\n\n")[:2]) if __doc__ else None


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
    """Returns ("cqp", config) or ("qccs", (defs, config, table)); a source
    that does not typecheck, or is not well formed, is rejected."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(f"{path} is not UTF-8 text (byte {err.start})")
    if path.endswith(".cqp"):
        config = cqp.parse_cqp(text)
        cqp.typecheck_internal(config)
        return "cqp", config
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
    kind, _ = _load(args.file)
    check = "typecheck" if kind == "cqp" else "wellformed"
    payload = {"schema": SCHEMA_VERSION, "check": check, "verdict": "holds", "calculus": kind}
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


_FILE = (("file",), {})

# name -> (help, arguments after the shared options, handler); a table, so
# that a call naming a command builds that command's parser alone
_COMMANDS = {
    "parse": ("dump the parsed configuration", [_FILE], cmd_parse),
    "typecheck": ("type/well-formedness check a file", [_FILE], cmd_typecheck),
    "run": (
        "execute a .cqp source",
        [_FILE, (("--script",), {"default": "", "help": "comma-separated branch choices for measurements"})],
        cmd_run,
    ),
    "steps": ("list the one-step successors", [_FILE], cmd_steps),
    "translate": (
        "translate a .cqp source to .qccs",
        [_FILE, (("-o", "--output"), {"default": None})],
        cmd_translate,
    ),
    "check": (
        "run an encodability criterion",
        [_FILE, (("--which",), {"choices": _CHECKS, "required": True})],
        cmd_check,
    ),
    "counterexample": ("the separation suite table", [], cmd_counterexample),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Fills ``parser`` as the subcommand ``name``: the shared options, then
    its own arguments, then its handler and name as defaults."""
    parser.add_argument("--tolerance", type=float, default=quantum.DEFAULT_TOL)
    parser.add_argument("--max-depth", type=int, default=64)
    parser.add_argument("--max-states", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=None, help="falls back to QPROC_SEED, then 0")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    _, arguments, handler = _COMMANDS[name]
    for flags, kwargs in arguments:
        parser.add_argument(*flags, **kwargs)
    parser.set_defaults(func=handler, command=name)
    return parser


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of one qproc call.  Where ``command`` names a subcommand,
    it is that subcommand's own parser, which parses the arguments after the
    name; otherwise (help, no or an unknown subcommand) it is the full
    parser with all seven subparsers, so the listing and the usage errors
    stay whole."""
    if command in _COMMANDS:
        return _add_arguments(_Parser(prog=f"qproc {command}"), command)
    parser = _Parser(prog="qproc", description=_DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), name)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if len(argv) > 1 and argv[0] == "--" and argv[1] in _COMMANDS:
        argv = argv[1:]  # argparse would read the "--" as the command's name
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv[1:] if command else argv)
        code = args.func(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader has gone: what is left for stdout goes to the null
        # device, so the interpreter's last flush does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_FAILS
    except (UsageError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except QprocError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FAILS


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
