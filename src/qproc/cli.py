"""The qproc command line.

Subcommands tie parsing, execution, translation and checking together.
Every one but ``translate``, which writes the emitted .qccs text and takes
no ``--format json``, prints one report: as text, or under ``--format json``
as JSON carrying ``"schema": 1``.  Identical inputs, options and seed
produce byte-identical JSON.  ``run`` takes its step budget from
``--max-depth``.  On a .qccs file an encoding criterion is a usage error,
decided before any exploration.
Exit codes: 0 for ok/holds, 1 for fails or rejected input, 2 for
inconclusive, 3 for usage errors.

A call whose first argument names a subcommand, or is ``--`` followed by
one, builds that subcommand's parser alone; any other call builds all seven,
so help and usage errors read the same either way.  A command takes only
the shared options it reads: ``translate`` takes no seed or budget and
``counterexample`` no budget.  A closed stdout (``qproc ... | head -1``)
ends a call with exit code 1 and nothing on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
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


def _options(args) -> None:
    """Checks the shared options the command takes, in this order, and
    resolves three in place: ``seed`` falls back to ``QPROC_SEED``, then 0,
    ``run``'s ``script`` becomes a tuple of branch choices, and the two
    budgets become ``budget``, a ``criteria.Budget``."""
    if "seed" in args and args.seed is None:
        try:
            args.seed = int(os.environ.get("QPROC_SEED", "0"))
        except ValueError:
            raise UsageError(f"QPROC_SEED takes an integer, got {os.environ['QPROC_SEED']!r}")
    if hasattr(args, "script"):
        try:
            args.script = tuple(int(part) for part in args.script.split(",") if part != "")
        except ValueError:
            raise UsageError(f"--script takes comma-separated integers, got {args.script!r}")
    if not (0.0 < args.tolerance <= 1e-3):
        raise UsageError(f"tolerance must lie in (0, 1e-3], got {args.tolerance}")
    if "max_depth" in args:
        try:
            args.budget = criteria.Budget(args.max_depth, args.max_states)
        except ValueError as err:
            raise UsageError(str(err))


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


# Each command returns its exit code, its JSON report and its text, which
# `main` prints as one or the other; `translate` writes its own output.

def cmd_parse(args):
    kind, parsed = _load(args.file)
    if kind == "cqp":
        report = {
            "calculus": "cqp",
            "qubits": list(parsed.sigma.qubit_names),
            "state": cqp.format_amps(parsed.sigma, 9),
            "channels": list(parsed.phi),
            "process": _to_dict(parsed.term),
        }
        return EXIT_OK, report, cqp.format_config(parsed)
    defs, config, table = parsed
    report = {
        "calculus": "qccs",
        "qubits": list(config.rho.qubit_names),
        "operators": sorted(table),
        "constants": sorted(defs),
        "process": _to_dict(config.term),
    }
    return EXIT_OK, report, qccs.format_term(config.term)


def cmd_typecheck(args):
    kind, _ = _load(args.file)
    check = "typecheck" if kind == "cqp" else "wellformed"
    return EXIT_OK, {"check": check, "verdict": "holds", "calculus": kind}, "ok"


def cmd_run(args):
    kind, config = _load(args.file)
    if kind != "cqp":
        raise UsageError("run drives .cqp sources; use steps for .qccs behaviour")
    result = cqp.run(
        config,
        seed=args.seed,
        script=list(args.script),
        max_steps=args.max_depth,
        tol=args.tolerance,
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
    lines.append(f"final state: {state}")
    if result.truncated:
        lines.append("TRUNCATED: step budget reached with steps remaining")
    lines.append("SUCCESS" if success else "NO SUCCESS")
    report = {
        "check": "run",
        "trace": [s.label() for s in result.steps],
        "final_state": state,
        "success": success,
        "truncated": result.truncated,
        "seed": args.seed,
        "tolerance": args.tolerance,
    }
    return EXIT_OK, report, "\n".join(lines)


def cmd_steps(args):
    kind, parsed = _load(args.file)
    rows = []
    if kind == "cqp":
        for step in cqp.enumerate_steps(parsed, args.tolerance):
            rows.append({"label": step.label(), "next": cqp.format_config(step.next)})
    else:
        defs, config, table = parsed
        for step in qccs.lts_steps(config, defs, table, args.tolerance):
            rows.append(
                {
                    "label": qccs.format_label(step.label),
                    "reduces_choice": step.reduces_choice,
                    "next": qccs.format_term(step.next.term),
                }
            )
    text = "\n".join(f"{row['label']:<14} -> {row['next']}" for row in rows) or "no steps"
    return EXIT_OK, {"check": "steps", "steps": rows}, text


def cmd_translate(args):
    if args.format == "json":
        raise UsageError("translate writes .qccs text and has no JSON report")
    kind, config = _load(args.file)
    if kind != "cqp":
        raise UsageError("translate takes a .cqp source")
    text = encode.emit_translation(encode.encode_config(config))
    if args.output:
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK, None, None


# --which value -> key in criteria.CHECKS
_CHECKS = {
    "completeness": "completeness",
    "soundness": "soundness",
    "name-inv": "name_invariance",
    "qubit-inv": "qubit_invariance",
    "size": "register_size",
    "divergence": "divergence_reflection",
    "success": "success",
    "congruence": "congruence_preservation",
}


def cmd_check(args):
    kind, parsed = _load(args.file)
    which = args.which
    if kind == "cqp":
        check = criteria.CHECKS[_CHECKS[which]]
        verdict = check(criteria.Instance(parsed, args.budget, args.seed, args.tolerance))
    elif which not in ("divergence", "success"):
        # decided before the file's behaviour is explored
        raise UsageError(f"check --which {which} needs a .cqp source")
    else:
        defs, config, table = parsed
        lts = criteria.build_lts(config, criteria.qccs_system(defs, table, args.tolerance), args.budget)
        if which == "divergence":
            verdict = criteria.detect_divergence(lts)
        else:
            may = criteria.may_reach_success(lts)
            must = criteria.must_reach_success(lts)
            verdict = criteria.Verdict(
                may.status, may.witness, may.reason, {"may": may.status, "must": must.status, **lts.stats()}
            )
    report = {"check": which, **verdict.as_dict(), "tolerance": args.tolerance, "seed": args.seed}
    text = f"{which}: {verdict.status}" + (f" ({verdict.reason})" if verdict.reason else "")
    return _verdict_exit(verdict), report, text


def cmd_counterexample(args):
    suite = criteria.counterexample_suite(args.tolerance)
    report = {
        "check": "counterexample",
        "verdict": "holds" if suite["ok"] else "fails",
        "rows": suite["rows"],
        "tolerance": args.tolerance,
        "seed": args.seed,
    }
    header = f"{'input':<10} {'probe ok':<9} {'may':<7} {'must':<7} {'expected':<16} ok"
    lines = [header, "-" * len(header)]
    for row in suite["rows"]:
        expected = f"{row['expected_may']}/{row['expected_must']}"
        lines.append(
            f"{row['input']:<10} {str(row['probe_matrix_ok']):<9} {row['may']:<7} "
            f"{row['must']:<7} {expected:<16} {row['ok']}"
        )
    return (EXIT_OK if suite["ok"] else EXIT_FAILS), report, "\n".join(lines)


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


_SHARED = (
    ("--tolerance", {"type": float, "default": quantum.DEFAULT_TOL}),
    ("--max-depth", {"type": int, "default": criteria.Budget().max_depth}),
    ("--max-states", {"type": int, "default": criteria.Budget().max_states}),
    ("--seed", {"type": int, "default": None, "help": "falls back to QPROC_SEED, then 0"}),
    ("--format", {"choices": ("text", "json"), "default": "text"}),
)

# the shared options a command does not read, and so does not take
_UNREAD = {
    "translate": ("--max-depth", "--max-states", "--seed"),
    "counterexample": ("--max-depth", "--max-states"),
}


def _add_arguments(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """Fills ``parser`` as the subcommand ``name``: the shared options it
    reads, then its own arguments, then its handler and name as defaults."""
    for flag, kwargs in _SHARED:
        if flag not in _UNREAD.get(name, ()):
            parser.add_argument(flag, **kwargs)
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
        _options(args)
        code, report, text = args.func(args)
        if report is not None:
            print(_emit_json({"schema": SCHEMA_VERSION, **report}) if args.format == "json" else text)
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
