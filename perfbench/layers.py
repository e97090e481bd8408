"""Per-layer tracing of qproc from outside the program.

Each traced function is replaced on its module by a wrapper that records
the number of calls, inclusive busy time and self time (its span minus the
spans of the traced functions it calls).  Callers inside qproc look these
functions up through the module -- ``criteria`` calls ``qccs.canonical_key``
and ``encode.encode_config``, ``qccs`` calls ``quantum.superop_apply`` -- so
the wrappers see those calls too.  ``criteria.cqp_system`` and
``criteria.qccs_system`` capture ``canonical_key`` when a ``System`` is
built, so the wrappers must be installed before any is built.

``encode.emit_qccs`` has no caller in the package: the ``translate``
subcommand emits through ``encode.emit_translation``, which is traced in
its place.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


def _steps(layer, args, kwargs, result):
    layer.counts["steps"] += len(result)


def _entries(layer, args, kwargs, result):
    rho = args[2] if len(args) > 2 else kwargs["rho"]
    layer.counts["entries"] += 4 ** rho.num_qubits


def _hits(layer, args, kwargs, result):
    layer.counts["true"] += bool(result)


def _lts_size(layer, args, kwargs, lts):
    layer.counts["states"] += len(lts.states)
    layer.counts["edges"] += len(lts.edges)


def _pairs(layer, args, kwargs, verdict):
    layer.counts["pairs"] += verdict.stats.get("pairs", 0)


# (module, function, count hook or None), in the order the layer table prints.
TRACED = (
    ("quantum", "superop_apply", _entries),
    ("quantum", "raw_trace_after", None),
    ("cqp", "enumerate_steps", _steps),
    ("cqp", "canonical_key", None),
    ("cqp", "congruent", _hits),
    ("cqp", "parse_cqp", None),
    ("qccs", "lts_steps", _steps),
    ("qccs", "reduce_steps", _steps),
    ("qccs", "canonical_key", None),
    ("qccs", "congruent", _hits),
    ("qccs", "parse_qccs", None),
    ("encode", "encode_config", None),
    ("encode", "emit_translation", None),
    ("criteria", "build_lts", _lts_size),
    ("criteria", "corr_sim_check", _pairs),
    ("criteria", "gen_config", None),
    ("cli", "main", None),
)

# Counts and ratios beyond calls/busy/self: (metric, unit, better).
DERIVED = (
    ("quantum.superop_apply.entries", "count", "lower"),
    ("cqp.enumerate_steps.steps", "count", "lower"),
    ("qccs.lts_steps.steps", "count", "lower"),
    ("qccs.reduce_steps.steps", "count", "lower"),
    ("cqp.congruent.true_share", "share", "higher"),
    ("qccs.congruent.true_share", "share", "higher"),
    ("criteria.build_lts.states", "count", "lower"),
    ("criteria.build_lts.edges", "count", "lower"),
    ("criteria.build_lts.revisit_share", "share", "higher"),
    ("criteria.corr_sim_check.pairs", "count", "lower"),
    ("criteria.fallback_games", "count", "lower"),
    ("other.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def layer_names() -> list[str]:
    return [f"{module}.{fn}" for module, fn, _ in TRACED]


def metric_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric the traced run reports: (name, unit, better)."""
    specs = []
    for name in layer_names():
        specs += [
            (f"{name}.calls", "count", "lower"),
            (f"{name}.busy_s", "s", "lower"),
            (f"{name}.self_s", "s", "lower"),
        ]
    return specs + list(DERIVED)


@dataclass
class Layer:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=lambda: {"steps": 0, "entries": 0, "true": 0, "states": 0, "edges": 0, "pairs": 0})


class Tracer:
    """Wraps the functions in ``TRACED`` while active; restores them on exit."""

    def __init__(self):
        self.layers = {name: Layer() for name in layer_names()}
        self._stack = [0.0]  # time spent in traced children, one slot per open span
        self._saved = []

    def __enter__(self):
        for module_name, fn_name, hook in TRACED:
            module = importlib.import_module(f"qproc.{module_name}")
            original = getattr(module, fn_name)
            self._saved.append((module, fn_name, original))
            setattr(module, fn_name, self._wrap(original, self.layers[f"{module_name}.{fn_name}"], hook))
        return self

    def __exit__(self, *exc):
        for module, fn_name, original in reversed(self._saved):
            setattr(module, fn_name, original)
        self._saved.clear()

    def _wrap(self, fn, layer, hook):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                stack[-1] += span
                layer.calls += 1
                layer.busy_s += span
                layer.self_s += span - children
            if hook is not None:
                hook(layer, args, kwargs, result)
            return result

        return traced

    def metrics(self, wall_s: float, untraced_wall_s: float, fallback_games: int) -> dict[str, float]:
        out = {}
        for name, layer in self.layers.items():
            out[f"{name}.calls"] = layer.calls
            out[f"{name}.busy_s"] = layer.busy_s
            out[f"{name}.self_s"] = layer.self_s
        by_name = self.layers
        out["quantum.superop_apply.entries"] = by_name["quantum.superop_apply"].counts["entries"]
        out["cqp.enumerate_steps.steps"] = by_name["cqp.enumerate_steps"].counts["steps"]
        out["qccs.lts_steps.steps"] = by_name["qccs.lts_steps"].counts["steps"]
        out["qccs.reduce_steps.steps"] = by_name["qccs.reduce_steps"].counts["steps"]
        for calc in ("cqp", "qccs"):
            cong = by_name[f"{calc}.congruent"]
            out[f"{calc}.congruent.true_share"] = cong.counts["true"] / cong.calls if cong.calls else 0.0
        lts = by_name["criteria.build_lts"].counts
        out["criteria.build_lts.states"] = lts["states"]
        out["criteria.build_lts.edges"] = lts["edges"]
        out["criteria.build_lts.revisit_share"] = (
            (lts["edges"] - lts["states"] + by_name["criteria.build_lts"].calls) / lts["edges"] if lts["edges"] else 0.0
        )
        out["criteria.corr_sim_check.pairs"] = by_name["criteria.corr_sim_check"].counts["pairs"]
        out["criteria.fallback_games"] = fallback_games
        out["other.self_s"] = wall_s - sum(layer.self_s for layer in by_name.values())
        out["trace.wall_s"] = wall_s
        out["trace.untraced_wall_s"] = untraced_wall_s
        out["trace.overhead_s"] = wall_s - untraced_wall_s
        return out
