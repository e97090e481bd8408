"""Bounded state-space exploration and executable encodability checks.

Everything here is per-instance: a check explores the finite behaviour of
one configuration (and of its translation) within a budget and returns a
verdict.  Universally quantified statements are corroborated by running
the checks over many generated configurations, never proved.

An ``Instance`` holds one source configuration with its budget, seed and
tolerance, and builds its translation and both explorations lazily; every
check in ``CHECKS`` is a function of an ``Instance``, and the campaign and
the CLI run them from that one table.

States are deduplicated modulo structural congruence: a structural key
picks a bucket and the quantum states in it are compared within the
tolerance, so exploration terminates on the loops the calculi can express
and no verdict hinges on where a float falls.

Completeness matches a source step to a target step by congruence or,
failing that, by the measurement-choice law, and by nothing else.  The law
is the expansion-law step (Milner 1989) of the paper's
operational-correspondence proof.  When a process measures ``qs`` beside
parallel components ``R``, the translation of the resulting distribution
is ``Σ_i if tr(E{i}[qs]) != 0 then E{i}[qs].(P_i | R)``, while the target
stepped by ``M[qs]`` is ``(Σ_i if ... then E{i}[qs].P_i) | R``.
``qccs.factor_measurement_choices`` moves such shared components ``R`` out
of the choice; the law accepts a candidate congruent to the translation
once both are factored.  Its side conditions are what the argument
needs: ``R`` occurs in every branch, so both sides run it whatever the
outcome; it has no free qubit in ``qs``, so a step of ``R`` taken before a
branch is picked commutes with that branch's ``E{i}[qs]``; and the guards
cover every outcome of ``qs``, so some branch is always enabled and the
choice side catches up with such a step by picking a branch first.  The two
sides are then correspondence similar, though not bisimilar (criterion 6),
so the law is a sufficient condition for a match and never a congruence:
the state keys and ``qccs.congruent`` do not use it.  Both ways compare the
quantum states, so a translation that steps to the wrong state fails
completeness.  ``corr_sim_check`` is the reference the tests check the law
against, and ``bisim_check`` is the diagnostic of criterion 6.
"""

from __future__ import annotations

import random
import re
from collections import defaultdict, deque
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import cqp, encode, qccs, quantum
from .errors import NoCloningViolation
from .quantum import DEFAULT_TOL


@dataclass(frozen=True)
class Budget:
    max_depth: int = 64
    max_states: int = 100_000

    def __post_init__(self):
        if self.max_depth <= 0 or self.max_states <= 0:
            raise ValueError("budgets must be positive")


@dataclass
class Verdict:
    status: str  # holds | fails | inconclusive
    witness: list[str] | None = None
    reason: str | None = None
    stats: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.status == "holds"

    @property
    def fails(self) -> bool:
        return self.status == "fails"

    def as_dict(self) -> dict:
        out = {"verdict": self.status, "stats": self.stats}
        if self.witness is not None:
            out["witness_trace"] = self.witness
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _holds(**stats) -> Verdict:
    return Verdict("holds", stats=stats)


def _fails(witness, **stats) -> Verdict:
    return Verdict("fails", witness=list(witness), stats=stats)


def _inconclusive(reason, **stats) -> Verdict:
    return Verdict("inconclusive", reason=reason, stats=stats)


# -- transition systems -------------------------------------------------------

@dataclass
class System:
    """Adapter: how to step, hash, compare and observe one calculus."""

    steps: callable
    key: callable
    equal: callable
    barb: callable
    size: callable


def cqp_system(tol: float = DEFAULT_TOL) -> System:
    def steps(config):
        return [(s.label(), s.next, False) for s in cqp.enumerate_steps(config, tol=tol)]

    return System(
        steps=steps,
        key=cqp.canonical_key,
        equal=lambda a, b: cqp.congruent(a, b, tol),
        barb=cqp.has_success_barb,
        size=lambda c: len(c.sigma_names),
    )


def qccs_system(
    defs=None,
    table=None,
    tol: float = DEFAULT_TOL,
    labelled: bool = False,
) -> System:
    defs = defs or {}
    table = table or {}

    def steps(config):
        stepper = qccs.lts_steps if labelled else qccs.reduce_steps
        return [
            (qccs.format_label(s.label), s.next, s.reduces_choice)
            for s in stepper(config, defs, table, tol)
        ]

    return System(
        steps=steps,
        key=qccs.canonical_key,
        equal=lambda a, b: qccs.congruent(a, b, tol),
        barb=lambda c: qccs.has_success_barb(c, defs),
        size=lambda c: c.rho.num_qubits,
    )


class StateIndex:
    """States up to a system's congruence.

    The system's key names the structure only, never an amplitude or a
    matrix entry, so every state congruent to a stored one lands in its
    bucket; the system's ``equal`` confirms a hit, comparing the quantum
    part within the tolerance.
    """

    def __init__(self, system: System):
        self.key = system.key
        self.equal = system.equal
        self.states: list = []
        self.buckets: dict[str, list[int]] = {}

    def find(self, state) -> int | None:
        """The position of the first stored state equal to ``state``."""
        for i in self.buckets.get(self.key(state), ()):
            if self.equal(self.states[i], state):
                return i
        return None

    def add(self, state) -> int:
        self.buckets.setdefault(self.key(state), []).append(len(self.states))
        self.states.append(state)
        return len(self.states) - 1


@dataclass
class Lts:
    states: list
    edges: list[tuple[int, str, int, bool]]  # src, label, dst, reduces-choice
    barbs: list[bool]
    sizes: list[int]
    truncated: set[int]
    parents: list[tuple[int, str] | None]
    initial: int = 0

    @property
    def complete(self) -> bool:
        return not self.truncated

    def path_to(self, i: int) -> list[str]:
        labels = []
        while self.parents[i] is not None:
            parent, label = self.parents[i]
            labels.append(label)
            i = parent
        return labels[::-1]

    def stats(self) -> dict:
        return {
            "states": len(self.states),
            "edges": len(self.edges),
            "truncated": bool(self.truncated),
        }


def build_lts(initial, system: System, budget: Budget = Budget()) -> Lts:
    index = StateIndex(system)
    index.add(initial)
    states = index.states
    barbs = [system.barb(initial)]
    sizes = [system.size(initial)]
    parents: list = [None]
    edges: list[tuple[int, str, int, bool]] = []
    truncated: set[int] = set()
    queue = deque([(0, 0)])
    while queue:
        idx, depth = queue.popleft()
        if depth >= budget.max_depth:
            truncated.add(idx)
            continue
        for label, succ, choice in system.steps(states[idx]):
            target = index.find(succ)
            if target is None:
                if len(states) >= budget.max_states:
                    truncated.add(idx)
                    continue
                target = index.add(succ)
                barbs.append(system.barb(succ))
                sizes.append(system.size(succ))
                parents.append((idx, label))
                queue.append((target, depth + 1))
            edges.append((idx, label, target, choice))
    return Lts(states, edges, barbs, sizes, truncated, parents)


# -- reachability verdicts ------------------------------------------------------

def _succ_map(lts: Lts) -> dict[int, list[tuple[str, int, bool]]]:
    out: dict[int, list[tuple[str, int, bool]]] = {i: [] for i in range(len(lts.states))}
    for src, label, dst, choice in lts.edges:
        out[src].append((label, dst, choice))
    return out


def may_reach_success(lts: Lts) -> Verdict:
    succ = _succ_map(lts)
    seen = {lts.initial}
    queue = deque([lts.initial])
    while queue:
        i = queue.popleft()
        if lts.barbs[i]:
            return _holds(**lts.stats())
        for _, dst, _ in succ[i]:
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    if lts.truncated & seen:
        return _inconclusive("truncation", **lts.stats())
    deadlocks = [i for i in seen if not succ[i]]
    witness = lts.path_to(deadlocks[0]) if deadlocks else []
    return _fails(witness, **lts.stats())


def must_reach_success(lts: Lts) -> Verdict:
    """Every maximal finite path visits a success state.  Infinite paths are
    outside the quantifier, so barb-free cycles do not falsify the verdict;
    paths cut by the budget make it inconclusive."""
    succ = _succ_map(lts)
    if lts.barbs[lts.initial]:
        return _holds(**lts.stats())
    seen = {lts.initial}
    queue = deque([lts.initial])
    while queue:
        i = queue.popleft()
        if i in lts.truncated:
            return _inconclusive("truncation", **lts.stats())
        if not succ[i]:
            return _fails(lts.path_to(i), **lts.stats())
        for _, dst, _ in succ[i]:
            if dst not in seen and not lts.barbs[dst]:
                seen.add(dst)
                queue.append(dst)
    return _holds(**lts.stats())


def detect_divergence(lts: Lts) -> Verdict:
    """Holds means: an infinite run exists (a reachable cycle)."""
    succ = _succ_map(lts)
    color = {}  # 1 in progress, 2 done
    stack = [(lts.initial, iter([d for _, d, _ in succ[lts.initial]]))]
    color[lts.initial] = 1
    while stack:
        node, it = stack[-1]
        advanced = False
        for nxt in it:
            if color.get(nxt) == 1:
                return _holds(cycle=True, **lts.stats())
            if nxt not in color:
                color[nxt] = 1
                stack.append((nxt, iter([d for _, d, _ in succ[nxt]])))
                advanced = True
                break
        if not advanced:
            color[node] = 2
            stack.pop()
    if lts.truncated:
        return _inconclusive("truncation", **lts.stats())
    return _fails([], cycle=False, **lts.stats())


# -- simulation games --------------------------------------------------------------

def _strong_after(lts: Lts) -> list[dict[str, list[int]]]:
    """For each state i, the states j with  i --label--> j,  by label."""
    out: list[dict[str, list[int]]] = [{} for _ in lts.states]
    for src, label, dst, _ in lts.edges:
        out[src].setdefault(label, []).append(dst)
    return out


def _tau_reach(strong) -> list[set[int]]:
    """For each state i, the states j with  i ==> j."""
    out = []
    for i in range(len(strong)):
        seen = {i}
        queue = deque([i])
        while queue:
            for dst in strong[queue.popleft()].get("tau", ()):
                if dst not in seen:
                    seen.add(dst)
                    queue.append(dst)
        out.append(seen)
    return out


def _weak_after(strong, reach) -> list[dict[str, set[int]]]:
    """For each state i, the states j with  i ==> --label--> j,  by label;
    the label tau collapses to  i ==> j."""
    out = []
    for reached in reach:
        after = {"tau": reached}
        for k in reached:
            for label, dsts in strong[k].items():
                if label != "tau":
                    after.setdefault(label, set()).update(dsts)
        out.append(after)
    return out


def _greatest(pairs: set, ok) -> set:
    """The greatest subset of ``pairs`` on which every pair (i, j) passes
    ``ok(i, j, related)``, where ``related[i]`` holds the j still paired
    with i.  Failing pairs are dropped until none fails; the result is the
    unique greatest fixpoint, whatever the order of removal."""
    related = defaultdict(set)
    for i, j in pairs:
        related[i].add(j)
    changed = True
    while changed:
        changed = False
        for i, j in list(pairs):
            if not ok(i, j, related):
                pairs.discard((i, j))
                related[i].discard(j)
                changed = True
    return pairs


def corr_sim_check(lts1: Lts, lts2: Lts, size_sensitive: bool = False) -> Verdict:
    """Greatest correspondence simulation relating the two initial states.

    Clause one matches every step of the first system strongly; clause two
    lets the first system catch up weakly while the second finishes its
    step.  Related states must agree on reachable success, and optionally
    on register size.
    """
    if not (lts1.complete and lts2.complete):
        return _inconclusive("truncation")
    strong1, strong2 = _strong_after(lts1), _strong_after(lts2)
    reach1, reach2 = _tau_reach(strong1), _tau_reach(strong2)
    weak1 = _weak_after(strong1, reach1)
    may1 = [any(lts1.barbs[k] for k in r) for r in reach1]
    may2 = [any(lts2.barbs[k] for k in r) for r in reach2]

    def ok(i, j, related):
        return all(
            not related[i2].isdisjoint(strong2[j].get(label, ()))
            for label, dsts in strong1[i].items()
            for i2 in dsts
        ) and all(
            any(not related[i2].isdisjoint(reach2[j2]) for i2 in weak1[i].get(label, ()))
            for label, dsts in strong2[j].items()
            for j2 in dsts
        )

    pairs = _greatest(
        {
            (i, j)
            for i in range(len(lts1.states))
            for j in range(len(lts2.states))
            if may1[i] == may2[j] and (not size_sensitive or lts1.sizes[i] == lts2.sizes[j])
        },
        ok,
    )
    stats = {"pairs": len(pairs), "states": (len(lts1.states), len(lts2.states))}
    if (lts1.initial, lts2.initial) in pairs:
        return _holds(**stats)
    return _fails([], **stats)


def bisim_check(lts1: Lts, lts2: Lts) -> Verdict:
    """Diagnostic strong bisimulation game with success-barb agreement;
    exists to reproduce the negative example, not as a gate."""
    if not (lts1.complete and lts2.complete):
        return _inconclusive("truncation")
    strong1, strong2 = _strong_after(lts1), _strong_after(lts2)

    def ok(i, j, related):
        return all(
            not related[i2].isdisjoint(strong2[j].get(label, ()))
            for label, dsts in strong1[i].items()
            for i2 in dsts
        ) and all(
            any(j2 in related[i2] for i2 in strong1[i].get(label, ()))
            for label, dsts in strong2[j].items()
            for j2 in dsts
        )

    pairs = _greatest(
        {
            (i, j)
            for i in range(len(lts1.states))
            for j in range(len(lts2.states))
            if lts1.barbs[i] == lts2.barbs[j]
        },
        ok,
    )
    if (lts1.initial, lts2.initial) in pairs:
        return _holds(pairs=len(pairs))
    return _fails([], pairs=len(pairs))


# -- encoding-level helpers -----------------------------------------------------------

def _check_injective(gamma: dict, register: tuple[str, ...]) -> None:
    """Qubit renamings must be injective (no cloning by renaming)."""
    renamed = [gamma[q] for q in register if q in gamma]
    if len(set(renamed)) != len(renamed):
        raise NoCloningViolation(f"non-injective qubit substitution {dict(gamma)}")


def rename_source(config: cqp.CqpConfig, gamma: dict) -> cqp.CqpConfig:
    """The configuration with its free channel and qubit names renamed by
    ``gamma``: in the term, the channel list and the register alike."""
    _check_injective(gamma, config.sigma_names)
    phi = tuple(gamma.get(c, c) for c in config.phi)
    term = cqp.substitute(config.term, gamma)

    def rename(sigma: quantum.StateVector) -> quantum.StateVector:
        return quantum.StateVector(tuple(gamma.get(n, n) for n in sigma.qubit_names), sigma.amps)

    if isinstance(config, cqp.CqpPure):
        return cqp.CqpPure(rename(config.sigma), phi, term)
    cases = tuple((p, rename(s)) for p, s in config.cases)
    return cqp.CqpDist(cases, config.var, config.r, phi, term)


def rename_target(config: qccs.QccsConfig, gamma: dict) -> qccs.QccsConfig:
    """``rename_source`` for a translation.  The outermost restriction
    carries the configuration's channel list, so its channels are renamed
    as free names, not alpha-converted."""
    _check_injective(gamma, config.rho.qubit_names)
    rho = quantum.DensityMatrix(
        tuple(gamma.get(n, n) for n in config.rho.qubit_names), config.rho.entries
    )
    term = config.term
    if isinstance(term, qccs.Restrict):
        term = qccs.Restrict(qccs.substitute(term.cont, gamma), tuple(gamma.get(c, c) for c in term.chans))
    else:
        term = qccs.substitute(term, gamma)
    return qccs.QccsConfig(term, rho)


def _target_equal(c1: qccs.QccsConfig, c2: qccs.QccsConfig, tol: float) -> bool:
    return c1.term == c2.term and c1.rho.qubit_names == c2.rho.qubit_names and quantum.within_tol(
        c1.rho.entries, c2.rho.entries, tol
    )


def _factor(config: qccs.QccsConfig) -> qccs.QccsConfig:
    return qccs.QccsConfig(qccs.factor_measurement_choices(config.term), config.rho)


# -- one instance ------------------------------------------------------------------------

@dataclass
class Instance:
    """One source configuration and its translation, explored on demand.

    Each part is built on first use and kept, so the checks run over one
    instance share its explorations and translations, and a single check
    builds only what it reads.  The source itself is translated (and
    typechecked) once, as ``root``.  ``encode.encode_config``,
    ``qccs.reduce_steps`` and ``build_lts`` are looked up on their modules
    at each call, so a wrapper installed there (as ``perfbench/layers.py``
    does) sees every call.

    Completeness and the target exploration step translations through one
    reduction table (``reductions``), so each configuration is stepped once
    per instance.  The table is exact: its key is the interned term, the
    register's name order and the bytes of rho's entries, and equal keys
    are equal inputs to the deterministic ``qccs.reduce_steps``, so no
    tolerance decides a hit.

    Every translation goes through ``translate``, which hands
    ``encode.encode_config`` the instance's first state vector with the
    same names and amplitude bytes, so the pure register states of one
    instance that are equal byte for byte share one density matrix
    (``quantum.StateVector.density``).  Both tables live and die with
    their instance, and so does every shared matrix but one: the source's
    own vector keeps its matrix, as the source keeps its congruence key.
    """

    source: cqp.CqpConfig
    budget: Budget = Budget()
    seed: int = 0
    tol: float = DEFAULT_TOL
    _reductions: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _registers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def translate(self, config: cqp.CqpConfig, check: bool = False) -> qccs.QccsConfig:
        """``encode.encode_config(config, check)``, with a pure
        configuration's state vector replaced by the instance's first one
        with the same names and amplitude bytes.  The key is exact, so the
        translation is the same as without the replacement."""
        if isinstance(config, cqp.CqpPure):
            sigma = config.sigma
            shared = self._registers.setdefault((sigma.qubit_names, sigma.amps.tobytes()), sigma)
            if shared is not sigma:
                config = cqp.CqpPure(shared, config.phi, config.term)
        return encode.encode_config(config, check)

    def reductions(self, config: qccs.QccsConfig) -> tuple[qccs.QccsStep, ...]:
        """``qccs.reduce_steps`` of a translation, from the reduction table;
        a tuple, since every caller with an equal key gets the same one."""
        rho = config.rho
        key = (config.term, rho.qubit_names, rho.entries.tobytes())
        steps = self._reductions.get(key)
        if steps is None:
            steps = self._reductions[key] = tuple(qccs.reduce_steps(config, {}, {}, self.tol))
        return steps

    @cached_property
    def root(self) -> qccs.QccsConfig:
        """The source's checked translation."""
        return self.translate(self.source, check=True)

    @cached_property
    def source_lts(self) -> Lts:
        return build_lts(self.source, cqp_system(self.tol), self.budget)

    @cached_property
    def encoded(self) -> list[qccs.QccsConfig]:
        """The translation of each explored source state, by index."""
        lts = self.source_lts
        return [
            self.root if idx == lts.initial else self.translate(state)
            for idx, state in enumerate(lts.states)
        ]

    @cached_property
    def target_lts(self) -> Lts:
        def steps(config):
            return [(qccs.format_label(s.label), s.next, s.reduces_choice) for s in self.reductions(config)]

        return build_lts(self.root, replace(qccs_system(tol=self.tol), steps=steps), self.budget)

    @cached_property
    def completeness(self) -> Verdict:
        """Match every explored source step with one target step.

        A permutation step is emulated by doing nothing.  Any other step is
        matched by the first target reduction of its source's translation
        that is congruent to the translation of its successor, or failing
        that, by the first of equal register size that is congruent to it
        once both are factored by the measurement-choice law (module
        docstring).  A step that neither matches fails the check, so every
        edge is decided on the translations' terms and states alike.  The
        stats count the edges matched (``matched_edges``) and those the law
        matched (``law_matches``)."""
        lts, tol = self.source_lts, self.tol
        law_matches = 0
        for src, label, dst, _ in lts.edges:
            enc_src, enc_dst = self.encoded[src], self.encoded[dst]
            if label.startswith("R-Perm"):
                # emulated by doing nothing.  The stored successor may be an
                # alpha-rebound representative, so rebuild the permuted
                # configuration itself: its translation must be a pure register
                # reorder of the source translation, and the representative must
                # be congruent to it.
                perm = tuple(int(x) for x in re.findall(r"\d+", label))
                stepped = cqp.apply_perm(lts.states[src], perm).next
                enc_stepped = self.translate(stepped)
                if (
                    enc_src.term == enc_stepped.term
                    and quantum.density_equal_mod_order(enc_src.rho, enc_stepped.rho, tol)
                    and cqp.congruent(stepped, lts.states[dst], tol)
                ):
                    continue
                return _fails(lts.path_to(dst) or [label], edge=label, **lts.stats())
            candidates = [cand.next for cand in self.reductions(enc_src)]
            if any(qccs.congruent(enc_dst, cand, tol) for cand in candidates):
                continue
            # the measurement-choice law: congruent once the components
            # every branch shares are factored out of the choice
            factored = _factor(enc_dst)
            if any(
                cand.rho.num_qubits == enc_dst.rho.num_qubits and qccs.congruent(factored, _factor(cand), tol)
                for cand in candidates
            ):
                law_matches += 1
                continue
            return _fails(lts.path_to(dst) or [label], edge=label, **lts.stats())
        if lts.truncated:
            return _inconclusive("budget", matched_edges=len(lts.edges), **lts.stats())
        return _holds(matched_edges=len(lts.edges), law_matches=law_matches, **lts.stats())


# -- the checks, each over one instance ----------------------------------------------------

def _renaming_commutes(inst: Instance, gamma: dict) -> Verdict:
    """Structural equality of translate-then-rename and rename-then-translate."""
    left = inst.translate(rename_source(inst.source, gamma), check=True)
    if _target_equal(left, rename_target(inst.root, gamma), inst.tol):
        return _holds()
    return _fails([f"gamma={gamma}"])


def check_name_invariance(inst: Instance, gamma: dict) -> Verdict:
    """The translation commutes with the channel renaming ``gamma``.

    The renaming must avoid integer literals: measurement introduces them on
    both the source branch rule and the target choice, so remapping them is
    the name-clash case the invariance statement excludes.
    """
    clashes = [c for c in gamma if c.isdigit()]
    if clashes:
        return _inconclusive(f"renaming remaps measurement literals {clashes}")
    return _renaming_commutes(inst, gamma)


def check_qubit_invariance(inst: Instance, gamma: dict) -> Verdict:
    """The translation commutes with the injective qubit renaming ``gamma``."""
    return _renaming_commutes(inst, gamma)


def _canonical_register_order(names, initial_order):
    base = [n for n in initial_order if n in names]
    extras = sorted(set(names) - set(initial_order), key=lambda n: (len(n), n))
    return tuple(base + extras)


def check_completeness(inst: Instance) -> Verdict:
    return inst.completeness


def check_soundness(inst: Instance) -> Verdict:
    """Every explored target derivative is a choice-resolution away from the
    translation of a source derivative (with permutations and branch picks
    inserted on the source side)."""
    src_lts, tgt_lts = inst.source_lts, inst.target_lts
    translations = StateIndex(qccs_system(tol=inst.tol))
    for idx, state in enumerate(src_lts.states):
        translations.add(inst.encoded[idx])
        if isinstance(state, cqp.CqpPure):
            order = _canonical_register_order(state.sigma.qubit_names, inst.source.sigma_names)
            if order != state.sigma.qubit_names:
                restored = cqp.restore_perm(state, order).next
                translations.add(inst.translate(restored))

    succ = _succ_map(tgt_lts)
    translated = [translations.find(s) is not None for s in tgt_lts.states]
    unmatched = []
    for t_idx in range(len(tgt_lts.states)):
        # choice-only completions: follow edges that resolve a choice
        closure = {t_idx}
        queue = deque([t_idx])
        found = translated[t_idx]
        while queue and not found:
            cur = queue.popleft()
            for _, dst, choice in succ[cur]:
                if choice and dst not in closure:
                    closure.add(dst)
                    if translated[dst]:
                        found = True
                        break
                    queue.append(dst)
        if not found:
            unmatched.append(t_idx)
    stats = {
        "source_states": len(src_lts.states),
        "target_states": len(tgt_lts.states),
        "truncated": bool(src_lts.truncated or tgt_lts.truncated),
    }
    if src_lts.truncated or tgt_lts.truncated:
        # an unmatched target may have its source preimage beyond the budget
        return _inconclusive("budget", unmatched=len(unmatched), **stats)
    if unmatched:
        return _fails(tgt_lts.path_to(unmatched[0]), **stats)
    return _holds(**stats)


def check_register_size(inst: Instance) -> Verdict:
    """Translations never change the register size: at every explored
    source state, the root included.  Completeness matches each step with a
    target step whose register agrees with its successor's translation, so
    this holds along every matched step once completeness holds.  A
    completeness failure leaves those steps unmatched, so it makes this
    check inconclusive, not failing."""
    lts = inst.source_lts
    for idx, enc in enumerate(inst.encoded):
        if enc.rho.num_qubits != lts.sizes[idx]:
            return _fails(
                [*lts.path_to(idx), f"sizes {lts.sizes[idx]} vs {enc.rho.num_qubits}"], **lts.stats()
            )
    verdict = inst.completeness
    if not verdict.holds:
        return _inconclusive("completeness fails" if verdict.fails else verdict.reason, **verdict.stats)
    return _holds(matched_edges=verdict.stats["matched_edges"], **lts.stats())


def check_divergence_reflection(inst: Instance) -> Verdict:
    src_div = detect_divergence(inst.source_lts)
    tgt_div = detect_divergence(inst.target_lts)
    stats = {"source": src_div.status, "target": tgt_div.status}
    if tgt_div.status == "inconclusive" or src_div.status == "inconclusive":
        return _inconclusive("truncation", **stats)
    if tgt_div.holds and not src_div.holds:
        return _fails([], **stats)
    return _holds(**stats)


def check_success(inst: Instance) -> Verdict:
    """May- and must-success agree between a source and its translation."""
    src_lts, tgt_lts = inst.source_lts, inst.target_lts
    results = {
        "source_may": may_reach_success(src_lts).status,
        "target_may": may_reach_success(tgt_lts).status,
        "source_must": must_reach_success(src_lts).status,
        "target_must": must_reach_success(tgt_lts).status,
    }
    if "inconclusive" in results.values():
        return _inconclusive("truncation", **results)
    if results["source_may"] == results["target_may"] and results["source_must"] == results["target_must"]:
        return _holds(**results)
    return _fails([], **results)


def check_congruence_preservation(inst: Instance) -> Verdict:
    variant = congruent_variant(inst.source, random.Random(inst.seed))
    if not cqp.congruent(inst.source, variant, inst.tol):
        return _fails(["variant generation broke source congruence"])
    if qccs.congruent(inst.root, inst.translate(variant, check=True), inst.tol):
        return _holds()
    return _fails([f"seed={inst.seed}"])


# The per-instance criteria, in report order.  The invariance checks draw
# their renamings here: channels map deterministically, qubits are shuffled
# by ``random.Random(seed)``.
CHECKS = {
    "completeness": check_completeness,
    "soundness": check_soundness,
    "name_invariance": lambda inst: check_name_invariance(inst, random_channel_renaming(inst.source)),
    "qubit_invariance": lambda inst: check_qubit_invariance(
        inst, random_qubit_renaming(inst.source, random.Random(inst.seed))
    ),
    "register_size": check_register_size,
    "congruence_preservation": check_congruence_preservation,
    "success": check_success,
    "divergence_reflection": check_divergence_reflection,
}


def run_instance_checks(
    source,
    budget: Budget = Budget(),
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> dict[str, Verdict]:
    """Every check in ``CHECKS`` over one ``Instance`` of the source, so the
    checks share its explorations and translations."""
    inst = Instance(source, budget, seed, tol)
    return {name: check(inst) for name, check in CHECKS.items()}


# -- the separation suite ----------------------------------------------------------------

def counterexample_suite(tol: float = DEFAULT_TOL) -> dict:
    """Build the probe configuration on the four separating inputs, check
    the probe matrices against their known values, and run the may/must
    verdicts whose disagreement pattern the impossibility argument uses."""
    sq2 = 1.0 / np.sqrt(2.0)
    probe = quantum.amplitude_damping_probe(1.0)
    table = {"Q": probe}
    term = qccs.SuperOp(
        qccs.CustomOp("Q"),
        ("q",),
        qccs.Choice(
            qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(0), ("q",)), qccs.Tau(qccs.Success())),
            qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(1), ("q",)), qccs.Tau(qccs.Nil())),
        ),
    )
    inputs = {
        "|0><0|": ([1, 0], [[1, 0], [0, 0]], ("holds", "holds")),
        "|1><1|": ([0, 1], [[-1, 0], [0, 2]], ("holds", "fails")),
        "|+><+|": ([sq2, sq2], [[0, sq2], [sq2, 1]], ("fails", "fails")),
        "|-><-|": ([sq2, -sq2], [[0, -sq2], [-sq2, 1]], ("fails", "fails")),
    }
    rows = []
    all_ok = True
    for name, (amps, probe_matrix, (want_may, want_must)) in inputs.items():
        rho = quantum.outer(quantum.StateVector(("q",), np.array(amps, dtype=complex)))
        after = quantum.superop_apply(probe, ("q",), rho, tol)
        matrix_ok = quantum.within_tol(after.entries, np.array(probe_matrix), tol)
        lts = build_lts(qccs.QccsConfig(term, rho), qccs_system(table=table, tol=tol))
        may = may_reach_success(lts)
        must = must_reach_success(lts)
        ok = matrix_ok and may.status == want_may and must.status == want_must
        all_ok = all_ok and ok
        rows.append(
            {
                "input": name,
                "probe_matrix_ok": matrix_ok,
                "may": may.status,
                "must": must.status,
                "expected_may": want_may,
                "expected_must": want_must,
                "states": len(lts.states),
                "ok": ok,
            }
        )
    return {"check": "counterexample", "rows": rows, "ok": all_ok}


# -- random configurations ------------------------------------------------------------------

_ONE_QUBIT_GATES = ("I", "X", "Y", "Z", "H")


def gen_config(seed: int, size: int = 4, depth: int = 6) -> cqp.CqpPure:
    """Deterministic, internally well-typed random configuration.

    Qubit registers stay at most ``size`` wide (counting the qubits that
    creation can add) and terms at most ``depth`` deep, keeping exploration
    tractable.  Parallel splits partition the owned qubits, input
    continuations only use their own split plus the received qubit, and at
    most one chain of qubit creations exists per configuration, which keeps
    every reachable state well-typed and every translation well-formed.
    """
    rng = random.Random(seed)
    n = rng.randint(1, max(1, min(size, 3)))
    names = tuple(f"q{i}" for i in range(n))
    if rng.random() < 0.4:
        amps = np.zeros(2 ** n)
        amps[rng.randrange(2 ** n)] = 1.0
    else:
        npr = np.random.default_rng(seed)
        amps = npr.standard_normal(2 ** n) + 1j * npr.standard_normal(2 ** n)
        amps = amps / np.linalg.norm(amps)
    phi = tuple(f"c{i}" for i in range(rng.randint(0, 2)))
    counter = [0]
    budget = [max(0, min(size, 4) - n)]
    term = _gen_term(rng, list(names), list(phi), depth, True, counter, budget)
    config = cqp.CqpPure(quantum.StateVector(names, amps), phi, term)
    cqp.typecheck_internal(config)
    return config


def _gen_term(rng, owned, chans, depth, allow_new, counter, qubit_budget) -> cqp.Term:
    def fresh(prefix):
        counter[0] += 1
        return f"{prefix}{counter[0]}"

    options = ["nil", "ok"]
    if depth > 0:
        if len(owned) + len(chans) > 0:
            options += ["par"]
        if owned and chans:
            options += ["out", "out"]
        if chans:
            options += ["in", "in"]
        if owned:
            options += ["trans", "trans", "measure", "measure"]
        options += ["newchan"]
        if allow_new and qubit_budget[0] > 0:
            options += ["newqbit"]
    pick = rng.choice(options)
    if pick == "nil":
        return cqp.Nil()
    if pick == "ok":
        return cqp.Success()
    if pick == "par":
        left_owned, right_owned = [], []
        for q in owned:
            (left_owned if rng.random() < 0.5 else right_owned).append(q)
        left_new = rng.random() < 0.5
        return cqp.Par(
            _gen_term(rng, left_owned, list(chans), depth - 1, allow_new and left_new, counter, qubit_budget),
            _gen_term(rng, right_owned, list(chans), depth - 1, allow_new and not left_new, counter, qubit_budget),
        )
    if pick == "out":
        q = rng.choice(owned)
        rest = [o for o in owned if o != q]
        return cqp.Out(rng.choice(chans), q, _gen_term(rng, rest, chans, depth - 1, allow_new, counter, qubit_budget))
    if pick == "in":
        var = fresh("v")
        inner = _gen_term(rng, owned + [var], chans, depth - 1, allow_new, counter, qubit_budget)
        return cqp.In(rng.choice(chans), var, inner)
    if pick == "trans":
        if len(owned) >= 2 and rng.random() < 0.3:
            qs = tuple(rng.sample(owned, 2))
            gate = "CNOT"
        else:
            qs = (rng.choice(owned),)
            gate = rng.choice(_ONE_QUBIT_GATES)
        return cqp.Trans(qs, gate, _gen_term(rng, owned, chans, depth - 1, allow_new, counter, qubit_budget))
    if pick == "measure":
        k = rng.randint(1, min(2, len(owned)))
        qs = tuple(rng.sample(owned, k))
        var = fresh("m")
        # the measured value doubles as a channel in roughly half the cases
        inner_chans = chans + [var] if rng.random() < 0.5 else chans
        return cqp.Measure(qs, var, _gen_term(rng, owned, inner_chans, depth - 1, allow_new, counter, qubit_budget))
    if pick == "newchan":
        var = fresh("d")
        return cqp.NewChan(var, _gen_term(rng, owned, chans + [var], depth - 1, allow_new, counter, qubit_budget))
    if pick == "newqbit":
        qubit_budget[0] -= 1
        var = fresh("x")
        return cqp.NewQbit(var, _gen_term(rng, owned + [var], chans, depth - 1, allow_new, counter, qubit_budget))
    raise AssertionError(pick)


def congruent_variant(config: cqp.CqpPure, rng: random.Random) -> cqp.CqpPure:
    """A structurally congruent rearrangement: parallel components shuffled
    and reassociated, unit processes sprinkled in, binders renamed."""

    def components(t: cqp.Term) -> list[cqp.Term]:
        if isinstance(t, cqp.Par):
            return components(t.left) + components(t.right)
        return [] if isinstance(t, cqp.Nil) else [t]

    def shuffle(t: cqp.Term) -> cqp.Term:
        match t:
            case cqp.Par():
                parts = [shuffle(p) for p in components(t)]
                if not parts:
                    return cqp.Nil()
                rng.shuffle(parts)
                out = parts[0]
                for p in parts[1:]:
                    out = cqp.Par(out, p) if rng.random() < 0.5 else cqp.Par(p, out)
                if rng.random() < 0.3:
                    out = cqp.Par(out, cqp.Nil())
                return out
            case cqp.In(c, x, p):
                return _maybe_rename(cqp.In(c, x, shuffle(p)))
            case cqp.Out(c, q, p):
                return cqp.Out(c, q, shuffle(p))
            case cqp.Trans(qs, g, p):
                return cqp.Trans(qs, g, shuffle(p))
            case cqp.Measure(qs, x, p):
                return _maybe_rename(cqp.Measure(qs, x, shuffle(p)))
            case cqp.NewChan(x, p):
                # not renamed: the deterministic channel rule keeps a fresh
                # binder's name, so the binder name leaks into the successor
                return cqp.NewChan(x, shuffle(p))
            case cqp.NewQbit(x, p):
                return _maybe_rename(cqp.NewQbit(x, shuffle(p)))
            case _:
                return t

    def _maybe_rename(t):
        if rng.random() >= 0.4:
            return t
        if t.var.isdigit():
            # measurement materialises integer literals on both sides of the
            # translation, so alpha-converting a literal binder is the
            # name-clash case the invariance statements exclude
            return t
        fresh = f"{t.var}_r{rng.randrange(1000)}"
        return replace(t, var=fresh, cont=cqp.substitute(t.cont, {t.var: fresh}))

    return cqp.CqpPure(config.sigma, config.phi, shuffle(config.term))


def random_channel_renaming(config: cqp.CqpConfig) -> dict:
    """Injective renaming of the configuration's symbolic channels to fresh
    names ``u0, u1, ...`` in sorted order; deterministic, and measurement
    literals stay fixed."""
    free = set(config.phi) | {c for c in cqp.free_names(config.term) if not c.isdigit()}
    free -= set(config.sigma_names)
    return {c: f"u{i}" for i, c in enumerate(sorted(free))}


def random_qubit_renaming(config: cqp.CqpConfig, rng: random.Random) -> dict:
    """A permutation of the register names: always injective, and it keeps
    the fresh-name convention for created qubits stable."""
    names = list(config.sigma_names)
    shuffled = names[:]
    rng.shuffle(shuffled)
    return dict(zip(names, shuffled))
