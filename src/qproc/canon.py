"""Structural congruence and the binder rule, shared by both calculi.

Two terms get the same signature exactly when they are structurally
congruent: parallel composition is commutative, associative and has the
inactive process as unit, binders are compared up to alpha conversion, and
restrictions reachable through parallel composition are extruded into one
group per composition.  Each calculus supplies a ``node`` function mapping
a term to ``UNIT``, ``(PAR, left, right)``, ``(RES, live channels, body)``
or ``(tag, names, binders, children)``, where ``names`` are the node's own
name occurrences and ``binders`` scope over every child.

Names are resolved through an environment, never by substitution: a binder
becomes its nesting depth (de Bruijn 1972), a register qubit its position,
and a free name stays itself.  A group's channels are numbered by the least
signature of its components over all numberings: classes of channels are
split by the sorted signatures of the components each occurs in until
stable, and channels still tied are tried in turn, skipping choices that a
symmetry of the group already covers.

Cost: a group of two or more channels walks its components at least twice,
and a group nested inside the components of another is numbered again on
every walk of the outer group, so the work grows as 2^d in the nesting depth
d of such groups.

Substitution in both calculi passes under its binders by one rule,
``rebind``: the binders shadow their own names, and a binder that the
substitution would capture is renamed apart first.  In qCCS a binder
binds one sort of name, a restriction channels and an input a qubit, so
the rule runs on that sort's mapping and a free name of the other sort is
substituted like any other.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

UNIT = ("0",)
PAR = "|"
RES = "new"


def fresh_name(base: str, avoid: Iterable[str]) -> str:
    """``base`` itself if it is not in ``avoid``, else the first free ``base_k``."""
    avoid = set(avoid)
    if base not in avoid:
        return base
    k = 0
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


def rebind(
    binders: tuple[str, ...],
    body,
    mapping: Mapping[str, str],
    free: Callable,
    substitute: Callable,
) -> tuple[tuple[str, ...], object]:
    """Push the simultaneous substitution ``mapping`` under ``binders``.

    The binders shadow their names in the mapping.  A binder that the rest
    of the mapping maps a name onto is renamed to a name fresh for the
    mapping, the other binders and ``free(body)``, in the same single pass
    over the body, so no substituted name is captured and no fresh name is
    substituted again.  Returns the binders and the body after substitution;
    ``substitute`` is called even when no name is left to map here, so a
    caller may carry the names of another sort in it.
    """
    scoped = {k: v for k, v in mapping.items() if k not in binders}
    values = set(scoped.values())
    if not values.isdisjoint(binders):
        avoid = set(binders) | set(scoped) | values | free(body)
        for b in binders:
            if b in values:
                scoped[b] = fresh_name(b, avoid)
                avoid.add(scoped[b])
        binders = tuple(scoped.get(b, b) for b in binders)
    return binders, substitute(body, scoped)


def register_env(names: Sequence[str]) -> dict[str, str]:
    """Register qubits named by position (alpha conversion on the register)."""
    return {n: f"r{i}" for i, n in enumerate(names)}


def signature(term, node: Callable, env: Mapping[str, str] | None = None) -> str:
    """The congruence signature of ``term``; ``env`` names free names."""
    return _Pass(node).sig(node(term), dict(env or {}), 0)


class _Channel:
    """A channel of a restriction group, read by name once it is numbered."""

    __slots__ = ("token",)


class _Pass:
    def __init__(self, node: Callable):
        self.node = node
        # group channels read by the component being walked
        self.hits: set[_Channel] = set()

    def name(self, n: str, env: dict) -> str:
        tok = env.get(n, "f:" + n)
        if type(tok) is _Channel:
            self.hits.add(tok)
            return tok.token
        return tok

    def sig(self, n: tuple, env: dict, depth: int) -> str:
        if n is UNIT or n[0] == PAR or n[0] == RES:
            return self.group(n, env, depth)
        tag, names, binders, children = n
        refs = ",".join([self.name(x, env) for x in names])
        if binders:
            env = dict(env)
            for b in binders:
                env[b] = f"b{depth}"
                depth += 1
        subs = ";".join([self.sig(self.node(c), env, depth) for c in children])
        return f"{tag}[{refs};{subs}]"

    def flatten(self, n: tuple, env: dict, comps: list, chans: list[_Channel]) -> None:
        if n is UNIT:
            return
        if n[0] == PAR:
            self.flatten(self.node(n[1]), env, comps, chans)
            self.flatten(self.node(n[2]), env, comps, chans)
        elif n[0] == RES:
            if n[1]:
                env = dict(env)
                for c in n[1]:
                    env[c] = ch = _Channel()
                    chans.append(ch)
            self.flatten(self.node(n[2]), env, comps, chans)
        else:
            comps.append((n, env))

    def group(self, n: tuple, env: dict, depth: int) -> str:
        comps: list[tuple[tuple, dict]] = []
        chans: list[_Channel] = []
        self.flatten(n, env, comps, chans)
        if chans:
            return f"{RES}{len(chans)}({self.label(comps, chans, depth)})"
        sigs = [s for s, _ in self.walk(comps, depth)]
        if len(sigs) == 1:
            return sigs[0]
        return f"({'|'.join(sigs)})" if sigs else "0"

    def walk(self, comps: list, depth: int) -> list[tuple[str, set[_Channel]]]:
        """Component signatures in order, each with the group channels it reads."""
        outer, out = self.hits, []
        for n, env in comps:
            self.hits = set()
            out.append((self.sig(n, env, depth), self.hits))
            outer |= self.hits
        self.hits = outer
        out.sort(key=lambda p: p[0])
        return out

    def refine(self, comps: list, cells: list, depth: int, inner: int) -> tuple[list, str]:
        """Split the cells of an ordered partition of a group's channels by the
        signatures of the components each channel occurs in, until stable.

        Every channel of a cell reads as the number of the cell's first place,
        so the split never depends on the names or the order of the terms.
        Returns the stable partition and the components' signature under it.
        """
        while True:
            start = depth
            for cell in cells:
                token = f"b{start}"
                for ch in cell:
                    ch.token = token
                start += len(cell)
            probes = self.walk(comps, inner)
            body = "|".join([s for s, _ in probes])
            if len(cells) == inner - depth:
                return cells, body
            occurs: dict[_Channel, list[str]] = {ch: [] for cell in cells for ch in cell}
            for s, hits in probes:
                for ch in hits:
                    if ch in occurs:
                        occurs[ch].append(s)
            split = []
            for cell in cells:
                parts: dict[tuple, list[_Channel]] = {}
                for ch in cell:
                    parts.setdefault(tuple(occurs[ch]), []).append(ch)
                split += [parts[k] for k in sorted(parts)]
            if len(split) == len(cells):
                return cells, body
            cells = split

    def label(self, comps: list, chans: list[_Channel], depth: int) -> str:
        """The least signature of the components over the numberings of the
        group's channels that refinement leaves open.

        Tied channels are individualised one at a time and each choice refined
        again.  Two numberings that give the same signature reveal a symmetry
        of the group; a choice that a symmetry fixing the earlier choices maps
        onto an explored one is skipped, and the search returns to the point
        where the two numberings part (McKay 1981).
        """
        inner = depth + len(chans)
        first: tuple[str, list[_Channel], list[_Channel]] | None = None
        autos: list[dict[_Channel, _Channel]] = []

        def search(cells: list, fixed: list[_Channel]) -> tuple[str, int | None]:
            nonlocal first
            cells, body = self.refine(comps, cells, depth, inner)
            if len(cells) == len(chans):
                order = [cell[0] for cell in cells]
                if first is None:
                    first = (body, order, fixed)
                    return body, None
                if body != first[0]:
                    return body, None
                autos.append(dict(zip(order, first[1])))
                level = 0
                while fixed[level] is first[2][level]:
                    level += 1
                return body, level
            i = next(i for i, cell in enumerate(cells) if len(cell) > 1)
            best, done = None, []
            for ch in cells[i]:
                if done and ch in _orbit(done, autos, fixed):
                    continue
                rest = [c for c in cells[i] if c is not ch]
                s, jump = search(cells[:i] + [[ch], rest] + cells[i + 1:], fixed + [ch])
                done.append(ch)
                if best is None or s < best:
                    best = s
                if jump is not None and jump < len(fixed):
                    return best, jump
            return best, None

        return search([chans], [])[0]


def _orbit(seeds: list, autos: list[dict], fixed: list) -> set:
    """The seeds' orbit under the symmetries found so far that fix ``fixed``."""
    usable = [a for a in autos if all(a[f] is f for f in fixed)]
    orbit, todo = set(seeds), list(seeds)
    while todo:
        x = todo.pop()
        for a in usable:
            y = a[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit
