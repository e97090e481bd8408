"""Interned terms, structural congruence and the binder rule, shared by
both calculi.

The term and guard classes of both calculi derive from ``Interned``:
structurally equal nodes are one object, so equality and hashing are
identity, and each node keeps what is derived from it alone (its free names,
its congruence node and signatures, its translation, its steps without rho)
and computes it once (Filliatre & Conchon 2006).  The table is keyed by
class and constructor arguments, a node argument by its id, and holds its
nodes weakly, so it never outlives the terms in use: a node goes with its
derived data once nothing holds it.  Reference cycles hold an exploration's
terms until the next garbage collection: the tie search's closure
(``_Pass.label``) and ``qccs.check_wellformed``'s ``visit`` keep them
(ROADMAP item 13), and a recursive qCCS constant's template holds terms
that contain the constant.
A hit costs one dict lookup and runs no ``__init__``; a ``list`` argument is
interned as a tuple.

Two terms get the same signature exactly when they are structurally
congruent: parallel composition is commutative, associative and has the
inactive process as unit, binders are compared up to alpha conversion, and
restrictions reachable through parallel composition are extruded into one
group per composition.  Each calculus supplies a ``node`` function mapping
a term to ``UNIT``, ``(PAR, left, right)``, ``(RES, channels, body)`` or
``(tag, names, binders, children)``, where ``names`` are the node's own
name occurrences and ``binders`` scope over every child.

The node tuples are also the one source of free names: a node's own names
and its children's free names less its binders (``free_names``), computed
once per node with its tuple.  A restriction keeps only its live channels,
those free in its body, so neither calculus walks its terms for names.
Both calculi tag an input prefix ``"in"``, so the tuples also give the
demand of the no-cloning rule, the free names outside input prefixes
(``demand``), and the parallel components (``components``), each computed
once per node as well.

Names are resolved through an environment, never by substitution: a binder
becomes its nesting depth (de Bruijn 1972), and a free name, a register
qubit among them, stays itself.  A group's channels are numbered by the least
signature of its components over the numberings that a refinement leaves
open: classes of channels are split by the sorted signatures of the
components each occurs in until stable, then once by each channel's colour,
the nodes that name it (``_Pass.colours``), and again until stable.
Channels still tied are tried in turn, skipping choices that a symmetry of
the group already covers.

Each node's signatures are memoised on it, keyed by the binder depth and
the tokens that the environment gives its free names.  Every environment
value is a token: in each refinement round a component reads the group's
outer environment and the current numbers of the group channels among its
free names, the innermost restriction of a name winning.  Signing has no
other effect, and its text is a function of the depth and the tokens it
reads, so an entry is valid wherever its key recurs, in any pass.

Cost: a group of two or more channels walks its components at least twice.
The colouring leaves no group of the bundled protocols or of the campaign
tied, so each numbering is one refinement: one protocols round, each call
started after a garbage collection, runs 180 refinements for 180 groups
(440 for 243 without the colouring), and one campaign pass 1,322 for 1,322
(1,693 for 1,321).  A genuine symmetry still takes the search, which has
no proved bound.  A group nested inside the components of another is
numbered again only when the walk of the outer group reaches it under a
token assignment not seen before.  There is no proved bound on the number
of such assignments either.

Substitution in both calculi passes under its binders by one rule,
``rebind``: the binders shadow their own names, and a binder that the
substitution would capture is renamed apart first.  In qCCS a binder
binds one sort of name, a restriction channels and an input a qubit, so
the rule runs on that sort's mapping and a free name of the other sort is
substituted like any other.
"""

from __future__ import annotations

import functools
import weakref
from typing import Callable, Iterable, Mapping

UNIT = ("0",)
PAR = "|"
RES = "new"

# (class, *constructor arguments, a node as its id) -> weak reference to the
# one such node; an entry goes before its node, which holds the arguments, is
# freed, so every id in a key names a live node.
_table: dict[tuple, weakref.KeyedRef] = {}


def _forget(ref: weakref.KeyedRef) -> None:
    if _table.get(ref.key) is ref:
        del _table[ref.key]


class _Interning(type):
    def __call__(cls, *args, **kwargs):
        if kwargs:
            names = cls.__match_args__
            if sorted(kwargs) != sorted(names[len(args):]):
                raise TypeError(f"{cls.__name__} takes the arguments {names}")
            args += tuple(kwargs[n] for n in names[len(args):])
        key = (cls, *[id(a) if isinstance(a, Interned) else a for a in args])
        try:
            ref = _table.get(key)
        except TypeError:  # unhashable: a list argument, interned as a tuple
            args = [tuple(a) if type(a) is list else a for a in args]
            key = (cls, *[id(a) if isinstance(a, Interned) else a for a in args])
            ref = _table.get(key)
        node = None if ref is None else ref()
        if node is None:
            if len(args) != len(cls.__match_args__):
                raise TypeError(f"{cls.__name__} takes the arguments {cls.__match_args__}")
            node = object.__new__(cls)
            node.__dict__.update(zip(cls.__match_args__, args))
            _table[key] = weakref.KeyedRef(node, _forget, key)
        return node


class Interned(metaclass=_Interning):
    """Base of the frozen, ``eq=False`` dataclasses of terms and guards: a
    constructor call returns the existing node with the same class and
    arguments, so structurally equal nodes are one object.  The fields are
    the dataclass's positional fields, and the dataclass ``__init__`` never
    runs."""

    __slots__ = ()

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, so they intern too
        return type(self), tuple(self.__dict__[n] for n in self.__match_args__)


def per_node(fn: Callable) -> Callable:
    """``fn`` of one interned node, computed once per node and kept on it."""
    attr = "_" + fn.__name__

    @functools.wraps(fn)
    def once(t):
        value = getattr(t, attr, None)
        if value is None:
            value = t.__dict__[attr] = fn(t)
        return value

    return once


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


def signature(term, node: Callable, env: Mapping[str, str] | None = None) -> str:
    """The congruence signature of ``term``; ``env`` names free names.

    ``node`` is the calculus's node function; a term is only ever signed
    with one, since its node tuple is kept on it."""
    return _Pass(node).sig(term, {} if env is None else env, 0)


def free_names(t, node: Callable) -> frozenset[str]:
    """The free names of ``t``, read from its node tuples: a node's own
    names and its children's free names less its binders."""
    return _entry(t, node)[1]


def demand(t, node: Callable) -> frozenset[str]:
    """The free names of ``t`` outside input prefixes, the nodes tagged
    ``"in"``: the names ``t`` may use before an input fires, which no
    parallel sibling may use too.  Read from the node tuples like
    ``free_names`` and kept on ``t``."""
    found = getattr(t, "_demand", None)
    if found is None:
        n = _entry(t, node)[0]
        names, bound, kids = ((), (), ()) if n[0] == "in" else _parts(n)
        found = frozenset().union(*[demand(c, node) for c in kids]).difference(bound).union(names)
        t.__dict__["_demand"] = found
    return found


def components(t, node: Callable) -> tuple:
    """The parallel components of ``t``, left to right, with the units
    dropped; ``(t,)`` for a term that is neither.  Kept on a parallel
    composition, and never on a component, which would then hold itself."""
    n = _entry(t, node)[0]
    if n is UNIT:
        return ()
    if n[0] != PAR:
        return (t,)
    found = getattr(t, "_components", None)
    if found is None:
        found = t.__dict__["_components"] = components(n[1], node) + components(n[2], node)
    return found


def _entry(t, node: Callable) -> tuple[tuple, frozenset[str], dict]:
    """The node tuple of ``t``, its free names and its signature memo;
    computed on first use, then read from ``t._canon``.  A restriction
    keeps only the channels free in its body: a dead channel binds no
    occurrence, so it is dropped from the stored tuple."""
    entry = getattr(t, "_canon", None)
    if entry is None:
        n = node(t)
        names, bound, kids = _parts(n)
        free: set[str] = set()
        for c in kids:
            free.update(_entry(c, node)[1])
        if n[0] == RES:
            n = (RES, tuple([c for c in bound if c in free]), n[2])
        free.difference_update(bound)
        free.update(names)
        entry = t.__dict__["_canon"] = (n, frozenset(free), {})
    return entry


def _parts(n: tuple) -> tuple[tuple[str, ...], tuple[str, ...], tuple]:
    """A node tuple's own names, its binders and its children."""
    if n is UNIT:
        return (), (), ()
    if n[0] == PAR:
        return (), (), n[1:]
    if n[0] == RES:
        return (), n[1], (n[2],)
    return n[1:]


def _split(cells: list, key: Callable) -> list:
    """Each cell split by ``key``, its parts in the order of their keys."""
    split = []
    for cell in cells:
        parts: dict[tuple, list[int]] = {}
        for ch in cell:
            parts.setdefault(key(ch), []).append(ch)
        split += [parts[k] for k in sorted(parts)]
    return split


class _Pass:
    def __init__(self, node: Callable):
        self.node = node

    def sig(self, t, env: dict, depth: int) -> str:
        """The signature of ``t`` under ``env`` below ``depth`` binders."""
        n, free, memo = _entry(t, self.node)
        key = (depth, *map(env.get, free))  # None: a free name, read as itself
        s = memo.get(key)
        if s is not None:
            return s
        if len(n) < 4:  # UNIT, PAR or RES
            s = self.group(t, env, depth)
        else:
            tag, names, binders, children = n
            refs = [env.get(x, "f:" + x) for x in names]
            if binders:
                env = dict(env)
                for b in binders:
                    env[b] = f"b{depth}"
                    depth += 1
            if len(children) == 1:
                subs = self.sig(children[0], env, depth)
            else:
                subs = ";".join([self.sig(c, env, depth) for c in children])
            s = f"{tag}[{','.join(refs)};{subs}]"
        memo[key] = s
        return s

    def flatten(self, t, chans: dict[str, int], comps: list, count: int) -> int:
        """Append the components of ``t`` to ``comps``, each with the group
        channels among its free names, and return the group's channel count:
        ``chans`` numbers the names restricted above ``t``, the innermost
        restriction winning, and the numbers below ``count`` are taken."""
        n, free, _ = _entry(t, self.node)
        if n is UNIT:
            return count
        if n[0] == PAR:
            return self.flatten(n[2], chans, comps, self.flatten(n[1], chans, comps, count))
        if n[0] == RES:
            chans = {**chans, **{c: count + i for i, c in enumerate(n[1])}}
            return self.flatten(n[2], chans, comps, count + len(n[1]))
        comps.append((t, {x: chans[x] for x in free if x in chans} if chans else {}))
        return count

    def group(self, t, env: dict, depth: int) -> str:
        comps: list[tuple[object, dict[str, int]]] = []
        count = self.flatten(t, {}, comps, 0)
        if count:
            return f"{RES}{count}({self.label(comps, env, count, depth)})"
        sigs = sorted([self.sig(c, env, depth) for c, _ in comps])
        if len(sigs) == 1:
            return sigs[0]
        return f"({'|'.join(sigs)})" if sigs else "0"

    def walk(self, comps: list, depth: int) -> list[tuple[str, Iterable[int]]]:
        """Component signatures in order, each with the group channels it reads."""
        out = [(self.sig(t, env, depth), own.values()) for t, env, own in comps]
        out.sort(key=lambda p: p[0])
        return out

    def refine(self, comps: list, env: dict, cells: list, depth: int, inner: int, colour: bool) -> tuple[list, str]:
        """Split the cells of an ordered partition of a group's channels by the
        signatures of the components each channel occurs in, until stable.

        Every channel of a cell reads as the number of the cell's first place,
        so the split never depends on the names or the order of the terms.
        Each round gives each component ``env`` and its own channels' current
        numbers.  With ``colour``, a stable partition that is not discrete is
        split once by the channels' ``colours`` and refined on.  Returns the
        stable partition and the components' signature under it.
        """
        count = inner - depth
        while True:
            tokens, start = [""] * count, depth
            for cell in cells:
                for ch in cell:
                    tokens[ch] = f"b{start}"
                start += len(cell)
            walked = [(t, dict(env), own) for t, own in comps]
            for _, cenv, own in walked:
                for x, ch in own.items():
                    cenv[x] = tokens[ch]
            probes = self.walk(walked, inner)
            body = "|".join([s for s, _ in probes])
            if len(cells) == count:
                return cells, body
            occurs: list[list[str]] = [[] for _ in range(count)]
            for s, chans in probes:
                for ch in chans:
                    occurs[ch].append(s)
            split = _split(cells, lambda ch: tuple(occurs[ch]))
            if len(split) == len(cells) and colour:
                colour = False
                split = _split(cells, self.colours(comps, count).__getitem__)
            if len(split) == len(cells):
                return cells, body
            cells = split

    def uses(self, t) -> dict[str, tuple[tuple[int, object], ...]]:
        """The nodes of ``t`` that name each of its free names, each with the
        name's position among the node's names; ``None`` stands for ``t``,
        so that ``t`` never holds itself and goes once unreferenced.  The
        walk descends through parallel composition, prefixes, choices and
        nested restrictions, and a name is dropped below a binder that
        shadows it.  Computed on first use, then read from ``t._uses``."""
        found = getattr(t, "_uses", None)
        if found is not None:
            return found
        names, bound, kids = _parts(_entry(t, self.node)[0])
        occ: dict[str, list] = {}
        for i, x in enumerate(names):
            occ.setdefault(x, []).append((i, None))
        for c in kids:
            for x, nodes in self.uses(c).items():
                if x not in bound:
                    occ.setdefault(x, []).extend([(i, c if n is None else n) for i, n in nodes])
        found = t.__dict__["_uses"] = {x: tuple(nodes) for x, nodes in occ.items()}
        return found

    def colours(self, comps: list, count: int) -> list[tuple]:
        """Each channel's colour: the sorted multiset, over the components
        that use it, of the nodes that name it, each read as the name's
        position and the node's signature with every free name masked: a
        vertex-invariant colouring (McKay & Piperno 2014).

        Only the components that use a channel count, so the colour is kept
        by scope extrusion, ``(v a)(P | Q) = (v a)P | Q`` with ``a`` not
        free in ``Q``, which moves a component in or out of ``a``'s scope.
        """
        found: list[list] = [[] for _ in range(count)]
        for t, own in comps:
            uses = self.uses(t)
            for x, ch in own.items():
                found[ch].append(tuple(sorted([(i, self.masked(t if n is None else n)) for i, n in uses[x]])))
        return [tuple(sorted(v)) for v in found]

    def masked(self, t) -> str:
        """The signature of ``t`` at depth 0 with every free name masked."""
        return self.sig(t, dict.fromkeys(_entry(t, self.node)[1], "?"), 0)

    def label(self, comps: list, env: dict, count: int, depth: int) -> str:
        """The least signature of the components under ``env`` over the
        numberings of the group's ``count`` channels that refinement leaves
        open.

        The first refinement also splits by the channels' colours, which
        tell apart channels that the components they occur in cannot:
        teleportation's four result channels, used in one component, each
        by its own listener.  Channels that it leaves tied are
        individualised one at a time and each choice refined again.  Two
        numberings that give the same signature reveal a symmetry of the
        group; a choice that a symmetry fixing the earlier choices maps
        onto an explored one is skipped, and the search returns to the point
        where the two numberings part (McKay 1981).
        """
        inner = depth + count
        first: tuple[str, list[int], list[int]] | None = None
        autos: list[dict[int, int]] = []

        def search(cells: list, fixed: list[int]) -> tuple[str, int | None]:
            nonlocal first
            cells, body = self.refine(comps, env, cells, depth, inner, not fixed)
            if len(cells) == count:
                order = [cell[0] for cell in cells]
                if first is None:
                    first = (body, order, fixed)
                    return body, None
                if body != first[0]:
                    return body, None
                autos.append(dict(zip(order, first[1])))
                level = 0
                while fixed[level] == first[2][level]:
                    level += 1
                return body, level
            i = next(i for i, cell in enumerate(cells) if len(cell) > 1)
            best, done = None, []
            for ch in cells[i]:
                if done and ch in _orbit(done, autos, fixed):
                    continue
                rest = [c for c in cells[i] if c != ch]
                s, jump = search(cells[:i] + [[ch], rest] + cells[i + 1:], fixed + [ch])
                done.append(ch)
                if best is None or s < best:
                    best = s
                if jump is not None and jump < len(fixed):
                    return best, jump
            return best, None

        return search([list(range(count))], [])[0]


def _orbit(seeds: list, autos: list[dict], fixed: list) -> set:
    """The seeds' orbit under the symmetries found so far that fix ``fixed``."""
    usable = [a for a in autos if all(a[f] == f for f in fixed)]
    orbit, todo = set(seeds), list(seeds)
    while todo:
        x = todo.pop()
        for a in usable:
            y = a[x]
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit
