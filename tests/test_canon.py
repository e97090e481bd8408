"""Interned terms and the memoised congruence signature, in both calculi."""

import collections
import copy
import dataclasses
import functools
import gc
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import canon, cli, cqp, criteria, encode, protocols, qccs, quantum

# -- interning ---------------------------------------------------------------


def test_building_a_term_twice_gives_one_object():
    def built():
        return cqp.Par(cqp.Out("c", "q", cqp.Nil()), cqp.In("c", "x", cqp.Trans(("x",), "H", cqp.Success())))

    assert built() is built()
    parsed = cqp.parse_cqp("qubits q ; state |0> ; channels c ; process c![q].0 | c?[x].{x *= H}.ok")
    assert parsed.term is built()
    assert cqp.substitute(built(), {"c": "d"}) is cqp.substitute(built(), {"c": "d"})
    assert dataclasses.replace(built(), right=built().right) is built()
    assert copy.deepcopy(built()) is built()
    assert pickle.loads(pickle.dumps(built())) is built()

    def guarded():
        return qccs.IfThen(qccs.TraceNonzero(qccs.ProjectOp(1), ("q",)), qccs.SuperOp(qccs.GateOp("X"), ("q",), qccs.Nil()))

    assert guarded() is guarded()
    _, config, _ = qccs.parse_qccs("state qubits q ; rho = outer(|0>) ; process if tr(E{1}[q]) != 0 then X[q].nil")
    assert config.term is guarded()
    assert qccs.substitute(guarded(), {"q": "p"}) is qccs.substitute(guarded(), {"q": "p"})


def test_translating_a_configuration_twice_gives_one_term():
    source = cqp.parse_cqp("qubits q ; state |0> ; channels c ; process c![q].0 | (qbit y){y *= H}.ok")
    first, second = encode.encode_config(source), encode.encode_config(source)
    assert first is not second and first.term is second.term
    direct = qccs.Restrict(
        qccs.Par(
            qccs.Out("c", "q", qccs.Nil()),
            qccs.SuperOp(qccs.NewOp(), (), qccs.SuperOp(qccs.GateOp("H"), ("q1",), qccs.Success())),
        ),
        ("c",),
    )
    assert first.term is direct


def test_a_list_argument_interns_as_a_tuple():
    body = qccs.Out("a", "q", qccs.Nil())
    listed = qccs.Restrict(body, ["a", "b"])
    assert listed is qccs.Restrict(body, ("a", "b"))
    assert listed.chans == ("a", "b")
    assert cqp.Trans(["q"], "H", cqp.Nil()) is cqp.Trans(("q",), "H", cqp.Nil())


def test_constructor_arguments_are_checked():
    with pytest.raises(TypeError):
        qccs.Out("c", "q")
    with pytest.raises(TypeError):
        cqp.In("c", "x", cqp.Nil(), extra=1)


@pytest.mark.parametrize(
    "substitute, term, mapping",
    [
        # no mapped name occurs
        (cqp.substitute, cqp.In("c", "x", cqp.Out("x", "q", cqp.Nil())), {"d": "e"}),
        # the binder is the target of a name that does not occur: no renaming
        (cqp.substitute, cqp.In("c", "x", cqp.Out("x", "q", cqp.Nil())), {"y": "x"}),
        (qccs.substitute, qccs.Restrict(qccs.Out("c", "q", qccs.Nil()), ("c",)), {"c": "d"}),
        (qccs.substitute, qccs.In("a", "x", qccs.Out("x", "x", qccs.Nil())), {"y": "x"}),
    ],
)
def test_substitution_returns_the_node_when_no_mapped_name_is_free(substitute, term, mapping):
    assert substitute(term, mapping) is term


def test_intern_table_forgets_an_instance_once_it_is_dropped():
    names = {"zq", "zc", "zx", "zy"}

    def held() -> list:
        return [key for key in canon._table if any(
            a in names or (type(a) is tuple and names.intersection(a)) for a in key[1:]
        )]

    source = cqp.parse_cqp(
        "qubits zq ; state |0> ; channels zc ; process zc![zq].0 | zc?[zx].(zy := measure zx).ok"
    )
    verdicts = criteria.run_instance_checks(source, criteria.Budget(16, 200), seed=0)
    assert all(v.status == "holds" for v in verdicts.values())
    assert held()
    del source, verdicts
    gc.collect()
    assert held() == []


# -- the signature memo ----------------------------------------------------------


def _qccs(term):
    return qccs.QccsConfig(term, quantum.outer(quantum.StateVector(("q",), np.array([1, 0], dtype=complex))))


def _cqp(term):
    return cqp.CqpPure(quantum.StateVector(("q",), np.array([1, 0], dtype=complex)), ("c",), term)


def test_one_subterm_free_and_restricted_gets_two_signatures():
    out = qccs.Out("c", "q", qccs.Nil())
    renamed = qccs.Restrict(qccs.Out("d", "q", qccs.Nil()), ("d",))
    for term in (qccs.Par(out, qccs.Restrict(out, ("c",))), qccs.Par(qccs.Restrict(out, ("c",)), out)):
        assert qccs.congruent(_qccs(term), _qccs(qccs.Par(out, renamed)))
        assert not qccs.congruent(_qccs(term), _qccs(qccs.Par(out, out)))
        assert not qccs.congruent(_qccs(term), _qccs(qccs.Restrict(qccs.Par(out, out), ("c",))))

    sent = cqp.Out("c", "q", cqp.Nil())
    bound = cqp.NewChan("d", cqp.Out("d", "q", cqp.Nil()))
    for term in (cqp.Par(sent, cqp.NewChan("c", sent)), cqp.Par(cqp.NewChan("c", sent), sent)):
        assert cqp.congruent(_cqp(term), _cqp(cqp.Par(sent, bound)))
        assert not cqp.congruent(_cqp(term), _cqp(cqp.Par(sent, sent)))


def test_one_subterm_under_binders_at_two_depths_gets_two_signatures():
    # x is bound at depth 0 in a?x.Y and at depth 1 in b?y.a?x.Y
    inner = qccs.Out("c", "x", qccs.Nil())
    shallow, deep = qccs.In("a", "x", inner), qccs.In("b", "y", qccs.In("a", "x", inner))
    assert qccs.congruent(_qccs(qccs.Par(shallow, deep)), _qccs(qccs.Par(
        qccs.In("a", "z", qccs.Out("c", "z", qccs.Nil())),
        qccs.In("b", "x", qccs.In("a", "y", qccs.Out("c", "y", qccs.Nil()))),
    )))
    assert not qccs.congruent(_qccs(deep), _qccs(qccs.In("b", "x", qccs.In("a", "y", qccs.Out("c", "x", qccs.Nil())))))

    sent = cqp.Out("c", "x", cqp.Nil())
    shallow, deep = cqp.In("a", "x", sent), cqp.In("b", "y", cqp.In("a", "x", sent))
    assert cqp.congruent(_cqp(cqp.Par(shallow, deep)), _cqp(cqp.Par(
        cqp.In("a", "z", cqp.Out("c", "z", cqp.Nil())),
        cqp.In("b", "x", cqp.In("a", "y", cqp.Out("c", "y", cqp.Nil()))),
    )))
    assert not cqp.congruent(_cqp(deep), _cqp(cqp.In("b", "x", cqp.In("a", "y", cqp.Out("c", "x", cqp.Nil())))))


def _links(edges, order):
    """(v channels) the parallel composition of c?x.d?y.0 for each edge (c, d), in ``order``."""
    parts = [qccs.In(c, "x", qccs.In(d, "y", qccs.Nil())) for c, d in edges]
    term = parts[order[0]]
    for k in order[1:]:
        term = qccs.Par(term, parts[k])
    return _qccs(qccs.Restrict(term, tuple(dict.fromkeys(c for edge in edges for c in edge))))


@pytest.mark.parametrize(
    "edges",
    [
        [(f"ring{k}", f"ring{(k + 1) % 6}") for k in range(6)],
        [(f"star{k}", "star") for k in range(6)],
        [(f"match{k}", f"pair{k}") for k in range(6)],
        [("path0", "path1"), ("path1", "path2"), ("path2", "path3"), ("path0", "path4")],
    ],
)
def test_memoised_components_report_the_group_channels_they_read(edges, monkeypatch):
    # refinement splits a tied group's channels by the components each one
    # occurs in, so a component read from its memo must report the channels
    # it reads just as signing it afresh does
    reads = []
    walk = canon._Pass.walk

    def recorded(self, comps, depth):
        out = walk(self, comps, depth)
        reads.append([sorted(len(hits) for _, hits in out)])
        return out

    monkeypatch.setattr(canon._Pass, "walk", recorded)
    forward = list(range(len(edges)))
    fresh = qccs.canonical_key(_links(edges, forward))
    fresh_reads, reads[:] = reads[:], []
    # the same interned components under a new root: every one is memoised
    memoised = qccs.canonical_key(_links(edges, forward[::-1]))
    assert memoised == fresh
    assert reads == fresh_reads


def test_a_shadowed_channel_is_a_channel_of_its_own_in_the_extruded_group():
    # the inner (new a) is extruded into the outer group, where its channel
    # must stay apart from the outer a: on either side of the composition
    # (sibling restrictions share no names), and in every refinement round
    # (a component reads the current numbers of its channels)
    par = qccs.Par

    def new(body, *names):
        return qccs.Restrict(body, names)

    def send(c):
        return qccs.Out(c, "q", qccs.Nil())

    def recv(c):
        return qccs.In(c, "x", qccs.Nil())

    def key(t):
        return qccs.canonical_key(_qccs(t))

    for join in (par, lambda left, right: par(right, left)):
        for beside in ((), ("c",)):
            def group(inner, beside=beside):
                outputs = functools.reduce(par, [send(c) for c in ("a", *beside)])
                return new(join(outputs, inner), "a", *beside)

            shadowed, renamed, shared = group(new(recv("a"), "a")), group(new(recv("b"), "b")), group(recv("a"))
            assert key(shadowed) == key(renamed) != key(shared)

        # two channels, each read by one output and one input, against a
        # group of the same shape whose second input reads the first channel
        def pairs(inner):
            return new(join(par(send("a"), recv("a")), inner), "a")

        shadowed = pairs(new(par(send("a"), recv("a")), "a"))
        renamed = pairs(new(par(send("b"), recv("b")), "b"))
        crossed = pairs(new(par(send("b"), recv("a")), "b"))
        assert key(shadowed) == key(renamed) != key(crossed)


# -- colouring a group's channels by their uses ------------------------------------


def test_a_tied_group_is_numbered_alike_extruded_or_not_and_renamed():
    # a, b and c occur in one component, so refinement alone ties them; tau.nil
    # is in the scope of all, some or none of them, which extrusion may change
    def chain(x, y, z):
        return qccs.Out(x, "q", qccs.Out(y, "q", qccs.Out(z, "q", qccs.Nil())))

    idle = qccs.Tau(qccs.Nil())
    R, P = qccs.Restrict, qccs.Par
    forms = [R(P(chain("a", "b", "c"), idle), ("a", "b", "c")), P(R(chain("a", "b", "c"), ("c", "b", "a")), idle)]
    for x, y, z in itertools.permutations("abc"):
        forms.append(R(P(idle, R(chain("a", "b", "c"), (y, z))), (x,)))
        forms.append(R(P(R(chain("a", "b", "c"), (z,)), idle), (x, y)))
        forms.append(R(P(idle, R(chain(x, y, z), ("b", "c"))), ("a",)))
    keys = {qccs.canonical_key(_qccs(t)) for t in forms}
    assert len(keys) == 1
    reordered = R(P(chain("a", "b", "a"), idle), ("a", "b"))
    assert qccs.canonical_key(_qccs(reordered)) not in keys


_GATES = ("I", "X", "Z", "Y")


def _par(parts: list, data) -> qccs.Term:
    """``parts`` in a drawn order and association, with drawn ``nil``s."""
    parts = data.draw(st.permutations(parts + [qccs.Nil()] * data.draw(st.integers(0, 2))))
    while len(parts) > 1:
        k = data.draw(st.integers(0, len(parts) - 2))
        parts[k:k + 2] = [qccs.Par(parts[k], parts[k + 1])]
    return parts[0]


def _teleport_shaped(pairing, names, taus: int, data=None) -> qccs.Term:
    """One component behind ``taus`` prefixes ``tau`` and a choice: branch
    ``i`` sends ``q`` on ``names[i]`` beside every listener, and listener
    ``j`` receives on ``names[pairing[j]]`` and applies gate ``j``.  With
    ``data``, each branch's parallel parts are in a drawn order and
    association, with drawn ``nil``s."""
    listeners = [
        qccs.In(names[c], "y", qccs.SuperOp(qccs.GateOp(_GATES[j]), ("y",), qccs.Success()))
        for j, c in enumerate(pairing)
    ]
    branches = []
    for name in names:
        parts = [qccs.Out(name, "q", qccs.Nil()), *listeners]
        branches.append(qccs.Tau(_par(parts, data) if data else functools.reduce(qccs.Par, parts)))
    term = functools.reduce(lambda rest, b: qccs.Choice(b, rest), reversed(branches))
    for _ in range(taus):
        term = qccs.Tau(term)
    return term


def _restricted(component: qccs.Term, names, data) -> qccs.Term:
    """``component`` under restrictions of ``names``, nested, ordered and
    composed with ``nil`` as ``data`` draws."""
    order = data.draw(st.permutations(names))
    cut = data.draw(st.integers(0, len(order)))
    term = component
    for chans in (order[:cut], order[cut:]):
        if chans:
            term = qccs.Restrict(term, tuple(chans))
    if data.draw(st.booleans()):
        term = _par([term], data)
    return term


def _least_form(pairing, taus: int) -> str:
    """The least key of the unrestricted component over every assignment of
    the channel names k0.. to its channels: its form up to channel renaming."""
    return min(
        qccs.canonical_key(_qccs(_teleport_shaped(pairing, [f"k{i}" for i in perm], taus)))
        for perm in itertools.permutations(range(len(pairing)))
    )


def _drawn(pairing, taus: int, data) -> qccs.Term:
    names = data.draw(st.permutations([f"c{i}" for i in range(len(pairing))]))
    return _restricted(_teleport_shaped(pairing, names, taus, data), names, data)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_teleport_shaped_group_keeps_its_key(data):
    n, taus = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 2))
    pairing = data.draw(st.permutations(range(n)))
    first, second = _qccs(_drawn(pairing, taus, data)), _qccs(_drawn(pairing, taus, data))
    assert qccs.canonical_key(first) == qccs.canonical_key(second)
    assert qccs.congruent(first, second)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_teleport_shaped_group_tells_its_pairings_apart(data):
    n, taus = data.draw(st.integers(2, 4)), data.draw(st.integers(0, 2))
    pairing, other = data.draw(st.permutations(range(n))), data.draw(st.permutations(range(n)))
    first, second = _qccs(_drawn(pairing, taus, data)), _qccs(_drawn(other, taus, data))
    assert (qccs.canonical_key(first) == qccs.canonical_key(second)) == (pairing == other)
    assert qccs.congruent(first, second) == (_least_form(pairing, taus) == _least_form(other, taus))


def test_teleport_completeness_refines_each_group_once(monkeypatch, capsys):
    # refinement from the colouring leaves no teleport group tied, so no
    # group is individualised: a return of the tie search shows here
    calls = collections.Counter()
    for name in ("refine", "label"):
        def counted(self, *args, _name=name, _fn=getattr(canon._Pass, name)):
            calls[_name] += 1
            return _fn(self, *args)

        monkeypatch.setattr(canon._Pass, name, counted)
    gc.collect()
    assert cli.main(["check", str(protocols.path("teleport.cqp")), "--which", "completeness"]) == 0
    assert "completeness: holds" in capsys.readouterr().out
    assert calls["label"] > 0
    assert calls["refine"] == calls["label"]


# -- free names ------------------------------------------------------------------
# The hand-written walks that the node tuples replaced, kept as references.


def _cqp_free_names(t) -> frozenset[str]:
    match t:
        case cqp.Nil() | cqp.Success():
            return frozenset()
        case cqp.Par(l, r):
            return _cqp_free_names(l) | _cqp_free_names(r)
        case cqp.In(c, x, p):
            return frozenset({c}) | (_cqp_free_names(p) - {x})
        case cqp.Out(c, q, p):
            return frozenset({c, q}) | _cqp_free_names(p)
        case cqp.Trans(qs, _, p):
            return frozenset(qs) | _cqp_free_names(p)
        case cqp.Measure(qs, x, p):
            return frozenset(qs) | (_cqp_free_names(p) - {x})
        case cqp.NewChan(x, p) | cqp.NewQbit(x, p):
            return _cqp_free_names(p) - {x}
    raise TypeError(t)


def _qccs_free_qubits(t) -> frozenset[str]:
    match t:
        case qccs.Nil() | qccs.Success() | qccs.BTrue() | qccs.BFalse():
            return frozenset()
        case qccs.TraceNonzero(_, qs):
            return frozenset(qs)
        case qccs.Tau(p) | qccs.Restrict(p, _):
            return _qccs_free_qubits(p)
        case qccs.SuperOp(_, qs, p):
            return frozenset(qs) | _qccs_free_qubits(p)
        case qccs.In(_, x, p):
            return _qccs_free_qubits(p) - {x}
        case qccs.Out(_, q, p):
            return frozenset({q}) | _qccs_free_qubits(p)
        case qccs.Choice(l, r) | qccs.Par(l, r):
            return _qccs_free_qubits(l) | _qccs_free_qubits(r)
        case qccs.IfThen(b, p):
            return _qccs_free_qubits(b) | _qccs_free_qubits(p)
        case qccs.ConstCall(_, args):
            return frozenset(args)
    raise TypeError(t)


def _qccs_free_channels(t) -> frozenset[str]:
    match t:
        case qccs.Nil() | qccs.Success() | qccs.ConstCall():
            return frozenset()
        case qccs.Tau(p) | qccs.SuperOp(_, _, p) | qccs.IfThen(_, p):
            return _qccs_free_channels(p)
        case qccs.In(c, _, p) | qccs.Out(c, _, p):
            return frozenset({c}) | _qccs_free_channels(p)
        case qccs.Choice(l, r) | qccs.Par(l, r):
            return _qccs_free_channels(l) | _qccs_free_channels(r)
        case qccs.Restrict(p, chans):
            return _qccs_free_channels(p) - set(chans)
    raise TypeError(t)


# The demand walks that ``canon.demand`` replaced: ``qccs._demanded_qubits``,
# and the CQP- type checker's demand sets, which are these free names outside
# inputs less the names not typed "qbit".


def _cqp_demand(t) -> frozenset[str]:
    match t:
        case cqp.Nil() | cqp.Success() | cqp.In():
            return frozenset()
        case cqp.Par(l, r):
            return _cqp_demand(l) | _cqp_demand(r)
        case cqp.Out(c, q, p):
            return frozenset({c, q}) | _cqp_demand(p)
        case cqp.Trans(qs, _, p):
            return frozenset(qs) | _cqp_demand(p)
        case cqp.Measure(qs, x, p):
            return frozenset(qs) | (_cqp_demand(p) - {x})
        case cqp.NewChan(x, p) | cqp.NewQbit(x, p):
            return _cqp_demand(p) - {x}
    raise TypeError(t)


def _qccs_demanded_qubits(t) -> frozenset[str]:
    match t:
        case qccs.In():
            return frozenset()
        case qccs.Nil() | qccs.Success() | qccs.ConstCall():
            return qccs.free_qubits(t)
        case qccs.Tau(p) | qccs.Restrict(p, _):
            return _qccs_demanded_qubits(p)
        case qccs.SuperOp(_, qs, p):
            return frozenset(qs) | _qccs_demanded_qubits(p)
        case qccs.Out(_, q, p):
            return frozenset({q}) | _qccs_demanded_qubits(p)
        case qccs.Choice(l, r) | qccs.Par(l, r):
            return _qccs_demanded_qubits(l) | _qccs_demanded_qubits(r)
        case qccs.IfThen(b, p):
            return qccs.free_qubits(b) | _qccs_demanded_qubits(p)
    raise TypeError(t)


def _subterms(t):
    """``t`` and every term and guard below it."""
    yield t
    for field in dataclasses.fields(t):
        child = getattr(t, field.name)
        if isinstance(child, canon.Interned) and not isinstance(child, qccs.OpRef):
            yield from _subterms(child)


def _assert_free_names_match(cqp_terms, qccs_terms) -> int:
    checked = 0
    for sub in {s for t in cqp_terms for s in _subterms(t)}:
        assert cqp.free_names(sub) == _cqp_free_names(sub), cqp.format_term(sub)
        assert canon.demand(sub, cqp._node) == _cqp_demand(sub), cqp.format_term(sub)
        checked += 1
    for sub in {s for t in qccs_terms for s in _subterms(t)}:
        assert qccs.free_qubits(sub) == _qccs_free_qubits(sub), sub
        if not isinstance(sub, qccs.BoolExpr):
            assert qccs.free_channels(sub) == _qccs_free_channels(sub), sub
            demand = canon.demand(sub, qccs._node)
            assert {x for x in demand if x[0] != "@"} == _qccs_demanded_qubits(sub), sub
        checked += 1
    return checked


def test_derived_free_names_match_the_term_walks_over_the_campaign():
    cqp_terms, qccs_terms = [], []
    for seed in range(100):
        inst = criteria.Instance(criteria.gen_config(seed), criteria.Budget(48, 800), seed=seed)
        cqp_terms += [s.term for s in inst.source_lts.states]
        qccs_terms += [c.term for c in inst.encoded] + [c.term for c in inst.target_lts.states]
    assert _assert_free_names_match(cqp_terms, qccs_terms) > 1000


def test_derived_free_names_match_the_term_walks_on_the_protocols():
    cqp_terms, qccs_terms = [], []
    for name in ("teleport.cqp", "measurement.cqp"):
        source = cqp.parse_cqp(protocols.path(name).read_text())
        cqp_terms.append(source.term)
        qccs_terms.append(encode.encode_config(source).term)
    called = (
        "def A(x) = H[x].c!x.nil\n"
        "def B(x, y) = if tr(E{1}[x, y]) != 0 then A(y) + d?z.B(z, x)\n"
        "state qubits q, r ; rho = outer(|00>) ; process (B(q, r) | e?w.nil) \\ {c, f}"
    )
    for text in (protocols.path("counterexample.qccs").read_text(),
                 protocols.path("teleport-encoded.qccs").read_text(), called):
        defs, config, _ = qccs.parse_qccs(text)
        qccs_terms += [config.term] + [body for _, body in defs.values()]
    subterms = {s for t in qccs_terms for s in _subterms(t)}
    assert any(isinstance(s, qccs.ConstCall) for s in subterms)
    assert any(isinstance(s, qccs.TraceNonzero) for s in subterms)
    _assert_free_names_match(cqp_terms, qccs_terms)


def test_a_restriction_keeps_only_the_channels_free_in_its_body():
    body = qccs.Par(qccs.Out("c", "q", qccs.Nil()), qccs.In("e", "c", qccs.Out("d", "c", qccs.Nil())))
    term = qccs.Restrict(body, ("f", "d", "c", "q"))
    _assert_free_names_match([], [term])
    assert (qccs.free_channels(term), qccs.free_qubits(term)) == ({"e"}, {"q"})
    assert canon._entry(term, qccs._node)[0] == (canon.RES, ("@c", "@d"), body)
    # a restriction of dead channels only is congruent to its body
    dead = qccs.Restrict(qccs.Out("c", "q", qccs.Nil()), ("f", "q"))
    assert qccs.congruent(_qccs(dead), _qccs(qccs.Out("c", "q", qccs.Nil())))
