"""The raw-arc automaton representation, checked against the public API.

The reference product, trim and close below are written against the public
``Arc``/``Label`` view only, so they share no code with the raw-arc
operations they check. On random machines, open intersection, closing and
the three enrichments must match them exactly: same state count, start and
finals, and the same arcs as a multiset.
"""

import copy
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.enrich import add_repeats, add_self_loops, add_skips
from redup.errors import AutomatonError
from redup.fsa import Arc, Fsa, Label, build_from_string, project_surface, trim
from redup.interpret import close, intersect_open

# -- reference operations over the public view ---------------------------------


def ref_trim(m):
    out, inc = m.out_arcs(), m.in_arcs()
    fwd, stack = {m.start}, [m.start]
    while stack:
        for arc in out[stack.pop()]:
            if arc.dst not in fwd:
                fwd.add(arc.dst)
                stack.append(arc.dst)
    bwd, stack = set(m.finals), list(m.finals)
    while stack:
        for arc in inc[stack.pop()]:
            if arc.src not in bwd:
                bwd.add(arc.src)
                stack.append(arc.src)
    keep = sorted(fwd & bwd)
    if m.start not in keep:
        return Fsa(m.alphabet, 1, 0, frozenset(), ())
    new = {q: i for i, q in enumerate(keep)}
    arcs = [Arc(new[a.src], a.label, new[a.dst]) for a in m.arcs
            if a.src in new and a.dst in new]
    return Fsa(m.alphabet, len(keep), new[m.start],
               frozenset(new[q] for q in m.finals if q in new), arcs)


def ref_intersect_open(a, b):
    """Pairs numbered in depth-first discovery order, as the kernel does."""
    ids, todo, arcs, finals = {(a.start, b.start): 0}, [(a.start, b.start)], [], set()
    out_a, out_b = a.out_arcs(), b.out_arcs()
    while todo:
        qa, qb = todo.pop()
        if qa in a.finals and qb in b.finals:
            finals.add(ids[qa, qb])
        for x in out_a[qa]:
            for y in out_b[qb]:
                if x.label.bits & y.label.bits:
                    if (x.dst, y.dst) not in ids:
                        ids[x.dst, y.dst] = len(ids)
                        todo.append((x.dst, y.dst))
                    label = Label(x.label.bits & y.label.bits, x.label.pc or y.label.pc)
                    arcs.append(Arc(ids[qa, qb], label, ids[x.dst, y.dst]))
    return ref_trim(Fsa(a.alphabet, len(ids), 0, finals, arcs))


def ref_close(m):
    return ref_trim(Fsa(m.alphabet, m.n, m.start, m.finals,
                        [a for a in m.arcs if a.label.pc]))


def same_machine(got, want):
    assert (got.n, got.start, got.finals) == (want.n, want.start, want.finals)
    assert Counter(got.arcs) == Counter(want.arcs)


# -- random machines ---------------------------------------------------------------


def random_fsa(al, draw, n_max=5):
    n = draw(st.integers(1, n_max))
    labels = [al.char("a"), al.char("b"), al.char("a") | al.char("b"),
              al.named_set("mora"), al.repeat, al.skip | al.char("a")]
    arcs = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                  st.sampled_from(labels), st.booleans()),
        max_size=10,
    ))
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Fsa(al, n, draw(st.integers(0, n - 1)), finals,
               [Arc(s, Label(b, pc), d) for s, d, b, pc in arcs])


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_intersect_open_matches_reference(ab, data):
    a, b = random_fsa(ab, data.draw), random_fsa(ab, data.draw)
    same_machine(intersect_open(a, b), ref_intersect_open(a, b))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_close_and_trim_match_reference(ab, data):
    m = random_fsa(ab, data.draw)
    same_machine(close(m), ref_close(m))
    same_machine(trim(m), ref_trim(m))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_enrichments_match_reference(ab, data):
    m = random_fsa(ab, data.draw)
    content = [a for a in m.arcs if not a.label.bits & ab.tech]
    loops = [Arc(q, Label(ab.seg, False), q) for q in range(m.n)]
    skips = [Arc(a.src, Label(ab.skip, False), a.dst) for a in content]
    repeats = [Arc(a.dst, Label(ab.repeat, False), a.src) for a in content]
    for got, added in ((add_self_loops(m), loops), (add_skips(m), skips),
                       (add_repeats(m), repeats)):
        same_machine(got, Fsa(ab, m.n, m.start, m.finals, list(m.arcs) + added))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_project_surface_widens_labels_to_whole_tokens(ab, data):
    m = random_fsa(ab, data.draw)
    m = Fsa(ab, m.n, m.start, m.finals, [a for a in m.arcs if not a.label.bits & ab.tech])

    def widen(bits):
        tokens = {s.char for s in ab.members(bits)}
        return sum(ab.char(t) for t in tokens)

    want = ref_trim(Fsa(ab, m.n, m.start, m.finals,
                        [Arc(a.src, Label(widen(a.label.bits), a.label.pc), a.dst)
                         for a in m.arcs]))
    got = project_surface(m)
    assert (got.n, got.start, got.finals) == (want.n, want.start, want.finals)
    assert set(got.arcs) == set(want.arcs)  # projection also drops duplicate arcs


# -- the representation itself ---------------------------------------------------------


@pytest.mark.parametrize("args, match", [
    ((0, 0, (), ()), "at least one state"),
    ((2, 2, (), ()), "start"),
    ((2, 0, {2}, ()), "final"),
    ((2, 0, {-1}, ()), "final"),
    ((2, 0, {1}, (Arc(0, Label(1, True), 2),)), "endpoint"),
    ((2, 0, {1}, (Arc(-1, Label(1, True), 1),)), "endpoint"),
    ((2, 0, {1}, (Arc(0, Label(0, True), 1),)), "epsilon"),
    ((2, 0, {1}, (Arc(0, Label(-1, True), 1),)), "outside"),
    ((2, 0, {1}, (Arc(0, Label("a", True), 1),)), "bitmask"),
    ((2, 0, {1}, ((0, 1, 1, True),)), "Arc"),
    ((2, 0, 5, ()), "finals"),
    ((2, 0, (), None), "arcs"),
    ((2.0, 0, (), ()), "at least one state"),
    ((2, "0", (), ()), "start"),
])
def test_public_constructor_rejects_bad_input(ab, args, match):
    with pytest.raises(AutomatonError, match=match):
        Fsa(ab, *args)


def test_missing_alphabet_is_rejected():
    with pytest.raises(AutomatonError, match="Alphabet"):
        Fsa(None, 1, 0, (), ())


def test_builders_validate_raw_arcs(ab):
    with pytest.raises(AutomatonError, match="epsilon"):
        Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, 0, True),), check=True)
    Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, 0, True),))  # unchecked


@pytest.mark.parametrize("field", ["alphabet", "n", "start", "finals", "arcs", "raw_arcs"])
def test_fields_cannot_be_assigned(ab, field):
    m = build_from_string(ab, "ab")
    with pytest.raises(FrozenInstanceError):
        setattr(m, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(m, field)


def test_raw_and_public_paths_agree(ab):
    arcs = (Arc(0, Label(ab.char("a"), True), 1), Arc(1, Label(ab.char("b"), False), 1))
    public = Fsa(ab, 2, 0, frozenset({1}), arcs)
    raw = Fsa.from_raw(ab, 2, 0, frozenset({1}),
                       ((0, 1, ab.char("a"), True), (1, 1, ab.char("b"), False)))
    assert public == raw and hash(public) == hash(raw)
    assert len({public, raw}) == 1
    assert raw.arcs == arcs and all(type(a) is Arc for a in raw.arcs)
    assert raw.raw_arcs == public.raw_arcs
    assert raw.out_arcs() == public.out_arcs() == [[arcs[0]], [arcs[1]]]
    assert raw.in_arcs() == [[], list(arcs)]
    other = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, ab.char("a"), True),))
    assert other != raw


def test_copies_and_pickles_compare_equal(ab):
    m = build_from_string(ab, "abba")
    assert copy.deepcopy(m) == m
    assert pickle.loads(pickle.dumps(m)) == m


def test_trim_returns_a_live_machine_unchanged(ab):
    m = build_from_string(ab, "ab")
    assert trim(m) is m
