"""The raw-arc automaton representation, checked against the public API.

The reference product, trim and close below are written against the public
``Arc``/``Label`` view only, so they share no code with the raw-arc
operations they check. On random machines, open intersection, closing and
the three enrichments must match them exactly: same state count, start and
finals, and the same arcs as a multiset. The product's dead-end rule is
checked the same way. The mark that records a machine as trim is checked
never to lie, and `is_empty` against the search for a final it once ran
(``ref_is_empty``).
"""

import copy
import pickle
from collections import Counter
from dataclasses import FrozenInstanceError
from functools import reduce
from operator import or_
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import _kernel
from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.compiler import _Evaluator, _retyped, compile_rule
from redup.enrich import add_repeats, add_self_loops, add_skips
from redup.errors import AutomatonError
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    build_from_string,
    canonical,
    combine,
    determinize,
    empty_string_fsa,
    is_empty,
    minimize,
    never_fsa,
    project_surface,
    pruned_from_raw,
    symbol_fsa,
    trim,
)
from redup.interpret import ProductStats, close, intersect_open

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


def ref_is_empty(m):
    """The former `is_empty` walk: a search from the start for a final."""
    out = m.out_raw()
    seen, stack = {m.start}, [m.start]
    while stack:
        q = stack.pop()
        if q in m.finals:
            return False
        for _s, d, _b, _pc in out[q]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return True


def ref_product(a, b, closed=False):
    """Every reachable pair, numbered in depth-first discovery order as the
    kernel does; `closed` makes no arc of two consumers. Not trimmed."""
    ids, todo, arcs, finals = {(a.start, b.start): 0}, [(a.start, b.start)], [], set()
    out_a, out_b = a.out_arcs(), b.out_arcs()
    while todo:
        qa, qb = todo.pop()
        if qa in a.finals and qb in b.finals:
            finals.add(ids[qa, qb])
        for x in out_a[qa]:
            for y in out_b[qb]:
                if x.label.bits & y.label.bits and not (
                        closed and not x.label.pc and not y.label.pc):
                    if (x.dst, y.dst) not in ids:
                        ids[x.dst, y.dst] = len(ids)
                        todo.append((x.dst, y.dst))
                    label = Label(x.label.bits & y.label.bits, x.label.pc or y.label.pc)
                    arcs.append(Arc(ids[qa, qb], label, ids[x.dst, y.dst]))
    return Fsa(a.alphabet, len(ids), 0, finals, arcs), list(ids)


def ref_intersect_open(a, b, closed=False):
    return ref_trim(ref_product(a, b, closed)[0])


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
    start = draw(st.integers(0, n - 1))
    if draw(st.booleans()):
        # a dead state: not final, with no way out, entered by one to three arcs
        arcs += draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.just(n),
                      st.sampled_from(labels), st.booleans()),
            min_size=1, max_size=3,
        ))
        n += 1
    return Fsa(al, n, start, finals, [Arc(s, Label(b, pc), d) for s, d, b, pc in arcs])


def retyped_copies(al, draw, count):
    """`count` copies of one `random_fsa` machine, each arc's producer flag
    drawn anew for every copy.

    A product of the copies pairs each arc with itself, producer with
    consumer and consumer with consumer, so its closed product often has a
    pair that reaches the final only over two consumers, which independent
    machines rarely give. The one final is the last state a breadth-first
    search from the start finds, so it is reached, and over several arcs.
    """
    m = random_fsa(al, draw)
    order, out = [m.start], m.out_raw()
    for q in order:
        for _s, d, _b, _pc in out[q]:
            if d not in order:
                order.append(d)
    finals = frozenset({order[-1]})
    n_arcs = len(m.raw_arcs)
    flags = draw(st.lists(st.lists(st.booleans(), min_size=n_arcs, max_size=n_arcs),
                          min_size=count, max_size=count))
    return [Fsa.from_raw(al, m.n, m.start, finals,
                         tuple((s, d, b, pc) for (s, d, b, _), pc in zip(m.raw_arcs, pcs)))
            for pcs in flags]


def random_parts(al, draw, count=None):
    """Two or three (or `count`) operands: independent `random_fsa`
    machines or, as often, `retyped_copies` of one."""
    if count is None:
        count = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return retyped_copies(al, draw, count)
    return [random_fsa(al, draw) for _ in range(count)]


class _EveryPair:
    def __contains__(self, key):
        return True


# As `live`, makes `_kernel.product` build the closed product over every
# reachable pair; `close` gives that product trimmed.
EVERY_PAIR = _EveryPair()


def pruned(alphabet, result):
    """A product of `_kernel.product`, built whole and then trimmed."""
    n, start, finals, arcs, _entered = result
    return trim(Fsa.from_raw(alphabet, n, start, frozenset(finals), tuple(arcs)))


def check_intersect_open(ab, data):
    a, b = random_fsa(ab, data.draw), random_fsa(ab, data.draw)
    got, want = intersect_open(a, b), ref_intersect_open(a, b)
    same_machine(got, want)
    assert got.raw_arcs == want.raw_arcs  # the reference's discovery order too


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_intersect_open_matches_reference(ab, data):
    check_intersect_open(ab, data)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_close_and_trim_match_reference(ab, data):
    m = random_parts(ab, data.draw, 1)[0]
    same_machine(close(m), ref_close(m))
    same_machine(trim(m), ref_trim(m))


def check_closed_chain(ab, data):
    parts = random_parts(ab, data.draw)
    got = close(*parts)
    want = close(reduce(intersect_open, parts))
    assert got.n == want.n
    assert len(got.raw_arcs) == len(want.raw_arcs)
    assert len(got.finals) == len(want.finals)
    assert canonical(got) == canonical(want)
    assert all(pc for _s, _d, _b, pc in got.raw_arcs)
    # one part: filter the consumer arcs out, then trim
    m = parts[0]
    producers = tuple(arc for arc in m.raw_arcs if arc[3])
    assert close(m) == trim(Fsa.from_raw(ab, m.n, m.start, m.finals, producers))
    return parts


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_closed_product_matches_close_of_open_chain(ab, data):
    check_closed_chain(ab, data)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), closed=st.booleans())
def test_pruned_from_raw_equals_trim_on_unpruned_products(ab, data, closed):
    a, b = random_fsa(ab, data.draw), random_fsa(ab, data.draw)
    n, start, finals, arcs, _pairs = _kernel.product(a, b, EVERY_PAIR if closed else None)
    m = Fsa.from_raw(ab, n, start, frozenset(finals), tuple(arcs))
    assert pruned_from_raw(ab, n, start, finals, arcs) == trim(m)


# -- dead-end pairs ----------------------------------------------------------------------


def check_dead_end_rule(ab, data):
    """The open product, pruned, is the reference product trimmed, arc
    order included; it enters the start pair and exactly the reference's
    pairs whose states' out-labels overlap or are both final."""
    a, b = random_parts(ab, data.draw, 2)
    n, start, finals, arcs, entered = _kernel.product(a, b)
    got = pruned(ab, (n, start, finals, arcs, entered))
    want = ref_intersect_open(a, b)
    same_machine(got, want)
    assert got.raw_arcs == want.raw_arcs

    def mask(m, q):
        return reduce(or_, (arc.label.bits for arc in m.out_arcs()[q]), 0)

    kept = {(qa, qb) for qa, qb in ref_product(a, b)[1]
            if mask(a, qa) & mask(b, qb) or qa in a.finals and qb in b.finals}
    assert entered == n == len(kept | {(a.start, b.start)})


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dead_end_rule_keeps_the_pruned_product(ab, data):
    check_dead_end_rule(ab, data)


def test_a_dead_end_pair_is_no_longer_entered(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    x = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, True), (1, 2, b_, True)))
    # after a, state 1 only goes on by a, and state 3 by b
    y = Fsa.from_raw(ab, 5, 0, frozenset({2, 4}), (
        (0, 1, a_, False), (1, 2, a_, False), (0, 3, a_, False), (3, 4, b_, False),
    ))
    # (1, 1) leaves x by b and y by a: a dead end, and not entered
    assert ref_product(x, y)[1] == [(0, 0), (1, 1), (1, 3), (2, 4)]
    stats = ProductStats()
    got = intersect_open(x, y, stats)
    assert stats.per_call == [3]
    want = ref_intersect_open(x, y)
    same_machine(got, want)
    assert got.raw_arcs == want.raw_arcs == ((0, 1, a_, True), (1, 2, b_, True))


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
    m = unmarked(build_from_string(ab, "ab"))  # a builder's machine comes marked
    assert trim(m) is m and m._trim


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_is_empty_matches_the_search_for_a_final(ab, data):
    """On unmarked machines, with finals reached or not, dead starts and no
    finals at all, and on their trimmed, marked forms."""
    m = random_fsa(ab, data.draw)
    assert not m._trim
    assert is_empty(m) == ref_is_empty(m) == is_empty(trim(m))


def test_is_empty_of_unreachable_finals_a_dead_start_and_no_finals(ab):
    a_ = ab.char("a")
    unreachable = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, True), (2, 2, a_, True)))
    dead_start = Fsa.from_raw(ab, 3, 1, frozenset({2}), ((0, 2, a_, True), (2, 1, a_, True)))
    no_finals = Fsa.from_raw(ab, 2, 0, frozenset(), ((0, 1, a_, True),))
    reached = Fsa.from_raw(ab, 3, 1, frozenset({0, 2}), ((1, 2, a_, True),))
    for m, empty in ((unreachable, True), (dead_start, True), (no_finals, True), (reached, False)):
        assert not m._trim and is_empty(m) == ref_is_empty(m) == empty


def test_is_empty_of_a_marked_machine_or_one_without_finals_builds_no_adjacency(ab):
    a_ = ab.char("a")
    marked = build_from_string(ab, "ab")
    no_finals = Fsa.from_raw(ab, 2, 0, frozenset(), ((0, 1, a_, True), (1, 0, a_, True)))
    assert not is_empty(marked) and is_empty(no_finals)
    assert marked._out is None and no_finals._out is None


# -- the trim mark ---------------------------------------------------------------------


def unmarked(m):
    """A copy of `m` that is not marked trim."""
    return Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)


def check_marks(ms):
    for m in ms:
        if not m._trim:
            continue
        fresh = unmarked(m)
        assert not fresh._trim
        assert trim(fresh) == m
        assert not is_empty(fresh)
        for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
            assert twin == m and not twin._trim


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_trim_mark_never_lies(ab, data):
    a, b = random_parts(ab, data.draw, 2)
    # the enrichments and the retyping keep the mark, of an unmarked operand
    # (`trim` below can mark `a` itself) and of a marked one
    operands = (unmarked(a), trim(b))
    kept = [m for operand in operands for m in (
        add_self_loops(operand), add_skips(operand), add_repeats(operand),
        _retyped(operand, False), _retyped(operand, True))]
    assert [m._trim for m in kept] == [o._trim for o in operands for _ in range(5)]
    made = [trim(a), close(a), close(a, b), intersect_open(a, b), combine("concat", [a, b]),
            combine("star", [a]), determinize(a), minimize(a), canonical(a),
            project_surface(a)]
    sets = [0, ab.char("a"), ab.char("b"), ab.named_set("mora"), ab.named_set("vowel")]
    subject, more, context = (data.draw(st.sampled_from(sets)) for _ in range(3))
    built = [build_from_string(ab, data.draw(st.sampled_from(("", "a", "bab")))),
             empty_string_fsa(ab), symbol_fsa(ab, ab.char("a") | ab.char("b"), True),
             compile_rule(ab, subject, subject | more, context)]
    marked = data.draw(st.lists(
        st.sampled_from([m for m in made + built + kept if m._trim]), min_size=1, max_size=3))
    built.append(combine(data.draw(st.sampled_from(("concat", "union"))), marked))
    built.append(combine(data.draw(st.sampled_from(("star", "optional"))), marked[:1]))
    assert all(m._trim for m in built)
    made += [close(m) for m in made]
    check_marks(made + built + kept)


def test_every_machine_a_compile_marks_is_trim():
    """The eager evaluator returns only marked machines while it compiles
    the parameterless shipped entries, and each is trim. An empty machine,
    retyped, stays unmarked."""
    seen = {}
    real = _Evaluator.eval

    def recording(self, node, env):
        value = real(self, node, env)
        if isinstance(value, Fsa):
            seen[id(value)] = value
        return value

    with mock.patch.object(_Evaluator, "eval", recording):
        for name in GRAMMAR_NAMES:
            cg = load_grammar(name)
            for entry, macro in cg.macros.items():
                if not macro.params:
                    cg.compile(entry)
    assert len(seen) > 900 and all(m._trim for m in seen.values())
    check_marks(seen.values())
    assert not load_grammar("koasati").compile("consumer([t] & vowel)")._trim


def test_canonical_forms_of_the_shipped_entries_are_marked():
    """`canonical` renumbers `minimize`'s marked machine, and marks it; the
    canonical empty machine stays unmarked."""
    for name in GRAMMAR_NAMES:
        cg = load_grammar(name)
        forms = [canonical(cg.compile(entry))
                 for entry, macro in cg.macros.items() if not macro.params]
        assert forms and all(c._trim for c in forms)
        check_marks(forms)
        assert not canonical(never_fsa(cg.alphabet))._trim


def test_a_product_stays_marked_through_close_trim_and_is_empty(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    word = build_from_string(ab, "ab")  # producers
    chain = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, False), (1, 2, b_, False)))
    p = intersect_open(word, chain)
    assert p._trim and all(pc for *_arc, pc in p.raw_arcs)
    with mock.patch.object(Fsa, "from_raw", side_effect=AssertionError("built a copy")):
        assert close(p) is p and trim(p) is p
    assert not is_empty(p) and p._out is None  # answered without a walk
    # a product with a consumer arc, into a final of its own: filtered out
    branched = Fsa.from_raw(ab, 4, 0, frozenset({2, 3}), (
        (0, 1, a_, True), (1, 2, b_, True), (1, 3, b_, False),
    ))
    q = intersect_open(branched, chain)
    assert q._trim and q.n == 4 and not all(pc for *_arc, pc in q.raw_arcs)
    producers = tuple(arc for arc in q.raw_arcs if arc[3])
    assert close(q) == trim(Fsa.from_raw(ab, q.n, q.start, q.finals, producers))
    assert close(q).raw_arcs == ((0, 1, a_, True), (1, 2, b_, True))
    # a consumer arc to drop: a new machine, trimmed and marked
    m = trim(Fsa.from_raw(ab, 3, 0, frozenset({2}),
                          ((0, 1, a_, True), (1, 2, b_, True), (0, 2, a_, False))))
    assert m._trim
    closed = close(m)
    assert closed is not m and closed._trim
    assert closed.raw_arcs == ((0, 1, a_, True), (1, 2, b_, True))
    # the canonical empty machine is never marked
    assert not close(intersect_open(chain, chain))._trim

