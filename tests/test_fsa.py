"""Core automaton algebra: builders, rational ops, normalization, queries."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.alphabet import Alphabet
from redup.errors import AutomatonError, EnumerationCapError, InventoryError
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    accepts,
    build_from_string,
    canonical,
    combine,
    determinize,
    empty_string_fsa,
    enumerate_label_paths,
    enumerate_language,
    has_cycle,
    is_empty,
    label_atoms,
    language_equal,
    minimize,
    never_fsa,
    project_surface,
    surface_path,
    surface_strings,
    symbol_fsa,
    trim,
)
from test_representation import random_fsa

# Fully specified singleton symbols over the `ab` fixture: the first variant
# of each token (index 0 for a, 12 for b).
A0, B0 = 0, 12


def sym(al, idx, pc=False):
    return symbol_fsa(al, 1 << idx, pc)


def lang(a, n=4):
    return enumerate_language(a, n)


# -- construction and validation ---------------------------------------------


def test_build_from_string(ab):
    m = build_from_string(ab, "ab")
    assert m.n == 3 and m.start == 0 and m.finals == frozenset({2})
    assert [arc.label.bits for arc in m.arcs] == [ab.char("a"), ab.char("b")]
    assert all(arc.label.pc for arc in m.arcs)


def test_build_from_string_attrs(ab):
    mora = ab.named_set("mora")
    m = build_from_string(ab, "ab", attrs=[mora, None])
    assert m.arcs[0].label.bits == ab.char("a") & mora
    assert m.arcs[1].label.bits == ab.char("b")
    with pytest.raises(AutomatonError, match="empties"):
        build_from_string(ab, "ab", attrs=[ab.char("b"), None])
    with pytest.raises(AutomatonError, match="align"):
        build_from_string(ab, "ab", attrs=[None])


def test_build_from_string_raises_without_validating_its_chain(ab):
    with pytest.raises(InventoryError, match="cannot tokenize 'abc'"):
        build_from_string(ab, "abc")
    with pytest.raises(InventoryError, match="token 'c' is not in the inventory"):
        build_from_string(ab, ["a", "c"])
    with pytest.raises(AutomatonError, match="empties token 'a' at position 1"):
        build_from_string(ab, ["b", "a"], attrs=[None, ab.char("b")])
    mora = ab.named_set("mora")
    for attrs in (None, [mora, None, ab.char("b") | mora]):
        m = build_from_string(ab, "abb", attrs=attrs, pc=False)
        assert Fsa(ab, m.n, m.start, m.finals, m.arcs) == m  # passes the validator


def test_empty_label_arc_rejected(ab):
    with pytest.raises(AutomatonError, match="epsilon"):
        Fsa(ab, 2, 0, frozenset({1}), (Arc(0, Label(0, True), 1),))


def test_out_of_alphabet_bits_rejected(ab):
    with pytest.raises(AutomatonError, match="outside"):
        Fsa(ab, 2, 0, frozenset({1}), (Arc(0, Label(1 << ab.size, True), 1),))


def test_state_index_validation(ab):
    with pytest.raises(AutomatonError):
        Fsa(ab, 1, 1, frozenset(), ())
    with pytest.raises(AutomatonError):
        Fsa(ab, 1, 0, frozenset({3}), ())
    with pytest.raises(AutomatonError):
        Fsa(ab, 1, 0, frozenset(), (Arc(0, Label(1, True), 5),))


def test_trivial_builders(ab):
    assert lang(empty_string_fsa(ab)) == {()}
    assert lang(never_fsa(ab)) == set()
    assert is_empty(never_fsa(ab))
    assert not is_empty(empty_string_fsa(ab))
    assert lang(sym(ab, A0)) == {(A0,)}


# -- accepts ------------------------------------------------------------------


def test_accepts_any_variant(ab):
    m = build_from_string(ab, "ab")
    # every (a-variant, b-variant) pair is in the fully specified language
    assert accepts(m, [5, 12 + 11])
    assert accepts(m, [0, 12])
    assert not accepts(m, [12, 0])       # wrong tokens
    assert not accepts(m, [0])           # too short
    assert not accepts(m, [0, 12, 0])    # too long
    assert not accepts(m, [0, ab.size - 1])  # skip is not a b-variant


# -- rational operations -------------------------------------------------------


def test_concat(ab):
    m = combine("concat", [sym(ab, A0), sym(ab, B0)])
    assert lang(m) == {(A0, B0)}


def test_union(ab):
    m = combine("union", [sym(ab, A0), sym(ab, B0)])
    assert lang(m) == {(A0,), (B0,)}


def test_star(ab):
    m = combine("star", [sym(ab, A0)])
    assert lang(m, 3) == {(), (A0,), (A0, A0), (A0, A0, A0)}


def test_optional(ab):
    m = combine("optional", [combine("concat", [sym(ab, A0), sym(ab, B0)])])
    assert lang(m) == {(), (A0, B0)}


def test_nested_combine_oracle(ab):
    """(a b | b)* a — compared against a brute-force string oracle."""
    m = combine(
        "concat",
        [
            combine("star", [combine("union",
                [combine("concat", [sym(ab, A0), sym(ab, B0)]), sym(ab, B0)])]),
            sym(ab, A0),
        ],
    )
    words = {(A0, B0), (B0,)}
    expected = set()
    for k in range(6):
        for pick in itertools.product(words, repeat=k):
            w = tuple(x for part in pick for x in part) + (A0,)
            if len(w) <= 5:
                expected.add(w)
    assert lang(m, 5) == expected


def test_combine_empty_operand_lists(ab):
    assert lang(combine("concat", [], ab)) == {()}
    assert lang(combine("union", [], ab)) == set()


def test_combine_neutral_elements(ab):
    a = sym(ab, A0)
    assert language_equal(combine("concat", [a, empty_string_fsa(ab)]), a)
    assert language_equal(combine("union", [a, never_fsa(ab)]), a)
    assert language_equal(combine("concat", [a, never_fsa(ab)]), never_fsa(ab))


def test_combine_rejects_mixed_alphabets(ab, abc):
    with pytest.raises(AutomatonError, match="mismatched"):
        combine("union", [sym(ab, A0), sym(abc, A0)])


def test_combine_preserves_pc(ab):
    m = combine("concat", [sym(ab, A0, pc=True), sym(ab, B0, pc=False)])
    kinds = sorted((arc.label.bits, arc.label.pc) for arc in m.arcs)
    assert kinds == [(1 << A0, True), (1 << B0, False)]


# -- trim ----------------------------------------------------------------------


def test_trim_drops_dead_and_unreachable(ab):
    lbl = Label(1 << A0, True)
    arcs = (
        Arc(0, lbl, 1),        # live path
        Arc(0, lbl, 2),        # dead end
        Arc(3, lbl, 1),        # unreachable
    )
    m = Fsa(ab, 4, 0, frozenset({1}), arcs)
    t = trim(m)
    assert t.n == 2 and len(t.arcs) == 1
    assert lang(t) == lang(m)


def test_trim_to_never(ab):
    m = Fsa(ab, 2, 0, frozenset({1}), ())  # final unreachable
    assert trim(m) == never_fsa(ab)


# -- atoms, determinize, minimize ----------------------------------------------


def test_label_atoms_hand_case(ab):
    a, b = ab.char("a"), ab.char("b")
    atoms = label_atoms([a, a | b])
    assert sorted(atoms) == sorted([a, b])


@given(st.lists(st.integers(min_value=1, max_value=(1 << 10) - 1), max_size=6))
def test_label_atoms_properties(labels):
    atoms = label_atoms(labels)
    union = 0
    for x in atoms:
        assert x != 0
        assert union & x == 0  # pairwise disjoint
        union |= x
    total = 0
    for l in labels:
        total |= l
    assert union == total
    for l in labels:  # each label is a union of whole atoms
        assert sum(x for x in atoms if x & l) == l


def test_determinize_makes_deterministic(ab):
    lbl = Label(ab.char("a"), True)
    m = Fsa(ab, 3, 0, frozenset({1, 2}), (Arc(0, lbl, 1), Arc(0, lbl, 2)))
    d = determinize(m)
    for q, group in itertools.groupby(sorted(d.arcs), key=lambda x: x.src):
        group = list(group)
        for x, y in itertools.combinations(group, 2):
            if x.label.pc == y.label.pc:
                assert x.label.bits & y.label.bits == 0
    assert lang(d, 2) == lang(m, 2)


def test_minimize_hand_case(ab):
    """{ab, b} needs exactly 3 states."""
    m = combine("union", [
        combine("concat", [sym(ab, A0), sym(ab, B0)]),
        sym(ab, B0),
    ])
    mini = minimize(m)
    assert mini.n == 3
    assert lang(mini) == {(A0, B0), (B0,)}


def test_minimize_merges_duplicate_chains(ab):
    one = build_from_string(ab, "abba")
    m = minimize(combine("union", [one, build_from_string(ab, "abba")]))
    assert m.n == 5  # single chain again
    assert language_equal(m, one)


def test_minimize_keeps_producer_consumer_apart(ab):
    """A producer arc and a consumer arc over the same set never merge."""
    m = combine("union", [sym(ab, A0, pc=True), sym(ab, A0, pc=False)])
    mini = minimize(m)
    assert mini.n == 2
    assert sorted(arc.label.pc for arc in mini.arcs) == [False, True]


def test_canonical_is_language_identity(ab):
    x = combine("star", [combine("union", [sym(ab, A0), sym(ab, B0)])])
    y = combine("star", [x])  # (L*)* == L*
    assert canonical(x) == canonical(y)
    assert language_equal(x, y)
    assert not language_equal(x, combine("star", [sym(ab, A0)]))


def test_canonical_idempotent(ab):
    x = combine("concat", [sym(ab, A0), combine("optional", [sym(ab, B0)])])
    assert canonical(canonical(x)) == canonical(x)


def test_normalize_empty_is_canonical_never(ab):
    m = Fsa(ab, 3, 0, frozenset(), (Arc(0, Label(1 << A0, True), 1),))
    assert minimize(m) == never_fsa(ab)
    assert determinize(m) == never_fsa(ab)


# -- enumeration ----------------------------------------------------------------


def test_enumerate_cap(ab):
    m = combine("star", [combine("union", [sym(ab, A0), sym(ab, B0)])])
    with pytest.raises(EnumerationCapError):
        enumerate_language(m, 30, cap=100)


def test_cap_overflow_carries_the_complete_lengths(ab):
    m = combine("star", [combine("union", [sym(ab, A0), sym(ab, B0)])])
    with pytest.raises(EnumerationCapError) as caught:
        enumerate_language(m, 30, cap=100)
    # the 64 paths of length 6 and the 63 shorter ones overflow the cap of
    # 100; the shorter ones are kept
    assert caught.value.partial == lang(m, 5)
    assert EnumerationCapError(100).partial == frozenset()


def _largest_fitting_bound(enumerate_at, max_len):
    """What the largest bound below `max_len` that fits the cap returns."""
    found = set()
    for bound in range(max_len):
        try:
            found = enumerate_at(bound)
        except EnumerationCapError:
            break
    return found


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cap_overflow_keeps_the_largest_fitting_bound(ab, data):
    m = random_fsa(ab, data.draw)
    max_len = data.draw(st.integers(0, 6))
    cap = data.draw(st.integers(0, 60))
    for enumerate_at in (enumerate_language, enumerate_label_paths, surface_strings):
        try:
            enumerate_at(m, max_len, cap)
        except EnumerationCapError as err:
            expected = _largest_fitting_bound(lambda b: enumerate_at(m, b, cap), max_len)
            assert err.partial == expected, enumerate_at.__name__


def test_enumerate_label_paths(ab):
    m = build_from_string(ab, "ab")
    assert enumerate_label_paths(m, 5) == {
        (Label(ab.char("a"), True), Label(ab.char("b"), True)),
    }


# -- cycles, surface projection ---------------------------------------------------


def test_has_cycle(ab):
    assert not has_cycle(build_from_string(ab, "ab"))
    assert has_cycle(combine("star", [sym(ab, A0)]))


def test_surface_path_from_indices(ab):
    # a repeat b: technicals vanish
    assert surface_path(ab, [A0, ab.size - 2, B0]) == "ab"


def test_surface_path_from_labels(ab):
    path = [Label(ab.char("a") & ab.named_set("mora"), True),
            Label(ab.repeat, False),
            Label(ab.char("b"), True)]
    assert surface_path(ab, path) == "ab"
    with pytest.raises(AutomatonError, match="ambiguous"):
        surface_path(ab, [Label(ab.char("a") | ab.char("b"), True)])


def test_project_surface_erases_technicals(ab):
    rep = Label(ab.repeat, False)
    narrow_a = Label(ab.char("a") & ab.named_set(":1"), True)
    m = Fsa(ab, 3, 0, frozenset({2}),
            (Arc(0, narrow_a, 1), Arc(1, rep, 2), Arc(1, Label(ab.char("b"), True), 2)))
    p = project_surface(m)
    # the a-arc widens back to all 12 variants; the repeat arc is erased
    assert surface_strings(m) == {"a", "ab"}
    assert all(arc.label.bits & ab.tech == 0 for arc in p.arcs)
    assert lang(p, 2) >= {(A0,), (A0, B0)}


def test_surface_strings_requires_bound_on_cycles(ab):
    loop = combine("star", [sym(ab, A0)])
    with pytest.raises(AutomatonError, match="max_len"):
        surface_strings(loop)
    assert surface_strings(loop, max_len=2) == {"", "a", "aa"}


def test_surface_strings_acyclic_complete(ab):
    m = combine("union", [build_from_string(ab, "ab"), build_from_string(ab, "ba")])
    assert surface_strings(m) == {"ab", "ba"}


# -- randomized structural invariants ----------------------------------------------


def _random_fsa(al, draw):
    n = draw(st.integers(1, 4))
    labels = [1 << A0, 1 << B0, al.char("a"), al.char("a") | al.char("b")]
    arcs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from(labels), st.booleans()),
            max_size=6,
        )
    )
    finals = draw(st.sets(st.integers(0, n - 1)))
    return Fsa(al, n, 0, frozenset(finals),
               tuple(Arc(s, Label(b, pc), d) for s, d, b, pc in arcs))


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_normalization_preserves_language(ab, data):
    m = _random_fsa(ab, data.draw)
    reference = enumerate_language(m, 3, cap=500_000)
    d = determinize(m)
    mini = minimize(m)
    assert enumerate_language(d, 3, cap=500_000) == reference
    assert enumerate_language(mini, 3, cap=500_000) == reference
    assert mini.n <= max(d.n, 1)
    assert trim(trim(m)).n == trim(m).n
    assert canonical(canonical(m)) == canonical(m)
