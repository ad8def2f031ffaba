"""A parse reaches a wide state's live arcs through their targets, checked
against the product that scans every out-arc.

`_kernel.chain_product` enters a pair (q, i) of lexicon state and chain
position only when q is live there. When q has more out-arcs than there
are live states it could enter (those of S_(i+1) and of S_i, or of S_n
alone after the last token), it takes its arcs into them from their
in-arcs in the lexicon's memo, by their index in the lexicon's raw arcs,
and applies the token and loop tests to those alone, in index order. The
product must be the one a scan of every out-arc gives: the reference
(``ref_open_product``), pruned, equal byte for byte (state count, start,
finals, raw arc order and trim mark), with the same `ProductStats` count.

The lexicons drawn here have one wide state, with 20 to 200 out-arcs,
exact duplicates among them, technical loops on the state itself and arcs
back into it from other states, so paths cycle through it. They have
fewer than ten states, so every live pair at the wide state joins: its
out-arc list is replaced by one that fails when iterated, and each query
is parsed from a copy of the lexicon whose memo is cold, from the
lexicon, whose memo the drawn queries share, and again once every query
has been kept. The hypothesis test here sets no example count of its
own, so a profile registered in ``conftest.py`` can run it longer.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.fsa import Fsa
from redup.interpret import ProductStats, intersect_open, prepare_parse_input
from test_live_pairs import WIDE, stem_union
from test_product_path import identical, ref_open_product, ref_pruned


class Unscanned(list):
    """An out-arc list that may be measured but not iterated."""

    def __iter__(self):
        raise AssertionError("a wide state's out-arcs were scanned")


def unscanned_at(m, q):
    """`m` with the cached out-arcs of state `q` made `Unscanned`."""
    out = m.out_raw()
    out[q] = Unscanned(out[q])
    return m


def cold(m):
    return Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)


def wide_lexicon(al, draw):
    """Up to nine states, one of them (often the start) with 20 to 200
    out-arcs, some of them duplicated and some technical loops, and arcs
    from other states back into it."""
    n = draw(st.integers(2, 9))
    wide = draw(st.one_of(st.just(0), st.integers(0, n - 1)))
    labels = [al.char("a"), al.char("b"), al.char("a") | al.char("b"),
              al.named_set("mora"), al.repeat, al.skip, al.tech, al.skip | al.char("a")]
    state, label = st.integers(0, n - 1), st.sampled_from(labels)
    out = draw(st.lists(st.tuples(state, label, st.booleans()), min_size=20, max_size=150))
    out += draw(st.lists(st.sampled_from(out), max_size=40))  # duplicates
    out += draw(st.lists(st.tuples(st.just(wide), st.sampled_from(
        [al.repeat, al.skip, al.tech]), st.booleans()), max_size=10))  # loops
    back = draw(st.lists(st.tuples(state, label, st.booleans()), max_size=6))
    rest = draw(st.lists(st.tuples(state, state, label, st.booleans()), max_size=12))
    arcs = ([(wide, d, b, pc) for d, b, pc in out]
            + [(s, wide, b, pc) for s, b, pc in back]
            + [arc for arc in rest if arc[0] != wide])
    finals = frozenset(draw(st.sets(state, min_size=1)))
    arcs = draw(st.permutations(arcs))
    return Fsa.from_raw(al, n, 0, finals, tuple(arcs), check=True), wide


def check_join(m, plain, surface):
    """The parse of `surface` against `m` is the reference's over `plain`,
    a machine equal to `m`, and counts its pairs."""
    chain = prepare_parse_input(m.alphabet, surface)
    stats = ProductStats()
    got = intersect_open(m, chain, stats)
    identical(got, ref_pruned(m.alphabet, *ref_open_product(plain, chain)[:4]))
    assert stats.per_call == [got.n if got.finals else 0]
    return got


@settings(deadline=None)
@given(data=st.data())
def test_a_wide_state_joins_as_the_out_arc_scan(ab, data):
    lexicon, wide = wide_lexicon(ab, data.draw)
    plain = cold(lexicon)
    assert 20 <= len(plain.out_raw()[wide]) > 2 * lexicon.n
    unscanned_at(lexicon, wide)
    surfaces = data.draw(st.lists(st.text("ab", max_size=5), min_size=1, max_size=5))
    for surface in surfaces:
        check_join(unscanned_at(cold(lexicon), wide), plain, surface)
        check_join(lexicon, plain, surface)
    for surface in surfaces:
        check_join(lexicon, plain, surface)


@pytest.mark.parametrize("surface", ["", "a", "ab", "ba", "bb", "aba"])
def test_a_lexicon_s_start_is_joined_not_scanned(ab, surface):
    """The start of a union of stems, with three times `WIDE` out-arcs,
    against live sets of a few states each."""
    lexicon = stem_union(ab, 3 * WIDE)
    got = check_join(unscanned_at(cold(lexicon), lexicon.start), lexicon, surface)
    assert bool(got.finals) == (len(surface) == 2)


def test_the_join_reads_the_in_arcs_by_index(ab):
    """The memo's in-adjacency holds each arc as (source, label, index in
    the lexicon's raw arcs), in arc order."""
    lexicon = stem_union(ab, WIDE)
    intersect_open(lexicon, prepare_parse_input(ab, "ab"))
    inc = lexicon.live_memo()[None].inc
    assert sorted(k for arcs in inc for _s, _b, k in arcs) == list(range(len(lexicon.raw_arcs)))
    for d, arcs in enumerate(inc):
        assert [k for _s, _b, k in arcs] == sorted(k for _s, _b, k in arcs)
        for s, b, k in arcs:
            assert lexicon.raw_arcs[k][:3] == (s, d, b)
