"""Demand-driven expansion: equivalence with the eager operators, memoization,
budgets, and the trim-faithfulness of lazy move-back arcs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.alphabet import Alphabet
from redup.analyses import load_grammar
from redup.enrich import add_repeats, add_self_loops, add_skips, enrich
from redup.errors import AutomatonError, ExpansionBudgetError
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    accepts,
    build_from_string,
    canonical,
    combine,
    is_empty,
    language_equal,
    never_fsa,
    symbol_fsa,
    trim,
)
from redup.interpret import close, intersect_open, prepare_parse_input
from redup.lazy import (
    LazyFsa,
    is_empty_lazy,
    lazy_close,
    lazy_enrich,
    lazy_intersect,
    lazy_wrap,
    materialize,
    total_expansions,
)
from test_representation import random_fsa

BAMBARA = [(c, "vowel" if c in "uiaeo" else "consonant", ()) for c in "wulnyiafeo"]


@pytest.fixture(scope="module")
def bam():
    return Alphabet.from_inventory(BAMBARA)


def synced_constituent(al):
    s1 = al.named_set(":1")
    s0 = al.seg & al.complement(s1)
    parts = [
        symbol_fsa(al, s1, pc=False),
        combine("star", [symbol_fsa(al, s0, pc=False)]),
        symbol_fsa(al, s1, pc=False),
    ]
    return combine("concat", parts)


def bambara_morpheme(al):
    o = al.char("o") & al.complement(al.named_set(":1"))
    return combine(
        "concat",
        [
            synced_constituent(al),
            symbol_fsa(al, o, pc=True),
            combine("star", [symbol_fsa(al, al.repeat, pc=True)]),
            synced_constituent(al),
        ],
    )


def lazy_tower(l):
    for kind in ("self_loops", "skips", "repeats"):
        l = lazy_enrich(l, kind)
    return l


# -- plumbing -------------------------------------------------------------------


def test_wrapped_chain_roundtrips_exactly(bam):
    m = build_from_string(bam, "wulu")
    assert materialize(lazy_wrap(m)) == m


def test_expanding_start_touches_one_state(bam):
    l = lazy_wrap(build_from_string(bam, "wulu"))
    l.expand(l.start)
    assert l.cache_size == 1
    assert l.expansions == 1


def test_expansion_is_memoized(bam):
    l = lazy_wrap(build_from_string(bam, "wu"))
    first = l.expand(l.start)
    assert l.expand(l.start) == first
    assert l.expansions == 1
    assert l.cache_hits == 1


def test_expansion_lists_raw_out_arcs_in_order(bam):
    m = bambara_morpheme(bam)
    l = lazy_wrap(m)
    out = m.out_raw()
    for q in range(m.n):
        assert l.expand(q) == (tuple((d, b, pc) for _s, d, b, pc in out[q]), q in m.finals)


def test_unknown_enrichment_kind(bam):
    with pytest.raises(AutomatonError, match="kind"):
        lazy_enrich(lazy_wrap(never_fsa(bam)), "loops")


def test_lazy_intersect_requires_shared_alphabet(bam):
    other = Alphabet.from_inventory([("z", "consonant", ())])
    with pytest.raises(AutomatonError, match="mismatched"):
        lazy_intersect(
            lazy_wrap(build_from_string(bam, "w")),
            lazy_wrap(build_from_string(other, "z")),
        )


def test_total_expansions_counts_shared_nodes_once(bam):
    base = lazy_wrap(build_from_string(bam, "wu"))
    diamond = lazy_intersect(lazy_enrich(base, "self_loops"), lazy_close(base))
    materialize(diamond)
    per_node = [diamond.expansions, diamond.deps[0].expansions,
                diamond.deps[1].expansions, base.expansions]
    assert total_expansions(diamond) == sum(per_node)
    assert base.expansions == 3  # expanded once per state, not once per parent


# -- equivalence with the eager operators ----------------------------------------


EAGER_ENRICH = {"self_loops": add_self_loops, "skips": add_skips, "repeats": add_repeats}


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_lazy_operators_match_eager_on_random_machines(ab, data):
    a, b = random_fsa(ab, data.draw), random_fsa(ab, data.draw)
    product = lazy_intersect(a, b)
    assert canonical(materialize(product)) == canonical(intersect_open(a, b))
    closed = lazy_close(lazy_intersect(a, b))
    assert canonical(materialize(closed)) == canonical(close(a, b))
    # an enriched product is not compared: determinizing one can take minutes
    for kind, eager in EAGER_ENRICH.items():
        got = materialize(lazy_enrich(lazy_wrap(a), kind))
        assert canonical(got) == canonical(eager(trim(a))), kind


def test_lazy_self_loops_matches_eager(bam):
    m = build_from_string(bam, "wulu")
    got = materialize(lazy_enrich(lazy_wrap(m), "self_loops"))
    assert language_equal(got, add_self_loops(m))


def test_lazy_tower_matches_eager_enrich(bam):
    m = intersect_open(build_from_string(bam, "wulu"), synced_constituent(bam))
    got = materialize(lazy_tower(lazy_wrap(m)))
    assert language_equal(got, enrich(m))


def test_lazy_close_matches_eager(bam):
    m = combine(
        "union",
        [symbol_fsa(bam, bam.char("w"), pc=True), symbol_fsa(bam, bam.char("u"), pc=False)],
    )
    assert language_equal(materialize(lazy_close(lazy_wrap(m))), close(m))


def test_lazy_repeats_match_enrichment_of_trimmed_product(bam):
    """A lazy product keeps its dead pairs; move-back arcs must not revive them.

    Marked wulu has a dead pair after w:1 u:1 (the constituent closed too
    early).  An unfiltered move-back there would re-enter the live region and
    accept w:1 u:1 repeat u:0 l:0 u:1 — which the eager pipeline (enrichment
    after trimming) rejects.
    """
    untrimmed = lazy_intersect(
        lazy_wrap(build_from_string(bam, "wulu")),
        lazy_wrap(synced_constituent(bam)),
    )
    got = materialize(lazy_tower(untrimmed))
    eager = enrich(intersect_open(build_from_string(bam, "wulu"), synced_constituent(bam)))
    assert language_equal(got, eager)


def test_move_back_is_never_anchored_at_a_dead_state(bam):
    """Minimal counterexample guard: w goes to a final, u to a dead end.

    A move-back arc out of the dead end would admit 'u repeat w', which the
    eager route (trim, then enrich) cannot accept — the u arc does not even
    survive trimming.
    """
    dead_branch = Fsa(
        bam,
        3,
        0,
        frozenset({1}),
        (
            Arc(0, Label(bam.char("w"), True), 1),
            Arc(0, Label(bam.char("u"), True), 2),
        ),
    )
    got = materialize(lazy_enrich(lazy_wrap(dead_branch), "repeats"))
    w, u = 0 * 12, 1 * 12
    repeat = bam.repeat.bit_length() - 1
    assert accepts(got, (w,))
    assert accepts(got, (w, repeat, w))
    assert not accepts(got, (u, repeat, w))
    assert language_equal(got, add_repeats(trim(dead_branch)))


def test_full_bambara_pipeline_lazy_equals_eager(bam):
    morpheme = bambara_morpheme(bam)
    eager = close(
        intersect_open(
            enrich(intersect_open(build_from_string(bam, "wulu"), synced_constituent(bam))),
            morpheme,
        )
    )
    marked = lazy_intersect(
        lazy_wrap(build_from_string(bam, "wulu")), lazy_wrap(synced_constituent(bam))
    )
    top = lazy_close(lazy_intersect(lazy_tower(marked), lazy_wrap(morpheme)))
    assert language_equal(materialize(top), eager)


def test_materialize_drops_dead_states():
    """A lazy product keeps every pair it expands, dead ones included (595
    states for this entry); materialize returns the trimmed machine (81)."""
    koasati = load_grammar("koasati")
    eager = koasati.compile("wordform_lexicon")
    lazy = materialize(koasati.compile("wordform_lexicon", engine="lazy"))
    assert (lazy.n, len(lazy.raw_arcs)) == (eager.n, len(eager.raw_arcs))
    assert trim(lazy) is lazy
    assert language_equal(lazy, eager)


# -- budgets and emptiness -------------------------------------------------------


def test_materialize_budget_is_enforced(bam):
    l = lazy_wrap(build_from_string(bam, "wu"))
    with pytest.raises(ExpansionBudgetError) as exc:
        materialize(l, budget=1)
    assert exc.value.budget == 1
    materialize(lazy_wrap(build_from_string(bam, "wu")), budget=3)  # exact fit


@pytest.mark.parametrize("kind", sorted(EAGER_ENRICH))
def test_enrichment_budget_is_enforced(bam, kind):
    wulu = build_from_string(bam, "wulu")  # five states
    with pytest.raises(ExpansionBudgetError) as exc:
        lazy_enrich(lazy_wrap(wulu), kind, budget=4)
    assert exc.value.budget == 4
    lazy_enrich(lazy_wrap(wulu), kind, budget=5)  # exact fit


def test_emptiness_with_early_exit(bam):
    accepting_start = combine("optional", [build_from_string(bam, "wulu")])
    l = lazy_wrap(accepting_start)
    assert not is_empty_lazy(l)
    assert l.expansions == 1  # stopped at the start state

    assert is_empty_lazy(lazy_wrap(never_fsa(bam)))


def test_lazy_parse_agrees_with_eager(bam):
    marked = lazy_intersect(
        lazy_wrap(build_from_string(bam, "wulu")), lazy_wrap(synced_constituent(bam))
    )
    grammar = lazy_close(
        lazy_intersect(lazy_tower(marked), lazy_wrap(bambara_morpheme(bam)))
    )
    eager_grammar = close(
        intersect_open(
            enrich(intersect_open(build_from_string(bam, "wulu"), synced_constituent(bam))),
            bambara_morpheme(bam),
        )
    )
    for s in ("wuluowulu", "wuluwulu", "wulu", ""):
        lazily = not is_empty_lazy(
            lazy_close(lazy_intersect(lazy_wrap(prepare_parse_input(bam, s)), grammar))
        )
        eagerly = not is_empty(
            close(intersect_open(prepare_parse_input(bam, s), eager_grammar))
        )
        assert lazily == eagerly == (s == "wuluowulu")
