"""A lexicon keeps each accepted parse product, checked against the
products it would build again.

`_kernel.chain_product(lexicon, labels)`, which `interpret.intersect_open`
runs against a parse chain, keeps an accepted product, the trim machine
itself, in a table inside the lexicon's live memo, by the query's token
labels, so a query accepted before runs neither the walk back nor the
forward pass, and gets that same machine back. A rejected query is not
kept: it returns the one empty machine the memo holds.

- On 2,000 seeded queries against each of the seed-1 and seed-2 1,600-stem
  Koasati wordforms, a pass that keeps nothing gives the reference
  products; a pass that keeps them, and one that reads every accepted
  product from the table, must give the same machines exactly, the same
  `ProductStats.per_call`, one machine per distinct accepted query,
  returned again by every later parse of it, and no new step record.
- The table holds at most ``_kernel._PARSE_TABLE_ARCS`` arcs, drops its
  oldest products first and never keeps one larger than that: checked on
  the cyclic machine of `test_live_pairs` with a small budget, and on
  random lexicons with drawn budgets, whose parses must stay the
  reference's. The hypothesis test here sets no example count of its own,
  so a profile registered in ``conftest.py`` can run it longer.
- The shared empty machine equals `never_fsa` and behaves as it does
  under `close`, `trim` and `is_empty`.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import _kernel
from redup.fsa import Fsa, is_empty, never_fsa, trim
from redup.interpret import ProductStats, close, intersect_open, prepare_parse_input
from test_koasati_oracle import compile_lexicon, koasati
from test_live_pairs import chain_lexicon, check_parse, cycle_of_segments, empty_machine
from test_product_path import identical


def table(m):
    """The accepted products `m`'s live memo keeps, oldest first."""
    return m.live_memo()[None].parses


def cold_copy(m):
    return Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)


def cold_parse(m, surface):
    """The parse of `surface` against a copy of `m` whose memo is cold."""
    return intersect_open(cold_copy(m), prepare_parse_input(m.alphabet, surface))


# -- seeded queries at 1,600 stems ------------------------------------------------------


def wordform(seed):
    stems = koasati.stems(seed, 1600)
    cg = compile_lexicon(stems)
    return cg.alphabet, cg.compile(koasati.ENTRY), koasati.lexicon_forms(stems)


def parse_pass(m, chains):
    """Every chain parsed against `m`, with the per-call counts and the
    number of walks back."""
    stats, results = ProductStats(), []
    with mock.patch.object(_kernel, "_live_sets", wraps=_kernel._live_sets) as walks:
        for chain in chains:
            results.append(intersect_open(m, chain, stats))
    return results, stats.per_call, walks.call_count


@pytest.mark.parametrize("seed", [1, 2])
def test_products_from_the_table_match_cold_products(seed):
    al, lexicon_, accepted = wordform(seed)
    m = cold_copy(lexicon_)
    queries = koasati.queries(seed, accepted, 2000)
    chains = [prepare_parse_input(al, q) for q in queries]
    with mock.patch.object(_kernel, "_keep_parse"):
        wants, want_counts, walks = parse_pass(m, chains)
    assert walks == len(queries) and not table(m)
    steps = dict(m.live_memo())
    firsts = {q: i for i, q in reversed(list(enumerate(queries)))}
    accepts = [i for i, q in enumerate(queries) if q in accepted]
    repeats = sum(firsts[queries[i]] != i for i in accepts)
    assert 700 < len(accepts) < 1300 and 200 < repeats < len(accepts)
    passes = [parse_pass(m, chains), parse_pass(m, chains)]
    # the first pass walks back every query but the accepted repeats, the
    # second only the rejected ones
    assert [walks for _got, _counts, walks in passes] == [
        len(queries) - repeats, len(queries) - len(accepts)]
    empty = empty_machine(m)
    for got, counts, _walks in passes:
        assert counts == want_counts
        for q, result, want in zip(queries, got, wants):
            identical(result, want)
            if q not in accepted:
                assert result is empty
    # the first parse of each accepted query built its machine, and every
    # later parse of it returns that machine
    first = passes[0][0]
    for got, _counts, _walks in passes:
        for i in accepts:
            assert got[i] is first[firsts[queries[i]]]
    assert len({id(first[i]) for i in accepts}) == len(accepts) - repeats
    assert m.live_memo() == steps
    assert all(m.live_memo()[key] is record for key, record in steps.items())


# -- the budget ----------------------------------------------------------------------------


def fifo(sizes, budget):
    """What a table of this budget keeps of products of these sizes, added
    in order: the newest that fit, the oldest dropped first."""
    kept = []
    for key, size in sizes:
        if size > budget:
            continue
        kept.append((key, size))
        while sum(s for _k, s in kept) > budget:
            kept.pop(0)
    return [key for key, _size in kept]


def test_the_table_drops_its_oldest_products_first(ab, monkeypatch):
    m = cycle_of_segments(ab)
    surfaces = ["ab" * k for k in range(1, 11)]
    sizes = [len(cold_parse(m, s).raw_arcs) for s in surfaces]
    assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
    budget = sizes[3] + sizes[4]
    monkeypatch.setattr(_kernel, "_PARSE_TABLE_ARCS", budget)
    added = []
    for surface, size in zip(surfaces, sizes):
        check_parse(m, prepare_parse_input(ab, surface))
        added.append((tuple(prepare_parse_input(ab, surface)._tokens), size))
        kept = table(m)
        assert list(kept) == fifo(added, budget)
        assert kept.arcs == sum(len(p.raw_arcs) for p in kept.values()) <= budget
    # the two longest are each larger than the whole budget: the product
    # before them is all the table keeps
    assert sizes[-1] > sizes[-2] > budget
    assert list(table(m)) == [added[-3][0]]
    # rejected queries are not kept, and every parse, kept or not, is still
    # the cold one
    for surface in surfaces + ["a", "aba", "abba"] + surfaces:
        chain = prepare_parse_input(ab, surface)
        identical(check_parse(m, chain), cold_parse(m, surface))
        assert table(m).arcs <= budget
    assert all(len(key) % 2 == 0 for key in table(m))


@settings(deadline=None)
@given(data=st.data())
def test_parses_within_a_drawn_budget_match_the_reference(ab, data):
    """Random lexicons, drawn queries each parsed twice, and a budget from
    none to a few products: every parse is the reference's, and the table
    holds no more than the budget."""
    m = chain_lexicon(ab, data.draw)
    budget = data.draw(st.integers(0, 12))
    surfaces = data.draw(st.lists(st.text("ab", max_size=5), min_size=1, max_size=6))
    with mock.patch.object(_kernel, "_PARSE_TABLE_ARCS", budget):
        for surface in surfaces + surfaces:
            check_parse(m, prepare_parse_input(ab, surface))
            kept = table(m)
            assert kept.arcs == sum(len(p.raw_arcs) for p in kept.values()) <= budget


# -- the shared empty machine --------------------------------------------------------------


def test_every_rejected_parse_returns_the_lexicon_s_empty_machine(ab):
    m = cycle_of_segments(ab)
    empty = intersect_open(m, prepare_parse_input(ab, "b"))
    assert empty is empty_machine(m)
    for surface in ["", "a", "aba", "abba", "bab"]:
        assert intersect_open(m, prepare_parse_input(ab, surface)) is empty
    # one per lexicon
    other = cold_copy(m)
    assert intersect_open(other, prepare_parse_input(ab, "b")) is not empty
    want = never_fsa(ab)
    assert empty == want and hash(empty) == hash(want)
    identical(empty, want)
    assert trim(empty) is empty and close(empty) is empty and is_empty(empty)
    assert (empty._memo, empty._tokens) == (None, None)
