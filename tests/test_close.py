"""The backward-first closed product, against the forward product it replaced.

`close(*parts)` walks back from the pairs of finals first
(`_kernel.coreachable`) and then builds only the pairs found, so its result
is already trim. The reference below is the construction it replaced: the
forward closed product over every reachable pair, then `trim`. The two must
agree exactly (state count, start, finals and the raw arc sequence), not
only up to renumbering, on random machines with producer arcs and dead
states (independent ones, and copies of one machine retyped with mixed
producer flags), on every parameterless entry of the shipped grammars and
on a generated 400-stem Koasati wordform.
"""

from functools import reduce
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import _kernel
from redup import compiler as compiler_module
from redup.analyses import GRAMMAR_NAMES, grammar_source, load_grammar
from redup.compiler import compile_grammar
from redup.fsa import Fsa
from redup.interpret import ProductStats, close, closing_order, intersect_open
from test_koasati_oracle import koasati
from test_representation import EVERY_PAIR, pruned, random_parts


def forward_close(*parts, stats=None):
    """`close` as built before the backward pass: join every part but the
    largest openly, run the closed product over all reachable pairs, trim."""
    *rest, b = closing_order(parts)
    a = reduce(lambda x, y: intersect_open(x, y, stats), rest)
    return pruned(a.alphabet, _kernel.product(a, b, EVERY_PAIR))


def assert_identical(got, want):
    assert (got.n, got.start, got.finals) == (want.n, want.start, want.finals)
    assert got.raw_arcs == want.raw_arcs


def ref_coreachable(a, b):
    """Pairs that reach a pair of finals over closed arc pairs, found by
    searching the whole pair space over the public `Arc` view."""
    closed_in: dict[tuple[int, int], set[tuple[int, int]]] = {}
    for x in a.arcs:
        for y in b.arcs:
            if x.label.bits & y.label.bits and (x.label.pc or y.label.pc):
                closed_in.setdefault((x.dst, y.dst), set()).add((x.src, y.src))
    found = {(fa, fb) for fa in a.finals for fb in b.finals}
    stack = list(found)
    while stack:
        for pair in closed_in.get(stack.pop(), ()):
            if pair not in found:
                found.add(pair)
                stack.append(pair)
    return {qa * b.n + qb for qa, qb in found}


# -- random machines ---------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_close_equals_the_pruned_forward_product(ab, data):
    parts = random_parts(ab, data.draw)
    assert_identical(close(*parts), forward_close(*parts))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_coreachable_is_every_pair_that_reaches_a_final_pair(ab, data):
    a, b = random_parts(ab, data.draw, 2)
    live = _kernel.coreachable(a, b)
    assert live == ref_coreachable(a, b)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stats_record_the_backward_pairs_of_the_closed_product(ab, data):
    parts = random_parts(ab, data.draw)
    stats, opened = ProductStats(), ProductStats()
    close(*parts, stats=stats)
    *rest, b = closing_order(parts)
    a = reduce(lambda x, y: intersect_open(x, y, opened), rest)
    live = _kernel.coreachable(a, b)
    assert stats.per_call == opened.per_call + [len(live)]


def test_a_pair_that_reaches_a_final_only_over_consumers_is_not_entered(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    # (0, 0) -a-> (1, 1) is a producer arc, but (1, 1) -a-> (2, 2) pairs two
    # consumers; (0, 0) -b-> (2, 2) is the one closed path to the finals
    x = Fsa.from_raw(ab, 3, 0, frozenset({2}),
                     ((0, 1, a_, False), (1, 2, a_, False), (0, 2, b_, True)))
    y = Fsa.from_raw(ab, 3, 0, frozenset({2}),
                     ((0, 1, a_, True), (1, 2, a_, False), (0, 2, b_, False)))
    live = _kernel.coreachable(x, y)
    assert live == {0, 2 * 3 + 2}
    got = close(x, y)
    assert_identical(got, forward_close(x, y))
    assert (got.n, got.raw_arcs) == (2, ((0, 1, b_, True),))


def test_a_dead_start_pair_gives_the_empty_machine(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    # both consumers on a: no closed arc pair leaves the start pair
    x = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, a_, False),))
    y = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, False), (1, 2, b_, True)))
    got = close(x, y)
    assert_identical(got, forward_close(x, y))
    assert (got.n, got.finals, got.raw_arcs) == (1, frozenset(), ())


# -- shipped grammars and a generated lexicon -------------------------------------------


def compile_both(cg, entry, stats=None):
    """The entry compiled with `close`, and with the reference in its place."""
    got = cg.compile(entry, stats=stats)
    with mock.patch.object(compiler_module, "close", forward_close):
        want = cg.compile(entry)
    return got, want


@pytest.mark.parametrize("grammar", GRAMMAR_NAMES)
def test_shipped_entries_compile_to_identical_machines(grammar):
    cg = load_grammar(grammar)
    entries = [name for name, macro in cg.macros.items() if not macro.params]
    assert entries
    for entry in entries:
        got, want = compile_both(cg, entry)
        assert_identical(got, want)


def test_generated_400_stem_wordform_compiles_to_an_identical_machine():
    source = koasati.grammar_text(grammar_source("koasati"), koasati.stems(1, 400))
    cg = compile_grammar(source)
    stats = ProductStats()
    got, want = compile_both(cg, koasati.ENTRY, stats)
    assert got.finals
    assert_identical(got, want)
    # the work of the compile: 407 open products, and the closed one, whose
    # backward walk finds 6,223 of the pairs
    assert (stats.calls, stats.visited_pairs, got.n) == (408, 10542, 1853)
