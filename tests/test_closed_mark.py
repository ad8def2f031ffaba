"""A machine marked closed has no consumer arc, and only three results
carry the mark.

The mark lets `interpret.close` of one machine skip its scan of the arcs.
It is set on a parse's product whose arcs are all producers (and on the
lexicon's empty machine of rejected parses), on the closed product and on
whatever `close` of one machine returns; no operation copies it. Here
random machines go through drawn sequences of `close` (of one part and of
two), `intersect_open` (general, and against a parse chain), `enrich`,
`compiler._retyped` to consumers and to producers, `canonical`, `trim`,
copies and pickles, and after every step:

- a machine marked closed has no consumer arc;
- `close(m)` is `m` when `m` is marked closed and is trim or the
  canonical empty machine, and then it calls no `trim`;
- what `close` returns is marked, and a parse's product is marked exactly
  when all its arcs are producers;
- an enrichment, a consumer retyping, a copy or a pickle is not marked.

The hypothesis test here sets no example count of its own, so a profile
registered in ``conftest.py`` can run it longer.
"""

import copy
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.compiler import _retyped
from redup.enrich import enrich
from redup.fsa import Fsa, canonical, never_fsa, trim
from redup import interpret
from redup.interpret import close, intersect_open, prepare_parse_input
from test_representation import random_fsa


def all_producers(m):
    return all(pc for _s, _d, _b, pc in m.raw_arcs)


UNMARKED = {
    "enrich": enrich,
    "consumers": lambda m: _retyped(m, False),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda m: pickle.loads(pickle.dumps(m)),
}

OTHERS = {
    "producers": lambda m: _retyped(m, True),
    "canonical": canonical,
    "trim": trim,
}


def step(m, op, other, surface):
    """`op` applied to `m`, with the rules its result must keep."""
    if op in UNMARKED:
        got = UNMARKED[op](m)
        assert not got._closed
    elif op in OTHERS:
        got = OTHERS[op](m)
    elif op == "close":
        got = close(m)
        assert got._closed
    elif op == "close2":
        got = close(m, other)
        assert got._closed
    elif op == "open":
        got = intersect_open(m, other)
    else:
        got = intersect_open(m, prepare_parse_input(m.alphabet, surface))
        assert got._closed == all_producers(got)
    return got


def check_marks(m):
    if m._closed:
        assert all_producers(m)
        if m._trim or m == never_fsa(m.alphabet):
            with mock.patch.object(interpret, "trim", side_effect=AssertionError("trimmed")):
                assert close(m) is m


@settings(deadline=None)
@given(data=st.data())
def test_a_closed_mark_means_no_consumer_arc(ab, data):
    m = random_fsa(ab, data.draw)
    ops = sorted(UNMARKED) + sorted(OTHERS) + ["close", "close2", "open", "parse"]
    for op in data.draw(st.lists(st.sampled_from(ops), min_size=1, max_size=6)):
        other = random_fsa(ab, data.draw)
        surface = data.draw(st.text("ab", max_size=4))
        m = step(m, op, other, surface)
        check_marks(m)


def test_close_returns_a_marked_trim_machine_itself(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    m = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, True), (1, 2, b_, True)))
    assert not m._closed and close(m) is m
    assert m._closed and m._trim
    for unmarked in (enrich(m), _retyped(m, False), copy.copy(m), pickle.loads(pickle.dumps(m))):
        assert not unmarked._closed
    # one consumer arc: close filters it, and marks the new machine only
    mixed = Fsa.from_raw(ab, 3, 0, frozenset({2}), m.raw_arcs + ((0, 2, b_, False),))
    got = close(mixed)
    assert got is not mixed and got._closed and not mixed._closed
    assert got.raw_arcs == m.raw_arcs


def test_a_parse_product_is_marked_only_when_all_its_arcs_are_producers(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    producers = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, True), (1, 2, b_, True)))
    mixed = Fsa.from_raw(ab, 3, 0, frozenset({2}), ((0, 1, a_, True), (1, 2, b_, False)))
    p = intersect_open(producers, prepare_parse_input(ab, "ab"))
    assert p._closed and p._trim and close(p) is p
    q = intersect_open(mixed, prepare_parse_input(ab, "ab"))
    assert not q._closed and close(q) == never_fsa(ab)
    empty = intersect_open(mixed, prepare_parse_input(ab, "ba"))
    assert empty._closed and close(empty) is empty


def test_close_returns_the_lexicon_s_empty_machine_at_once(ab):
    """Every rejected parse returns the lexicon's one empty machine, which
    is marked closed but not trim: `close` of it calls no `trim`."""
    a_ = ab.char("a")
    m = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, a_, True),))
    empty = intersect_open(m, prepare_parse_input(ab, "b"))
    assert empty is m.live_memo()[None].empty
    assert empty._closed and not empty._trim and empty == never_fsa(ab)
    with mock.patch.object(interpret, "trim", side_effect=AssertionError("trimmed")):
        assert close(empty) is empty
        # an unmarked empty machine is trimmed as before
        with pytest.raises(AssertionError, match="trimmed"):
            close(never_fsa(ab))
