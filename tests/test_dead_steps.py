"""A step back that no state of its live set can take is settled by the
set's mask, and is not stored.

`_kernel._live_sets` keeps each distinct live set once, with its mask:
the OR of the labels of all in-arcs of its states, computed when the set
is first kept. A step the memo does not hold is first tested against the
mask of the set it starts from. When the label does not overlap it, the
step is dead: the walk stops, scans no arc and stores nothing. When it
does, some in-arc's source reads the label, so the step's set is not
empty. Checked after queries in drawn order, on the random acyclic and
cyclic machines of `test_live_pairs` and on a seeded Koasati lexicon:

- no step in the memo maps to an empty set;
- every kept set's mask is the OR of its states' in-arc labels,
  recomputed from `raw_arcs`, and S_n is kept with its mask;
- the live sets still equal the reference fixpoint's (``ref_live_sets``).

On 20,000 seeded queries against each of the seed-1 and seed-2
1,600-stem Koasati wordforms, the walk also equals a walk without the
mask test (``unmasked_walk``), which stores every step it computes, the
dead ones as the empty set; the memo holds exactly that walk's non-empty
steps. The hypothesis tests here set no example count of their own, so a
profile registered in ``conftest.py`` can run them longer.
"""

from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.fsa import Fsa
from test_koasati_oracle import compile_lexicon, koasati
from test_live_pairs import check_live_sets, live_sets, random_acyclic
from test_representation import random_fsa


def check_memo(m):
    """The memo's steps are live sets kept once, and each kept set's mask
    is its states' in-arc labels OR-ed together."""
    memo = m.live_memo()
    record = memo[None]
    in_bits = [0] * m.n
    for _s, d, b, _pc in m.raw_arcs:
        in_bits[d] |= b
    for live, (kept, mask) in record.sets.items():
        assert kept is live
        want = 0
        for q in live:
            want |= in_bits[q]
        assert mask == want
    assert record.sets[record.last][0] is record.last
    for key, live in memo.items():
        if key is not None:
            assert live
            assert record.sets[key[0]][0] is key[0] and record.sets[live][0] is live


def check_queries(m, surfaces):
    for surface in surfaces:
        check_live_sets(m, surface)
        check_memo(m)


@settings(deadline=None)
@given(data=st.data())
def test_no_dead_step_is_stored_on_acyclic_machines(ab, data):
    m = random_acyclic(ab, data.draw)
    check_queries(m, data.draw(st.lists(st.text("ab", max_size=6), min_size=1, max_size=6)))


@settings(deadline=None)
@given(data=st.data())
def test_no_dead_step_is_stored_on_cyclic_machines(ab, data):
    m = random_fsa(ab, data.draw)
    check_queries(m, data.draw(st.lists(st.text("ab", max_size=6), min_size=1, max_size=6)))


@lru_cache(maxsize=None)
def small_lexicon():
    """The seed-1 Koasati wordform of 40 stems, and 200 of its queries,
    half forms and half near misses."""
    stems = koasati.stems(1, 40)
    m = compile_lexicon(stems).compile(koasati.ENTRY)
    return m, koasati.queries(1, koasati.lexicon_forms(stems), 200)


@settings(deadline=None)
@given(data=st.data())
def test_no_dead_step_is_stored_on_a_koasati_lexicon(data):
    lexicon, queries = small_lexicon()
    m = Fsa.from_raw(lexicon.alphabet, lexicon.n, lexicon.start, lexicon.finals, lexicon.raw_arcs)
    check_queries(m, data.draw(st.lists(st.sampled_from(queries), min_size=1, max_size=6)))


def unmasked_walk(m):
    """The walk back without the mask test, as a function of a query's
    token labels: every step is computed from the in-arcs and stored in a
    memo of its own, the dead ones as the empty set. Returns the function
    and that memo."""
    inc = [[] for _ in range(m.n)]
    for s, d, b, _pc in m.raw_arcs:
        inc[d].append((s, b))
    tech = m.alphabet.tech

    def closure(found):
        todo = list(found)
        while todo:
            for s, b in inc[todo.pop()]:
                if b & tech and s not in found:
                    found.add(s)
                    todo.append(s)
        return frozenset(found)

    last = closure(set(m.finals))
    memo = {}

    def walk(labels):
        live, steps = last, [last]
        for label in reversed(labels):
            if not live:
                return None
            key = (live, label)
            if key not in memo:
                memo[key] = closure({s for d in live for s, b in inc[d] if b & label})
            live = memo[key]
            steps.append(live)
        return steps[::-1] if m.start in live else None

    return walk, memo


@pytest.mark.parametrize("seed", [1, 2])
def test_the_walk_equals_the_unmasked_walk_on_seeded_queries(seed):
    stems = koasati.stems(seed, 1600)
    cg = compile_lexicon(stems)
    m = cg.compile(koasati.ENTRY)
    m = Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)
    walk, steps = unmasked_walk(m)
    accepted = 0
    for query in koasati.queries(seed, koasati.lexicon_forms(stems), 20000):
        labels = cg.alphabet.token_masks(query)
        got = live_sets(m, labels)
        assert got == walk(labels)
        accepted += got is not None
    assert 9000 < accepted < 11000
    check_memo(m)
    memo = m.live_memo()
    dead = {key for key, live in steps.items() if not live}
    assert len(dead) > 1000
    assert set(memo) - {None} == set(steps) - dead
    assert set(memo[None].sets) == {memo[None].last} | set(steps.values()) - {frozenset()}
