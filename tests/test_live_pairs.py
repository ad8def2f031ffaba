"""A parse's product enters only live pairs, checked against the open
product it replaced.

`_kernel.chain_product(machine, labels)`, which `intersect_open` runs
against a chain built by `prepare_parse_input`, first walks the query
back through the machine and then enters only the pairs that can still
reach a pair of finals, so it builds its result trim and cuts nothing. The reference is
the open product a parse ran before (``ref_open_product``), pruned by
``ref_prune``. The two must agree exactly (state count, start, finals, the
raw arc sequence and the trim mark):

- on random machines, with technical, mixed technical-and-segment and
  consumer arcs and with cycles, against random token strings, the empty
  one included;
- on every parameterless shipped entry against the acceptance gate's parse
  strings and the golden forms, and against each of their single-edit near
  misses;
- on 2,000 seeded queries against the seed-1 400-stem Koasati wordform
  (`test_product_path.test_parses_of_seeded_queries_match`).

The live sets the backward walk gives (``_kernel._live_sets``) are checked
against a fixpoint over every pair of machine state and chain position, on
random acyclic and cyclic machines and on a hand-built cycle, whose memo
stays bounded whatever the query's length. A parse follows a lexicon's
wide start state's live arcs alone, in out-arc order. The memo a parse
fills in is checked by parsing twice, from a cold memo and from a warm
one: on random lexicons with a wide start, whose drawn queries share one
memo, and on the 2,000 seeded queries.

The parse products themselves are pinned by digest: ``golden/
parse_products.sha256`` holds the sha256 of the raw form of each open
product and of its `close`, over 3,000 seeded queries against each of the
seed-1 and seed-2 1,600-stem Koasati wordforms, so a change to the parse
path must leave every product as it is.

A parse enters exactly the live pairs, so `ProductStats` counts the pairs
of its result, and none for a query the backward walk rejects. The walk's
memo on the machine gains no entry from queries it has seen, and neither
it nor the chain's mark takes part in equality, hashing, pickling or
copies. No compile walks back: its open products keep the dead-end test
alone. The hypothesis tests here set no example count of their own, so a
profile registered in ``conftest.py`` can run them longer.
"""

import copy
import hashlib
import pickle
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import _kernel
from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.fsa import Fsa, combine
from redup.interpret import ProductStats, close, intersect_open, prepare_parse_input
from test_acceptance import PARSE_CASES
from test_koasati_oracle import compile_lexicon, koasati
from test_product_path import (
    identical, lexicon, ref_open_product, ref_pruned, shipped_entries,
)
from test_representation import random_fsa

GOLDEN = Path(__file__).parent / "golden"


def empty_machine(m):
    """The one empty machine `m`'s memo returns for every rejected query."""
    return m.live_memo()[None].empty


def check_parse(m, chain):
    """The parse's product is the reference's pruned, and counts its pairs."""
    stats = ProductStats()
    got = intersect_open(m, chain, stats)
    identical(got, ref_pruned(m.alphabet, *ref_open_product(m, chain)[:4]))
    assert stats.per_call == [got.n if got.finals else 0]
    return got


@settings(deadline=None)
@given(data=st.data())
def test_parses_of_random_machines_match(ab, data):
    m = random_fsa(ab, data.draw)
    for surface in data.draw(st.lists(st.text("ab", max_size=6), min_size=1, max_size=4)):
        check_parse(m, prepare_parse_input(ab, surface))


@pytest.mark.parametrize("surface, n", [
    ("ab", 3), ("a", 3), ("", 0), ("b", 0), ("aab", 0), ("abb", 0)])
def test_a_rejected_query_enters_no_pair(ab, surface, n):
    a_, b_ = ab.char("a"), ab.char("b")
    m = Fsa.from_raw(ab, 3, 0, frozenset({2}), (
        (0, 1, a_, True), (1, 1, ab.repeat, False), (1, 2, b_ | ab.skip, True)))
    chain = prepare_parse_input(ab, surface)
    got = _kernel.chain_product(m, chain._tokens)
    if not n:
        assert got is empty_machine(m)
    assert check_parse(m, chain) is got and got.n == max(n, 1)


# -- the live sets -------------------------------------------------------------------------


def ref_live_sets(m, labels):
    """Per chain state i, the states q of `m` from which the pair (q, i)
    reaches a pair of finals: a fixpoint over every pair, not only those
    the start pair reaches, in which an arc of `m` reads token i's label
    or a technical symbol as its label allows."""
    tech, last = m.alphabet.tech, len(labels)
    live = [set() for _ in range(last + 1)]
    live[last] |= m.finals
    changed = True
    while changed:
        changed = False
        for s, d, b, _pc in m.raw_arcs:
            for i in range(last + 1):
                if s not in live[i] and (b & tech and d in live[i]
                                         or i < last and b & labels[i] and d in live[i + 1]):
                    live[i].add(s)
                    changed = True
    return live


def live_sets(m, labels):
    """`_kernel._live_sets` of `m`, passed the memo and the record under
    None that `chain_product` looks up (the record built if it is not
    there yet)."""
    memo = m.live_memo()
    return _kernel._live_sets(m, labels, memo, memo.get(None) or _kernel._first_record(m, memo))


def check_live_sets(m, surface):
    """`_kernel._live_sets` gives the reference's sets, or None exactly
    when the start pair is not live; the parse then agrees too."""
    chain = prepare_parse_input(m.alphabet, surface)
    want = ref_live_sets(m, chain._tokens)
    lives = live_sets(m, chain._tokens)
    if m.start in want[0]:
        assert lives == want
    else:
        assert lives is None
    check_parse(m, chain)
    return lives


def random_acyclic(al, draw):
    """Forward arcs only, plus self-loops of technicals."""
    n = draw(st.integers(1, 6))
    labels = [al.char("a"), al.char("b"), al.char("a") | al.char("b"),
              al.named_set("mora"), al.repeat, al.skip | al.char("a")]
    drawn = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.sampled_from(labels)),
        max_size=12,
    ))
    forward = [(s, d, b) for s, d, b in drawn if s < d]
    loops = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from([al.repeat, al.skip, al.tech])),
        max_size=3,
    ))
    arcs = [(s, d, b, True) for s, d, b in forward] + [(q, q, b, False) for q, b in loops]
    finals = frozenset(draw(st.sets(st.integers(0, n - 1))))
    return Fsa.from_raw(al, n, 0, finals, tuple(arcs), check=True)


@settings(deadline=None)
@given(data=st.data())
def test_live_sets_are_exact_on_acyclic_machines(ab, data):
    m = random_acyclic(ab, data.draw)
    for surface in data.draw(st.lists(st.text("ab", max_size=6), min_size=1, max_size=4)):
        check_live_sets(m, surface)


@settings(deadline=None)
@given(data=st.data())
def test_live_sets_are_exact_on_cyclic_machines(ab, data):
    m = random_fsa(ab, data.draw)
    for surface in data.draw(st.lists(st.text("ab", max_size=6), min_size=1, max_size=4)):
        check_live_sets(m, surface)


def cycle_of_segments(ab):
    a_, b_ = ab.char("a"), ab.char("b")
    return Fsa.from_raw(ab, 4, 0, frozenset({2}), (
        (0, 1, a_, True), (1, 1, ab.repeat, False),  # a loop of technicals
        (1, 2, b_, True), (2, 0, ab.repeat, False),  # a cycle back to the start
        (0, 3, a_, True),  # 3 reaches no final
    ))


def test_a_cycle_of_segments_keeps_the_memo_bounded(ab):
    """Every turn of the cycle walks back through the same two steps, so
    queries of any length add no entry after the first, and a dead step
    adds none at all."""
    m = cycle_of_segments(ab)
    assert check_live_sets(m, "abab") == [{0, 2}, {1}, {0, 2}, {1}, {2}]
    # S_n, and the steps back over b from {2}, over a from {1} and over b
    # from {0, 2}
    assert len(m.live_memo()) == 4
    for surface in ["ab", "ababab", "abababab", "aba", "abba"]:
        check_live_sets(m, surface)
    # the step back over a from {2} is dead, since no in-arc of 2 reads a:
    # the mask of {2} settles it, and it is not stored
    assert len(m.live_memo()) == 4


@pytest.mark.parametrize("surface", ["", "a", "abba", "babab"])
def test_live_sets_of_a_chain_are_the_states_that_reach_a_final_pair(ab, surface):
    """The cycle, with a mixed technical-and-segment arc out of the state
    that reached no final, and an arc into it."""
    m = cycle_of_segments(ab)
    m = Fsa.from_raw(ab, m.n, m.start, m.finals, m.raw_arcs + (
        (3, 2, ab.skip | ab.char("a"), False), (2, 3, ab.char("b"), True)))
    check_live_sets(m, surface)


# -- wide states ---------------------------------------------------------------------------

# More out-arcs than the live states ahead, as at a lexicon's start: a
# parse follows only the live arcs, in out-arc order.
WIDE = 16


def stems_of_lengths(ab, lengths):
    """A union of one stem per length, each a chain of a-or-b producers."""
    ab_ = ab.char("a") | ab.char("b")
    return combine("union", [
        Fsa.from_raw(ab, k + 1, 0, frozenset({k}), tuple((i, i + 1, ab_, True) for i in range(k)))
        for k in lengths
    ])


def test_a_pair_of_the_wrong_length_is_no_longer_entered(ab):
    lexicon = stems_of_lengths(ab, [1, 2, 3, 4] * WIDE)
    chain = prepare_parse_input(ab, "ab")
    assert len(lexicon.out_raw()[lexicon.start]) == 4 * WIDE
    stats = ProductStats()
    identical(intersect_open(lexicon, chain, stats),
              ref_pruned(ab, *ref_open_product(lexicon, chain)[:4]))
    # from the start pair, a one-token stem is a dead end; with the dead-end
    # test alone every longer stem enters a pair, and a two-token stem one
    # more after it, while only the two-token stems' pairs are live
    assert ref_open_product(lexicon, chain)[4] == 1 + 4 * WIDE
    assert stats.per_call == [1 + 2 * WIDE]


def stem_union(ab, count):
    """A union of `count` two-token stems whose first labels interleave a,
    b and a-or-b, producers and consumers: the start has `count` out-arcs."""
    a_, b_ = ab.char("a"), ab.char("b")
    firsts = [(a_, True), (b_, False), (a_ | b_, True), (a_, False), (b_, True)]
    stems = []
    for i in range(count):
        bits, pc = firsts[i % len(firsts)]
        stems.append(Fsa.from_raw(ab, 3, 0, frozenset({2}),
                                  ((0, 1, bits, pc), (1, 2, b_ if i % 2 else a_, pc))))
    return combine("union", stems)


@pytest.mark.parametrize("surface", ["", "a", "aa", "ab", "ba", "bb", "aba"])
def test_a_wide_state_keeps_the_out_arc_order(ab, surface):
    """A parse follows a wide start state's live arcs alone, in out-arc
    order, so the product is the reference's, arc order included, and its
    start has fewer out-arcs than the lexicon's; a query of any other
    length than two enters no pair."""
    lexicon = stem_union(ab, 3 * WIDE)
    chain = prepare_parse_input(ab, surface)
    got = check_parse(lexicon, chain)
    steps = live_sets(lexicon, chain._tokens)
    if len(surface) == 2:
        assert got.finals
        assert len(got.out_raw()[got.start]) < len(lexicon.out_raw()[lexicon.start])
    else:
        assert steps is None and not got.finals


def chain_lexicon(al, draw):
    """A start state fanning out into `WIDE` to twice as many chains of
    one to four arcs, with random labels, producer flags and finals, and a
    few self-loops of technicals. Not trimmed: a chain may reach no final."""
    labels = [al.char("a"), al.char("b"), al.char("a") | al.char("b"),
              al.named_set("mora"), al.repeat, al.skip | al.char("a")]
    chains = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(labels), st.booleans(), st.booleans()),
                 min_size=1, max_size=4),
        min_size=WIDE, max_size=2 * WIDE,
    ))
    arcs, finals, n = [], set(), 1
    for chain in chains:
        src = 0
        for bits, pc, final in chain:
            arcs.append((src, n, bits, pc))
            if final:
                finals.add(n)
            src, n = n, n + 1
    if draw(st.booleans()):
        finals.add(0)
    loops = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.sampled_from([al.repeat, al.skip, al.tech])),
        max_size=3,
    ))
    arcs += [(q, q, bits, False) for q, bits in loops]
    return Fsa.from_raw(al, n, 0, frozenset(finals), tuple(arcs), check=True)


@settings(deadline=None)
@given(data=st.data())
def test_wide_lexicons_parse_as_the_reference(ab, data):
    """Each query is parsed from a copy of the lexicon, whose memo is
    cold, and from the lexicon, whose memo the drawn queries share; after
    them all, each again from the lexicon, whose memo is then warm."""
    lexicon = chain_lexicon(ab, data.draw)
    surfaces = data.draw(st.lists(st.text("ab", max_size=5), min_size=1, max_size=4))
    for surface in surfaces:
        cold = Fsa.from_raw(ab, lexicon.n, lexicon.start, lexicon.finals, lexicon.raw_arcs)
        check_live_sets(cold, surface)
        check_live_sets(lexicon, surface)
    for surface in surfaces:
        check_live_sets(lexicon, surface)


# -- shipped entries -----------------------------------------------------------------------


def parse_strings(grammar):
    """The acceptance gate's parse strings and the golden forms of
    `grammar`."""
    golden = (GOLDEN / f"{grammar}.forms").read_text().splitlines()
    return sorted({string for g, _entry, string, _ok in PARSE_CASES if g == grammar}
                  | {form for line in golden for form in line.split("\t")[1].split()})


def near_misses(al, string):
    """Every string one token deletion, or one insertion or substitution of
    a token of its own, away."""
    tokens = al.tokenize(string)
    edits = set()
    for i in range(len(tokens) + 1):
        edits.add(tuple(tokens[:i] + tokens[i + 1:]))
        for t in set(tokens):
            edits.add(tuple(tokens[:i] + [t] + tokens[i:]))
            edits.add(tuple(tokens[:i] + [t] + tokens[i + 1:]))
    return {"".join(edit) for edit in edits}


@lru_cache(maxsize=None)
def compiled(grammar, entry):
    return load_grammar(grammar).compile(entry)


@pytest.mark.parametrize("grammar", GRAMMAR_NAMES)
def test_parses_of_shipped_entries_and_near_misses_match(grammar):
    al = load_grammar(grammar).alphabet
    strings = sorted({miss for string in parse_strings(grammar)
                      for miss in near_misses(al, string)})
    entries = [entry for g, entry in shipped_entries() if g == grammar]
    accepted = 0
    for entry in entries:
        for string in strings:
            got = check_parse(compiled(grammar, entry), prepare_parse_input(al, string))
            accepted += bool(got.finals)
    # some of the near misses parse
    assert entries and accepted


def test_a_second_pass_adds_no_memo_entry():
    """Every step record stays the same object. No accepted product is
    kept, so the second pass walks back and runs the forward pass of every
    query (`test_parse_table` checks a pass from the kept products)."""
    cg, m, accepted = lexicon(400)
    queries = koasati.queries(3, accepted, 500)
    with mock.patch.object(_kernel, "_keep_parse"):
        for q in queries:
            intersect_open(m, prepare_parse_input(cg.alphabet, q))
        memo = dict(m.live_memo())
        for q in queries:
            intersect_open(m, prepare_parse_input(cg.alphabet, q))
    assert m.live_memo() == memo
    assert all(m.live_memo()[key] is value for key, value in memo.items())


def test_the_memo_and_the_chain_mark_are_left_out_of_equality_pickling_and_copies():
    cg, m, accepted = lexicon(400)
    chain = prepare_parse_input(cg.alphabet, sorted(accepted)[0])
    got = intersect_open(m, chain)
    assert got.finals and m._memo and chain._tokens
    for x in (m, chain):
        fresh = Fsa.from_raw(x.alphabet, x.n, x.start, x.finals, x.raw_arcs)
        assert fresh == x and hash(fresh) == hash(x)
        for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x)), fresh):
            assert twin == x and (twin._memo, twin._tokens) == (None, None)
    # a chain without its mark is a plain machine: its product is cut
    # from the open product, and is the same
    plain = pickle.loads(pickle.dumps(chain))
    identical(intersect_open(m, plain), got)


def test_compiles_walk_back_no_query():
    """A compile's operands are no parse chains: every open product of the
    shipped entries and of a 400-stem wordform takes the dead-end path."""
    with mock.patch.object(_kernel, "chain_product", side_effect=AssertionError("walked")):
        for grammar, entry in shipped_entries():
            load_grammar(grammar).compile(entry)
        machine = compile_lexicon(koasati.stems(1, 400)).compile(koasati.ENTRY)
    assert machine._memo is None


def test_parse_products_match_the_golden_digest():
    digest = hashlib.sha256()
    for seed in (1, 2):
        stems = koasati.stems(seed, 1600)
        cg = compile_lexicon(stems)
        m = cg.compile(koasati.ENTRY)
        for query in koasati.queries(seed, koasati.lexicon_forms(stems), 3000):
            p = intersect_open(m, prepare_parse_input(cg.alphabet, query))
            for x in (p, close(p)):
                digest.update(repr((x.n, x.start, sorted(x.finals), x.raw_arcs)).encode())
    assert digest.hexdigest() == (GOLDEN / "parse_products.sha256").read_text().split()[0]
