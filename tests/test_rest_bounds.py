"""Remaining-length bounds, and the product's length test built on them.

``Fsa.rest_bounds`` gives each state the fewest and the most segment
symbols on a path to a final. They are checked against the segment counts
of the strings accepted from each state, found by a fixpoint over the arcs:
exactly on acyclic machines, and for soundness (and exactly where finite)
on cyclic ones. A parse chain's bounds and out-label masks, which it is
built with, must equal the computed ones. At a high-fan-out pair, an open
product enters a successor pair only if the two states' intervals overlap,
and tests its successors a sub-bucket at a time; pruned, the product must
still be the reference product trimmed, arc order included, and it must
enter exactly the pairs the reference reaches over pairs that pass both
the dead-end and the length test. That is checked with every state
indexed, and at the real cutoff against a lexicon of chains.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import _kernel
from redup import fsa as fsa_module
from redup.analyses import GRAMMAR_NAMES, grammar_source, load_grammar
from redup.compiler import compile_grammar
from redup.fsa import UNBOUNDED, Fsa, combine, prune
from redup.interpret import ProductStats, intersect_open, prepare_parse_input
from test_acceptance import PARSE_CASES
from test_koasati_oracle import koasati
from test_representation import (
    every_state_indexed,
    random_fsa,
    random_parts,
    ref_intersect_open,
    ref_product,
    same_machine,
)


def segment_counts(m, cap):
    """Per state, the set of segment-symbol counts, up to `cap`, of the
    strings that lead from it to a final: a fixpoint over all arcs, each of
    which reads a segment or a technical symbol as its label allows."""
    al = m.alphabet
    counts = [{0} if q in m.finals else set() for q in range(m.n)]
    changed = True
    while changed:
        changed = False
        for s, d, b, _pc in m.raw_arcs:
            steps = ([0] if b & al.tech else []) + ([1] if b & al.seg else [])
            new = {c + x for c in counts[d] for x in steps if c + x <= cap} - counts[s]
            if new:
                counts[s] |= new
                changed = True
    return counts


def random_acyclic(al, draw):
    """Forward arcs only, plus self-loops of technicals, which `hi` ignores."""
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


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rest_bounds_are_exact_on_acyclic_machines(ab, data):
    m = random_acyclic(ab, data.draw)
    lo, hi = m.rest_bounds()
    for q, counts in enumerate(segment_counts(m, m.n)):
        assert (lo[q], hi[q]) == ((min(counts), max(counts)) if counts else (UNBOUNDED, -1))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rest_bounds_are_sound_on_cyclic_machines(ab, data):
    m = random_fsa(ab, data.draw)
    lo, hi = m.rest_bounds()
    # a finite `hi` is below n, so the cap cuts off no count it must match
    for q, counts in enumerate(segment_counts(m, 2 * m.n)):
        if not counts:
            assert (lo[q], hi[q]) == (UNBOUNDED, -1)
            continue
        assert lo[q] == min(counts)
        assert hi[q] == UNBOUNDED or hi[q] == max(counts)


def test_a_cycle_of_segments_leaves_hi_unbounded(ab):
    a, b = ab.char("a"), ab.char("b")
    m = Fsa.from_raw(ab, 4, 0, frozenset({2}), (
        (0, 1, a, True), (1, 1, ab.repeat, False),  # a loop of technicals counts 0
        (1, 2, b, True), (2, 0, ab.repeat, False),  # a cycle back to the start
        (0, 3, a, True),  # 3 reaches no final
    ))
    lo, hi = m.rest_bounds()
    assert lo == [2, 1, 0, UNBOUNDED]
    assert hi == [UNBOUNDED, UNBOUNDED, UNBOUNDED, -1]
    assert m.rest_bounds() is m.rest_bounds()  # cached


@pytest.mark.parametrize("surface", ["", "a", "abba", "babab"])
def test_parse_chain_bounds_equal_the_computed_ones(ab, surface):
    chain = prepare_parse_input(ab, surface)
    fresh = Fsa.from_raw(ab, chain.n, chain.start, chain.finals, chain.raw_arcs)
    assert fresh._rest is None
    assert chain.rest_bounds() == fresh.rest_bounds()
    assert chain.rest_bounds()[0] == list(range(len(surface), -1, -1))


def test_parse_chain_masks_equal_the_computed_ones():
    """On the acceptance gate's parse table, and on seeded strings of zero
    to twelve tokens over each shipped grammar's inventory."""
    alphabets = {grammar: load_grammar(grammar).alphabet for grammar in GRAMMAR_NAMES}
    cases = [(grammar, string) for grammar, _entry, string, _ok in PARSE_CASES]
    rng = random.Random("parse inputs")
    for grammar, al in alphabets.items():
        cases += [(grammar, "".join(rng.choice(al.chars) for _ in range(rng.randrange(13))))
                  for _ in range(20)]
    for grammar, surface in cases:
        chain = prepare_parse_input(alphabets[grammar], surface)
        fresh = Fsa.from_raw(chain.alphabet, chain.n, chain.start, chain.finals,
                             chain.raw_arcs)
        assert chain._bits is not None and fresh._bits is None
        assert chain.out_bits() == fresh.out_bits(), (grammar, surface)


# -- the product's length test -----------------------------------------------------------


def entered_pairs(a, b, fanout=1):
    """The pairs of the reference product reachable from its start pair,
    where a successor of an indexed pair (one of whose states has at least
    `fanout` out-arcs) must pass both the dead-end and the length test, and
    a successor of a plain pair the dead-end test only."""
    ref, ids = ref_product(a, b)
    (lo_a, hi_a), (lo_b, hi_b) = a.rest_bounds(), b.rest_bounds()
    bits_a, bits_b = a.out_bits(), b.out_bits()
    out_a, out_b = a.out_raw(), b.out_raw()

    def passes(qa, qb, bounded):
        return ((bits_a[qa] & bits_b[qb] or qa in a.finals and qb in b.finals)
                and (not bounded or lo_a[qa] <= hi_b[qb] and lo_b[qb] <= hi_a[qa]))

    out = ref.out_arcs()
    seen, stack = {0}, [0]
    while stack:
        src = stack.pop()
        qa, qb = ids[src]
        bounded = len(out_a[qa]) >= fanout or len(out_b[qb]) >= fanout
        for arc in out[src]:
            if arc.dst not in seen and passes(*ids[arc.dst], bounded):
                seen.add(arc.dst)
                stack.append(arc.dst)
    return len(seen)


def check_bounded_product(a, b, fanout):
    """The kernel's open product, pruned, is the reference product trimmed,
    arc order included, and enters exactly the pairs `entered_pairs` finds."""
    n, start, finals, arcs, entered = _kernel.product(a, b)
    got = prune(Fsa.from_raw(a.alphabet, n, start, frozenset(finals), tuple(arcs)))
    want = ref_intersect_open(a, b)
    same_machine(got, want)
    assert got.raw_arcs == want.raw_arcs
    assert entered == n == entered_pairs(a, b, fanout)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_indexed_length_test_keeps_the_pruned_product(ab, data):
    """With every state indexed, every successor pair is tested."""
    a, b = random_parts(ab, data.draw, 2)
    with every_state_indexed():
        check_bounded_product(a, b, 1)


def chain_lexicon(al, draw):
    """A start state fanning out into `FANOUT` to twice as many chains of
    one to four arcs, with random labels, producer flags and finals, and a
    few self-loops of technicals. Not trimmed: a chain may reach no final."""
    labels = [al.char("a"), al.char("b"), al.char("a") | al.char("b"),
              al.named_set("mora"), al.repeat, al.skip | al.char("a")]
    chains = draw(st.lists(
        st.lists(st.tuples(st.sampled_from(labels), st.booleans(), st.booleans()),
                 min_size=1, max_size=4),
        min_size=_kernel.FANOUT, max_size=2 * _kernel.FANOUT,
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


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lexicon_first=st.booleans())
def test_sub_buckets_keep_the_pruned_product(ab, data, lexicon_first):
    """At the real cutoff, a lexicon's start is tested a sub-bucket at a
    time against a parse chain or a random machine, on either side."""
    lexicon = chain_lexicon(ab, data.draw)
    assert len(lexicon.out_raw()[lexicon.start]) >= _kernel.FANOUT
    if data.draw(st.booleans()):
        other = prepare_parse_input(ab, data.draw(st.text("ab", max_size=5)))
    else:
        other = random_fsa(ab, data.draw)
    a, b = (lexicon, other) if lexicon_first else (other, lexicon)
    check_bounded_product(a, b, _kernel.FANOUT)


def stems_of_lengths(ab, lengths):
    """A union of one stem per length, each a chain of a-or-b producers."""
    ab_ = ab.char("a") | ab.char("b")
    return combine("union", [
        Fsa.from_raw(ab, k + 1, 0, frozenset({k}), tuple((i, i + 1, ab_, True) for i in range(k)))
        for k in lengths
    ])


def test_a_pair_of_the_wrong_length_is_no_longer_entered(ab):
    lexicon = stems_of_lengths(ab, [1, 2, 3, 4] * _kernel.FANOUT)
    chain = prepare_parse_input(ab, "ab")
    assert len(lexicon.out_raw()[lexicon.start]) == 4 * _kernel.FANOUT
    stats = ProductStats()
    got = intersect_open(lexicon, chain, stats)
    want = ref_intersect_open(lexicon, chain)
    same_machine(got, want)
    assert got.raw_arcs == want.raw_arcs
    # from the start pair, a one-token stem is a dead end; without the length
    # test every longer stem enters a pair, and a two-token stem one more
    # after it, while with the test only the two-token stems enter theirs;
    # the reference walk with a fan-out no state reaches tests no length
    unbounded = entered_pairs(lexicon, chain, fanout=4 * _kernel.FANOUT + 1)
    assert unbounded == 1 + 4 * _kernel.FANOUT
    assert stats.per_call == [1 + 2 * _kernel.FANOUT]


# -- who computes bounds -------------------------------------------------------------------


def count_bounds():
    """Patch the bounds computation to count the machines it runs on."""
    calls = []
    compute = fsa_module._rest_bounds
    return calls, mock.patch.object(
        fsa_module, "_rest_bounds", lambda m: calls.append(m.n) or compute(m))


def compile_wordform_and_shipped_entries(stems):
    """Compile the Koasati wordform of `stems` and every parameterless entry
    of the shipped grammars; return the wordform's grammar and machine."""
    cg = compile_grammar(koasati.grammar_text(grammar_source("koasati"), stems))
    machine = cg.compile(koasati.ENTRY)
    for grammar in GRAMMAR_NAMES:
        shipped = compile_grammar(grammar_source(grammar))
        for name, macro in shipped.macros.items():
            if not macro.params:
                shipped.compile(name)
    return cg, machine


def test_compiles_index_no_state():
    """A compile's open products meet no high-fan-out state, and its closed
    product pairs every state through the plain loop: no operand of any of
    its products gets a label index, not even a lexicon's start state."""
    indexed, product = [], _kernel.product

    def recording(a, b, live=None):
        result = product(a, b, live)
        indexed.extend((live is None, m.n) for m in (a, b) if m.label_index())
        return result

    with mock.patch.object(_kernel, "product", recording):
        compile_wordform_and_shipped_entries(koasati.stems(1, 400))
    assert indexed == []


def test_compiles_compute_no_bounds_and_a_parse_computes_the_lexicons_once():
    """A compile's open products meet no high-fan-out state: its lexicon
    joins the one closed product, which uses no bounds. A parse against the
    compiled lexicon computes its bounds once; the chains come with theirs."""
    calls, patch = count_bounds()
    stems = koasati.stems(1, 400)
    with patch:
        cg, machine = compile_wordform_and_shipped_entries(stems)
        assert calls == []
        for form in sorted(koasati.lexicon_forms(stems))[:3]:
            chain = prepare_parse_input(cg.alphabet, form)
            assert intersect_open(machine, chain).finals
            intersect_open(machine, prepare_parse_input(cg.alphabet, form + form[-1]))
    assert calls == [machine.n]
