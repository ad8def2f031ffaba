"""Open/closed interpretation and the hand-built Bambara pipeline.

The Bambara test constructs base and morpheme directly from core operations
(no grammar files involved) and pins down the exact closed result — the
heart of copying-as-intersection.
"""

import copy
import pickle
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.alphabet import Alphabet
from redup.analyses import load_grammar
from redup.enrich import enrich
from redup.errors import AutomatonError, InventoryError
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    build_from_string,
    combine,
    enumerate_label_paths,
    enumerate_language,
    is_empty,
    surface_strings,
    symbol_fsa,
    trim,
)
from redup.interpret import (
    ProductStats,
    close,
    intersect_open,
    prepare_parse_input,
    universal_producer,
)
from test_acceptance import PARSE_CASES

BAMBARA = [(c, "vowel" if c in "uiaeo" else "consonant", ()) for c in "wulnyiafeo"]


@pytest.fixture(scope="module")
def bam():
    return Alphabet.from_inventory(BAMBARA)


def consumer(al, bits):
    return symbol_fsa(al, bits, pc=False)


def producer(al, bits):
    return symbol_fsa(al, bits, pc=True)


def synced_constituent(al):
    """Consumer :1 (~:1 & seg)* :1 — a whole edge-marked constituent."""
    s1 = al.named_set(":1")
    s0 = al.seg & al.complement(al.named_set(":1"))
    return combine(
        "concat",
        [consumer(al, s1), combine("star", [consumer(al, s0)]), consumer(al, s1)],
    )


def bambara_morpheme(al):
    """Copy morpheme: constituent, fixed melody o, move back, constituent."""
    o = al.char("o") & al.complement(al.named_set(":1"))
    return combine(
        "concat",
        [
            synced_constituent(al),
            producer(al, o),
            combine("star", [producer(al, al.repeat)]),
            synced_constituent(al),
        ],
    )


def marked_base(al, noun):
    return intersect_open(build_from_string(al, noun), synced_constituent(al))


# -- intersect_open basics ----------------------------------------------------


def test_intersect_requires_shared_alphabet(bam):
    other = Alphabet.from_inventory([("z", "consonant", ())])
    with pytest.raises(AutomatonError, match="mismatched"):
        intersect_open(build_from_string(bam, "wu"), build_from_string(other, "z"))


def test_a_parse_and_a_closed_product_require_an_equal_alphabet(bam):
    """A parse chain or a closed product over another alphabet is refused;
    over an equal but distinct one, as an unpickled machine has, it is the
    product over the same alphabet."""
    other = Alphabet.from_inventory([("z", "consonant", ())])
    wu = build_from_string(bam, "wu")
    with pytest.raises(AutomatonError, match="mismatched"):
        intersect_open(wu, prepare_parse_input(other, "z"))
    with pytest.raises(AutomatonError, match="mismatched"):
        close(wu, build_from_string(other, "z"))
    twin = pickle.loads(pickle.dumps(wu))
    assert twin.alphabet is not bam and twin.alphabet == bam
    for surface in ("wu", "w"):
        got = intersect_open(twin, prepare_parse_input(bam, surface))
        assert got == intersect_open(wu, prepare_parse_input(bam, surface))
    assert close(twin, wu) == close(wu, wu)


def test_intersect_label_narrowing(bam):
    w_all = build_from_string(bam, "w")
    w_mora = consumer(bam, bam.char("w") & bam.named_set("mora"))
    r = intersect_open(w_all, w_mora)
    assert len(r.arcs) == 1
    assert r.arcs[0].label == Label(bam.char("w") & bam.named_set("mora"), True)


def test_intersect_disjoint_labels_is_empty(bam):
    r = intersect_open(build_from_string(bam, "w"), consumer(bam, bam.char("u")))
    assert is_empty(r)


def test_producer_dominance(bam):
    for pa in (False, True):
        for pb in (False, True):
            r = intersect_open(
                symbol_fsa(bam, bam.char("w"), pa), symbol_fsa(bam, bam.char("w"), pb)
            )
            assert r.arcs[0].label.pc == (pa or pb)


def test_universal_producer_forces_pc(bam):
    m = combine("concat", [consumer(bam, bam.char("w")), consumer(bam, bam.repeat)])
    r = intersect_open(m, universal_producer(bam))
    assert all(arc.label.pc for arc in r.arcs)
    assert enumerate_language(r, 3) == enumerate_language(m, 3)


def test_intersect_records_stats(bam):
    stats = ProductStats()
    intersect_open(build_from_string(bam, "wu"), universal_producer(bam), stats)
    intersect_open(build_from_string(bam, "w"), universal_producer(bam), stats)
    assert stats.calls == 2
    assert stats.per_call == [3, 2]  # chain length + 1 reachable pairs each
    assert stats.visited_pairs == 5


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_open_intersection_is_set_intersection_for_producers(bam, data):
    """On producer-only machines the resource layer is inert."""
    def rand(draw):
        n = draw(st.integers(1, 4))
        labels = [1 << 0, 1 << 12, 1 << 24, (1 << 0) | (1 << 1)]
        arcs = tuple(
            Arc(s, Label(b, True), d)
            for s, d, b in draw(
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                              st.sampled_from(labels)),
                    max_size=6,
                )
            )
        )
        return Fsa(bam, n, 0, frozenset(draw(st.sets(st.integers(0, n - 1)))), arcs)

    a, b = rand(data.draw), rand(data.draw)
    got = enumerate_language(intersect_open(a, b), 4, cap=500_000)
    want = enumerate_language(a, 4, cap=500_000) & enumerate_language(b, 4, cap=500_000)
    assert got == want


# -- close ---------------------------------------------------------------------


def test_close_drops_consumer_arcs(bam):
    m = combine("union", [producer(bam, bam.char("w")), consumer(bam, bam.char("u"))])
    c = close(m)
    assert all(arc.label.pc for arc in c.arcs)
    assert enumerate_language(c, 2) == enumerate_language(producer(bam, bam.char("w")), 2)


def test_close_of_producer_machine_is_identity_up_to_trim(bam):
    m = build_from_string(bam, "wulu")
    assert close(m).arcs == m.arcs


def test_close_of_enriched_base_isolates_citation_form(bam):
    assert surface_strings(close(enrich(marked_base(bam, "wulu")))) == {"wulu"}


# -- the Bambara wulu pipeline, by hand -----------------------------------------


def label_shape(al, label):
    """Project a label to (display char, sync) — unique for pipeline labels."""
    members = al.members(label.bits)
    if all(s.char is None for s in members):
        kinds = {s.kind.value for s in members}
        assert len(kinds) == 1
        return (kinds.pop(), None)
    chars = {s.char for s in members}
    syncs = {s.sync for s in members}
    assert len(chars) == 1 and len(syncs) == 1
    return (chars.pop(), 1 if syncs.pop() else 0)


def test_base_marking_is_forced(bam):
    m = marked_base(bam, "wulu")
    paths = enumerate_label_paths(m, 6)
    assert len(paths) == 1
    (path,) = paths
    assert [label_shape(bam, l) for l in path] == [
        ("w", 1), ("u", 0), ("l", 0), ("u", 1),
    ]
    assert all(l.pc for l in path)


def test_wulu_copy_exact_language(bam):
    """Closed wulu ∩ morpheme = w:1 u:0 l:0 u:1 o:0 repeat^n w:1 u:0 l:0 u:1, n ≥ 4."""
    closed = close(intersect_open(enrich(marked_base(bam, "wulu")), bambara_morpheme(bam)))
    assert not is_empty(closed)
    assert all(arc.label.pc for arc in closed.arcs)

    first = [("w", 1), ("u", 0), ("l", 0), ("u", 1), ("o", 0)]
    second = [("w", 1), ("u", 0), ("l", 0), ("u", 1)]
    # nothing shorter than the 4-repeat path exists, then one path per n
    for n in range(7):
        want = set()
        if n >= 4:
            want = {tuple(first + [("repeat", None)] * n + second)}
        got = {
            tuple(label_shape(bam, l) for l in p)
            for p in enumerate_label_paths(closed, 9 + n, cap=500_000)
            if len(p) == 9 + n
        }
        assert got == want, f"repeat count {n}"


def test_wulu_surface(bam):
    closed = close(intersect_open(enrich(marked_base(bam, "wulu")), bambara_morpheme(bam)))
    assert surface_strings(closed) == {"wuluowulu"}


def test_short_circuit_copy_is_blocked(bam):
    """A constituent is at least two segments, so 'wowulu' cannot arise."""
    closed = close(intersect_open(enrich(marked_base(bam, "wulu")), bambara_morpheme(bam)))
    assert "wowulu" not in surface_strings(closed)


def test_longer_noun_copies_whole_base(bam):
    closed = close(
        intersect_open(enrich(marked_base(bam, "wulunyinina")), bambara_morpheme(bam))
    )
    assert surface_strings(closed) == {"wulunyininaowulunyinina"}


# -- counters -------------------------------------------------------------------


def test_product_stats_is_a_mutable_record():
    stats = ProductStats()
    assert (stats.calls, stats.visited_pairs, stats.per_call) == (0, 0, [])
    assert ProductStats().per_call is not stats.per_call
    stats.record(3)
    stats.record(2)
    assert stats == ProductStats(2, 5, [3, 2])
    assert stats == ProductStats(calls=2, visited_pairs=5, per_call=[3, 2])
    assert stats != ProductStats(2, 5, [2, 3])
    assert (stats == (2, 5, [3, 2])) is False
    assert repr(stats) == "ProductStats(calls=2, visited_pairs=5, per_call=[3, 2])"
    with pytest.raises(TypeError):
        hash(stats)
    for twin in (copy.copy(stats), copy.deepcopy(stats), pickle.loads(pickle.dumps(stats))):
        assert twin == stats and twin is not stats


# -- parsing -------------------------------------------------------------------


def test_prepare_parse_input_shape(bam):
    p = prepare_parse_input(bam, "wu")
    assert p.n == 3 and p.finals == frozenset({2})
    chain = [a for a in p.arcs if a.src != a.dst]
    assert [a.label for a in chain] == [
        Label(bam.char("w"), False), Label(bam.char("u"), False),
    ]
    loops = [a for a in p.arcs if a.src == a.dst]
    assert len(loops) == 3
    assert all(l.label == Label(bam.tech, False) for l in loops)


def test_prepare_parse_input_empty_string(bam):
    p = prepare_parse_input(bam, "")
    assert p.n == 1 and p.finals == frozenset({0})
    assert [a.label.bits for a in p.arcs] == [bam.tech]


# the parse table of the acceptance gate (check 6)
ACCEPTANCE_PARSES = [
    ("bambara", "wuluowulu"),
    ("bambara", "wuluwulu"),
    ("koasati", "tahastoopin"),
    ("koasati", "tahastopin"),
    ("koasati", "akholatlin"),
]


@pytest.mark.parametrize("grammar,string", ACCEPTANCE_PARSES)
def test_parse_chain_passes_the_validation_it_skips(grammar, string):
    al = load_grammar(grammar).alphabet
    chain = prepare_parse_input(al, string)
    checked = Fsa.from_raw(al, chain.n, chain.start, chain.finals, chain.raw_arcs, check=True)
    assert chain == checked
    assert Fsa(al, chain.n, chain.start, chain.finals, chain.arcs) == chain


@pytest.mark.parametrize(
    "grammar,entry,string", [case[:3] for case in PARSE_CASES if not case[3]]
)
def test_a_rejected_parse_builds_the_empty_machine_once(grammar, entry, string):
    """The pruned product of a rejected parse is the canonical empty
    machine, and the one-part `close` after it returns it as it is."""
    cg = load_grammar(grammar)
    p = intersect_open(cg.compile(entry), prepare_parse_input(cg.alphabet, string))
    assert (p.n, p.start, p.finals, p.raw_arcs) == (1, 0, frozenset(), ())
    with mock.patch.object(Fsa, "from_raw", side_effect=AssertionError("built a copy")):
        assert close(p) is p and trim(p) is p
    assert is_empty(p) and not p._trim


def test_parse_chain_of_an_unknown_token_raises():
    al = load_grammar("koasati").alphabet
    with pytest.raises(InventoryError, match="cannot tokenize 'tahasxopin'"):
        prepare_parse_input(al, "tahasxopin")


def test_parse_against_closed_grammar(bam):
    grammar = close(
        intersect_open(enrich(marked_base(bam, "wulu")), bambara_morpheme(bam))
    )

    def parses(s):
        return not is_empty(close(intersect_open(prepare_parse_input(bam, s), grammar)))

    assert parses("wuluowulu")
    assert not parses("wuluwulu")  # no fixed melody
    assert not parses("wuluowul")
    assert not parses("wulu")
    assert not parses("")
