"""Four copies a lexicon compile does without, each checked against the
code that made it.

- `[]` is the unit of concatenation: the evaluator drops the empty-string
  machine from a concatenation, returns a trim part left alone as it is,
  and builds the one `[]` machine once per compile.
- `Fsa` construction sets each slot through a setter bound once at import,
  not through `object.__setattr__`.
- `_kernel.coreachable` keeps the operands' own raw arcs in its in-lists;
  ``ref_coreachable`` below is the version that built an ``(s, bits)``
  tuple per arc.
- `canonical` numbers states and emits arcs in one breadth-first walk;
  ``ref_canonical`` below is the version that sorted each state's arcs and
  then all of them.

Each new version must return exactly what the old one did, on random
machines, every parameterless shipped entry and the seed-1 Koasati
wordforms of 400 and 1,600 stems. The raw compile outputs are pinned in
``test_raw_machines``.
"""

import copy
import pickle
import sys
from collections import deque
from contextlib import ExitStack
from dataclasses import FrozenInstanceError
from functools import lru_cache
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redup.compiler
from redup import _kernel, fsa
from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.compiler import compile_grammar
from redup.enrich import enrich
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    build_from_string,
    canonical,
    combine,
    enumerate_label_paths,
    minimize,
    trim,
)
from redup.interpret import close, intersect_open, prepare_parse_input
from test_koasati_oracle import compile_lexicon, koasati
from test_representation import random_fsa, random_parts

# -- the versions replaced ----------------------------------------------------------


def ref_canonical(a):
    """`canonical` as it sorted: each state's arcs by label and target
    during the walk, then every arc by source, label and target."""
    m = minimize(a)
    order = {m.start: 0}
    out = m.out_raw()
    queue = deque([m.start])
    while queue:
        q = queue.popleft()
        for _s, d, _b, _pc in sorted(out[q], key=lambda x: (x[2], x[3], x[1])):
            if d not in order:
                order[d] = len(order)
                queue.append(d)
    arcs = tuple(sorted(((order[s], order[d], b, pc) for s, d, b, pc in m.raw_arcs),
                        key=lambda x: (x[0], x[2], x[3], x[1])))
    return Fsa.from_raw(m.alphabet, m.n, 0, frozenset(order[q] for q in m.finals), arcs)


def ref_coreachable(a, b):
    """`_kernel.coreachable` with its in-lists of new ``(s, bits)`` tuples."""
    n_b = b.n
    in_a = [[] for _ in range(a.n)]
    for s, d, bits, pc in a.raw_arcs:
        in_a[d].append((s * n_b, bits, pc))
    in_b = [[] for _ in range(n_b)]
    producers_in_b = [[] for _ in range(n_b)]
    for s, d, bits, pc in b.raw_arcs:
        in_b[d].append((s, bits))
        if pc:
            producers_in_b[d].append((s, bits))
    todo = [fa * n_b + fb for fa in a.finals for fb in b.finals]
    live = set(todo)
    while todo:
        qa, qb = divmod(todo.pop(), n_b)
        for base, ba, pa in in_a[qa]:
            for sb, bb in in_b[qb] if pa else producers_in_b[qb]:
                if ba & bb and base + sb not in live:
                    live.add(base + sb)
                    todo.append(base + sb)
    return live


# -- the machines compared ------------------------------------------------------------


@lru_cache(maxsize=None)
def shipped():
    """Every parameterless shipped entry, compiled."""
    return [load_grammar(g).compile(name) for g in GRAMMAR_NAMES
            for name, macro in load_grammar(g).macros.items() if not macro.params]


@lru_cache(maxsize=None)
def wordform(count):
    """The seed-1 Koasati wordform of `count` stems, and the operands of
    every closed product its compile ran."""
    operands = []
    real = _kernel.coreachable

    def recording(a, b):
        operands.append((a, b))
        return real(a, b)

    cg = compile_lexicon(koasati.stems(1, count))
    with mock.patch.object(_kernel, "coreachable", recording):
        m = cg.compile(koasati.ENTRY)
    return m, operands


def same(got, want):
    assert (got.n, got.start, got.finals, got.raw_arcs) == (
        want.n, want.start, want.finals, want.raw_arcs)


# -- canonical ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_canonical_matches_the_sorting_version(ab, data):
    m = random_fsa(ab, data.draw, n_max=8)
    if data.draw(st.booleans()):
        m = enrich(trim(m))  # self-loops and repeat arcs: cyclic
    same(canonical(m), ref_canonical(m))


@pytest.mark.parametrize("count", (400, 1600))
def test_canonical_matches_the_sorting_version_on_compiled_machines(count):
    for m in shipped() + [wordform(count)[0]]:
        same(canonical(m), ref_canonical(m))


def test_canonical_sorts_nothing_beyond_minimize():
    m = minimize(wordform(400)[0])
    with mock.patch.object(fsa, "minimize", return_value=m), \
            mock.patch.object(fsa, "sorted", side_effect=AssertionError("sorted"), create=True):
        got = canonical(m)
    same(got, ref_canonical(m))


# -- coreachable ---------------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_coreachable_matches_the_tuple_version(ab, data):
    a, b = random_parts(ab, data.draw, 2)
    assert _kernel.coreachable(a, b) == ref_coreachable(a, b)


@pytest.mark.parametrize("count", (400, 1600))
def test_coreachable_matches_the_tuple_version_on_closing_operands(count):
    operands = wordform(count)[1]
    assert operands
    for a, b in operands:
        assert _kernel.coreachable(a, b) == ref_coreachable(a, b)


def test_coreachable_in_lists_hold_the_operands_own_arcs():
    a, b = wordform(400)[1][-1]
    frames = {}

    def profile(frame, event, arg):
        if event == "return" and frame.f_code is _kernel.coreachable.__code__:
            frames.update(frame.f_locals)

    sys.setprofile(profile)
    try:
        _kernel.coreachable(a, b)
    finally:
        sys.setprofile(None)
    for name, m in (("in_a", a), ("in_b", b), ("producers_in_b", b)):
        own = {id(arc) for arc in m.raw_arcs}
        held = [arc for arcs in frames[name] for arc in arcs]
        assert held and all(id(arc) in own for arc in held), name


# -- `[]`, the unit of concatenation --------------------------------------------------


@pytest.mark.parametrize("expr", ['[[], "tahas"]', '["tahas", []]', '[[], [], "tahas"]',
                                  '[[], ["tahas"]]', '["tahas"]'])
def test_the_empty_string_drops_out_of_a_concatenation(expr):
    cg = load_grammar("koasati")
    chain = build_from_string(cg.alphabet, "tahas")
    with mock.patch.object(redup.compiler, "combine", side_effect=AssertionError("combined")):
        with mock.patch.object(redup.compiler, "build_from_string", return_value=chain):
            assert cg.compile(expr) is chain


def test_a_compile_builds_one_empty_string_machine():
    cg = compile_grammar('segment a vowel.\ne := {[], [[], []], [[], a], []}.')
    built = []
    real = fsa.empty_string_fsa

    def counting(al):
        built.append(real(al))
        return built[-1]

    with mock.patch.object(redup.compiler, "empty_string_fsa", counting):
        m = cg.compile("e")
        assert len(built) == 1 and cg.compile("[]") is built[-1] and len(built) == 2
    a = cg.alphabet.char("a")
    assert enumerate_label_paths(m, 3) == {(), (Label(a, False),)}


def test_an_unmarked_single_part_is_combined_and_comes_out_trim():
    cg = load_grammar("koasati")
    al = cg.alphabet
    t = al.char("t")
    dead = Fsa.from_raw(al, 3, 0, frozenset({1}), ((0, 1, t, True), (0, 2, t, True)))
    for expr in ('[[], "t"]', '["t", []]', '["t"]'):
        with mock.patch.object(redup.compiler, "build_from_string", return_value=dead):
            got = cg.compile(expr)
        assert got._trim and got is not dead
        same(got, combine("concat", [dead]))
        assert got.n == 2 and got.raw_arcs == ((1, 0, t, True),)


def test_a_set_valued_single_item_becomes_one_consuming_symbol():
    cg = load_grammar("koasati")
    vowel = cg.alphabet.named_set("vowel")
    for expr in ("[vowel]", "[[], vowel]", "[vowel, []]", "[[], [vowel], []]"):
        m = cg.compile(expr)
        assert m._trim and enumerate_label_paths(m, 3) == {(Label(vowel, False),)}


def test_a_lexicon_compile_builds_fewer_machines():
    """`[]` joined no concatenation: 3,530 machines in a seed-1, 400-stem
    wordform compile, 2,773 since."""
    cg = compile_lexicon(koasati.stems(1, 400))
    built = []
    real = fsa._init

    def counting(*args):
        built.append(1)
        real(*args)

    with mock.patch.object(fsa, "_init", counting):
        cg.compile(koasati.ENTRY)
    assert len(built) <= 2800


# -- the Fsa contract -------------------------------------------------------------------


def test_construction_writes_every_slot_through_its_bound_setter(ab):
    names = ["_set_" + slot.lstrip("_") for slot in Fsa.__slots__]
    with ExitStack() as stack:
        spies = [stack.enter_context(mock.patch.object(fsa, name, wraps=getattr(fsa, name)))
                 for name in names]
        m = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, ab.char("a"), True),), check=True)
        assert Fsa(ab, 2, 0, {1}, m.arcs) == m
    assert [spy.call_count for spy in spies] == [2] * 11


@pytest.mark.parametrize("slot", Fsa.__slots__)
def test_every_slot_is_frozen_and_set_fresh(ab, slot):
    m = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, ab.char("a"), True),))
    fresh = {"alphabet": ab, "n": 2, "start": 0, "finals": frozenset({1}),
             "_raw_arcs": ((0, 1, ab.char("a"), True),), "_trim": False, "_closed": False}
    assert getattr(m, slot) == fresh.get(slot)
    with pytest.raises(FrozenInstanceError):
        setattr(m, slot, None)
    with pytest.raises(FrozenInstanceError):
        delattr(m, slot)


def test_copies_pickles_and_equals_get_fresh_caches():
    m = wordform(400)[0]
    assert close(m) is m  # marked trim, no consumer arc: returned as it is, marked closed
    m.out_raw(), m.out_bits()
    intersect_open(m, prepare_parse_input(m.alphabet, "lapatlin"))  # fills the live memo
    assert m._trim and m._closed and m._out is not None and m._bits is not None and m._memo
    fresh = Fsa.from_raw(m.alphabet, m.n, m.start, m.finals, m.raw_arcs)
    assert fresh == m and hash(fresh) == hash(m) and not fresh._trim
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m)), fresh):
        assert twin == m and hash(twin) == hash(m) and twin is not m
        assert twin.arcs == m.arcs
        assert (twin._out, twin._bits, twin._memo, twin._tokens, twin._trim, twin._closed) == (
            None, None, None, None, False, False)


def test_copies_and_pickles_of_an_unread_chain_are_plain_machines():
    """A chain's arcs are made on first read; a copy or pickle reads them,
    and is a machine with its arcs stored and no token labels."""
    al = load_grammar("koasati").alphabet
    want = prepare_parse_input(al, "lapatlookin").raw_arcs
    for duplicate in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        chain = prepare_parse_input(al, "lapatlookin")
        assert chain._raw_arcs is None
        twin = duplicate(chain)
        assert type(twin) is Fsa and twin == chain and twin is not chain
        assert twin._raw_arcs == want and twin._tokens is None
        assert (twin._out, twin._bits, twin._memo, twin._trim) == (None, None, None, False)


def test_the_arcs_view_is_built_from_raw_arcs_on_each_read(ab):
    a, b = ab.char("a"), ab.char("b")
    arcs = [Arc(0, Label(a, True), 1), Arc(1, Label(b, False), 1)]
    m = Fsa(ab, 2, 0, {1}, iter(arcs))  # a one-shot iterable is read once
    assert m.raw_arcs == ((0, 1, a, True), (1, 1, b, False))
    assert m.arcs == tuple(arcs) and m.arcs is not m.arcs
    assert all(type(arc) is Arc and type(arc.label) is Label for arc in m.arcs)
    # reading the view stores nothing: every cache keeps its fresh value
    assert (m._out, m._bits, m._memo, m._tokens, m._trim) == (None, None, None, None, False)


def test_the_hash_is_computed_from_the_raw_value_each_time(ab):
    raw = ((0, 1, ab.char("a"), True), (1, 1, ab.char("b"), False))
    m = Fsa.from_raw(ab, 2, 0, frozenset({1}), raw)
    public = Fsa(ab, 2, 0, {1}, m.arcs)
    assert hash(m) == hash(public) == hash((2, 0, frozenset({1}), raw))
    before = [getattr(m, slot) for slot in Fsa.__slots__]
    assert hash(m) == hash(m)
    assert [getattr(m, slot) for slot in Fsa.__slots__] == before
    assert len({m, public, Fsa.from_raw(ab, 2, 0, frozenset({1}), raw[:1])}) == 2
