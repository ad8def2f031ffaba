"""`combine` checked against the two constructions it replaced.

``ref_combine`` below is the first `combine`: it joins the parts with
epsilon edges, removes them with ``_remove_epsilons`` (a closure and a
dedupe set per state, kept as a reference in ``test_project_surface``) and
trims. The splicing `combine` lays the parts out
in the same order with the same fresh start state, so after `trim` both
number their states alike. On random parts, with empty-language parts,
nullable parts and starts that have in-arcs, the two must agree on states,
start, finals and each state's set of arcs, and every error message and
its precedence must be the same.

``splice_combine`` is the second: it splices as `combine` does, but lays
every part out whole and trims the result. `combine` lays out only the
live states, so it must build the very same machine, arc order and trim
mark included, from parts marked trim or not.
"""

import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import fsa
from redup.compiler import _retyped
from redup.enrich import add_repeats, add_self_loops, add_skips
from redup.errors import AutomatonError
from redup.fsa import (
    Fsa,
    build_from_string,
    canonical,
    combine,
    empty_string_fsa,
    never_fsa,
    symbol_fsa,
    trim,
)
from test_project_surface import _remove_epsilons
from test_representation import random_fsa, unmarked

KINDS = ("concat", "union", "star", "optional")


def ref_combine(kind, parts, alphabet=None):
    """The epsilon-edge construction, as `combine` built it before."""
    if parts:
        alphabet = parts[0].alphabet
        for p in parts[1:]:
            if p.alphabet != alphabet:
                raise AutomatonError("combine over mismatched alphabets")
    if alphabet is None:
        raise AutomatonError("combine of zero parts needs an explicit alphabet")

    if kind in ("star", "optional") and len(parts) != 1:
        raise AutomatonError(f"{kind} takes exactly one operand")
    if kind == "concat" and not parts:
        return empty_string_fsa(alphabet)
    if kind == "union" and not parts:
        return never_fsa(alphabet)

    arcs, eps, placed, offset = [], [], [], 0
    for p in parts:
        arcs.extend((s + offset, d + offset, b, pc) for s, d, b, pc in p.raw_arcs)
        placed.append((offset, p))
        offset += p.n
    root = offset
    finals = set()

    if kind == "concat":
        eps.append((root, placed[0][0] + placed[0][1].start))
        for (off_a, pa), (off_b, pb) in zip(placed, placed[1:]):
            for f in pa.finals:
                eps.append((off_a + f, off_b + pb.start))
        off_last, last = placed[-1]
        finals = {off_last + f for f in last.finals}
    elif kind == "union":
        for off, p in placed:
            eps.append((root, off + p.start))
            finals |= {off + f for f in p.finals}
    elif kind == "star":
        off, p = placed[0]
        eps.append((root, off + p.start))
        for f in p.finals:
            eps.append((off + f, root))
        finals = {root}
    elif kind == "optional":
        off, p = placed[0]
        eps.append((root, off + p.start))
        finals = {off + f for f in p.finals} | {root}
    else:
        raise AutomatonError(f"unknown combine kind {kind!r}")

    return trim(_remove_epsilons(alphabet, offset + 1, root, finals, arcs, eps))


def splice_combine(kind, parts, alphabet=None):
    """The splicing construction with every part laid out whole, then
    trimmed, as `combine` built it before it built its result trim."""
    if parts:
        alphabet = parts[0].alphabet
        for p in parts[1:]:
            if p.alphabet != alphabet:
                raise AutomatonError("combine over mismatched alphabets")
    if alphabet is None:
        raise AutomatonError("combine of zero parts needs an explicit alphabet")

    if kind in ("star", "optional") and len(parts) != 1:
        raise AutomatonError(f"{kind} takes exactly one operand")
    if kind == "concat" and not parts:
        return empty_string_fsa(alphabet)
    if kind == "union" and not parts:
        return never_fsa(alphabet)
    if kind not in ("concat", "union", "star", "optional"):
        raise AutomatonError(f"unknown combine kind {kind!r}")
    if kind == "union":
        parts = [p for p in parts if p.finals]
        if not parts:
            return never_fsa(alphabet)
    elif kind == "concat" and not all(p.finals for p in parts):
        return never_fsa(alphabet)

    ids = list(range(sum(p.n for p in parts) + 1))
    root = ids[-1]
    arcs, heads, part_finals, offset = [], [], [], 0
    for p in parts:
        loc = ids[offset:offset + p.n]
        arcs.extend((loc[s], loc[d], b, pc) for s, d, b, pc in p.raw_arcs)
        heads.append([(loc[d], b, pc) for s, d, b, pc in p.raw_arcs if s == p.start])
        part_finals.append([loc[q] for q in p.finals])
        offset += p.n

    def splice(q, head):
        arcs.extend((q, d, b, pc) for d, b, pc in head)

    finals = []
    if kind == "concat":
        after, nullable = [], True
        for p, head, part_f in zip(reversed(parts), reversed(heads), reversed(part_finals)):
            for f in part_f:
                splice(f, after)
            if nullable:
                finals.extend(part_f)
            if p.start in p.finals:
                after = head + after
            else:
                after, nullable = head, False
        splice(root, after)
        if nullable:
            finals.append(root)
    elif kind == "union":
        for head, part_f in zip(heads, part_finals):
            splice(root, head)
            finals.extend(part_f)
        if any(p.start in p.finals for p in parts):
            finals.append(root)
    else:
        head, finals = heads[0], part_finals[0] + [root]
        splice(root, head)
        if kind == "star":
            for f in part_finals[0]:
                if f != ids[parts[0].start]:
                    splice(f, head)

    return trim(Fsa.from_raw(alphabet, len(ids), root, frozenset(finals), tuple(arcs)))


def random_part(al, draw):
    """A random machine, sometimes made empty, nullable or re-entering its
    start, by a self-loop or by an arc from another state.

    Unless made empty, three parts in four get an arc from the start to a
    final, so that most concatenations of several parts accept something.
    """
    m = random_fsa(al, draw)
    finals, arcs = set(m.finals), list(m.raw_arcs)
    shape = draw(st.sampled_from(
        ("as drawn", "no finals", "nullable", "start self-loop", "start entered")
    ))
    if shape == "no finals":
        finals.clear()
    elif shape == "nullable":
        finals.add(m.start)
    elif shape == "start self-loop":
        arcs.append((m.start, m.start, al.char("a"), draw(st.booleans())))
    elif shape == "start entered" and m.n > 1:
        src = (m.start + draw(st.integers(1, m.n - 1))) % m.n
        arcs.append((src, m.start, al.char("a"), draw(st.booleans())))
    if shape != "no finals" and draw(st.integers(0, 3)):
        q = draw(st.integers(0, m.n - 1))
        finals.add(q)
        arcs.append((m.start, q, al.char("b"), draw(st.booleans())))
    return Fsa.from_raw(al, m.n, m.start, frozenset(finals), tuple(arcs), check=True)


def any_part(al, draw):
    """A `random_part` as drawn or marked trim (trimmed, then perhaps
    enriched or retyped), or a builder's machine, which comes marked."""
    shape = draw(st.sampled_from(
        ("unmarked", "trimmed", "enriched", "retyped", "empty string", "string", "symbol")
    ))
    if shape == "empty string":
        return empty_string_fsa(al)
    if shape == "string":
        return build_from_string(al, draw(st.sampled_from(("a", "ab", "bab"))))
    if shape == "symbol":
        return symbol_fsa(al, al.char("a") | al.char("b"), draw(st.booleans()))
    m = random_part(al, draw)
    if shape != "unmarked":
        m = trim(m)
    if shape == "enriched":
        m = draw(st.sampled_from((add_self_loops, add_skips, add_repeats)))(m)
    elif shape == "retyped":
        m = _retyped(m, draw(st.booleans()))
    return m


def check_against_reference(kind, parts):
    # the splicing reference first: `combine` marks the parts it trims
    exact = splice_combine(kind, parts)
    got, want = combine(kind, parts), ref_combine(kind, parts)
    assert (got.n, got.start, got.finals) == (want.n, want.start, want.finals)
    # the reference merged duplicate arcs, so compare each state's arc set
    assert set(got.raw_arcs) == set(want.raw_arcs)
    assert canonical(got) == canonical(want)
    assert (got.n, got.start, got.finals, got.raw_arcs) == (
        exact.n, exact.start, exact.finals, exact.raw_arcs)
    assert got._trim == exact._trim


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_combine_matches_the_epsilon_construction(ab, data):
    kind = data.draw(st.sampled_from(KINDS))
    count = 1 if kind in ("star", "optional") else data.draw(st.integers(1, 4))
    check_against_reference(kind, [random_part(ab, data.draw) for _ in range(count)])


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_combine_builds_the_trimmed_layout_from_marked_and_unmarked_parts(ab, data):
    kind = data.draw(st.sampled_from(KINDS))
    count = 1 if kind in ("star", "optional") else data.draw(st.integers(1, 4))
    check_against_reference(kind, [any_part(ab, data.draw) for _ in range(count)])


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_large_unmarked_parts_keep_each_state_s_arc_order(ab, data):
    """An unmarked part is laid out through its own live-state mask, its
    finals iterated in their own order, so the splice arcs out of them come
    in the whole-layout reference's order too, arc for arc."""
    kind = data.draw(st.sampled_from(KINDS))
    count = 1 if kind in ("star", "optional") else data.draw(st.integers(1, 3))
    parts = [random_fsa(ab, data.draw, n_max=30) for _ in range(count)]
    want = splice_combine(kind, parts)
    got = combine(kind, parts)
    assert got == want and got._trim == want._trim


def seeded_part(rng, al):
    """An unmarked part of 2 to 40 states with up to twice as many random
    arcs and a random start, any of whose states may be final: most have
    dead states and finals numbered 8 or more."""
    labels = [al.char("a"), al.char("b"), al.char("a") | al.char("b"),
              al.named_set("mora"), al.repeat, al.skip | al.char("a")]
    n = rng.randint(2, 40)
    arcs = tuple((rng.randrange(n), rng.randrange(n), rng.choice(labels), rng.random() < 0.5)
                 for _ in range(rng.randint(n, 2 * n)))
    finals = frozenset(rng.sample(range(n), rng.randint(1, n)))
    return Fsa.from_raw(al, n, rng.randrange(n), finals, arcs)


def test_seeded_large_unmarked_parts_build_the_trimmed_layout(ab):
    """Large parts with many finals, where a set of trimmed finals iterates
    in another order than the part's own: laying out a trimmed copy of
    each part instead differs from the reference in about 2% of calls."""
    rng = random.Random(7)
    for _ in range(2000):
        kind = rng.choice(KINDS)
        count = 1 if kind in ("star", "optional") else rng.randint(1, 3)
        parts = [seeded_part(rng, ab) for _ in range(count)]
        got, want = combine(kind, parts), splice_combine(kind, parts)
        assert got == want and got._trim == want._trim


def test_combine_trims_no_marked_part_and_never_its_result(ab):
    a = ab.char("a")
    looped = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, a, False), (1, 0, a, True)))
    marked = [build_from_string(ab, "ab"), empty_string_fsa(ab), trim(looped)]
    with mock.patch.object(fsa, "trim", side_effect=AssertionError("trimmed")):
        for kind in KINDS:
            count = 2 if kind in ("concat", "union") else 1
            for part in marked:
                assert combine(kind, [part] * count)._trim
    # an unmarked part is laid out through its live-state mask, not trimmed
    dead = Fsa.from_raw(ab, 3, 0, frozenset({1}), ((0, 1, a, False), (0, 2, a, False)))
    with mock.patch.object(fsa, "trim", side_effect=AssertionError("trimmed")):
        got = combine("concat", [marked[0], dead])
    assert got == splice_combine("concat", [marked[0], dead]) and got._trim
    assert got.n == 4 and not dead._trim


def test_combine_matches_the_epsilon_construction_on_every_small_case(ab):
    """Every kind over every sequence of up to three of these parts, as
    built and trimmed."""
    a, b = ab.char("a"), ab.char("b")

    def part(n, finals, arcs):
        return Fsa.from_raw(ab, n, 0, frozenset(finals), tuple(arcs), check=True)

    parts = [
        part(1, (), [(0, 0, a, False)]),                  # empty language
        part(1, (0,), []),                                # the empty string
        part(2, (1,), [(0, 1, a, True)]),                 # one symbol
        part(1, (0,), [(0, 0, b, False)]),                # nullable, start entered
        part(2, (1,), [(0, 1, a, False), (1, 0, b, True)]),  # start entered, not nullable
        part(3, (2,), [(0, 1, a, False)]),                # a final nothing reaches
        part(2, (1,), [(0, 1, b, True), (0, 1, b, True)]),   # a duplicate arc
    ]
    for kind in KINDS:
        counts = (1,) if kind in ("star", "optional") else (1, 2, 3)
        for count in counts:
            for chosen in itertools.product(parts, repeat=count):
                check_against_reference(kind, [unmarked(p) for p in chosen])
                check_against_reference(kind, [trim(unmarked(p)) for p in chosen])


def test_combine_keeps_duplicate_arcs(ab):
    """A part's duplicate arcs survive, and a starred final that shares an
    arc with its start gets a second copy; the reference merged both."""
    a = ab.char("a")
    twice = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, a, False), (0, 1, a, False)))
    for kind in ("concat", "union", "optional"):
        got, want = combine(kind, [twice]), ref_combine(kind, [twice])
        assert len(got.raw_arcs) == 2 and len(want.raw_arcs) == 1
        assert set(got.raw_arcs) == set(want.raw_arcs)
    looped = Fsa.from_raw(ab, 2, 0, frozenset({1}), ((0, 1, a, False), (1, 1, a, False)))
    got, want = combine("star", [looped]), ref_combine("star", [looped])
    loops = [arc for arc in got.raw_arcs if arc[0] == arc[1] != got.start]
    assert len(loops) == 2 and len(set(loops)) == 1
    assert set(got.raw_arcs) == set(want.raw_arcs)
    assert len(want.raw_arcs) == len(set(want.raw_arcs))


@pytest.mark.parametrize("kind", KINDS + ("bogus",))
@pytest.mark.parametrize("count", range(4))
@pytest.mark.parametrize("mixed", (False, True))
@pytest.mark.parametrize("with_alphabet", (False, True))
def test_combine_errors_match_the_reference(ab, abc, kind, count, mixed, with_alphabet):
    parts = [empty_string_fsa(ab)] * count
    if mixed and count > 1:
        parts[-1] = empty_string_fsa(abc)
    alphabet = ab if with_alphabet else None

    def outcome(build):
        try:
            return canonical(build(kind, parts, alphabet))
        except AutomatonError as err:
            return str(err)

    assert outcome(combine) == outcome(ref_combine)
