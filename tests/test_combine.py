"""`combine` checked against the epsilon construction it replaced.

``ref_combine`` below is the earlier `combine`: it joins the parts with
epsilon edges, removes them with ``fsa._remove_epsilons`` (a closure and a
dedupe set per state) and trims. The splicing `combine` lays the parts out
in the same order with the same fresh start state, so after `trim` both
number their states alike. On random parts, with empty-language parts,
nullable parts and starts that have in-arcs, the two must agree on states,
start, finals and each state's set of arcs, and every error message and
its precedence must be the same.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.errors import AutomatonError
from redup.fsa import (
    Fsa,
    _remove_epsilons,
    canonical,
    combine,
    empty_string_fsa,
    never_fsa,
    trim,
)
from test_representation import random_fsa

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


def random_part(al, draw):
    """A random machine, sometimes made empty, nullable or re-entering its start.

    Unless made empty, three parts in four get an arc from the start to a
    final, so that most concatenations of several parts accept something.
    """
    m = random_fsa(al, draw)
    finals, arcs = set(m.finals), list(m.raw_arcs)
    shape = draw(st.sampled_from(("as drawn", "no finals", "nullable", "start entered")))
    if shape == "no finals":
        finals.clear()
    elif shape == "nullable":
        finals.add(m.start)
    elif shape == "start entered":
        src = draw(st.integers(0, m.n - 1))
        arcs.append((src, m.start, al.char("a"), draw(st.booleans())))
    if shape != "no finals" and draw(st.integers(0, 3)):
        q = draw(st.integers(0, m.n - 1))
        finals.add(q)
        arcs.append((m.start, q, al.char("b"), draw(st.booleans())))
    return Fsa.from_raw(al, m.n, m.start, frozenset(finals), tuple(arcs), check=True)


def check_against_reference(kind, parts):
    got, want = combine(kind, parts), ref_combine(kind, parts)
    assert (got.n, got.start, got.finals) == (want.n, want.start, want.finals)
    # the reference merged duplicate arcs, so compare each state's arc set
    assert set(got.raw_arcs) == set(want.raw_arcs)
    assert canonical(got) == canonical(want)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_combine_matches_the_epsilon_construction(ab, data):
    kind = data.draw(st.sampled_from(KINDS))
    count = 1 if kind in ("star", "optional") else data.draw(st.integers(1, 4))
    check_against_reference(kind, [random_part(ab, data.draw) for _ in range(count)])


def test_combine_matches_the_epsilon_construction_on_every_small_case(ab):
    """Every kind over every sequence of up to three of these parts."""
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
                check_against_reference(kind, list(chosen))


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
