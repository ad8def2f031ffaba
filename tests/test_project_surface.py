"""`project_surface` checked against the epsilon-edge construction it replaced.

``ref_project_surface`` below is the old projection: it turns every arc
whose label holds a technical symbol into an epsilon edge, widens the
segment part of every label to whole tokens, removes the epsilon edges with
``_remove_epsilons`` (a closure and a dedupe set per state, kept here
unchanged as the reference; ``test_combine`` uses it too) and trims. The
new projection closes over technical arcs itself, so the two may order a
state's arcs differently but must agree on states, start, finals, each
state's set of arcs and the surface strings. The random machines are rich
in technical structure: technical-only and mixed labels, technical cycles
and self-loops, finals reached only over technical arcs and starts inside
technical cycles. On every parameterless shipped entry the two agree the
same way, and on a 400-stem wordform they build the very same machine.
"""

from typing import Iterable

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.errors import EnumerationCapError
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    RawArc,
    _walk,
    has_cycle,
    project_surface,
    surface_strings,
    trim,
)
from test_koasati_oracle import compile_lexicon, koasati


def _remove_epsilons(
    alphabet,
    n: int,
    start: int,
    finals: set[int],
    arcs: list[RawArc],
    eps: list[tuple[int, int]],
) -> Fsa:
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d in eps:
        adj[s].append(d)
    by_src: list[list[RawArc]] = [[] for _ in range(n)]
    for arc in arcs:
        by_src[arc[0]].append(arc)
    out: list[RawArc] = []
    new_finals: set[int] = set()
    for q in range(n):
        closure: Iterable[int] = (q,)
        if adj[q]:
            closure = {q}
            stack = [q]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in closure:
                        closure.add(nxt)
                        stack.append(nxt)
        seen: set[tuple[int, int, bool]] = set()
        for p in closure:
            for _s, d, b, pc in by_src[p]:
                key = (d, b, pc)
                if key not in seen:
                    seen.add(key)
                    out.append((q, d, b, pc))
            if p in finals:
                new_finals.add(q)
    return Fsa.from_raw(alphabet, n, start, frozenset(new_finals), tuple(out))


def old_tokens(al, bits):
    return {s.char for s in al.members(bits)}


def ref_project_surface(a):
    al = a.alphabet
    arcs, eps = [], []
    for src, dst, bits, pc in a.raw_arcs:
        if bits & al.tech:
            eps.append((src, dst))
        if bits & al.seg:
            wide = sum(al.char(tok) for tok in old_tokens(al, bits & al.seg))
            arcs.append((src, dst, wide, pc))
    return trim(_remove_epsilons(al, a.n, a.start, set(a.finals), arcs, eps))


def ref_strings(p, max_len):
    """The strings of a projected machine, each arc's tokens read the old way."""
    return _walk(p, max_len, 200_000, lambda bits, pc: old_tokens(p.alphabet, bits), "")


def check_projection(m, max_len=None):
    """Compare the projections of `m`, and its surface strings up to
    `max_len` (every string if None, for an acyclic surface)."""
    got, want = project_surface(m), ref_project_surface(m)
    assert (got.n, got.start, got.finals) == (want.n, want.start, want.finals)
    assert sorted(got.raw_arcs) == sorted(want.raw_arcs)
    try:
        strings = surface_strings(m, max_len)
    except EnumerationCapError as err:
        with pytest.raises(EnumerationCapError) as ref_err:
            ref_strings(want, max_len)
        assert err.partial == ref_err.value.partial
    else:
        assert strings == ref_strings(want, want.n if max_len is None else max_len)
    return got, want


# -- random machines ---------------------------------------------------------------


def technical_fsa(al, draw):
    """A random machine whose technical arcs form closures worth checking.

    Besides random arcs, it may get a technical cycle through its start, a
    technical self-loop, and a final state entered only by a technical arc.
    """
    a, b = al.char("a"), al.char("b")
    tech = [al.repeat, al.skip, al.tech, al.skip | a, al.repeat | b]
    labels = tech + [a, b, a | b, al.named_set("mora") & a]
    n = draw(st.integers(1, 5))
    state = st.integers(0, n - 1)
    arcs = draw(st.lists(st.tuples(state, state, st.sampled_from(labels), st.booleans()),
                         max_size=12))
    start, finals = draw(state), set(draw(st.sets(state)))
    if draw(st.booleans()):  # the start inside a technical cycle
        q = draw(state)
        arcs += [(start, q, draw(st.sampled_from(tech)), draw(st.booleans())),
                 (q, start, draw(st.sampled_from(tech)), draw(st.booleans()))]
    if draw(st.booleans()):
        q = draw(state)
        arcs.append((q, q, draw(st.sampled_from(tech)), draw(st.booleans())))
    if draw(st.booleans()):  # a final reached over a technical arc only
        arcs.append((draw(state), n, draw(st.sampled_from(tech[:3])), draw(st.booleans())))
        finals.add(n)
        n += 1
    return Fsa(al, n, start, finals, [Arc(s, Label(bits, pc), d) for s, d, bits, pc in arcs])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_projection_matches_epsilon_removal(ab, data):
    check_projection(technical_fsa(ab, data.draw), 6)


# -- shipped machines --------------------------------------------------------------


def parameterless_entries():
    return [pytest.param(g, name, id=f"{g}-{name}")
            for g in GRAMMAR_NAMES
            for name, macro in load_grammar(g).macros.items() if not macro.params]


@pytest.mark.parametrize("grammar, entry", parameterless_entries())
def test_shipped_projection_matches_epsilon_removal(grammar, entry):
    m = load_grammar(grammar).compile(entry)
    check_projection(m, 3 if has_cycle(project_surface(m)) else None)


def test_wordform_projection_is_the_same_machine():
    m = compile_lexicon(koasati.stems(1, 400)).compile(koasati.ENTRY)
    got, want = check_projection(m)
    assert got == want  # arc order included


# -- tokens_of ---------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_tokens_of_lists_the_tokens_of_a_bitset_in_inventory_order(data):
    al = load_grammar("koasati").alphabet
    # a few symbols, so that most tokens are left out
    symbols = data.draw(st.sets(st.integers(0, al.size - 1), max_size=6))
    bits = sum(1 << i for i in symbols) | data.draw(st.sampled_from([0, 0, al.tech, al.seg]))
    tokens = old_tokens(al, bits) - {None}
    assert al.tokens_of(bits) == [c for c in al.chars if c in tokens]
