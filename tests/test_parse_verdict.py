"""A parse verdict is membership in the surface language of the closed machine.

A parse intersects the machine with the consumer chain of a string and
closes the product, so it accepts exactly the surface strings of
``close(m)``. ``surface_dfa`` builds that language as a minimal
deterministic machine, and ``walk``, a deterministic walk written here,
reads a string off it. Both engines' verdicts must equal the walk's, on
every parameterless shipped entry and on random machines with mixed
producer flags. The strings are the empty string, random token strings,
forms of the language and of the machine's surface before the close, and
those forms one token short or one token long.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.errors import EnumerationCapError
from redup.fsa import _projected_strings, has_cycle, is_empty, minimize, project_surface
from redup.interpret import close, intersect_open, prepare_parse_input
from redup.lazy import is_empty_lazy, lazy_close, lazy_intersect
from test_representation import random_parts


def surface_dfa(m):
    return minimize(project_surface(close(m)))


def walk(dfa, al, surface):
    """Whether the deterministic surface machine `dfa` accepts `surface`.

    Its labels are unions of whole tokens, all of them producers after the
    close, so at most one arc leaves a state on a token.
    """
    out = dfa.out_raw()
    q = dfa.start
    for token in al.tokenize(surface):
        bits = al.char(token)
        nxt = {d for _s, d, b, _pc in out[q] if b & bits}
        assert len(nxt) <= 1, "not deterministic"
        if not nxt:
            return False
        (q,) = nxt
    return q in dfa.finals


def verdicts(eager, lazy, al, surface):
    chain = prepare_parse_input(al, surface)
    return (not is_empty(close(intersect_open(eager, chain))),
            not is_empty_lazy(lazy_close(lazy_intersect(lazy, chain))))


def forms(surface, rng, count):
    """Up to `count` strings of a projected machine, at most six tokens
    long if its language is infinite."""
    try:
        found = _projected_strings(surface, 6 if has_cycle(surface) else None, cap=5000)
    except EnumerationCapError as err:
        found = err.partial
    return rng.sample(sorted(found), min(count, len(found)))


def queries(m, dfa, al, rng, count=8):
    """The empty string, `count` random token strings, and up to `count`
    forms each of `dfa` and of the surface of `m` before the close, each
    form also one token short and one token long."""
    tokens = sorted(al.chars)
    strings = {""} | {"".join(rng.choices(tokens, k=rng.randint(1, 6))) for _ in range(count)}
    for form in forms(dfa, rng, count) + forms(project_surface(m), rng, count):
        spelled = al.tokenize(form)
        i = rng.randrange(len(spelled) + 1)
        strings |= {form, "".join(spelled[:i] + [rng.choice(tokens)] + spelled[i:])}
        if spelled:
            j = rng.randrange(len(spelled))
            strings.add("".join(spelled[:j] + spelled[j + 1:]))
    return sorted(strings)


def _entries():
    return [(g, name) for g in GRAMMAR_NAMES
            for name, macro in load_grammar(g).macros.items() if not macro.params]


@pytest.mark.parametrize("grammar, entry", _entries())
def test_parse_verdict_is_surface_membership_on_shipped_entries(grammar, entry):
    cg = load_grammar(grammar)
    eager, lazy = cg.compile(entry), cg.compile(entry, engine="lazy")
    dfa = surface_dfa(eager)
    for surface in queries(eager, dfa, cg.alphabet, random.Random(f"{grammar}:{entry}")):
        want = walk(dfa, cg.alphabet, surface)
        assert verdicts(eager, lazy, cg.alphabet, surface) == (want, want), surface


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_parse_verdict_is_surface_membership_on_random_machines(ab, data):
    m = random_parts(ab, data.draw, 1)[0]
    dfa = surface_dfa(m)
    rng = random.Random(data.draw(st.integers(0, 2**16)))
    for surface in queries(m, dfa, ab, rng, count=4):
        want = walk(dfa, ab, surface)
        assert verdicts(m, m, ab, surface) == (want, want), surface
