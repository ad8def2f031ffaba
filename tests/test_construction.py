"""Every machine is built in one call, and comes out a frozen `Fsa`.

`fsa._NewFsa`, the unfrozen twin of `Fsa`, fills all eleven slots of a
machine in its `__init__` and then makes it an `Fsa`. Every way to get a
machine goes through it: the public constructor, `Fsa.from_raw` with and
without `check`, a parse chain from `prepare_parse_input`, `copy`,
`deepcopy`, a pickle round trip and every operation. Here, on drawn
machines and drawn parse chains, each of them

- is of type `Fsa` exactly, not the twin;
- equals every other build of the same machine, with the same hash;
- refuses assignment and deletion of each of its slots, all of them set;
- comes with fresh caches (no adjacency, label bits or memo) and no mark,
  however full the caches and marks of the machine it was copied from;
- carries token labels only if it is a parse chain, and then the chain's.

Operations build through the same call, so their results, marked or not,
are frozen machines of type `Fsa` with every slot set and no token labels.

The hypothesis tests set no example count of their own, so a profile
registered in ``conftest.py`` can run them longer.
"""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup import fsa
from redup.compiler import _retyped
from redup.enrich import add_repeats, add_self_loops, add_skips
from redup.fsa import (
    Arc,
    Fsa,
    Label,
    build_from_string,
    canonical,
    combine,
    determinize,
    empty_string_fsa,
    minimize,
    never_fsa,
    project_surface,
    symbol_fsa,
    trim,
)
from redup.interpret import close, intersect_open, prepare_parse_input, universal_producer
from test_representation import random_fsa

FRESH = {"_out": None, "_bits": None, "_memo": None, "_trim": False, "_closed": False}


def check_frozen(m):
    """`m` is an `Fsa`, every slot set, and none can be assigned or deleted."""
    assert type(m) is Fsa
    assert len(Fsa.__slots__) == 11
    for slot in Fsa.__slots__:
        value = getattr(m, slot)  # an unset slot raises AttributeError
        with pytest.raises(FrozenInstanceError):
            setattr(m, slot, value)
        with pytest.raises(FrozenInstanceError):
            delattr(m, slot)


def check_fresh(m, tokens=None):
    check_frozen(m)
    assert {slot: getattr(m, slot) for slot in FRESH} == FRESH
    assert m._tokens == tokens


def builds_of(m):
    """Every other way to build the machine `m` is: the raw constructor,
    unchecked and checked, the public one, and three duplicates."""
    parts = (m.alphabet, m.n, m.start, m.finals, m.raw_arcs)
    return [
        Fsa.from_raw(*parts),
        Fsa.from_raw(*parts, check=True),
        Fsa(m.alphabet, m.n, m.start, set(m.finals), list(m.arcs)),
        copy.copy(m),
        copy.deepcopy(m),
        pickle.loads(pickle.dumps(m)),
    ]


def check_builds(m):
    builds = builds_of(m)
    for got in builds:
        check_fresh(got)
        assert got == m and hash(got) == hash(m) and got is not m
        assert got.raw_arcs == m.raw_arcs
    assert len({id(got) for got in builds}) == len(builds)


def filled(m, data):
    """`m`, its caches filled and its marks set, as drawn."""
    if data.draw(st.booleans()):
        m.out_raw(), m.out_bits(), m.live_memo()
    if data.draw(st.booleans()):
        m = close(m)  # marked closed, and trim unless it accepts nothing
    return m


@settings(deadline=None)
@given(data=st.data())
def test_every_build_of_a_machine_is_a_fresh_frozen_fsa(ab, data):
    m = random_fsa(ab, data.draw)  # the public constructor
    check_fresh(m)
    check_builds(filled(m, data))


@settings(deadline=None)
@given(data=st.data(), surface=st.text("ab", max_size=6))
def test_a_parse_chain_is_built_frozen_with_its_token_labels(ab, data, surface):
    chain = prepare_parse_input(ab, surface)
    labels = ab.token_masks(surface)
    check_fresh(chain, labels)
    assert chain._raw_arcs is None
    n = len(labels)
    want = Fsa(ab, n + 1, 0, {n}, [Arc(i, Label(b, False), i + 1) for i, b in enumerate(labels)]
               + [Arc(i, Label(ab.tech, False), i) for i in range(n + 1)])
    assert chain == want and hash(chain) == hash(want)
    check_fresh(chain, labels)  # its arcs, now made and stored, are all it gained
    check_builds(filled(chain, data))


@settings(deadline=None)
@given(data=st.data(), surface=st.text("ab", max_size=4))
def test_every_operation_builds_frozen_machines(ab, data, surface):
    a, b = random_fsa(ab, data.draw), random_fsa(ab, data.draw)
    chain = prepare_parse_input(ab, surface)
    results = [
        never_fsa(ab), empty_string_fsa(ab), symbol_fsa(ab, ab.char("a")),
        build_from_string(ab, "abba"), universal_producer(ab),
        trim(a), determinize(a), minimize(a), canonical(a), project_surface(a),
        add_self_loops(a), add_skips(a), add_repeats(a), _retyped(a, True), _retyped(a, False),
        intersect_open(a, b), close(a), close(a, b), intersect_open(a, chain),
        intersect_open(a, prepare_parse_input(ab, surface)),  # kept, or the empty machine
    ]
    results += [combine(kind, [a, b]) for kind in ("concat", "union")]
    results += [combine(kind, [a]) for kind in ("star", "optional")]
    for got in results:
        check_frozen(got)
        assert got._tokens is None
        assert got == Fsa.from_raw(ab, got.n, got.start, got.finals, got.raw_arcs)


def test_the_twin_builds_an_fsa_and_is_never_one(ab):
    """The twin adds no slot to `Fsa`, and what calling it returns is an
    `Fsa`; the machine it builds takes each mark and the token labels it
    is given."""
    assert fsa._NewFsa.__slots__ == () and issubclass(fsa._NewFsa, Fsa)
    raw = ((0, 1, ab.char("a"), True),)
    m = fsa._NewFsa(ab, 2, 0, frozenset({1}), raw, [1], trim=True, closed=True)
    check_frozen(m)
    assert (m._tokens, m._trim, m._closed) == ([1], True, True)
    assert m == Fsa.from_raw(ab, 2, 0, frozenset({1}), raw)
