"""The three lexical enrichments that make copying expressible.

Self loops let a state absorb externally produced material (fixed melodies),
skip arcs let a path advance without spelling a position out (truncation),
and repeat arcs let a path move backwards (re-realization of earlier
positions — the copying device). All added arcs are consumer-typed: the
machinery is inert until some morpheme produces the matching technical
symbol or segment.
"""

from __future__ import annotations

from .fsa import Fsa, _NewFsa


def _with(a: Fsa, added: tuple) -> Fsa:
    """`a` with `added` arcs, as trim as `a`: arcs added keep live states live."""
    return _NewFsa(a.alphabet, a.n, a.start, a.finals, a.raw_arcs + added, trim=a._trim)


def add_self_loops(a: Fsa) -> Fsa:
    """Consumer self loop over all segment symbols at every state."""
    loop = a.alphabet.seg
    return _with(a, tuple((q, q, loop, False) for q in range(a.n)))


def add_skips(a: Fsa) -> Fsa:
    """Consumer skip arc parallel to every non-technical arc."""
    skip, tech = a.alphabet.skip, a.alphabet.tech
    return _with(a, tuple((s, d, skip, False) for s, d, b, _pc in a.raw_arcs if not b & tech))


def add_repeats(a: Fsa) -> Fsa:
    """Consumer repeat arc reversing every non-technical arc."""
    rep, tech = a.alphabet.repeat, a.alphabet.tech
    return _with(a, tuple((d, s, rep, False) for s, d, b, _pc in a.raw_arcs if not b & tech))


def enrich(a: Fsa) -> Fsa:
    """The canonical nesting: self loops, then skips, then repeats.

    With this order both the original arcs and the new self loops get skip
    and repeat mirrors, so a path can move back even across absorbed melody
    material.
    """
    return add_repeats(add_skips(add_self_loops(a)))
