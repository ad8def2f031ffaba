"""Resource-conscious interpretation: open intersection and closing.

Open intersection pairs compatible arcs and ORs their producer bits, so a
producer on either side licenses the combined arc while unmatched consumer
demands stay pending. Closing settles the account: arcs still marked
consumer never found a producer and are deleted.  Closing an intersection
is one step, `close(a, b, ...)`, which drops those arcs while it builds the
last product rather than after it, and enters only the pairs from which a
final pair can still be reached.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from . import _kernel
from .alphabet import Alphabet
from .errors import AutomatonError
from .fsa import Fsa, _NewFsa, _is_producer, _set_closed, never_fsa, pruned_from_raw, trim


class ProductStats:
    """Work counters accumulated across the products of intersect_open and close.

    `per_call` holds one count per product.  For a parse (a product
    against a parse chain) it is the states of the trim product, which are
    the live pairs it entered, or 0 for a query its backward walk rejects;
    a query whose product the machine kept from an earlier parse counts
    the same again, though it enters none (see `_kernel.chain_product`).
    For any other open product it is the pairs entered, all but the
    dead-end pairs it skips (see `_kernel.product`), and for a closed
    product the pairs its backward walk found.  Passed to
    `CompiledGrammar.compile`, it sees each product the compile runs, the
    closed product of a `closed_interpretation` included.  A product in a
    parameter-free part of a parameterised definition runs, and is counted,
    once per compile however often the definition is called.
    Equal by value and unhashable, as a mutable record should be.
    """

    __slots__ = ("calls", "visited_pairs", "per_call")

    def __init__(
        self, calls: int = 0, visited_pairs: int = 0, per_call: list[int] | None = None
    ):
        self.calls = calls
        self.visited_pairs = visited_pairs
        self.per_call = [] if per_call is None else per_call

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.calls, self.visited_pairs, self.per_call) == (
            other.calls, other.visited_pairs, other.per_call
        )

    __hash__ = None

    def __repr__(self):
        return (
            f"ProductStats(calls={self.calls!r}, visited_pairs={self.visited_pairs!r}, "
            f"per_call={self.per_call!r})"
        )

    def record(self, visited: int) -> None:
        self.calls += 1
        self.visited_pairs += visited
        self.per_call.append(visited)


def intersect_open(a: Fsa, b: Fsa, stats: ProductStats | None = None) -> Fsa:
    """Pairwise product with label intersection and producer-dominant pc.

    The product skips dead-end pairs (see `_kernel.product`), and its raw
    arcs are trimmed as they are (`fsa.pruned_from_raw`): the trim product,
    or the canonical empty machine when no pair of finals is reached, is
    the only machine built.  Against a parse chain it enters only the
    pairs that can reach a pair of finals (`_kernel.chain_product`), and
    returns the trim machine `a` keeps of it: a new one only for a query
    `a` has not accepted before, the same object for one it has, and the
    one empty machine `a` keeps for every rejected query.  `stats` counts
    the pairs the product enters, or for a parse `a` has accepted before
    the pairs its product entered then.
    """
    if a.alphabet is not b.alphabet and a.alphabet != b.alphabet:
        raise AutomatonError("intersection over mismatched alphabets")
    if b._tokens is not None:
        got = _kernel.chain_product(a, b._tokens)
        if stats is not None:
            stats.record(got.n if got.finals else 0)
        return got
    n, start, finals, arcs, visited = _kernel.product(a, b)
    if stats is not None:
        stats.record(visited)
    return pruned_from_raw(a.alphabet, n, start, finals, arcs)


def _closed_product(a: Fsa, b: Fsa, stats: ProductStats | None) -> Fsa:
    """Backward first: the forward pass enters only co-reachable pairs, so
    the result is already trim."""
    if a.alphabet is not b.alphabet and a.alphabet != b.alphabet:
        raise AutomatonError("intersection over mismatched alphabets")
    live = _kernel.coreachable(a, b)
    if stats is not None:
        stats.record(len(live))
    if a.start * b.n + b.start not in live:
        m = never_fsa(a.alphabet)
        _set_closed(m, True)
        return m
    n, start, finals, arcs, _entered = _kernel.product(a, b, live)
    return _NewFsa(a.alphabet, n, start, frozenset(finals), tuple(arcs), trim=True, closed=True)


def close(*parts: Fsa, stats: ProductStats | None = None) -> Fsa:
    """Closed interpretation of the open intersection of `parts`.

    Deletes the arcs whose demands were never produced.  `close(m)` filters
    one machine, and is `trim(m)` when no arc of `m` is a consumer.  A
    machine marked closed is known to have none, and its arcs are not
    scanned: a parse's product of producer arcs alone, or a result of
    `close`, and so `close(m)` is `m` itself when `m` is marked closed
    and is either marked trim or the canonical empty machine (one state,
    no final, no arc), as every rejected parse's product is.  What
    `close` returns is marked closed.  With
    several parts, all but the one with the most arcs are intersected
    openly in the order given, and that largest part joins last, in one
    closed product: arc pairs with no producer on either side are never
    built.  That product is built backward first: a walk back
    from the pairs of finals over both operands' in-arcs finds the pairs
    that can still reach a final (`_kernel.coreachable`), and the forward
    product enters only those, so it builds the trim machine directly and
    needs no trim after it.  The result is byte-identical to trimming the
    unrestricted closed product, and equals `close(reduce(intersect_open,
    parts))` up to state numbering, since open intersection is associative
    and commutative.

    `stats` counts every product run; for the closed one it records the
    pairs the backward walk found, a superset of the pairs entered.

    The backward walk starts from every pair of finals, so it suits two
    operands that both end in few finals, or a closed product most of whose
    pairs are dead.  It is the wrong direction for a short chain against a
    large machine, such as a parse: `close(intersect_open(machine, chain))`
    explores only what the chain reaches from its start.
    """
    if not parts:
        raise TypeError("close() needs at least one automaton")
    if len(parts) == 1:
        a = parts[0]
        if a._closed and (a._trim or a.n == 1 and not a.finals and not a.raw_arcs):
            return a
        if not (a._closed or all(map(_is_producer, a.raw_arcs))):
            a = _NewFsa(a.alphabet, a.n, a.start, a.finals,
                        tuple(arc for arc in a.raw_arcs if arc[3]))
        a = trim(a)
        _set_closed(a, True)
        return a
    *rest, last = closing_order(parts)
    rest = reduce(lambda x, y: intersect_open(x, y, stats), rest)
    return _closed_product(rest, last, stats)


def closing_order(parts: Sequence[Fsa]) -> list[Fsa]:
    """The operands of a closed intersection in the order `close` joins them.

    The one with the most arcs goes last, and the others keep their order,
    so the largest operand meets only the closed product.  The lazy engine
    builds its `closed_interpretation` chains in the same order.
    """
    last = max(range(len(parts)), key=lambda i: len(parts[i].raw_arcs))
    return [p for i, p in enumerate(parts) if i != last] + [parts[last]]


def universal_producer(alphabet: Alphabet) -> Fsa:
    """Producer-typed Σ* (technicals included): the always-available resource."""
    return _NewFsa(alphabet, 1, 0, frozenset({0}), ((0, 0, alphabet.sigma, True),))


def prepare_parse_input(alphabet: Alphabet, string: str) -> Fsa:
    """Surface string as a parse automaton.

    A consumer-typed chain — every surface segment demands a lexical producer
    — underspecified for all attributes, with a consumer {repeat, skip} self
    loop on each state so the grammar's technical arcs can surface anywhere.
    An unknown token raises `InventoryError`.  It is marked with its token
    labels, read in one pass (`Alphabet.token_masks`), which is all a
    product against it reads (`_kernel.chain_product`); the mark, like a
    cache, takes no part in equality, hashing, pickling or copies.  So the
    chain is built without arcs: `Fsa.raw_arcs` makes them from the labels
    when something first reads them, which a parse never does.
    """
    labels = alphabet.token_masks(string)
    n = len(labels)
    return _NewFsa(alphabet, n + 1, 0, frozenset((n,)), None, labels)
