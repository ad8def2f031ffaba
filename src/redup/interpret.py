"""Resource-conscious interpretation: open intersection and closing.

Open intersection pairs compatible arcs and ORs their producer bits, so a
producer on either side licenses the combined arc while unmatched consumer
demands stay pending. Closing settles the account: arcs still marked
consumer never found a producer and are deleted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import _kernel
from .alphabet import Alphabet
from .errors import AutomatonError
from .fsa import Fsa, trim


@dataclass
class ProductStats:
    """Work counters accumulated across intersect_open calls.

    Passed to `CompiledGrammar.compile`, it sees each product the compile
    runs.  A product in a parameter-free part of a parameterised definition
    runs, and is counted, once per compile however often the definition is
    called.
    """

    calls: int = 0
    visited_pairs: int = 0
    per_call: list[int] = field(default_factory=list)

    def record(self, visited: int) -> None:
        self.calls += 1
        self.visited_pairs += visited
        self.per_call.append(visited)


def intersect_open(a: Fsa, b: Fsa, stats: ProductStats | None = None) -> Fsa:
    """Pairwise product with label intersection and producer-dominant pc."""
    if a.alphabet != b.alphabet:
        raise AutomatonError("intersection over mismatched alphabets")
    n, start, finals, arcs, visited = _kernel.product(
        a.n, a.start, a.finals, a.out_raw(), b.n, b.start, b.finals, b.out_raw()
    )
    if stats is not None:
        stats.record(visited)
    return trim(Fsa.from_raw(a.alphabet, n, start, frozenset(finals), tuple(arcs)))


def close(a: Fsa) -> Fsa:
    """Closed interpretation: delete arcs whose demands were never produced."""
    kept = tuple(arc for arc in a.raw_arcs if arc[3])
    return trim(Fsa.from_raw(a.alphabet, a.n, a.start, a.finals, kept))


def universal_producer(alphabet: Alphabet) -> Fsa:
    """Producer-typed Σ* (technicals included): the always-available resource."""
    return Fsa.from_raw(alphabet, 1, 0, frozenset({0}), ((0, 0, alphabet.sigma, True),))


def prepare_parse_input(alphabet: Alphabet, string: str) -> Fsa:
    """Surface string as a parse automaton.

    A consumer-typed chain — every surface segment demands a lexical producer
    — underspecified for all attributes, with a consumer {repeat, skip} self
    loop on each state so the grammar's technical arcs can surface anywhere.
    """
    tokens = alphabet.tokenize(string)
    arcs = [(i, i + 1, alphabet.char(tok), False) for i, tok in enumerate(tokens)]
    arcs.extend((q, q, alphabet.tech, False) for q in range(len(tokens) + 1))
    return Fsa.from_raw(
        alphabet, len(tokens) + 1, 0, frozenset({len(tokens)}), tuple(arcs), check=True
    )
