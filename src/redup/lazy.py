"""On-demand automaton operations with memoized state expansion.

A LazyFsa is a start descriptor plus an expansion rule; nothing is computed
until somebody asks for a state's out-arcs, and every expansion is cached.
An expansion lists a state's out-arcs as raw ``(dst, bits, pc)`` triples,
the ``Fsa.out_raw`` form with a descriptor for the destination.

Intersection and closure are the two lazy seams.  Intersection descriptors
are pairs of operand descriptors, and closure filters its operand's
expansions, so a stack of them expands only the pairs that a query (parse,
emptiness check, materialization) reaches.  Enrichment is eager: a
move-back arc is anchored at a state's in-arcs, which a forward expansion
cannot see, so ``lazy_enrich`` materializes its operand and applies the
enrichment of ``redup.enrich`` to it.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from .alphabet import Alphabet
from .enrich import add_repeats, add_self_loops, add_skips
from .errors import DEFAULT_BUDGET, AutomatonError, ExpansionBudgetError
from .fsa import Fsa, pruned_from_raw

# An expansion is (out-arcs as (dst-descriptor, bits, pc) triples, is-final).
Expansion = tuple[tuple[tuple[Hashable, int, bool], ...], bool]

_ENRICH = {"self_loops": add_self_loops, "skips": add_skips, "repeats": add_repeats}


class LazyFsa:
    """Automaton given by a start descriptor and a cached expansion rule."""

    def __init__(
        self,
        alphabet: Alphabet,
        start: Hashable,
        expand_fn: Callable[[Hashable], Expansion],
        deps: tuple["LazyFsa", ...] = (),
        kind: str = "custom",
    ):
        self.alphabet = alphabet
        self.start = start
        self._expand_fn = expand_fn
        self._cache: dict[Hashable, Expansion] = {}
        self.deps = deps
        self.kind = kind
        self.expansions = 0
        self.cache_hits = 0

    def expand(self, key: Hashable) -> Expansion:
        hit = self._cache.get(key)
        if hit is not None:
            self.cache_hits += 1
            return hit
        result = self._expand_fn(key)
        self._cache[key] = result
        self.expansions += 1
        return result

    @property
    def cache_size(self) -> int:
        return len(self._cache)


def total_expansions(l: LazyFsa, kind: str | None = None) -> int:
    """Expansions summed over the operator DAG (shared nodes once).

    With `kind` given, only nodes of that kind count — e.g. "intersect" sums
    product descriptors, the unit an eager intersection reports as visited
    pairs, so the two engines can be compared on the same scale.
    """
    seen: set[int] = set()
    total = 0
    stack = [l]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if kind is None or node.kind == kind:
            total += node.expansions
        stack.extend(node.deps)
    return total


def _view(fsa: Fsa, kind: str, deps: tuple[LazyFsa, ...] = ()) -> LazyFsa:
    """An eager automaton as a lazy one whose descriptors are its states."""
    out, finals = fsa.out_raw(), fsa.finals

    def expand(q: Hashable) -> Expansion:
        return tuple([(d, b, pc) for _s, d, b, pc in out[q]]), q in finals

    return LazyFsa(fsa.alphabet, fsa.start, expand, deps=deps, kind=kind)


def lazy_wrap(fsa: Fsa) -> LazyFsa:
    """View an eager automaton as a lazy one (descriptors = its states)."""
    return _view(fsa, "wrap")


def _as_lazy(x: "Fsa | LazyFsa") -> LazyFsa:
    return lazy_wrap(x) if isinstance(x, Fsa) else x


def lazy_intersect(a: "Fsa | LazyFsa", b: "Fsa | LazyFsa") -> LazyFsa:
    """Open interpretation, pair by pair on demand (operands may be eager)."""
    a, b = _as_lazy(a), _as_lazy(b)
    if a.alphabet != b.alphabet:
        raise AutomatonError("intersection over mismatched alphabets")

    def expand(key: Hashable) -> Expansion:
        ka, kb = key
        arcs_a, fin_a = a.expand(ka)
        arcs_b, fin_b = b.expand(kb)
        arcs = tuple([
            ((da, db), bits, pa or pb)
            for da, ba, pa in arcs_a
            for db, bb, pb in arcs_b
            if (bits := ba & bb)
        ])
        return arcs, fin_a and fin_b

    return LazyFsa(a.alphabet, (a.start, b.start), expand, deps=(a, b), kind="intersect")


def lazy_close(l: "Fsa | LazyFsa") -> LazyFsa:
    """Closed interpretation: unlicensed consumer arcs vanish at expansion."""
    l = _as_lazy(l)

    def expand(key: Hashable) -> Expansion:
        arcs, fin = l.expand(key)
        return tuple([arc for arc in arcs if arc[2]]), fin

    return LazyFsa(l.alphabet, l.start, expand, deps=(l,), kind="close")


def lazy_enrich(l: "Fsa | LazyFsa", kind: str, budget: int = DEFAULT_BUDGET) -> LazyFsa:
    """The eager enrichment `kind` of the operand, materialized within `budget`.

    Materializing trims the operand, so no move-back arc leaves a dead
    state: the result is the enrichment of the trimmed operand, and its
    descriptors are that enriched machine's states.
    """
    enrichment = _ENRICH.get(kind)
    if enrichment is None:
        raise AutomatonError(f"unknown enrichment kind {kind!r}")
    l = _as_lazy(l)
    return _view(enrichment(materialize(l, budget)), "enrich", deps=(l,))


def materialize(l: LazyFsa, budget: int = DEFAULT_BUDGET) -> Fsa:
    """Exhaustive expansion into a trimmed eager Fsa (states in discovery order).

    Every descriptor found is reachable, so the dead ones (a lazy product
    keeps every pair it expands) are cut by the backward pass alone, from
    the raw lists (`fsa.pruned_from_raw`): one machine is built, or the
    canonical empty one.
    """
    ids: dict[Hashable, int] = {l.start: 0}
    queue = deque([l.start])
    arcs: list[tuple[int, int, int, bool]] = []
    finals: set[int] = set()
    while queue:
        key = queue.popleft()
        sid = ids[key]
        out, fin = l.expand(key)
        if fin:
            finals.add(sid)
        for dst, bits, pc in out:
            tid = ids.get(dst)
            if tid is None:
                if len(ids) >= budget:
                    raise ExpansionBudgetError(budget, len(ids))
                tid = len(ids)
                ids[dst] = tid
                queue.append(dst)
            arcs.append((sid, tid, bits, pc))
    return pruned_from_raw(l.alphabet, len(ids), 0, finals, arcs)


def is_empty_lazy(l: LazyFsa, budget: int = DEFAULT_BUDGET) -> bool:
    """Emptiness with early exit: stop at the first final descriptor."""
    seen = {l.start}
    queue = deque([l.start])
    while queue:
        key = queue.popleft()
        arcs, fin = l.expand(key)
        if fin:
            return False
        for dst, _bits, _pc in arcs:
            if dst not in seen:
                if len(seen) >= budget:
                    raise ExpansionBudgetError(budget, len(seen))
                seen.add(dst)
                queue.append(dst)
    return True
