"""On-demand automaton operations with memoized state expansion.

A LazyFsa is a start descriptor plus an expansion rule; nothing is computed
until somebody asks for a state's out-arcs, and every expansion is cached.
Operators compose lazily — intersection descriptors are operand-descriptor
pairs, enrichment reuses the operand's descriptors — so deep pipelines only
ever expand the states an actual query (parse, emptiness check, bounded
enumeration) touches.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Hashable

from .alphabet import Alphabet
from .errors import DEFAULT_BUDGET, AutomatonError, ExpansionBudgetError
from .fsa import Arc, Fsa, Label, prune

# An expansion is (out-arcs as (label, destination-descriptor) pairs, is-final).
Expansion = tuple[tuple[tuple[Label, Hashable], ...], bool]


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


def lazy_wrap(fsa: Fsa) -> LazyFsa:
    """View an eager automaton as a lazy one (descriptors = its states)."""
    out = fsa.out_arcs()

    def expand(q: Hashable) -> Expansion:
        return (
            tuple((arc.label, arc.dst) for arc in out[q]),
            q in fsa.finals,
        )

    return LazyFsa(fsa.alphabet, fsa.start, expand, kind="wrap")


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
        arcs = []
        for la, da in arcs_a:
            for lb, db in arcs_b:
                bits = la.bits & lb.bits
                if bits:
                    arcs.append((Label(bits, la.pc or lb.pc), (da, db)))
        return tuple(arcs), fin_a and fin_b

    return LazyFsa(a.alphabet, (a.start, b.start), expand, deps=(a, b), kind="intersect")


def lazy_close(l: "Fsa | LazyFsa") -> LazyFsa:
    """Closed interpretation: unlicensed consumer arcs vanish at expansion."""
    l = _as_lazy(l)

    def expand(key: Hashable) -> Expansion:
        arcs, fin = l.expand(key)
        return tuple((lbl, dst) for lbl, dst in arcs if lbl.pc), fin

    return LazyFsa(l.alphabet, l.start, expand, deps=(l,), kind="close")


def _reverse_content_index(
    l: LazyFsa, budget: int
) -> dict[Hashable, list[Hashable]]:
    """dst-descriptor → sources of its incoming non-technical arcs.

    Move-back arcs are anchored at a state's IN-arcs, which a forward
    expansion rule cannot see locally, so this walks the operand once through
    its own memo cache.  Only states that can still reach a final get an
    entry: a lazy operand arrives untrimmed (lazy construction cannot discard
    dead states the way an eager intersection does), and a move-back arc out
    of a dead state would splice it back into the live part and accept paths
    the eagerly built machine rejects.
    """
    tech = l.alphabet.tech
    seen = {l.start}
    queue = deque([l.start])
    all_arcs: list[tuple[Hashable, int, Hashable]] = []
    finals: list[Hashable] = []
    while queue:
        key = queue.popleft()
        arcs, fin = l.expand(key)
        if fin:
            finals.append(key)
        for lbl, dst in arcs:
            all_arcs.append((key, lbl.bits, dst))
            if dst not in seen:
                if len(seen) >= budget:
                    raise ExpansionBudgetError(budget, len(seen))
                seen.add(dst)
                queue.append(dst)
    into: dict[Hashable, list[Hashable]] = {}
    for src, _bits, dst in all_arcs:
        into.setdefault(dst, []).append(src)
    alive = set(finals)
    queue = deque(finals)
    while queue:
        key = queue.popleft()
        for src in into.get(key, ()):
            if src not in alive:
                alive.add(src)
                queue.append(src)
    index: dict[Hashable, list[Hashable]] = {}
    for src, bits, dst in all_arcs:
        if dst in alive and not bits & tech:
            index.setdefault(dst, []).append(src)
    return index


def lazy_enrich(l: "Fsa | LazyFsa", kind: str, budget: int = DEFAULT_BUDGET) -> LazyFsa:
    """Lazy counterpart of the three enrichments; descriptors are reused.

    ``self_loops`` and ``skips`` are purely local to a state's out-arcs.
    ``repeats`` is not: the first expansion triggers one full traversal of
    the operand (memoized) to find each state's content in-arcs, and the
    resulting machine matches what the eager enrichment produces on the
    trimmed operand.
    """
    l = _as_lazy(l)
    al = l.alphabet
    if kind == "self_loops":
        loop = Label(al.seg, False)

        def expand(key: Hashable) -> Expansion:
            arcs, fin = l.expand(key)
            return arcs + ((loop, key),), fin

    elif kind == "skips":
        skip = Label(al.skip, False)

        def expand(key: Hashable) -> Expansion:
            arcs, fin = l.expand(key)
            added = tuple(
                (skip, dst) for lbl, dst in arcs if not lbl.bits & al.tech
            )
            return arcs + added, fin

    elif kind == "repeats":
        rep = Label(al.repeat, False)
        state: dict = {}

        def expand(key: Hashable) -> Expansion:
            if "index" not in state:
                state["index"] = _reverse_content_index(l, budget)
            arcs, fin = l.expand(key)
            added = tuple((rep, src) for src in state["index"].get(key, ()))
            return arcs + added, fin

    else:
        raise AutomatonError(f"unknown enrichment kind {kind!r}")
    return LazyFsa(al, l.start, expand, deps=(l,), kind="enrich")


def materialize(l: LazyFsa, budget: int = DEFAULT_BUDGET) -> Fsa:
    """Exhaustive expansion into a trimmed eager Fsa (states in discovery order).

    Every descriptor found is reachable, so the dead ones (a lazy product
    keeps every pair it expands) are pruned by the backward pass alone.
    """
    ids: dict[Hashable, int] = {l.start: 0}
    queue = deque([l.start])
    arcs: list[Arc] = []
    finals: set[int] = set()
    while queue:
        key = queue.popleft()
        sid = ids[key]
        out, fin = l.expand(key)
        if fin:
            finals.add(sid)
        for lbl, dst in out:
            tid = ids.get(dst)
            if tid is None:
                if len(ids) >= budget:
                    raise ExpansionBudgetError(budget, len(ids))
                tid = len(ids)
                ids[dst] = tid
                queue.append(dst)
            arcs.append(Arc(sid, lbl, tid))
    return prune(Fsa(l.alphabet, len(ids), 0, frozenset(finals), tuple(arcs)))


def is_empty_lazy(l: LazyFsa, budget: int = DEFAULT_BUDGET) -> bool:
    """Emptiness with early exit: stop at the first final descriptor."""
    seen = {l.start}
    queue = deque([l.start])
    while queue:
        key = queue.popleft()
        arcs, fin = l.expand(key)
        if fin:
            return False
        for _lbl, dst in arcs:
            if dst not in seen:
                if len(seen) >= budget:
                    raise ExpansionBudgetError(budget, len(seen))
                seen.add(dst)
                queue.append(dst)
    return True
