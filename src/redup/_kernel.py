"""The product kernel: reachable pair-product of two automata.

Pure Python, and the only kernel; ``BACKEND`` names it in benchmark
reports. It reads each machine's cached adjacency (``Fsa.out_raw``) and
returns raw ``(src, dst, bits, pc)`` arcs, so a product converts nothing.

``product`` has two modes. An open product (``live`` None) enters a pair
only if it can still be on a path to a pair of finals as far as cheap tests
tell: the labels leaving its two states overlap or both are final
(``Fsa.out_bits``), and, for a successor of a high-fan-out pair, the two
states can end on the same number of segment symbols
(``Fsa.rest_bounds``). A parse's product against a lexicon so enters about
a quarter of its reachable pairs, and ``fsa.pruned_from_raw`` cuts the
dead ones left from the raw lists returned, so no machine is built before
the cut. A closed product joins no two consumer arcs and enters only the
pairs of ``live``, the set ``coreachable`` finds by walking back from the
pairs of finals, so it comes out trim.

In an open product, a state with at least ``FANOUT`` out-arcs is paired
through a label index (``Fsa.label_index``): its arcs grouped by label
bits, so each distinct label is tested once against the other side's arcs,
and each group split into sub-buckets by the out-labels, finality and
bounds of the arcs' targets, so a sub-bucket passes or fails both tests
whole. A lexicon is a union of stems, and its start state has hundreds of
out-arcs but only a dozen distinct labels. At the 1,600-stem lexicon's
start, 400 arcs fall into 11 label groups and 121 sub-buckets, and a
parse's start pair runs about 11 sub-bucket tests for the 37 successors its
matching groups hold. A compiled lexicon builds its index once for every
query. A closed product pairs every state through the plain double loop: a
compile meets a high-fan-out state only at its start pair.
"""

from __future__ import annotations

from itertools import product as _pairs
from typing import Sequence

from .fsa import Fsa, RawArc

BACKEND = "py"

# Out-degree from which a state is paired through its label index. Results
# do not depend on it; the pairs entered do, since only the successors of an
# indexed pair are put to the length test. Over the products of the shipped
# grammars and of the synthetic Koasati lexicons, an operand state has at
# most 8 out-arcs or is a lexicon's start state, with 24 (the shipped
# Koasati lexicon) to several thousand. Any cutoff in 9..24 indexes the same
# states; at 8 or less the many 8-arc states would pay for an index that
# groups little.
FANOUT = 16

# (bits, sub-buckets): a label group split by its arcs' targets, each
# sub-bucket (out_bits, final, lo, hi, arc positions) of the targets it holds
Buckets = list[tuple[int, Sequence[tuple[int, bool, int, int, Sequence[int]]]]]


def product(
    a: Fsa, b: Fsa, live: set[int] | None = None
) -> tuple[int, int, list[int], list[tuple[int, int, int, bool]], int]:
    """Reachable pair-product of two machines, open or closed.

    A pair of arcs combines iff their labels overlap; the result arc gets
    the label intersection and the OR of the pc bits. Returns (n_states,
    start, finals, arcs, visited_pairs): arcs are (src, dst, label_bits, pc)
    tuples, and visited_pairs counts the distinct state pairs entered — the
    work measure used to compare engines.

    Open (``live`` None), a new pair (qa, qb) is entered only if it is not
    a dead end: the labels leaving its two states overlap or both are
    final. A successor (da, db) of an indexed pair must also pass the length
    test, ``lo_a[da] <= hi_b[db]`` and ``lo_b[db] <= hi_a[da]``: a string
    leading from both states to finals has one count of segment symbols, in
    both intervals. A pair that fails either test reaches no pair of
    finals, so the result trimmed (``fsa.pruned_from_raw``, which reads
    these lists as they are) is the same machine, arc order included, as
    the product without the tests trimmed. The bounds
    are computed at the first indexed pair, so a product that meets no
    high-fan-out state, such as every open product of a compile, computes
    none.
    An indexed pair tests sub-buckets rather than successors, so it also
    drops the arcs into an entered pair that fails a test, which the trim
    deletes anyway. The successors of plain pairs skip the length test: in
    a parse that would save almost nothing (over 6,000 seeded parses against
    a 1,600-stem lexicon, testing them too enters 127,199 pairs instead of
    127,667, 0.4% fewer).

    Closed (``live`` given), a pair of arcs neither of which is a producer
    makes no arc, and only the pairs whose keys (``qa * b.n + qb``) are in
    ``live`` are entered; it must hold the start pair. With the
    ``coreachable`` set, the result is the closed product already trimmed:
    every successor of a dead pair is dead, so the live pairs are numbered
    and expanded, and their arcs emitted, in the order the unrestricted
    product gives them.

    A trimmed open result does not depend on the label index: at an
    indexed pair the matching arcs are emitted in the order of the plain
    double loop.
    """
    closed = live is not None
    out_a, out_b, finals_a, finals_b = a.out_raw(), b.out_raw(), a.finals, b.finals
    if not closed:
        index_a, index_b = a.label_index(), b.label_index()
        bits_a, bits_b = a.out_bits(), b.out_bits()
        lo_a = None  # the bounds, fetched at the first indexed pair
    fanout = FANOUT
    n_b = b.n
    # A pair (qa, qb) is keyed as the int qa * n_b + qb.
    start = a.start * n_b + b.start
    pair_id: dict[int, int] = {start: 0}
    todo = [start]
    finals: list[int] = []
    arcs: list[tuple[int, int, int, bool]] = []
    while todo:
        key = todo.pop()
        qa, qb = divmod(key, n_b)
        sid = pair_id[key]
        if qa in finals_a and qb in finals_b:
            finals.append(sid)
        succ_a = out_a[qa]
        succ_b = out_b[qb]
        if closed or len(succ_a) < fanout and len(succ_b) < fanout:
            for _sa, da, ba, pa in succ_a:
                base = da * n_b
                keep = pa or not closed
                for _sb, db, bb, pb in succ_b:
                    bits = ba & bb
                    if bits and (keep or pb):
                        key = base + db
                        tid = pair_id.get(key)
                        if tid is None:
                            if closed:
                                if key not in live:
                                    continue
                            elif not (bits_a[da] & bits_b[db]
                                      or da in finals_a and db in finals_b):
                                continue
                            tid = len(pair_id)
                            pair_id[key] = tid
                            todo.append(key)
                        arcs.append((sid, tid, bits, pa or pb))
            continue
        # both tests, once per pair of sub-buckets: their arcs' targets
        # share out-labels, finality and bounds, so they pass or fail whole
        if lo_a is None:
            (lo_a, hi_a), (lo_b, hi_b) = a.rest_bounds(), b.rest_bounds()
        matched: list[tuple[int, int]] = []
        buckets_b = _buckets(index_b, qb, succ_b, fanout, bits_b, finals_b, lo_b, hi_b)
        for ba, subs_a in _buckets(index_a, qa, succ_a, fanout, bits_a, finals_a, lo_a, hi_a):
            for bb, subs_b in buckets_b:
                if ba & bb:
                    for oa, fa, la, ha, pos_a in subs_a:
                        for ob, fb, lb, hb, pos_b in subs_b:
                            if (oa & ob or fa and fb) and la <= hb and lb <= ha:
                                matched += _pairs(pos_a, pos_b)
        matched.sort()  # the plain loop's (a-arc, b-arc) order
        for i, j in matched:
            _sa, da, ba, pa = succ_a[i]
            _sb, db, bb, pb = succ_b[j]
            key = da * n_b + db
            tid = pair_id.get(key)
            if tid is None:
                tid = len(pair_id)
                pair_id[key] = tid
                todo.append(key)
            arcs.append((sid, tid, ba & bb, pa or pb))
    return len(pair_id), 0, finals, arcs, len(pair_id)


def coreachable(a: Fsa, b: Fsa) -> set[int]:
    """Keys (``qa * b.n + qb``) of the pairs that reach a final pair closed.

    Walks back from every (final, final) pair over both machines' in-arcs,
    pairing them by the closed product's rule: labels overlap and at least
    one arc is a producer.  So a pair is in the result iff some path of the
    closed product leads from it to a final pair, whether or not the start
    pair reaches it; ``product(a, b, live)`` then enters only these.  The
    in-adjacency is built here and not kept: its lists hold the operands'
    own raw arc tuples, so it copies no arc.  The second machine's is also
    kept split by producer arcs, which are all a consumer arc of the first
    can pair with.
    """
    n_b = b.n
    in_a: list[list[RawArc]] = [[] for _ in range(a.n)]
    for arc in a.raw_arcs:
        in_a[arc[1]].append(arc)
    in_b: list[list[RawArc]] = [[] for _ in range(n_b)]
    producers_in_b: list[list[RawArc]] = [[] for _ in range(n_b)]
    for arc in b.raw_arcs:
        in_b[arc[1]].append(arc)
        if arc[3]:
            producers_in_b[arc[1]].append(arc)
    todo = [fa * n_b + fb for fa in a.finals for fb in b.finals]
    live = set(todo)
    while todo:
        qa, qb = divmod(todo.pop(), n_b)
        any_b = in_b[qb]
        producer_b = producers_in_b[qb]
        for sa, _da, ba, pa in in_a[qa]:
            base = sa * n_b
            for sb, _db, bb, _pb in any_b if pa else producer_b:
                if ba & bb:
                    key = base + sb
                    if key not in live:
                        live.add(key)
                        todo.append(key)
    return live


def _buckets(index: dict[int, Buckets], q: int, succ, fanout: int,
             bits: Sequence[int], finals: frozenset[int],
             lo: Sequence[int], hi: Sequence[int]) -> Buckets:
    """The arcs of ``succ`` (leaving q) grouped by label bits, each group
    split into sub-buckets by the signature ``(bits[d], d in finals, lo[d],
    hi[d])`` of its arcs' targets.

    A state below the fan-out cutoff gets one group and one sub-bucket per
    arc, built here and not kept; a state at or above it gets its arcs
    grouped and split once, cached in ``index`` under q. Positions stay
    ascending within a sub-bucket.
    """
    if len(succ) < fanout:
        return [(b, ((bits[d], d in finals, lo[d], hi[d], (i,)),))
                for i, (_s, d, b, _pc) in enumerate(succ)]
    buckets = index.get(q)
    if buckets is None:
        by_label: dict[int, dict[tuple[int, bool, int, int], list[int]]] = {}
        for i, (_s, d, b, _pc) in enumerate(succ):
            sig = (bits[d], d in finals, lo[d], hi[d])
            by_label.setdefault(b, {}).setdefault(sig, []).append(i)
        buckets = index[q] = [(b, [(*sig, pos) for sig, pos in by_target.items()])
                              for b, by_target in by_label.items()]
    return buckets
