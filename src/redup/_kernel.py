"""The product kernel: reachable pair-product of two automata.

Pure Python, and the only kernel; ``BACKEND`` names it in benchmark
reports. It works on the adjacency lists that ``Fsa.out_raw`` caches and
returns raw ``(src, dst, bits, pc)`` arcs, so a product converts nothing.

A state with at least ``FANOUT`` out-arcs is paired through a label index:
its arcs grouped by ``(bits, pc)``, so each distinct label is tested once
against the other side's arcs. A lexicon is a union of stems, and its start
state has hundreds of out-arcs but only a dozen distinct labels; the index
makes a parse's product cost follow the arcs that match rather than that
fan-out. The index of a state is built the first time a product visits it
and kept in the dict the caller passes, which ``Fsa.label_index`` caches on
the machine, so a compiled lexicon builds it once for every query.

``coreachable`` is the backward half of a closed product: it finds the
pairs that reach a pair of finals, and ``product`` given that set enters no
other pair, so a closed product comes out trim.

Without that set, ``product`` skips dead-end pairs, whose two states'
out-labels do not overlap and which are not both final: a trim would
delete them, and a parse's product against a lexicon enters about half
the pairs it would otherwise. From an indexed pair it also skips a
successor whose two states cannot end on the same number of segment
symbols (``Fsa.rest_bounds``): a parse's successors at the lexicon's start
are the stems' first states, and a stem of the wrong length is ruled out
before any of its pairs is entered. That halves a parse's pairs again.

Both tests read only the target states' out-labels, finality and bounds,
so an open product with bounds runs them on sub-buckets: each label group
of an indexed state is split by that signature of its arcs' targets, and a
sub-bucket passes or fails whole against an arc of the other side. At the
1,600-stem lexicon's start, 400 arcs fall into 11 label groups and 121
sub-buckets, and a parse's start pair runs about 11 sub-bucket tests for
the 37 successors its matching groups hold. Closed products, which test
membership in the backward set instead, and products without bounds keep
the label groups and test each new successor.
"""

from __future__ import annotations

from itertools import product as _pairs
from typing import Callable, Sequence

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

Groups = list[tuple[int, bool, Sequence[int]]]  # (bits, pc, arc positions)
# (bits, pc, sub-buckets): a label group split by its arcs' targets, each
# sub-bucket (out_bits, final, lo, hi, arc positions) of the targets it holds
Buckets = list[tuple[int, bool, Sequence[tuple[int, bool, int, int, Sequence[int]]]]]
Bounds = tuple[Sequence[int], Sequence[int]]  # (lo, hi), as Fsa.rest_bounds


def product(
    n_a: int,
    start_a: int,
    finals_a: frozenset[int],
    out_a: Sequence[Sequence[tuple[int, int, int, bool]]],
    n_b: int,
    start_b: int,
    finals_b: frozenset[int],
    out_b: Sequence[Sequence[tuple[int, int, int, bool]]],
    closed: bool = False,
    index_a: dict[int, Groups | Buckets] | None = None,
    index_b: dict[int, Groups | Buckets] | None = None,
    live: set[int] | None = None,
    bits_a: Sequence[int] | None = None,
    bits_b: Sequence[int] | None = None,
    rest_a: Callable[[], Bounds] | None = None,
    rest_b: Callable[[], Bounds] | None = None,
) -> tuple[int, int, list[int], list[tuple[int, int, int, bool]], int]:
    """Reachable pair-product of two machines given by their out-adjacency.

    ``out_a[q]`` lists the arcs leaving state q of the first machine as
    (src, dst, label_bits, pc) tuples, likewise ``out_b``. A pair of arcs combines
    iff their labels overlap; the result arc gets the label intersection and
    the OR of the pc bits. Returns (n_states, start, finals, arcs,
    visited_pairs): arcs are (src, dst, label_bits, pc) tuples, and
    visited_pairs counts the distinct state pairs entered — the work
    measure used to compare engines.

    With ``closed`` the product is closed as it is built: a pair of arcs
    neither of which is a producer makes no arc, so only pairs reachable
    over producer arcs are discovered.  Trimming the result gives the closed
    interpretation of the open product.

    ``live``, when given, holds the keys (``qa * n_b + qb``) of the pairs
    that may be entered, and must hold the start pair: a pair not in it is
    never entered and gets no arc, and visited_pairs counts only the pairs
    entered.  With the ``coreachable`` set of a closed product, the result
    is that product already trimmed: every successor of a dead pair is
    dead, so the live pairs are discovered, numbered and expanded in the
    order the unrestricted product gives them, and its arcs between them
    come out in the same order.  Membership is tested only when a key is
    first seen.

    Without ``live``, a pair is entered only if it is not a dead end: the
    labels leaving its two states overlap (``bits_a[qa] & bits_b[qb]``) or
    both states are final. A dead end has no out-arc and is not final, so a
    trim would delete it; the pairs a trim keeps, and their arcs, come out
    in the same order as without the rule, so ``prune`` of the result is the
    same machine. ``bits_a`` and ``bits_b`` hold the OR of each state's
    out-arc labels (``Fsa.out_bits``) and must be given when ``live`` is
    not; with ``live`` they are not read.

    ``rest_a`` and ``rest_b``, when given, return each side's ``(lo, hi)``
    bounds on the segment symbols left before a final
    (``Fsa.rest_bounds``). They are called at the first indexed pair, so a
    product that meets no high-fan-out state computes none. Without
    ``live``, a new successor (da, db) of an indexed pair is entered only
    if it also passes the length test: ``lo_a[da] <= hi_b[db]`` and
    ``lo_b[db] <= hi_a[da]``. A string leading from both states to finals
    has one count of segment symbols, in both intervals; so a pair that
    fails the test reaches no final pair, nor do its successors, and as
    with the dead-end rule the pairs a trim keeps come out in the same
    order. The successors of plain pairs are not tested: in a parse that
    would save almost nothing (over 6,000 seeded parses against a
    1,600-stem lexicon, testing them too enters 127,199 pairs instead of
    127,667, 0.4% fewer).

    With bounds and without ``live``, an indexed pair runs both tests on
    sub-buckets rather than on each successor: each label group of an
    indexed state is split by its arcs' targets' signature ``(out_bits,
    final, lo, hi)`` (see ``_buckets``), a plain state's arcs form one
    sub-bucket each, and every pair of sub-buckets under a matching pair of
    groups is tested once, its arc positions taken whole. The tests then
    also drop the arcs into a pair already entered that fails them; such a
    pair reaches no final, so ``prune`` deletes those arcs anyway, and the
    pruned result is the same, as are the pairs entered.

    ``index_a`` and ``index_b`` cache the label index of each side's
    high-fan-out states across calls (see ``Fsa.label_index``), and their
    sub-buckets under the key ``~q`` once a product with bounds needs them.
    States, arcs and their order do not depend on the index: at an indexed
    pair the matching arcs are emitted in the order of the plain double
    loop.
    """
    if index_a is None:
        index_a = {}
    if index_b is None:
        index_b = {}
    fanout = FANOUT
    bounded = live is None and rest_a is not None
    lo_a = hi_a = lo_b = hi_b = None  # fetched at the first indexed pair
    # A pair (qa, qb) is keyed as the int qa * n_b + qb.
    pair_id: dict[int, int] = {start_a * n_b + start_b: 0}
    todo = [start_a * n_b + start_b]
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
        if len(succ_a) < fanout and len(succ_b) < fanout:
            for _sa, da, ba, pa in succ_a:
                base = da * n_b
                keep = pa or not closed
                for _sb, db, bb, pb in succ_b:
                    bits = ba & bb
                    if bits and (keep or pb):
                        key = base + db
                        tid = pair_id.get(key)
                        if tid is None:
                            if live is None:
                                if not (bits_a[da] & bits_b[db]
                                        or da in finals_a and db in finals_b):
                                    continue
                            elif key not in live:
                                continue
                            tid = len(pair_id)
                            pair_id[key] = tid
                            todo.append(key)
                        arcs.append((sid, tid, bits, pa or pb))
            continue
        matched: list[tuple[int, int]] = []
        if bounded:
            # both tests, once per pair of sub-buckets: their arcs' targets
            # share out-labels, finality and bounds, so they pass or fail whole
            if lo_a is None:
                (lo_a, hi_a), (lo_b, hi_b) = rest_a(), rest_b()
            buckets_b = _buckets(index_b, qb, succ_b, fanout, bits_b, finals_b, lo_b, hi_b)
            for ba, pa, subs_a in _buckets(index_a, qa, succ_a, fanout,
                                            bits_a, finals_a, lo_a, hi_a):
                keep = pa or not closed
                for bb, pb, subs_b in buckets_b:
                    if ba & bb and (keep or pb):
                        for oa, fa, la, ha, pos_a in subs_a:
                            for ob, fb, lb, hb, pos_b in subs_b:
                                if (oa & ob or fa and fb) and la <= hb and lb <= ha:
                                    matched += _pairs(pos_a, pos_b)
        else:
            groups_b = _groups(index_b, qb, succ_b, fanout)
            for ba, pa, pos_a in _groups(index_a, qa, succ_a, fanout):
                keep = pa or not closed
                for bb, pb, pos_b in groups_b:
                    if ba & bb and (keep or pb):
                        matched += _pairs(pos_a, pos_b)
        matched.sort()  # the plain loop's (a-arc, b-arc) order
        for i, j in matched:
            _sa, da, ba, pa = succ_a[i]
            _sb, db, bb, pb = succ_b[j]
            key = da * n_b + db
            tid = pair_id.get(key)
            if tid is None:
                if live is not None:
                    if key not in live:
                        continue
                elif not (bounded or bits_a[da] & bits_b[db]
                          or da in finals_a and db in finals_b):
                    continue
                tid = len(pair_id)
                pair_id[key] = tid
                todo.append(key)
            arcs.append((sid, tid, ba & bb, pa or pb))
    return len(pair_id), 0, finals, arcs, len(pair_id)


def coreachable(
    n_a: int,
    finals_a: frozenset[int],
    arcs_a: Sequence[tuple[int, int, int, bool]],
    n_b: int,
    finals_b: frozenset[int],
    arcs_b: Sequence[tuple[int, int, int, bool]],
) -> set[int]:
    """Keys (``qa * n_b + qb``) of the pairs that reach a final pair closed.

    Walks back from every (final, final) pair over both machines' in-arcs,
    pairing them by the closed product's rule: labels overlap and at least
    one arc is a producer.  So a pair is in the result iff some path of the
    closed product leads from it to a final pair, whether or not the start
    pair reaches it; ``product(..., closed=True, live=...)`` then enters
    only these.  The in-adjacency is built here from the raw arcs and not
    kept; the second machine's is also kept split by producer arcs, which
    are all a consumer arc of the first can pair with.
    """
    in_a: list[list[tuple[int, int, bool]]] = [[] for _ in range(n_a)]
    for s, d, b, pc in arcs_a:
        in_a[d].append((s * n_b, b, pc))
    in_b: list[list[tuple[int, int]]] = [[] for _ in range(n_b)]
    producers_in_b: list[list[tuple[int, int]]] = [[] for _ in range(n_b)]
    for s, d, b, pc in arcs_b:
        in_b[d].append((s, b))
        if pc:
            producers_in_b[d].append((s, b))
    todo = [fa * n_b + fb for fa in finals_a for fb in finals_b]
    live = set(todo)
    while todo:
        qa, qb = divmod(todo.pop(), n_b)
        any_b = in_b[qb]
        producer_b = producers_in_b[qb]
        for base, ba, pa in in_a[qa]:
            for sb, bb in any_b if pa else producer_b:
                if ba & bb:
                    key = base + sb
                    if key not in live:
                        live.add(key)
                        todo.append(key)
    return live


def _groups(index: dict[int, Groups], q: int, succ, fanout: int) -> Groups:
    """The arcs of ``succ`` (leaving q) as (bits, pc, positions) groups.

    A state below the fan-out cutoff gets one group per arc, built here and
    not kept; a state at or above it gets one group per distinct label,
    cached in ``index``.
    """
    if len(succ) < fanout:
        return [(b, pc, (i,)) for i, (_s, _d, b, pc) in enumerate(succ)]
    groups = index.get(q)
    if groups is None:
        by_label: dict[tuple[int, bool], list[int]] = {}
        for i, (_s, _d, b, pc) in enumerate(succ):
            by_label.setdefault((b, pc), []).append(i)
        groups = index[q] = [(b, pc, pos) for (b, pc), pos in by_label.items()]
    return groups


def _buckets(index: dict[int, Buckets], q: int, succ, fanout: int,
             bits: Sequence[int], finals: frozenset[int],
             lo: Sequence[int], hi: Sequence[int]) -> Buckets:
    """The groups of ``_groups``, each split into sub-buckets by the
    signature ``(bits[d], d in finals, lo[d], hi[d])`` of its arcs' targets.

    A state below the fan-out cutoff gets one group and one sub-bucket per
    arc, built here and not kept; a state at or above it gets its label
    groups split once, cached in ``index`` under the key ``~q``. Positions
    stay ascending within a sub-bucket.
    """
    if len(succ) < fanout:
        return [(b, pc, ((bits[d], d in finals, lo[d], hi[d], (i,)),))
                for i, (_s, d, b, pc) in enumerate(succ)]
    buckets = index.get(~q)
    if buckets is None:
        buckets = []
        for b, pc, pos in _groups(index, q, succ, fanout):
            by_target: dict[tuple[int, bool, int, int], list[int]] = {}
            for i in pos:
                d = succ[i][1]
                by_target.setdefault((bits[d], d in finals, lo[d], hi[d]), []).append(i)
            buckets.append((b, pc, [(*sig, p) for sig, p in by_target.items()]))
        index[~q] = buckets
    return buckets
