"""The product kernel: reachable pair-product of two automata.

Pure Python, and the only kernel; ``BACKEND`` names it in benchmark
reports. It reads each machine's cached adjacency (``Fsa.out_raw``) and
returns raw ``(src, dst, bits, pc)`` arcs, so a product converts nothing.

``product`` has three modes. A product against a parse chain (the second
operand built by ``interpret.prepare_parse_input``) first walks the query
back through the first machine, and enters only the pairs that can still
reach a pair of finals, so it comes out trim. A rejected query is
settled by that walk alone, with no pair entered, and its product is the
one canonical empty machine the lexicon keeps (``empty_product``). Each
step back is memoized on the machine (``Fsa.live_memo``) as its set of
live states, so a lexicon walks each step back once for all its queries.
The memo, lazy reverse determinization with caching in the sense of
Mohri, Pereira & Riley 2000, also keeps each accepted product's raw
parts by the query's token labels, up to ``_PARSE_TABLE_ARCS`` arcs in
all, so a query the lexicon has accepted before runs neither the walk
nor the forward pass. Any other open product enters a pair only if it is
not a dead end: the labels leaving its two states overlap or both are
final (``Fsa.out_bits``); ``fsa.pruned_from_raw`` cuts the dead pairs
left. A closed product joins no two consumer arcs and enters only the
pairs of ``live``, the set ``coreachable`` finds by walking back from the
pairs of finals, so it comes out trim.
"""

from __future__ import annotations

from .fsa import Fsa, RawArc, never_fsa

BACKEND = "py"

# The most arcs the accepted parse products a lexicon keeps may hold in
# all; the oldest go first when a new one needs room, and a larger product
# is not kept. The seed-1 `perfbench` pool keeps about 14,200.
_PARSE_TABLE_ARCS = 1 << 16


def product(
    a: Fsa, b: Fsa, live: set[int] | None = None
) -> tuple[int, int, list[int], list[tuple[int, int, int, bool]], int]:
    """Reachable pair-product of two machines, open or closed.

    A pair of arcs combines iff their labels overlap; the result arc gets
    the label intersection and the OR of the pc bits. Returns (n_states,
    start, finals, arcs, visited_pairs): arcs are (src, dst, label_bits, pc)
    tuples, and visited_pairs counts the distinct state pairs entered — the
    work measure used to compare engines.

    Open against a parse chain (``b`` carries its token labels), a pair
    (qa, i) is entered only if qa can still read the rest of the query
    from chain state i (see ``_live_sets``) and ``_chain_product``
    follows only its arcs into such pairs. Every successor of a dead pair
    is dead, so the live pairs are numbered and expanded, and their arcs
    emitted, in the order the unrestricted product gives them: the result
    is that product trimmed, and no pair at all is entered when no pair of
    finals is reached (the result then is ``(1, 0, [], [], 0)``). An
    accepted product comes with its finals as a frozenset and its arcs as
    a tuple, kept in the memo: a later query of the same token labels gets
    those same objects, and the same pair count, without a walk.

    Any other open product (``live`` None) enters a new pair (qa, qb) only
    if it is not a dead end: the labels leaving its two states overlap or
    both are final. A pair that fails the test reaches no pair of finals,
    so the result trimmed (``fsa.pruned_from_raw``, which reads these lists
    as they are) is the same machine, arc order included, as the product
    without the test trimmed.

    Closed (``live`` given), a pair of arcs neither of which is a producer
    makes no arc, and only the pairs whose keys (``qa * b.n + qb``) are in
    ``live`` are entered; it must hold the start pair. With the
    ``coreachable`` set, the result is the closed product already trimmed,
    for the reason the chain's is.
    """
    closed = live is not None
    if not closed and b._tokens is not None:
        return _chain_product(a, b._tokens)
    out_a, out_b, finals_a, finals_b = a.out_raw(), b.out_raw(), a.finals, b.finals
    if not closed:
        bits_a, bits_b = a.out_bits(), b.out_bits()
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
        succ_b = out_b[qb]
        for _sa, da, ba, pa in out_a[qa]:
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
    return len(pair_id), 0, finals, arcs, len(pair_id)


def _chain_product(
    a: Fsa, labels: list[int]
) -> tuple[int, int, list[int] | frozenset[int], list | tuple, int]:
    """``product(a, chain)`` for the chain of these token labels: state i
    leaves by a consumer arc of ``labels[i]`` to i + 1, then by a consumer
    loop of every technical symbol. A pair (qa, i) is keyed qa * width + i.

    A query whose product the memo keeps returns it as it was kept. Any
    other enters its pairs through the live sets of ``_live_sets``: for
    each out-arc of qa in order, the token arc if it enters S_(i+1), then
    the loop if it stays in S_i. The product is then kept
    (``_keep_parse``).
    """
    memo = a.live_memo()
    parses = (memo.get(None) or _first_record(a, memo))[3]
    query = tuple(labels)
    kept = parses.get(query)
    if kept is not None:
        n, finals, arcs = kept
        return n, 0, finals, arcs, n
    steps = _live_sets(a, labels)
    if steps is None:
        return 1, 0, [], [], 0
    out_a, finals_a, tech = a.out_raw(), a.finals, a.alphabet.tech
    last = len(labels)
    width = last + 1
    pair_id: dict[int, int] = {a.start * width: 0}
    todo = [(a.start, 0, 0)]
    finals: list[int] = []
    arcs: list[tuple[int, int, int, bool]] = []

    def enter(da: int, j: int) -> int:
        key = da * width + j
        tid = pair_id.get(key)
        if tid is None:
            tid = pair_id[key] = len(pair_id)
            todo.append((da, j, tid))
        return tid

    while todo:
        qa, i, sid = todo.pop()
        here = steps[i]
        if i < last:
            label, ahead = labels[i], steps[i + 1]
        else:
            label = 0
            if qa in finals_a:
                finals.append(sid)
        for _s, da, ba, pa in out_a[qa]:
            bits = ba & label
            if bits and da in ahead:
                arcs.append((sid, enter(da, i + 1), bits, pa))
            bits = ba & tech
            if bits and da in here:
                arcs.append((sid, enter(da, i), bits, pa))
    n = len(pair_id)
    kept = n, frozenset(finals), tuple(arcs)
    _keep_parse(parses, query, kept)
    return n, 0, kept[1], kept[2], n


class _Parses(dict):
    """A lexicon's accepted parse products as ``(n, finals, arcs)``, by the
    token labels of their queries, oldest first; ``arcs`` counts the arcs
    they hold."""

    __slots__ = ("arcs",)

    def __init__(self):
        self.arcs = 0


def _keep_parse(parses: _Parses, query: tuple[int, ...], kept: tuple) -> None:
    """Keep an accepted product in the table, dropping the oldest ones
    while the table would hold more than ``_PARSE_TABLE_ARCS`` arcs, as
    ``re`` drops its oldest patterns; a product larger than that is not
    kept. An accepted product of a query of k tokens has at least k arcs,
    so only the empty query's can be kept at no cost."""
    size = len(kept[2])
    if size > _PARSE_TABLE_ARCS:
        return
    parses.arcs += size
    while parses.arcs > _PARSE_TABLE_ARCS:
        parses.arcs -= len(parses.pop(next(iter(parses)))[2])
    parses[query] = kept


def empty_product(a: Fsa) -> Fsa:
    """The canonical empty machine ``a``'s memo keeps: the product of every
    parse chain that ``a`` rejects, one machine for all of them. It is
    never marked trim, and nothing writes to it but its own caches."""
    memo = a.live_memo()
    return (memo.get(None) or _first_record(a, memo))[4]


def _live_sets(a: Fsa, labels: list[int]) -> list[frozenset[int]] | None:
    """Per chain state i the set S_i of the states q of ``a`` from which
    the pair (q, i) reaches a pair of finals; None when the start pair
    cannot.

    S_n (n tokens) is the states that reach a final of ``a`` over arcs
    that read a technical symbol, and S_i the states that reach, over such
    arcs, the source of an arc that reads token i's label and enters
    S_(i+1). The walk goes back from S_n and stops at the first empty set.
    Each step is memoized in ``a.live_memo()`` under (S_(i+1), label);
    what every walk starts from is under None (``_first_record``).
    """
    memo = a.live_memo()
    tech = a.alphabet.tech
    inc, sets, live, _parses, _empty = memo.get(None) or _first_record(a, memo)
    steps = [live]
    for label in reversed(labels):
        if not live:
            return None
        key = (live, label)
        live = memo.get(key)
        if live is None:
            found = _back_closure(inc, {s for d in key[0] for s, b in inc[d] if b & label}, tech)
            live = memo[key] = sets.setdefault(found, found)
        steps.append(live)
    if a.start not in live:
        return None
    steps.reverse()
    return steps


def _first_record(a: Fsa, memo: dict) -> tuple:
    """The record under None of ``a``'s live memo, built by the first parse
    against ``a``: the in-adjacency the steps walk, the table that keeps
    each distinct set once, S_n, the table of accepted products
    (``_Parses``) and the canonical empty machine of every rejected
    query."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(a.n)]
    for s, d, b, _pc in a.raw_arcs:
        inc[d].append((s, b))
    live = _back_closure(inc, set(a.finals), a.alphabet.tech)
    memo[None] = record = (inc, {live: live}, live, _Parses(), never_fsa(a.alphabet))
    return record


def _back_closure(inc: list[list[tuple[int, int]]], found: set[int],
                  tech: int) -> frozenset[int]:
    """``found`` with every state that reaches one of them over arcs that
    read a technical symbol."""
    todo = list(found)
    while todo:
        for s, b in inc[todo.pop()]:
            if b & tech and s not in found:
                found.add(s)
                todo.append(s)
    return frozenset(found)


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
