"""The product kernel: reachable pair-product of two automata.

Pure Python, and the only kernel; ``BACKEND`` names it in benchmark
reports. It reads each machine's cached adjacency (``Fsa.out_raw``) and
returns raw ``(src, dst, bits, pc)`` arcs, so a product converts nothing.

``product`` has two modes. An open product enters a pair only if it is
not a dead end: the labels leaving its two states overlap or both are
final (``Fsa.out_bits``); ``fsa.pruned_from_raw`` cuts the dead pairs
left. A closed product joins no two consumer arcs and enters only the
pairs of ``live``, the set ``coreachable`` finds by walking back from the
pairs of finals, so it comes out trim.

``chain_product`` is the open product against a parse chain (the machine
built by ``interpret.prepare_parse_input``), and returns the trim machine
itself. It first walks the query back through the lexicon, and enters
only the pairs that can still reach a pair of finals. A rejected query is
settled by that walk alone, with no pair entered, and its product is the
one empty machine the lexicon keeps. Each live step back is memoized on
the machine (``Fsa.live_memo``) as its set of live states, so a lexicon
walks each live step back once for all its queries. A dead step, whose
label no in-arc of the set's states reads, is settled by the set's mask,
the OR of those in-arcs' labels, and is not stored. The memo, lazy
reverse determinization with caching in the sense of Mohri, Pereira &
Riley 2000, also keeps each accepted product by the query's token labels,
up to ``_PARSE_TABLE_ARCS`` arcs in all, so a query the lexicon has
accepted before runs neither the walk nor the forward pass, and gets the
same machine back.
"""

from __future__ import annotations

from .fsa import Fsa, RawArc, _is_producer, _marked, _set_closed, never_fsa

BACKEND = "py"

# The most arcs the accepted parse products a lexicon keeps may hold in
# all; the oldest go first when a new one needs room, and a larger product
# is not kept. The seed-1 `perfbench` pool keeps about 14,200.
_PARSE_TABLE_ARCS = 1 << 16

_NONE: frozenset[int] = frozenset()  # the live states after the last token


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
    final. A pair that fails the test reaches no pair of finals, so the
    result trimmed (``fsa.pruned_from_raw``, which reads these lists as
    they are) is the same machine, arc order included, as the product
    without the test trimmed. A parse chain is read here as the plain
    machine of its arcs; ``interpret.intersect_open`` sends a parse to
    ``chain_product`` instead.

    Closed (``live`` given), a pair of arcs neither of which is a producer
    makes no arc, and only the pairs whose keys (``qa * b.n + qb``) are in
    ``live`` are entered; it must hold the start pair. With the
    ``coreachable`` set, the result is the closed product already trimmed.
    """
    closed = live is not None
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


def chain_product(a: Fsa, labels: list[int]) -> Fsa:
    """The open product of ``a`` and the parse chain of these token labels,
    trimmed: state i of the chain leaves by a consumer arc of
    ``labels[i]`` to i + 1, then by a consumer loop of every technical
    symbol. A pair (qa, i) is keyed qa * width + i.

    A query whose product the memo keeps returns that machine itself, and
    a query the walk back rejects (``_live_sets`` gives None) the one empty
    machine of ``a``'s memo, so only a first accepted occurrence builds a
    machine. It enters only live pairs: from (qa, i), for each out-arc of
    qa in order, the token arc if it enters S_(i+1), then the loop if it
    stays in S_i. Every successor of a dead pair is dead, so the live
    pairs are numbered and expanded, and their arcs emitted, in the order
    the unrestricted product gives them: the result is that product
    trimmed, and is marked trim. When qa has more out-arcs than there are
    live states to enter (S_(i+1) and S_i, or S_n alone at the end of the
    query), its arcs into them are taken from their in-arcs instead, by
    their index in ``a.raw_arcs``, which is the out-arc order, so wide
    states such as a lexicon's start are not scanned. A product none of
    whose arcs is a consumer is also marked closed, so ``interpret.close``
    returns it as it is. The product is then kept (``_keep_parse``).
    """
    memo = a.live_memo()
    record = memo.get(None) or _first_record(a, memo)
    parses = record.parses
    query = tuple(labels)
    kept = parses.get(query)
    if kept is not None:
        return kept
    steps = _live_sets(a, labels)
    if steps is None:
        return record.empty
    inc, raw = record.inc, a.raw_arcs
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
            label, ahead = 0, _NONE
            if qa in finals_a:
                finals.append(sid)
        out = out_a[qa]
        if len(out) > len(ahead) + len(here):
            found = [k for d in ahead for s, _b, k in inc[d] if s == qa]
            found += [k for d in here if d not in ahead for s, _b, k in inc[d] if s == qa]
            found.sort()
            out = [raw[k] for k in found]
        for _s, da, ba, pa in out:
            bits = ba & label
            if bits and da in ahead:
                arcs.append((sid, enter(da, i + 1), bits, pa))
            bits = ba & tech
            if bits and da in here:
                arcs.append((sid, enter(da, i), bits, pa))
    m = _marked(Fsa.from_raw(a.alphabet, len(pair_id), 0, frozenset(finals), tuple(arcs)))
    if all(map(_is_producer, arcs)):
        _set_closed(m, True)
    _keep_parse(parses, query, m)
    return m


class _Parses(dict):
    """A lexicon's accepted parse products, by the token labels of their
    queries, oldest first; ``arcs`` counts the arcs they hold."""

    __slots__ = ("arcs",)

    def __init__(self):
        self.arcs = 0


def _keep_parse(parses: _Parses, query: tuple[int, ...], kept: Fsa) -> None:
    """Keep an accepted product in the table, dropping the oldest ones
    while the table would hold more than ``_PARSE_TABLE_ARCS`` arcs, as
    ``re`` drops its oldest patterns; a product larger than that is not
    kept. An accepted product of a query of k tokens has at least k arcs,
    so only the empty query's can be kept at no cost."""
    size = len(kept.raw_arcs)
    if size > _PARSE_TABLE_ARCS:
        return
    parses.arcs += size
    while parses.arcs > _PARSE_TABLE_ARCS:
        parses.arcs -= len(parses.pop(next(iter(parses))).raw_arcs)
    parses[query] = kept


def _live_sets(a: Fsa, labels: list[int]) -> list[frozenset[int]] | None:
    """Per chain state i the set S_i of the states q of ``a`` from which
    the pair (q, i) reaches a pair of finals; None when the start pair
    cannot.

    S_n (n tokens) is the states that reach a final of ``a`` over arcs
    that read a technical symbol, and S_i the states that reach, over such
    arcs, the source of an arc that reads token i's label and enters
    S_(i+1). The walk goes back from S_n. Each step is memoized in
    ``a.live_memo()`` under (S_(i+1), label); what every walk starts from
    is under None (``_first_record``). A step the memo does not hold is
    first tested against the mask of S_(i+1) (``_Record.sets``): when no
    in-arc of its states overlaps the label, S_i is empty and the walk
    stops there, with no arc scanned and nothing stored. Otherwise some
    in-arc's source reads the label, so S_i is not empty: the memo holds
    no empty set.
    """
    memo = a.live_memo()
    tech = a.alphabet.tech
    record = memo.get(None) or _first_record(a, memo)
    inc, sets, live = record.inc, record.sets, record.last
    steps = [live]
    for label in reversed(labels):
        key = (live, label)
        live = memo.get(key)
        if live is None:
            if not label & sets[key[0]][1]:
                return None
            live = memo[key] = record.interned(_back_closure(
                inc, {s for d in key[0] for s, b, _k in inc[d] if b & label}, tech))
        steps.append(live)
    if a.start not in live:
        return None
    steps.reverse()
    return steps


class _Record:
    """What every walk back against a lexicon starts from, kept under None
    in its live memo (``_first_record``).

    ``inc`` is the in-adjacency the steps walk and the forward pass joins
    through, as ``(src, bits, index in raw_arcs)``; ``sets`` keeps each
    distinct live set once, as ``(the set, its mask)``, the mask being the
    OR of the labels of its states' in-arcs; ``last`` is S_n; ``parses``
    the table of accepted products (``_Parses``); ``empty`` the one empty
    machine every rejected query returns.
    """

    __slots__ = ("inc", "sets", "last", "parses", "empty")

    def __init__(self, inc: list[list[tuple[int, int, int]]], last: frozenset[int], empty: Fsa):
        self.inc = inc
        self.sets: dict[frozenset[int], tuple[frozenset[int], int]] = {}
        self.last = self.interned(last)
        self.parses = _Parses()
        self.empty = empty

    def interned(self, found: frozenset[int]) -> frozenset[int]:
        """The one object kept for the set ``found``, which is entered
        with its mask when it is new."""
        kept = self.sets.get(found)
        if kept is None:
            inc, mask = self.inc, 0
            for d in found:
                for _s, b, _k in inc[d]:
                    mask |= b
            kept = self.sets[found] = (found, mask)
        return kept[0]


def _first_record(a: Fsa, memo: dict) -> _Record:
    """The record under None of ``a``'s live memo, built by the first parse
    against ``a``. Its empty machine is never marked trim; it has no arc,
    so it is marked closed, and nothing writes to it but its own caches."""
    inc: list[list[tuple[int, int, int]]] = [[] for _ in range(a.n)]
    for k, (s, d, b, _pc) in enumerate(a.raw_arcs):
        inc[d].append((s, b, k))
    empty = never_fsa(a.alphabet)
    _set_closed(empty, True)
    memo[None] = record = _Record(inc, _back_closure(inc, set(a.finals), a.alphabet.tech), empty)
    return record


def _back_closure(inc: list[list[tuple[int, int, int]]], found: set[int],
                  tech: int) -> frozenset[int]:
    """``found`` with every state that reaches one of them over arcs that
    read a technical symbol."""
    todo = list(found)
    while todo:
        for s, b, _k in inc[todo.pop()]:
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
