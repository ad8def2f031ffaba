"""The product kernel: reachable pair-product of two automata.

Pure Python, and the only kernel; ``BACKEND`` names it in benchmark
reports. It works on the adjacency lists that ``Fsa.out_raw`` caches and
returns raw ``(src, dst, bits, pc)`` arcs, so a product converts nothing.
"""

from __future__ import annotations

from typing import Sequence

BACKEND = "py"


def product(
    n_a: int,
    start_a: int,
    finals_a: frozenset[int],
    out_a: Sequence[Sequence[tuple[int, int, int, bool]]],
    n_b: int,
    start_b: int,
    finals_b: frozenset[int],
    out_b: Sequence[Sequence[tuple[int, int, int, bool]]],
) -> tuple[int, int, list[int], list[tuple[int, int, int, bool]], int]:
    """Reachable pair-product of two machines given by their out-adjacency.

    ``out_a[q]`` lists the arcs leaving state q of the first machine as
    (src, dst, label_bits, pc) tuples, likewise ``out_b``. A pair of arcs combines
    iff their labels overlap; the result arc gets the label intersection and
    the OR of the pc bits. Returns (n_states, start, finals, arcs,
    visited_pairs): arcs are (src, dst, label_bits, pc) tuples, and
    visited_pairs counts the distinct state pairs discovered — the work
    measure used to compare engines.
    """
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
        succ_b = out_b[qb]
        for _sa, da, ba, pa in out_a[qa]:
            base = da * n_b
            for _sb, db, bb, pb in succ_b:
                bits = ba & bb
                if bits:
                    key = base + db
                    tid = pair_id.get(key)
                    if tid is None:
                        tid = len(pair_id)
                        pair_id[key] = tid
                        todo.append(key)
                    arcs.append((sid, tid, bits, pa or pb))
    return len(pair_id), 0, finals, arcs, len(pair_id)
