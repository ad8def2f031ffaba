"""Epsilon-free automata over featured alphabets, with resource-typed arcs.

Every arc carries a non-empty symbol set (an int bitmask over the alphabet)
plus one producer/consumer bit. The bit is part of arc identity for all
structural operations — determinization and minimization never merge a
producer arc with a consumer arc, which is what keeps resource accounting
intact through normalization.

An Fsa stores its arcs as raw ``(src, dst, bits, pc)`` tuples in
``raw_arcs`` and caches its out-adjacency the first time an operation asks
for it (``out_raw``). Every operation here, in ``interpret``, ``enrich`` and
``compiler`` works on that form directly. ``arcs`` is a view of the same
arcs as ``Arc(src, Label(bits, pc), dst)`` values, built on first access.
Input is validated at the boundary only: the public constructor, the
builders and the grammar compiler. Internal operations build their results
with the unchecked ``Fsa.from_raw``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import FrozenInstanceError
from typing import Iterable, NamedTuple, Sequence

from .alphabet import Alphabet
from .errors import AutomatonError, EnumerationCapError

DEFAULT_ENUM_CAP = 200_000

RawArc = tuple[int, int, int, bool]  # (src, dst, bits, pc)

_set = object.__setattr__


class Label(NamedTuple):
    bits: int
    pc: bool  # True: producer, False: consumer


class Arc(NamedTuple):
    src: int
    label: Label
    dst: int


class Fsa:
    """Immutable epsilon-free automaton, equal and hashable by value.

    States are 0..n-1 with a single start state; `finals` may be empty (the
    empty language). Arcs are kept exactly as constructed — duplicates are
    legal and observable (enrichment re-application adds them on purpose).
    """

    __slots__ = ("alphabet", "n", "start", "finals", "raw_arcs", "_arcs", "_out", "_hash")

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        start: int,
        finals: Iterable[int],
        arcs: Iterable[Arc],
    ):
        try:
            arcs = tuple(arcs)
            raw = tuple((a.src, a.dst, a.label.bits, a.label.pc) for a in arcs)
            finals = frozenset(finals)
        except (AttributeError, TypeError):
            raise AutomatonError(
                "finals must be a set of states and arcs Arc(src, Label(bits, pc), dst)"
            ) from None
        _init(self, alphabet, n, start, finals, raw, arcs)
        self.__post_init__()

    @staticmethod
    def from_raw(
        alphabet: Alphabet,
        n: int,
        start: int,
        finals: frozenset[int],
        raw_arcs: tuple[RawArc, ...],
        check: bool = False,
    ) -> "Fsa":
        """Build from raw arcs; validated only with `check` (for builders)."""
        m = object.__new__(Fsa)
        _init(m, alphabet, n, start, finals, raw_arcs, None)
        if check:
            m.__post_init__()
        return m

    def __post_init__(self):
        """The validator: run by the public constructor and the builders."""
        if not isinstance(self.alphabet, Alphabet):
            raise AutomatonError("an automaton needs an Alphabet")
        n = self.n
        if not isinstance(n, int) or n < 1:
            raise AutomatonError("an automaton needs at least one state")
        if not isinstance(self.start, int) or not 0 <= self.start < n:
            raise AutomatonError(f"start state {self.start} out of range")
        for q in self.finals:
            if not isinstance(q, int) or not 0 <= q < n:
                raise AutomatonError(f"final state {q} out of range")
        sigma = self.alphabet.sigma
        for src, dst, bits, pc in self.raw_arcs:
            if not (isinstance(src, int) and isinstance(dst, int)
                    and 0 <= src < n and 0 <= dst < n):
                raise AutomatonError(
                    f"arc endpoint out of range: {Arc(src, Label(bits, pc), dst)}"
                )
            if not isinstance(bits, int):
                raise AutomatonError(f"arc label {bits!r} is not a symbol bitmask")
            if bits == 0:
                raise AutomatonError(
                    "empty-label (epsilon) arc: epsilon transitions would make "
                    "technical-symbol counts ambiguous and are not representable"
                )
            if bits & ~sigma:
                raise AutomatonError("arc label uses symbols outside the alphabet")

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as Arc values, in construction order (built once)."""
        arcs = self._arcs
        if arcs is None:
            arcs = tuple(Arc(s, Label(b, pc), d) for s, d, b, pc in self.raw_arcs)
            _set(self, "_arcs", arcs)
        return arcs

    def out_raw(self) -> list[list[RawArc]]:
        """Per state, the raw arcs leaving it, in arc order.

        Built on first use and cached: every caller shares the same lists,
        so read them and never mutate them.
        """
        out = self._out
        if out is None:
            out = [[] for _ in range(self.n)]
            for arc in self.raw_arcs:
                out[arc[0]].append(arc)
            _set(self, "_out", out)
        return out

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not Fsa:
            return NotImplemented
        return (
            self.n == other.n
            and self.start == other.start
            and self.finals == other.finals
            and self.raw_arcs == other.raw_arcs
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        # The alphabet holds dicts and is left out; equal machines share it.
        h = self._hash
        if h is None:
            h = hash((self.n, self.start, self.finals, self.raw_arcs))
            _set(self, "_hash", h)
        return h

    def __reduce__(self):
        return Fsa.from_raw, (self.alphabet, self.n, self.start, self.finals, self.raw_arcs)

    def __repr__(self):
        return (
            f"Fsa(n={self.n}, start={self.start}, finals={sorted(self.finals)}, "
            f"arcs={len(self.raw_arcs)})"
        )

    # Small conveniences used all over the test-suite and CLI.

    def out_arcs(self) -> list[list[Arc]]:
        by_src: list[list[Arc]] = [[] for _ in range(self.n)]
        for arc in self.arcs:
            by_src[arc.src].append(arc)
        return by_src

    def in_arcs(self) -> list[list[Arc]]:
        by_dst: list[list[Arc]] = [[] for _ in range(self.n)]
        for arc in self.arcs:
            by_dst[arc.dst].append(arc)
        return by_dst

    def is_final(self, q: int) -> bool:
        return q in self.finals


def _init(m: Fsa, alphabet, n, start, finals, raw_arcs, arcs) -> None:
    _set(m, "alphabet", alphabet)
    _set(m, "n", n)
    _set(m, "start", start)
    _set(m, "finals", finals)
    _set(m, "raw_arcs", raw_arcs)
    _set(m, "_arcs", arcs)
    _set(m, "_out", None)
    _set(m, "_hash", None)


# ---------------------------------------------------------------------------
# basic builders


def empty_string_fsa(alphabet: Alphabet) -> Fsa:
    """Accepts exactly the empty string."""
    return Fsa.from_raw(alphabet, 1, 0, frozenset({0}), ())


def never_fsa(alphabet: Alphabet) -> Fsa:
    """Accepts nothing (the canonical empty automaton)."""
    return Fsa.from_raw(alphabet, 1, 0, frozenset(), ())


def symbol_fsa(alphabet: Alphabet, bits: int, pc: bool = False) -> Fsa:
    """Accepts exactly one symbol drawn from `bits`."""
    return Fsa.from_raw(alphabet, 2, 0, frozenset({1}), ((0, 1, bits, pc),), check=True)


def build_from_string(
    alphabet: Alphabet,
    string: str | Sequence[str],
    attrs: Sequence[int | None] | None = None,
    pc: bool = True,
) -> Fsa:
    """Linear producer automaton for a lexical string.

    Each token becomes one arc labeled with every attribute variant of that
    token, optionally narrowed by a per-token mask from `attrs`. Raises
    InventoryError for tokens missing from the inventory.
    """
    tokens = alphabet.tokenize(string) if isinstance(string, str) else list(string)
    if attrs is not None and len(attrs) != len(tokens):
        raise AutomatonError("attrs must align with the token sequence")
    arcs = []
    for i, tok in enumerate(tokens):
        bits = alphabet.char(tok)
        if attrs is not None and attrs[i] is not None:
            bits &= attrs[i]
            if bits == 0:
                raise AutomatonError(
                    f"attribute spec empties token {tok!r} at position {i}"
                )
        arcs.append((i, i + 1, bits, pc))
    return Fsa.from_raw(
        alphabet, len(tokens) + 1, 0, frozenset({len(tokens)}), tuple(arcs), check=True
    )


# ---------------------------------------------------------------------------
# rational operations (concatenation, union, star, optionality)


def combine(kind: str, parts: Sequence[Fsa], alphabet: Alphabet | None = None) -> Fsa:
    """Concatenate/union/star/option automata.

    Built with internal epsilon transitions which are removed before the
    result is returned; producer/consumer bits of copied arcs are untouched.
    """
    if parts:
        alphabet = parts[0].alphabet
        for p in parts[1:]:
            if p.alphabet != alphabet:
                raise AutomatonError("combine over mismatched alphabets")
    if alphabet is None:
        raise AutomatonError("combine of zero parts needs an explicit alphabet")

    if kind in ("star", "optional") and len(parts) != 1:
        raise AutomatonError(f"{kind} takes exactly one operand")
    if kind == "concat" and not parts:
        return empty_string_fsa(alphabet)
    if kind == "union" and not parts:
        return never_fsa(alphabet)

    arcs: list[RawArc] = []
    eps: list[tuple[int, int]] = []
    offset = 0
    placed: list[tuple[int, Fsa]] = []
    for p in parts:
        arcs.extend((s + offset, d + offset, b, pc) for s, d, b, pc in p.raw_arcs)
        placed.append((offset, p))
        offset += p.n
    root = offset  # fresh start state
    n = offset + 1
    finals: set[int] = set()

    if kind == "concat":
        eps.append((root, placed[0][0] + placed[0][1].start))
        for (off_a, pa), (off_b, pb) in zip(placed, placed[1:]):
            for f in pa.finals:
                eps.append((off_a + f, off_b + pb.start))
        off_last, last = placed[-1]
        finals = {off_last + f for f in last.finals}
    elif kind == "union":
        for off, p in placed:
            eps.append((root, off + p.start))
            finals |= {off + f for f in p.finals}
    elif kind == "star":
        off, p = placed[0]
        eps.append((root, off + p.start))
        for f in p.finals:
            eps.append((off + f, root))
        finals = {root}
    elif kind == "optional":
        off, p = placed[0]
        eps.append((root, off + p.start))
        finals = {off + f for f in p.finals} | {root}
    else:
        raise AutomatonError(f"unknown combine kind {kind!r}")

    return trim(_remove_epsilons(alphabet, n, root, finals, arcs, eps))


def _remove_epsilons(
    alphabet: Alphabet,
    n: int,
    start: int,
    finals: set[int],
    arcs: list[RawArc],
    eps: list[tuple[int, int]],
) -> Fsa:
    adj: list[list[int]] = [[] for _ in range(n)]
    for s, d in eps:
        adj[s].append(d)
    by_src: list[list[RawArc]] = [[] for _ in range(n)]
    for arc in arcs:
        by_src[arc[0]].append(arc)
    out: list[RawArc] = []
    new_finals: set[int] = set()
    for q in range(n):
        closure: Iterable[int] = (q,)
        if adj[q]:
            closure = {q}
            stack = [q]
            while stack:
                for nxt in adj[stack.pop()]:
                    if nxt not in closure:
                        closure.add(nxt)
                        stack.append(nxt)
        seen: set[tuple[int, int, bool]] = set()
        for p in closure:
            for _s, d, b, pc in by_src[p]:
                key = (d, b, pc)
                if key not in seen:
                    seen.add(key)
                    out.append((q, d, b, pc))
            if p in finals:
                new_finals.add(q)
    return Fsa.from_raw(alphabet, n, start, frozenset(new_finals), tuple(out))


# ---------------------------------------------------------------------------
# normalization


def trim(a: Fsa) -> Fsa:
    """Keep only states on some start-to-final path (canonical empty if none).

    Returns `a` itself when every state is live.
    """
    n, start, finals, raw = a.n, a.start, a.finals, a.raw_arcs
    if not finals:
        return never_fsa(a.alphabet)
    out = a.out_raw()
    fwd = bytearray(n)
    fwd[start] = 1
    stack = [start]
    while stack:
        for _s, d, _b, _pc in out[stack.pop()]:
            if not fwd[d]:
                fwd[d] = 1
                stack.append(d)
    # Walking back over arcs out of reachable states only, every state found
    # is both reachable and co-reachable.
    inc: list[list[int]] = [[] for _ in range(n)]
    for s, d, _b, _pc in raw:
        if fwd[s]:
            inc[d].append(s)
    keep = bytearray(n)
    stack = [q for q in finals if fwd[q]]
    for q in stack:
        keep[q] = 1
    while stack:
        for s in inc[stack.pop()]:
            if not keep[s]:
                keep[s] = 1
                stack.append(s)
    if not keep[start]:
        return never_fsa(a.alphabet)
    kept = keep.count(1)
    if kept == n:
        return a
    remap = [-1] * n
    i = 0
    for q in range(n):
        if keep[q]:
            remap[q] = i
            i += 1
    arcs = tuple([
        (rs, rd, b, pc)
        for s, d, b, pc in raw
        if (rs := remap[s]) >= 0 and (rd := remap[d]) >= 0
    ])
    return Fsa.from_raw(a.alphabet, kept, remap[start],
                        frozenset(remap[q] for q in finals if keep[q]), arcs)


def label_atoms(labels: Iterable[int]) -> list[int]:
    """Coarsest partition of the alphabet compatible with every given set.

    Each input label is a disjoint union of returned atoms, so atoms act as
    the effective alphabet for subset construction and minimization.
    """
    labels = list(dict.fromkeys(labels))  # a repeated label splits nothing
    blocks: list[int] = []
    rest = 0
    for bits in labels:
        rest |= bits
    if rest:
        blocks = [rest]
    for bits in labels:
        nxt = []
        for b in blocks:
            inside = b & bits
            outside = b & ~bits
            if inside:
                nxt.append(inside)
            if outside:
                nxt.append(outside)
        blocks = nxt
    return blocks


def _subset_construct(
    by_src: list[list[RawArc]],
    initial: frozenset[int],
    accepting: frozenset[int],
    atoms: list[int],
) -> tuple[int, int, frozenset[int], tuple[RawArc, ...]]:
    """Subset construction over per-state lists of raw out-arcs."""
    atoms_of: dict[int, list[int]] = {}  # label bits -> indices of its atoms
    states: dict[frozenset[int], int] = {initial: 0}
    todo = [initial]
    out_arcs: list[RawArc] = []
    finals: set[int] = set()
    while todo:
        subset = todo.pop()
        sid = states[subset]
        if subset & accepting:
            finals.add(sid)
        moves: dict[tuple[int, bool], set[int]] = {}
        for q in subset:
            for _s, dst, bits, pc in by_src[q]:
                idx = atoms_of.get(bits)
                if idx is None:
                    idx = atoms_of[bits] = [i for i, atom in enumerate(atoms) if atom & bits]
                for i in idx:
                    moves.setdefault((i, pc), set()).add(dst)
        regroup: dict[tuple[frozenset[int], bool], int] = {}
        for (i, pc), targets in moves.items():
            key = (frozenset(targets), pc)
            regroup[key] = regroup.get(key, 0) | atoms[i]
        for (targets, pc), bits in sorted(
            regroup.items(), key=lambda kv: (kv[1], kv[0][1])
        ):
            if targets not in states:
                states[targets] = len(states)
                todo.append(targets)
            out_arcs.append((sid, states[targets], bits, pc))
    return len(states), 0, frozenset(finals), tuple(out_arcs)


def _atoms(a: Fsa) -> list[int]:
    return label_atoms(b for _s, _d, b, _pc in a.raw_arcs)


def determinize(a: Fsa) -> Fsa:
    """Subset construction over the label-atom partition (pc kept distinct)."""
    a = trim(a)
    if not a.finals:
        return a
    n, start, finals, arcs = _subset_construct(
        a.out_raw(), frozenset({a.start}), a.finals, _atoms(a)
    )
    return trim(Fsa.from_raw(a.alphabet, n, start, finals, arcs))


def minimize(a: Fsa) -> Fsa:
    """Minimal deterministic form (double-reversal construction)."""
    a = trim(a)
    if not a.finals:
        return a
    atoms = _atoms(a)

    def reverse_det(n, start_set, arcs, accepting):
        by_dst: list[list[RawArc]] = [[] for _ in range(n)]
        for s, d, b, pc in arcs:
            by_dst[d].append((d, s, b, pc))
        return _subset_construct(by_dst, start_set, accepting, atoms)

    n1, s1, f1, arcs1 = reverse_det(a.n, frozenset(a.finals), a.raw_arcs, frozenset({a.start}))
    n2, s2, f2, arcs2 = reverse_det(n1, f1, arcs1, frozenset({s1}))
    return trim(Fsa.from_raw(a.alphabet, n2, s2, f2, arcs2))


def normalize(a: Fsa, mode: str = "minimize") -> Fsa:
    if mode == "trim":
        return trim(a)
    if mode == "determinize":
        return determinize(a)
    if mode == "minimize":
        return minimize(a)
    raise AutomatonError(f"unknown normalize mode {mode!r}")


def canonical(a: Fsa) -> Fsa:
    """Minimized automaton renumbered into BFS order with sorted arcs.

    Equal canonical forms mean isomorphic minimal machines, which for
    deterministic machines means equal languages.
    """
    m = minimize(a)
    order: dict[int, int] = {m.start: 0}
    out = m.out_raw()
    queue = deque([m.start])
    while queue:
        q = queue.popleft()
        for _s, d, _b, _pc in sorted(out[q], key=lambda x: (x[2], x[3], x[1])):
            if d not in order:
                order[d] = len(order)
                queue.append(d)
    arcs = tuple(
        sorted(
            ((order[s], order[d], b, pc) for s, d, b, pc in m.raw_arcs),
            key=lambda x: (x[0], x[2], x[3], x[1]),
        )
    )
    return Fsa.from_raw(m.alphabet, m.n, 0, frozenset(order[q] for q in m.finals), arcs)


def language_equal(a: Fsa, b: Fsa) -> bool:
    return canonical(a) == canonical(b)


# ---------------------------------------------------------------------------
# queries


def is_empty(a: Fsa) -> bool:
    out = a.out_raw()
    seen = {a.start}
    stack = [a.start]
    while stack:
        q = stack.pop()
        if q in a.finals:
            return False
        for _s, d, _b, _pc in out[q]:
            if d not in seen:
                seen.add(d)
                stack.append(d)
    return True


def accepts(a: Fsa, symbols: Iterable[int]) -> bool:
    """Membership of a fully specified symbol-index sequence."""
    out = a.out_raw()
    current = {a.start}
    for idx in symbols:
        bit = 1 << idx
        nxt = set()
        for q in current:
            for _s, d, b, _pc in out[q]:
                if b & bit:
                    nxt.add(d)
        if not nxt:
            return False
        current = nxt
    return bool(current & a.finals)


def has_cycle(a: Fsa) -> bool:
    """True if some cycle is reachable from the start state."""
    out = a.out_raw()
    color = [0] * a.n  # 0 unvisited, 1 on stack, 2 done
    stack = [(a.start, iter(out[a.start]))]
    color[a.start] = 1
    while stack:
        q, it = stack[-1]
        arc = next(it, None)
        if arc is None:
            color[q] = 2
            stack.pop()
            continue
        d = arc[1]
        if color[d] == 1:
            return True
        if color[d] == 0:
            color[d] = 1
            stack.append((d, iter(out[d])))
    return False


def enumerate_language(
    a: Fsa, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> set[tuple[int, ...]]:
    """All accepted symbol-index sequences of length <= max_len.

    Every arc contributes one branch per symbol in its label, so this is the
    fully specified language — use it only over small, mostly singleton-label
    machines. Aborts with EnumerationCapError beyond `cap` tracked paths.
    """
    out = a.out_raw()
    results: set[tuple[int, ...]] = set()
    frontier: set[tuple[int, tuple[int, ...]]] = {(a.start, ())}
    for _ in range(max_len + 1):
        for q, path in frontier:
            if q in a.finals:
                results.add(path)
        nxt: set[tuple[int, tuple[int, ...]]] = set()
        for q, path in frontier:
            if len(path) == max_len:
                continue
            for _s, d, bits, _pc in out[q]:
                while bits:
                    low = bits & -bits
                    nxt.add((d, path + (low.bit_length() - 1,)))
                    bits ^= low
            if len(nxt) + len(results) > cap:
                raise EnumerationCapError(cap)
        if not nxt:
            break
        frontier = nxt
    return results


def enumerate_label_paths(
    a: Fsa, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> set[tuple[Label, ...]]:
    """All label sequences along accepting paths of length <= max_len."""
    out = a.out_arcs()
    results: set[tuple[Label, ...]] = set()
    frontier: set[tuple[int, tuple[Label, ...]]] = {(a.start, ())}
    for _ in range(max_len + 1):
        for q, path in frontier:
            if q in a.finals:
                results.add(path)
        nxt: set[tuple[int, tuple[Label, ...]]] = set()
        for q, path in frontier:
            if len(path) == max_len:
                continue
            for arc in out[q]:
                nxt.add((arc.dst, path + (arc.label,)))
            if len(nxt) + len(results) > cap:
                raise EnumerationCapError(cap)
        if not nxt:
            break
        frontier = nxt
    return results


# ---------------------------------------------------------------------------
# surface projection


def surface_path(alphabet: Alphabet, path: Iterable[int | Label]) -> str:
    """Project one raw path to its surface string.

    Technical symbols disappear; each segment contributes its bare token.
    Accepts symbol indices or Labels (whose members must agree on the token).
    """
    chars: list[str] = []
    for step in path:
        if isinstance(step, Label):
            bits = step.bits & alphabet.seg
            if not bits:
                continue
            toks = {s.char for s in alphabet.members(bits)}
            if len(toks) > 1:
                raise AutomatonError(
                    f"label covers several tokens ({sorted(toks)}); "
                    "surface projection is ambiguous"
                )
            chars.append(toks.pop())
        else:
            sym = alphabet.symbols[step]
            if sym.char is not None:
                chars.append(sym.char)
    return "".join(chars)


def project_surface(a: Fsa) -> Fsa:
    """Erase attributes and technical symbols from an automaton.

    Technical arcs become epsilon transitions (removed), and every segment
    label widens to all variants of the tokens it mentions, so the projected
    language is exactly the set of surface strings.
    """
    al = a.alphabet
    seg, tech = al.seg, al.tech
    widened: dict[int, int] = {}  # segment bits -> all variants of their tokens
    arcs: list[RawArc] = []
    eps: list[tuple[int, int]] = []
    for src, dst, bits, pc in a.raw_arcs:
        if bits & tech:
            eps.append((src, dst))
        seg_bits = bits & seg
        if seg_bits:
            wide = widened.get(seg_bits)
            if wide is None:
                wide = 0
                for tok in {s.char for s in al.members(seg_bits)}:
                    wide |= al.char(tok)
                widened[seg_bits] = wide
            arcs.append((src, dst, wide, pc))
    return trim(_remove_epsilons(al, a.n, a.start, set(a.finals), arcs, eps))


def surface_strings(
    a: Fsa, max_len: int | None = None, cap: int = DEFAULT_ENUM_CAP
) -> set[str]:
    """The set of surface strings of an automaton.

    For acyclic surface projections (the usual case after closed
    interpretation) the result is the complete finite language; otherwise
    max_len must be given to bound the walk.
    """
    p = project_surface(a)
    if max_len is None:
        if has_cycle(p):
            raise AutomatonError(
                "surface language is infinite; pass max_len to bound enumeration"
            )
        max_len = p.n  # acyclic: a path revisits no state
    out = p.out_raw()
    al = p.alphabet
    tokens: dict[int, list[str]] = {}  # label bits -> its sorted tokens
    results: set[str] = set()
    frontier: set[tuple[int, str]] = {(p.start, "")}
    for _ in range(max_len):
        for q, s in frontier:
            if q in p.finals:
                results.add(s)
        nxt: set[tuple[int, str]] = set()
        for q, s in frontier:
            for _s, d, bits, _pc in out[q]:
                toks = tokens.get(bits)
                if toks is None:
                    toks = tokens[bits] = sorted({sym.char for sym in al.members(bits)})
                for tok in toks:
                    nxt.add((d, s + tok))
            if len(nxt) + len(results) > cap:
                raise EnumerationCapError(cap)
        if not nxt:
            break
        frontier = nxt
    for q, s in frontier:
        if q in p.finals:
            results.add(s)
    return results
