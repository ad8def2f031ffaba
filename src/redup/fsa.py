"""Epsilon-free automata over featured alphabets, with resource-typed arcs.

Every arc carries a non-empty symbol set (an int bitmask over the alphabet)
plus one producer/consumer bit. The bit is part of arc identity for all
structural operations — determinization and minimization never merge a
producer arc with a consumer arc, which is what keeps resource accounting
intact through normalization.

An Fsa stores its arcs as raw ``(src, dst, bits, pc)`` tuples, read as
``raw_arcs``, and caches its out-adjacency the first time an operation asks
for it (``out_raw``). A parse chain is built without arcs: ``raw_arcs``
makes them from its token labels on first read and stores them, so every
later read returns the same tuple. Every operation here, in ``interpret``,
``enrich`` and ``compiler`` works on the raw form directly. ``arcs`` is a
view of the same arcs as ``Arc(src, Label(bits, pc), dst)`` values, built
anew on each read and not stored.
An open product (``_kernel.product``) reads one more cache of each
machine itself: ``out_bits``, the OR of each state's out-arc labels, lets
it skip dead-end pairs. ``live_memo``, filled by the products of parse
chains against the machine (``_kernel.chain_product``), holds the sets of
states that can still read each suffix of a query, its in-adjacency, the
accepted products themselves, up to a fixed number of arcs, and the one
empty machine every rejected parse returns. A parse chain carries one
mark, its token labels, which sends its product to that memo. A closed
product reads none of them.
A machine carries two more marks, each a fact about it that an operation
would otherwise find by a walk: trim (below), and closed, which says that
no arc of the machine is a consumer, so ``interpret.close`` of it alone
is its ``trim`` with no scan of its arcs. Only three results are marked
closed: a parse's product whose arcs are all producers (and the lexicon's
empty machine of rejected parses), the closed product, and what ``close``
of one machine returns. No operation copies the mark: enriching or
retyping arcs can add consumers.
None of the caches, nor the marks, takes part in equality, hashing,
pickling or copies, and the hash itself is not cached.
Input is validated at the boundary only: the public constructor, the
builders and the grammar compiler. Internal operations build their results
with the unchecked ``Fsa.from_raw``, which sets each slot by a setter bound
once at import.

Trimming is one rule: keep the states on some path from the start to a
final, numbered in order, and mark the result trim; a machine with no such
path becomes the canonical empty machine, which is never marked. It has
two entry points over one walk (``_live``, a forward search and then
``_coreachable`` back from the finals it reached). ``trim`` takes a built
machine, such as the arc-filtered results of ``close`` of one machine and
of ``project_surface``, which can have dead states. ``pruned_from_raw``
takes the raw lists of a search from the start state, which are reachable
by construction: an open product of ``interpret.intersect_open`` other
than a parse's, and ``lazy.materialize``. Only the backward half runs
there, and no uncut machine or adjacency is built. ``trim`` returns a
marked machine, and the canonical empty one, as they are, and ``is_empty``
answers a marked one without a walk. The builders whose output is trim by
construction mark it: ``empty_string_fsa``, ``symbol_fsa``,
``build_from_string``, ``combine`` (which trims no result, see there),
the subset constructions of ``determinize`` and ``minimize`` (run on trim
machines, every subset is reached and reaches a final), ``canonical``'s
renumbering of a marked minimal machine, the closed product of
``interpret.close``, a parse's product (it enters only live pairs) and
the compiler's rule machines. Enriching or retyping arcs keeps
every state live, and so keeps the operand's mark.

No operation builds epsilon edges. Where concatenation, union, star or
option would enter a part's start state by one, ``combine`` gives the
source a copy of that state's out-arcs. ``project_surface`` erases
technical arcs the same way: each state takes a copy of the segment arcs of
every state its technical arcs lead to.

The three enumerators (``enumerate_language``, ``enumerate_label_paths``,
``surface_strings``) share one level-by-level walk over ``out_raw``. They
differ only in what an arc appends to a path: a symbol index per bit of its
label, the label itself, or a surface token. A walk that overflows its cap
raises ``EnumerationCapError`` carrying, as ``partial``, every path length
it completed, so a caller gets the longest complete prefix of the language
without walking again.
"""

from __future__ import annotations

from itertools import accumulate, compress, repeat
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .alphabet import Alphabet
from .errors import AutomatonError, EnumerationCapError, Frozen

DEFAULT_ENUM_CAP = 200_000

RawArc = tuple[int, int, int, bool]  # (src, dst, bits, pc)
_is_producer = itemgetter(3)  # of a raw arc

class Label(NamedTuple):
    bits: int
    pc: bool  # True: producer, False: consumer


class Arc(NamedTuple):
    src: int
    label: Label
    dst: int


class Fsa(Frozen):
    """Immutable epsilon-free automaton, equal and hashable by value.

    States are 0..n-1 with a single start state; `finals` may be empty (the
    empty language). Arcs are kept exactly as constructed — duplicates are
    legal and observable (enrichment re-application adds them on purpose).
    """

    __slots__ = (
        "alphabet", "n", "start", "finals", "_raw_arcs",
        "_out", "_bits", "_memo", "_tokens", "_trim", "_closed",
    )

    def __init__(
        self,
        alphabet: Alphabet,
        n: int,
        start: int,
        finals: Iterable[int],
        arcs: Iterable[Arc],
    ):
        try:
            raw = tuple((a.src, a.dst, a.label.bits, a.label.pc) for a in arcs)
            finals = frozenset(finals)
        except (AttributeError, TypeError):
            raise AutomatonError(
                "finals must be a set of states and arcs Arc(src, Label(bits, pc), dst)"
            ) from None
        _init(self, alphabet, n, start, finals, raw)
        self.__post_init__()

    @staticmethod
    def from_raw(
        alphabet: Alphabet,
        n: int,
        start: int,
        finals: frozenset[int],
        raw_arcs: tuple[RawArc, ...] | None,
        check: bool = False,
    ) -> "Fsa":
        """Build from raw arcs; validated only with `check` (for builders).

        `raw_arcs` is None only for a parse chain, marked with its token
        labels at once (`interpret.prepare_parse_input`).
        """
        m = object.__new__(Fsa)
        _init(m, alphabet, n, start, finals, raw_arcs)
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
    def raw_arcs(self) -> tuple[RawArc, ...]:
        """The arcs as raw tuples, in construction order.

        A parse chain's are made on first read, and stored: one token arc
        per label, then one technical loop per state.
        """
        arcs = self._raw_arcs
        if arcs is None:
            tech = self.alphabet.tech
            arcs = tuple([(i, i + 1, b, False) for i, b in enumerate(self._tokens)]
                         + [(i, i, tech, False) for i in range(self.n)])
            _set_raw_arcs(self, arcs)
        return arcs

    @property
    def arcs(self) -> tuple[Arc, ...]:
        """The arcs as Arc values, in construction order, built on each read."""
        return tuple(Arc(s, Label(b, pc), d) for s, d, b, pc in self.raw_arcs)

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
            _set_out(self, out)
        return out

    def out_bits(self) -> list[int]:
        """Per state, the OR of the labels of the arcs leaving it (0 if none).

        Built on first use and cached like the adjacency, for the product
        kernel's dead-end test; read it and never mutate it.
        """
        bits = self._bits
        if bits is None:
            bits = [0] * self.n
            for s, _d, b, _pc in self.raw_arcs:
                bits[s] |= b
            _set_bits(self, bits)
        return bits

    def live_memo(self) -> dict:
        """The product kernel's memo of live sets, empty at first.

        A product against a parse chain (``_kernel.chain_product``) fills
        it: its backward walk keys each non-empty set of states that can
        still read a suffix of a query by the set one token later and that
        token's label. What every walk starts from is under None, in one
        record (``_kernel._Record``): the in-adjacency, each distinct set
        with its mask (the OR of its states' in-arc labels, which settles
        a step to the empty set without storing it), S_n, each accepted
        product by its query's token labels, and the empty machine of
        every rejected one. A lexicon so walks each live step back once,
        and a query it has accepted before runs neither the walk nor the
        forward pass. Left out of equality, hashing, pickling and copies
        like the adjacency.
        """
        memo = self._memo
        if memo is None:
            memo = {}
            _set_memo(self, memo)
        return memo

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
        return hash((self.n, self.start, self.finals, self.raw_arcs))

    def __reduce__(self):
        return Fsa.from_raw, (self.alphabet, self.n, self.start, self.finals, self.raw_arcs)

    def __repr__(self):
        return (
            f"Fsa(n={self.n}, start={self.start}, finals={sorted(self.finals)}, "
            f"arcs={len(self.raw_arcs)})"
        )

    # Per-state views of the Arc form, for callers outside the core
    # operations, which read out_raw instead.

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


# each slot's setter, bound once: a write skips `object.__setattr__`'s lookup
(_set_alphabet, _set_n, _set_start, _set_finals, _set_raw_arcs, _set_out,
 _set_bits, _set_memo, _set_tokens, _set_trim, _set_closed) = (
    getattr(Fsa, slot).__set__ for slot in Fsa.__slots__)


def _init(m: Fsa, alphabet, n, start, finals, raw_arcs) -> None:
    _set_alphabet(m, alphabet)
    _set_n(m, n)
    _set_start(m, start)
    _set_finals(m, finals)
    _set_raw_arcs(m, raw_arcs)
    _set_out(m, None)
    _set_bits(m, None)
    _set_memo(m, None)
    _set_tokens(m, None)
    _set_trim(m, False)
    _set_closed(m, False)


def _marked(m: Fsa, mark: bool = True) -> Fsa:
    """`m`, its trim mark set to `mark`: for a builder whose result is trim
    by construction, or as trim as the operand it was built from."""
    _set_trim(m, mark)
    return m


# ---------------------------------------------------------------------------
# basic builders


def empty_string_fsa(alphabet: Alphabet) -> Fsa:
    """Accepts exactly the empty string."""
    return _marked(Fsa.from_raw(alphabet, 1, 0, frozenset({0}), ()))


def never_fsa(alphabet: Alphabet) -> Fsa:
    """Accepts nothing (the canonical empty automaton)."""
    return Fsa.from_raw(alphabet, 1, 0, frozenset(), ())


def symbol_fsa(alphabet: Alphabet, bits: int, pc: bool = False) -> Fsa:
    """Accepts exactly one symbol drawn from `bits`."""
    return _marked(Fsa.from_raw(alphabet, 2, 0, frozenset({1}), ((0, 1, bits, pc),), check=True))


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
    if isinstance(string, str):
        labels = alphabet.token_masks(string)
    else:
        string = list(string)
        labels = [alphabet._char_mask.get(tok, 0) for tok in string]
    if attrs is not None:
        if len(attrs) != len(labels):
            raise AutomatonError("attrs must align with the token sequence")
        labels = [bits if mask is None else bits & mask for bits, mask in zip(labels, attrs)]
    if 0 in labels:  # the first unknown or emptied token
        i = labels.index(0)
        tok = (alphabet.tokenize(string) if isinstance(string, str) else string)[i]
        alphabet.char(tok)  # raises for an unknown one
        raise AutomatonError(f"attribute spec empties token {tok!r} at position {i}")
    # Every label is a non-empty subset of a token's mask: nothing to validate.
    n = len(labels)
    # through a list: a tuple read from an iterator is over-allocated, then
    # shrunk, and the holes that leaves in the heap of a lexicon compile
    # cost most of a megabyte of peak memory at 1,600 stems
    arcs = tuple(list(zip(range(n), range(1, n + 1), labels, repeat(pc, n))))
    return _marked(Fsa.from_raw(alphabet, n + 1, 0, frozenset({n}), arcs))


# ---------------------------------------------------------------------------
# rational operations (concatenation, union, star, optionality)


def combine(kind: str, parts: Sequence[Fsa], alphabet: Alphabet | None = None) -> Fsa:
    """Concatenate/union/star/option automata, without epsilon transitions.

    The parts are laid out side by side, renumbered by offset, with one fresh
    start state after them. Wherever the textbook construction would run an
    epsilon edge into a part's start state, its source takes a copy of that
    start state's out-arcs instead (and its finality, if the start is final):
    the fresh start for every kind, each final of a concatenated part
    (chaining on through every following part whose start is final), and the
    finals of a starred part.

    The result is built trim, and marked so; no part is trimmed. An unmarked
    part is laid out through its own live-state mask, its finals in their
    own order. A union drops the parts that accept nothing, and a concat
    with such a part is `never_fsa`. The layout's other dead states are part
    starts that no live arc of their own enters (a self-loop counts), since
    their out-arcs are copied: they are left out with those arcs, and the
    rest numbered in layout order, as `trim` of the whole layout numbers them.

    Arcs are copied as they are, producer/consumer bits included, and
    duplicates are not merged: a part's own duplicate arcs survive, as does
    the second copy a starred final gets of an arc it shares with its start.
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
    if kind not in ("concat", "union", "star", "optional"):
        raise AutomatonError(f"unknown combine kind {kind!r}")
    # an unmarked part is laid out through its live-state mask (None: marked)
    masks = [None if p._trim else _live(p) for p in parts]
    if kind in ("union", "concat"):
        accepting = [(p, keep) for p, keep in zip(parts, masks)
                     if (p.finals if keep is None else keep[p.start])]
        if not accepting or kind == "concat" and len(accepting) < len(parts):
            return never_fsa(alphabet)
        parts, masks = zip(*accepting)

    # one int object per state id, shared by every arc that names it
    ids = list(range(sum(p.n for p in parts) + 1))
    arcs: list[RawArc] = []
    heads: list[list[tuple[int, int, bool]]] = []  # per part: its start's out-arcs
    part_finals: list[list[int]] = []
    offset = 0
    for p, keep in zip(parts, masks):
        raw, start = p.raw_arcs, p.start
        # a part's start is laid out iff a live arc of its own enters it
        if keep is None:
            live = any(d == start for _s, d, _b, _pc in raw)
            loc = ids[offset:offset + p.n] if live else (
                ids[offset:offset + start] + [-1] + ids[offset + start:offset + p.n - 1])
        else:  # its live states, in order
            keep[start] = live = any(d == start and keep[s] for s, d, _b, _pc in raw)
            loc = [-1] * p.n
            for i, q in enumerate(compress(range(p.n), keep), offset):
                loc[q] = ids[i]
        if live and keep is None:
            arcs.extend(raw if not offset else [(loc[s], loc[d], b, pc) for s, d, b, pc in raw])
        else:  # drop the dead states and their arcs; `heads` copies a dead start's
            arcs.extend([(rs, rd, b, pc) for s, d, b, pc in raw
                         if (rs := loc[s]) >= 0 and (rd := loc[d]) >= 0])
        heads.append([(loc[d], b, pc) for s, d, b, pc in raw if s == start and loc[d] >= 0])
        part_finals.append([loc[q] for q in p.finals if loc[q] >= 0])
        offset += p.n - (not live) if keep is None else keep.count(1)
    root = ids[offset]  # the fresh start state

    def splice(q: int, head: list[tuple[int, int, bool]]) -> None:
        arcs.extend([(q, d, b, pc) for d, b, pc in head])

    finals: list[int] = []
    if kind == "concat":
        # Walking back from the end: `after` is what an epsilon edge into the
        # next part would bring, and `nullable` whether it reaches a final.
        after: list[tuple[int, int, bool]] = []
        nullable = True
        for p, head, part_f in zip(reversed(parts), reversed(heads), reversed(part_finals)):
            for f in part_f:
                splice(f, after)
            if nullable:
                finals.extend(part_f)
            if p.start in p.finals:
                after = head + after
            else:
                after, nullable = head, False
        splice(root, after)
        if nullable:
            finals.append(root)
    elif kind == "union":
        for head, part_f in zip(heads, part_finals):
            splice(root, head)
            finals.extend(part_f)
        if any(p.start in p.finals for p in parts):
            finals.append(root)
    else:  # star or optional
        head, finals = heads[0], part_finals[0] + [root]
        splice(root, head)
        if kind == "star":
            start = loc[parts[0].start]  # -1 if dead
            for f in part_finals[0]:
                if f != start:
                    splice(f, head)

    return _marked(Fsa.from_raw(alphabet, root + 1, root, frozenset(finals), tuple(arcs)))


# ---------------------------------------------------------------------------
# normalization


def trim(a: Fsa) -> Fsa:
    """Keep only states on some start-to-final path (canonical empty if none).

    Returns `a` itself when every state is live, at once when `a` is marked
    trim or already is the canonical empty machine (as a rejected parse's
    product is when `close` trims it), and marks what it returns unless it
    is that machine.
    """
    if a._trim:
        return a
    if not a.finals:
        return a if a.n == 1 and not a.raw_arcs else never_fsa(a.alphabet)
    return _keep(a.alphabet, a.n, a.start, a.finals, a.raw_arcs, _live(a), a)


def pruned_from_raw(
    alphabet: Alphabet,
    n: int,
    start: int,
    finals: Iterable[int],
    arcs: Sequence[RawArc],
) -> Fsa:
    """The trim machine of a search result, built from its raw parts.

    A machine built by search from its start state (an open product, a
    lazy materialization) is reachable by construction, so only the
    backward pass runs, over the lists themselves: no machine is built
    before the cut, and no adjacency is built or cached. Returns the
    marked trim `Fsa`, its states numbered in order, or the canonical
    empty machine when no final is reached from the start; it is
    `trim(Fsa.from_raw(...))`, which builds the uncut machine first.
    """
    if not finals:
        return never_fsa(alphabet)
    return _keep(alphabet, n, start, finals, arcs, _coreachable(n, finals, arcs))


def _live(a: Fsa) -> bytearray:
    """Marks the states on some path from the start to a final: the
    reachable ones, found by a walk forward, that a walk back over arcs out
    of reachable states finds."""
    n, start = a.n, a.start
    out = a.out_raw()
    fwd = bytearray(n)
    fwd[start] = 1
    stack = [start]
    while stack:
        for _s, d, _b, _pc in out[stack.pop()]:
            if not fwd[d]:
                fwd[d] = 1
                stack.append(d)
    return _coreachable(n, [q for q in a.finals if fwd[q]],
                        [arc for arc in a.raw_arcs if fwd[arc[0]]])


def _coreachable(n: int, finals: Iterable[int], arcs: Iterable[RawArc]) -> bytearray:
    """Marks the states of 0..n-1 that reach one of `finals` over `arcs`."""
    inc: list[list[int]] = [[] for _ in range(n)]
    for s, d, _b, _pc in arcs:
        inc[d].append(s)
    stack = list(finals)
    keep = bytearray(n)
    for q in stack:
        keep[q] = 1
    while stack:
        for s in inc[stack.pop()]:
            if not keep[s]:
                keep[s] = 1
                stack.append(s)
    return keep


def _keep(alphabet: Alphabet, n: int, start: int, finals: Iterable[int],
          arcs: Sequence[RawArc], keep: bytearray, whole: Fsa | None = None) -> Fsa:
    """The machine of these parts cut down to the states marked in `keep`,
    numbered in order, and marked trim; the canonical empty machine if its
    start is not among them. When every state is kept, that is `whole`,
    the machine of these parts, if given, and otherwise one built from
    them."""
    if not keep[start]:
        return never_fsa(alphabet)
    kept = keep.count(1)
    if kept == n:
        if whole is None:
            whole = Fsa.from_raw(alphabet, n, start, frozenset(finals), tuple(arcs))
        return _marked(whole)
    pos = list(accumulate(keep, initial=0))  # a kept state's new number
    cut = tuple([(pos[s], pos[d], b, pc) for s, d, b, pc in arcs if keep[s] and keep[d]])
    return _marked(Fsa.from_raw(alphabet, kept, pos[start],
                                frozenset([pos[q] for q in finals if keep[q]]), cut))


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
    """Subset construction over per-state lists of raw out-arcs.

    Moves are keyed by atom: a label that is an atom keys them itself, and
    only a label spanning several atoms is split into its atoms.
    """
    is_atom = set(atoms)
    atoms_of: dict[int, list[int]] = {}  # label bits -> its atoms, if several
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
                if bits in is_atom:
                    moves.setdefault((bits, pc), set()).add(dst)
                    continue
                split = atoms_of.get(bits)
                if split is None:
                    split = atoms_of[bits] = [atom for atom in atoms if atom & bits]
                for atom in split:
                    moves.setdefault((atom, pc), set()).add(dst)
        regroup: dict[tuple[frozenset[int], bool], int] = {}
        for (atom, pc), targets in moves.items():
            key = (frozenset(targets), pc)
            regroup[key] = regroup.get(key, 0) | atom
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
    return _marked(Fsa.from_raw(a.alphabet, n, start, finals, arcs))


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
    return _marked(Fsa.from_raw(a.alphabet, n2, s2, f2, arcs2))


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

    `minimize` emits each state's arcs sorted by label, no two alike, so
    one breadth-first walk numbers the states and emits the arcs sorted by
    source, sorting nothing. The result is marked trim when the minimal
    machine is. Equal canonical forms mean isomorphic minimal machines,
    which for deterministic machines means equal languages.
    """
    m = minimize(a)
    out = m.out_raw()
    order: dict[int, int] = {m.start: 0}
    queue = [m.start]  # grows as the walk numbers states
    arcs: list[RawArc] = []
    for src, q in enumerate(queue):
        for _s, d, b, pc in out[q]:
            if d not in order:
                order[d] = len(order)
                queue.append(d)
            arcs.append((src, order[d], b, pc))
    return _marked(Fsa.from_raw(m.alphabet, m.n, 0, frozenset(order[q] for q in m.finals),
                                tuple(arcs)), m._trim)


def language_equal(a: Fsa, b: Fsa) -> bool:
    return canonical(a) == canonical(b)


# ---------------------------------------------------------------------------
# queries


def is_empty(a: Fsa) -> bool:
    """True if no path leads from the start to a final: answered from the
    trim mark or the finals when they settle it, and by `_live` otherwise."""
    if a._trim:  # its start is on a path to a final
        return False
    return not a.finals or not _live(a)[a.start]


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


def _walk(a: Fsa, max_len: int, cap: int, pieces, empty):
    """The paths of the accepting runs of at most `max_len` arcs.

    One level-by-level walk serves every enumerator: an arc extends the
    path that reached its source by each of `pieces(bits, pc)`, called once
    per distinct label, and a level keeps each (state, path) pair once.
    More than `cap` paths tracked at once raises EnumerationCapError, whose
    `partial` holds the paths of the levels completed before the overflow:
    exactly what the largest bound that does not overflow returns.
    """
    out, finals = a.out_raw(), a.finals
    steps: dict[tuple[int, bool], Iterable] = {}  # label -> its pieces
    results = set()
    frontier = {(a.start, empty)}
    for level in range(max_len + 1):
        results.update([path for q, path in frontier if q in finals])
        if level == max_len:
            break
        nxt = set()
        for q, path in frontier:
            for _s, d, bits, pc in out[q]:
                extensions = steps.get((bits, pc))
                if extensions is None:
                    extensions = steps[bits, pc] = pieces(bits, pc)
                for piece in extensions:
                    nxt.add((d, path + piece))
            if len(nxt) + len(results) > cap:
                err = EnumerationCapError(cap)
                err.partial = results
                raise err
        if not nxt:
            break
        frontier = nxt
    return results


def enumerate_language(
    a: Fsa, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> set[tuple[int, ...]]:
    """All accepted symbol-index sequences of length <= max_len.

    Every arc contributes one branch per symbol in its label, so this is the
    fully specified language — use it only over small, mostly singleton-label
    machines. Aborts with EnumerationCapError beyond `cap` tracked paths.
    """
    return _walk(
        a, max_len, cap,
        lambda bits, pc: [(i,) for i in range(bits.bit_length()) if bits >> i & 1], (),
    )


def enumerate_label_paths(
    a: Fsa, max_len: int, cap: int = DEFAULT_ENUM_CAP
) -> set[tuple[Label, ...]]:
    """All label sequences along accepting paths of length <= max_len."""
    return _walk(a, max_len, cap, lambda bits, pc: [(Label(bits, pc),)], ())


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
            toks = alphabet.tokens_of(bits)
            if len(toks) > 1:
                raise AutomatonError(
                    f"label covers several tokens ({sorted(toks)}); "
                    "surface projection is ambiguous"
                )
            chars.append(toks[0])
        else:
            sym = alphabet.symbols[step]
            if sym.char is not None:
                chars.append(sym.char)
    return "".join(chars)


def project_surface(a: Fsa) -> Fsa:
    """Erase attributes and technical symbols from an automaton.

    Each state q takes over its technical closure: q, then every state
    reached over arcs whose labels hold a technical symbol, breadth first.
    q is final if a state of its closure is, and every arc with segment
    symbols that leaves a state of the closure leaves q too, its label
    widened to all variants of the tokens it mentions (a label holding both
    kinds is followed and copied). So the projected language is exactly the
    set of surface strings. A state copies an arc once, and the result is
    trimmed.
    """
    al = a.alphabet
    tech, finals, out = al.tech, a.finals, a.out_raw()
    widened: dict[int, int] = {}  # label bits -> all variants of their tokens
    arcs: list[RawArc] = []
    new_finals: set[int] = set()
    for q in range(a.n):
        closure, seen = [q], {q}
        copied: set[tuple[int, int, bool]] = set()
        for p in closure:  # the list grows as the walk finds states
            if p in finals:
                new_finals.add(q)
            for _s, d, bits, pc in out[p]:
                if bits & tech and d not in seen:
                    seen.add(d)
                    closure.append(d)
                wide = widened.get(bits)
                if wide is None:
                    wide = widened[bits] = sum(map(al.char, al.tokens_of(bits)))
                if wide and (d, wide, pc) not in copied:
                    copied.add((d, wide, pc))
                    arcs.append((q, d, wide, pc))
    return trim(Fsa.from_raw(al, a.n, a.start, frozenset(new_finals), tuple(arcs)))


def surface_strings(
    a: Fsa, max_len: int | None = None, cap: int = DEFAULT_ENUM_CAP
) -> set[str]:
    """The set of surface strings of an automaton.

    For acyclic surface projections (the usual case after closed
    interpretation) the result is the complete finite language; otherwise
    max_len must be given to bound the walk.
    """
    return _projected_strings(project_surface(a), max_len, cap)


def _projected_strings(p: Fsa, max_len: int | None, cap: int = DEFAULT_ENUM_CAP) -> set[str]:
    """`surface_strings` of a machine `project_surface` has already built.

    The CLI projects once, to test the surface for a cycle and to enumerate.
    """
    if max_len is None:
        if has_cycle(p):
            raise AutomatonError(
                "surface language is infinite; pass max_len to bound enumeration"
            )
        max_len = p.n  # acyclic: a path revisits no state
    return _walk(p, max_len, cap, lambda bits, pc: p.alphabet.tokens_of(bits), "")
