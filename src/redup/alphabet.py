"""Featured segment alphabets and bitset symbol-sets.

An alphabet is the finite cross product of a declared segment inventory with
three attributes — mora (weight), sync (constituent-edge marker, written :1/:0)
and position (initial/medial/final) — plus the two technical symbols `repeat`
and `skip`. Arc labels everywhere in the toolkit are subsets of one alphabet,
represented as int bitmasks, so set algebra is machine-word AND/OR/NOT.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, NamedTuple
from weakref import WeakValueDictionary

from .errors import Frozen, InventoryError

POSITIONS = ("initial", "medial", "final")

# Names with fixed meaning; segment tokens and user classes must not shadow them.
RESERVED_NAMES = frozenset(
    {"seg", "sigma", "vowel", "consonant", "mora", "initial", "medial", "final",
     "repeat", "skip", ":1", ":0"}
)


class Kind(Enum):
    SEGMENT = "segment"
    REPEAT = "repeat"
    SKIP = "skip"


class Symbol(NamedTuple):
    """One fully specified alphabet symbol.

    Technical symbols (repeat/skip) are atomic: char and all attribute fields
    are None for them.
    """

    kind: Kind
    char: str | None = None
    vowel: bool | None = None
    mora: bool | None = None
    sync: bool | None = None
    pos: str | None = None

    def display(self) -> str:
        if self.kind is not Kind.SEGMENT:
            return self.kind.value
        return "%s:%d%s@%s" % (
            self.char,
            1 if self.sync else 0,
            "+m" if self.mora else "-m",
            self.pos[:3],
        )


class _Value:
    """The one key object of an alphabet value (`Alphabet._key`)."""

    __slots__ = ("__weakref__",)


# each alphabet value in use, by its four fields (the dicts as item sets),
# to its key object; an entry goes with the last alphabet that holds it
_VALUES: WeakValueDictionary = WeakValueDictionary()


class Alphabet(Frozen):
    """Symbol table for one grammar: segment variants plus repeat and skip.

    Segment variants are laid out contiguously (12 per inventory token, in a
    fixed attribute order), with the two technical symbols at the end, so the
    index layout — and therefore every bitmask — is stable for a given
    inventory declaration order.

    Immutable, and equal by value; its dicts make it unhashable. The
    constructor takes the four value fields and derives the rest:
    `_token_lengths` from `_char_mask`, and the stored masks `sigma`, `seg`,
    `tech`, `repeat` and `skip` from `_class_mask`. Copies and pickles
    rebuild them. It also looks its value up once, in a table that keeps
    one key object per value in use (`_key`), so equal alphabets share
    their key and an equality test is one identity test, however large the
    alphabet: a machine unpickled or built over an equal but distinct
    alphabet meets no slower product than one built over the same.
    """

    __slots__ = ("symbols", "chars", "_char_mask", "_class_mask", "_token_lengths",
                 "sigma", "seg", "tech", "repeat", "skip", "_key")

    symbols: tuple[Symbol, ...]
    chars: tuple[str, ...]
    _char_mask: dict[str, int]
    _class_mask: dict[str, int]
    # distinct token lengths, longest first, for tokenize
    _token_lengths: tuple[int, ...]
    sigma: int  # every symbol, technicals included
    seg: int  # every segment symbol (no technicals)
    tech: int  # repeat and skip
    repeat: int
    skip: int

    def __init__(
        self,
        symbols: tuple[Symbol, ...],
        chars: tuple[str, ...],
        _char_mask: dict[str, int],
        _class_mask: dict[str, int],
    ):
        init = object.__setattr__
        init(self, "symbols", symbols)
        init(self, "chars", chars)
        init(self, "_char_mask", _char_mask)
        init(self, "_class_mask", _class_mask)
        init(self, "_token_lengths", tuple(sorted({len(t) for t in _char_mask}, reverse=True)))
        init(self, "sigma", _class_mask["sigma"])
        init(self, "seg", _class_mask["seg"])
        init(self, "repeat", _class_mask["repeat"])
        init(self, "skip", _class_mask["skip"])
        init(self, "tech", self.repeat | self.skip)
        value = (symbols, chars, frozenset(_char_mask.items()), frozenset(_class_mask.items()))
        init(self, "_key", _VALUES.setdefault(value, _Value()))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key is other._key

    __hash__ = None

    def __repr__(self):
        return f"Alphabet(symbols={self.symbols!r}, chars={self.chars!r})"

    def __reduce__(self):
        return Alphabet, (self.symbols, self.chars, self._char_mask, self._class_mask)

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_inventory(inventory: Iterable[tuple[str, str, tuple[str, ...]]]) -> "Alphabet":
        """Build an alphabet from (token, vowel|consonant, extra-class-names) rows."""
        rows = list(inventory)
        if not rows:
            raise InventoryError("empty segment inventory")
        seen: set[str] = set()
        for token, cls, _extra in rows:
            if not token:
                raise InventoryError("empty segment token")
            if token in seen:
                raise InventoryError(f"duplicate segment token {token!r}")
            if token in RESERVED_NAMES:
                raise InventoryError(f"segment token {token!r} shadows a reserved name")
            if cls not in ("vowel", "consonant"):
                raise InventoryError(
                    f"segment {token!r}: class must be vowel or consonant, got {cls!r}"
                )
            seen.add(token)
        for token in seen:
            for other in seen:
                if token != other and other.startswith(token):
                    raise InventoryError(
                        f"inventory is ambiguous for maximal-munch tokenization: "
                        f"{token!r} is a prefix of {other!r}"
                    )

        symbols: list[Symbol] = []
        char_mask: dict[str, int] = {}
        class_mask: dict[str, int] = {
            "vowel": 0, "consonant": 0, "mora": 0, ":1": 0, ":0": 0,
            "initial": 0, "medial": 0, "final": 0,
        }
        extra_classes: dict[str, int] = {}
        for token, cls, extra in rows:
            mask = 0
            for mora in (False, True):
                for sync in (False, True):
                    for pos in POSITIONS:
                        idx = len(symbols)
                        symbols.append(
                            Symbol(Kind.SEGMENT, token, cls == "vowel", mora, sync, pos)
                        )
                        bit = 1 << idx
                        mask |= bit
                        if mora:
                            class_mask["mora"] |= bit
                        class_mask[":1" if sync else ":0"] |= bit
                        class_mask[pos] |= bit
            char_mask[token] = mask
            class_mask[cls] |= mask
            for name in extra:
                if name in RESERVED_NAMES:
                    raise InventoryError(f"class name {name!r} shadows a reserved name")
                if name in seen:
                    raise InventoryError(f"class name {name!r} collides with a segment token")
                extra_classes[name] = extra_classes.get(name, 0) | mask

        repeat_idx = len(symbols)
        symbols.append(Symbol(Kind.REPEAT))
        skip_idx = len(symbols)
        symbols.append(Symbol(Kind.SKIP))

        seg = (1 << repeat_idx) - 1
        class_mask["seg"] = seg
        class_mask["repeat"] = 1 << repeat_idx
        class_mask["skip"] = 1 << skip_idx
        class_mask["sigma"] = (1 << len(symbols)) - 1
        class_mask.update(extra_classes)
        return Alphabet(
            symbols=tuple(symbols),
            chars=tuple(token for token, _c, _e in rows),
            _char_mask=char_mask,
            _class_mask=class_mask,
        )

    # -- handy masks ---------------------------------------------------------

    @property
    def size(self) -> int:
        return len(self.symbols)

    def char(self, token: str) -> int:
        """All attribute variants of one inventory token."""
        try:
            return self._char_mask[token]
        except KeyError:
            raise InventoryError(f"token {token!r} is not in the inventory") from None

    def named_set(self, name: str) -> int:
        """Resolve a symbol-set name: reserved class, declared class, or token."""
        if name in self._class_mask:
            return self._class_mask[name]
        if name in self._char_mask:
            return self._char_mask[name]
        raise InventoryError(f"unknown symbol-set name {name!r}")

    def has_set(self, name: str) -> bool:
        return name in self._class_mask or name in self._char_mask

    def complement(self, bits: int) -> int:
        """Set complement over the full alphabet (technicals included)."""
        return self.sigma & ~bits

    def mask_of(self, symbols: Iterable[Symbol]) -> int:
        index = {s: i for i, s in enumerate(self.symbols)}
        bits = 0
        for s in symbols:
            bits |= 1 << index[s]
        return bits

    def members(self, bits: int) -> list[Symbol]:
        return [s for i, s in enumerate(self.symbols) if bits >> i & 1]

    def tokens_of(self, bits: int) -> list[str]:
        """The tokens with at least one variant in `bits`, in inventory order."""
        return [c for c in self.chars if bits & self._char_mask[c]]

    # -- tokenization --------------------------------------------------------

    def token_masks(self, text: str) -> list[int]:
        """The mask of each token of `text`, in order: `char` of every token
        `tokenize` splits it into, with the same `InventoryError`.

        No token is a prefix of another (`from_inventory` checks), so when
        every character is an inventory token, the characters are the only
        split, and their masks are read in one pass.
        """
        masks = self._char_mask
        try:
            return list(map(masks.__getitem__, text))
        except KeyError:
            return list(map(masks.__getitem__, self.tokenize(text)))

    def tokenize(self, text: str) -> list[str]:
        """Split a surface string into inventory tokens by maximal munch.

        No token is a prefix of another (`from_inventory` checks), so at
        most one token matches at an offset.
        """
        masks = self._char_mask
        tokens: list[str] = []
        i = 0
        while i < len(text):
            for size in self._token_lengths:
                tok = text[i:i + size]
                if tok in masks:
                    tokens.append(tok)
                    i += len(tok)
                    break
            else:
                raise InventoryError(
                    f"cannot tokenize {text!r}: no inventory token matches at offset {i}"
                )
        return tokens

    # -- label display -------------------------------------------------------

    def format_label(self, bits: int) -> str:
        """Compact human-oriented rendering of a symbol-set.

        Attributes shared by every member are printed, free attributes are
        omitted: a fully underspecified u prints as `u`, the sync-marked
        variants as `u:1`, a lone fully specified symbol as e.g. `o:0+m@med`.
        """
        if bits == self.sigma:
            return "sigma"
        if bits == self.seg:
            return "seg"
        tech_part = []
        if bits & self.repeat:
            tech_part.append("repeat")
        if bits & self.skip:
            tech_part.append("skip")
        seg_bits = bits & self.seg
        if not seg_bits:
            return tech_part[0] if len(tech_part) == 1 else "{%s}" % ",".join(tech_part)
        members = self.members(seg_bits)
        chars = self.tokens_of(seg_bits)
        char_part = chars[0] if len(chars) == 1 else "{%s}" % ",".join(chars)
        syncs = {s.sync for s in members}
        moras = {s.mora for s in members}
        poses = {s.pos for s in members}
        out = char_part
        if len(syncs) == 1:
            out += ":1" if syncs.pop() else ":0"
        if len(moras) == 1:
            out += "+m" if moras.pop() else "-m"
        if len(poses) == 1:
            out += "@" + poses.pop()[:3]
        if tech_part:
            return "{%s}" % ",".join(tech_part + [out])
        return out

    def format_label_expr(self, bits: int) -> str:
        """Exact symbol-set expression for automaton dumps.

        Produces a union (` | `) of conjunctions over token and attribute
        names; every member set round-trips exactly.
        """
        if bits == self.sigma:
            return "sigma"
        if bits == self.seg:
            return "seg"
        terms: list[str] = []
        if bits & self.repeat:
            terms.append("repeat")
        if bits & self.skip:
            terms.append("skip")
        seg_bits = bits & self.seg
        if seg_bits:
            groups: dict[frozenset, list[str]] = {}
            for c in self.chars:
                cbits = seg_bits & self._char_mask[c]
                if not cbits:
                    continue
                sig = frozenset(
                    (s.mora, s.sync, s.pos) for s in self.members(cbits)
                )
                groups.setdefault(sig, []).append(c)
            for sig, chars in groups.items():
                char_part = chars[0] if len(chars) == 1 else "{%s}" % ",".join(chars)
                moras = {m for m, _s, _p in sig}
                syncs = {s for _m, s, _p in sig}
                poses = {p for _m, _s, p in sig}
                if len(sig) == len(moras) * len(syncs) * len(poses):
                    conj = [char_part]
                    if len(moras) == 1:
                        conj.append("mora" if moras == {True} else "~mora")
                    if len(syncs) == 1:
                        conj.append("':1'" if syncs == {True} else "':0'")
                    if len(poses) == 1:
                        conj.append(next(iter(poses)))
                    elif len(poses) == 2:
                        missing = (set(POSITIONS) - poses).pop()
                        conj.append("~" + missing)
                    terms.append(" & ".join(conj))
                else:
                    for mora, sync, pos in sorted(
                        sig, key=lambda t: (t[0], t[1], POSITIONS.index(t[2]))
                    ):
                        terms.append(
                            " & ".join(
                                [char_part,
                                 "mora" if mora else "~mora",
                                 "':1'" if sync else "':0'",
                                 pos]
                            )
                        )
        return " | ".join(terms)
