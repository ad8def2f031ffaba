"""Alphabet layout, named-set algebra and label formatting."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given
from hypothesis import strategies as st

from redup.alphabet import POSITIONS, Alphabet, Kind
from redup.errors import InventoryError


def popcount(x):
    return bin(x).count("1")


def test_symbol_count(abc):
    # 3 tokens x (2 mora x 2 sync x 3 pos) + repeat + skip
    assert abc.size == 3 * 12 + 2


def test_variant_layout(ab):
    # per token the variant order is: mora outer, sync middle, position inner
    expected = [
        (False, False, "initial"), (False, False, "medial"), (False, False, "final"),
        (False, True, "initial"), (False, True, "medial"), (False, True, "final"),
        (True, False, "initial"), (True, False, "medial"), (True, False, "final"),
        (True, True, "initial"), (True, True, "medial"), (True, True, "final"),
    ]
    for off, (mora, sync, pos) in enumerate(expected):
        sym = ab.symbols[off]
        assert (sym.char, sym.mora, sym.sync, sym.pos) == ("a", mora, sync, pos)
    # second token starts at offset 12
    assert ab.symbols[12].char == "b"
    # technicals close the table
    assert ab.symbols[24].kind is Kind.REPEAT
    assert ab.symbols[25].kind is Kind.SKIP


def test_named_set_algebra(ab):
    assert ab.named_set("vowel") | ab.named_set("consonant") == ab.seg
    assert ab.named_set("vowel") & ab.named_set("consonant") == 0
    assert ab.named_set(":1") | ab.named_set(":0") == ab.seg
    assert ab.seg | ab.repeat | ab.skip == ab.sigma
    for pos in POSITIONS:
        assert popcount(ab.named_set(pos)) == 2 * 4  # 2 tokens x (mora x sync)
    # each attribute intersection halves/thirds the variant set
    a = ab.char("a")
    assert popcount(a) == 12
    assert popcount(a & ab.named_set("mora")) == 6
    assert popcount(a & ab.named_set("mora") & ab.named_set(":1")) == 3
    only = a & ab.named_set("mora") & ab.named_set(":1") & ab.named_set("medial")
    assert popcount(only) == 1
    assert ab.members(only)[0].display() == "a:1+m@med"


def test_complement_covers_technicals(ab):
    beyond = ab.complement(ab.named_set("mora"))
    assert beyond & ab.repeat
    assert beyond & ab.skip
    # double complement is identity
    assert ab.complement(beyond) == ab.named_set("mora")


def test_declared_classes():
    al = Alphabet.from_inventory(
        [("a", "vowel", ("low",)), ("o", "vowel", ()), ("k", "consonant", ())]
    )
    assert al.named_set("low") == al.char("a")
    assert al.has_set("low")
    assert not al.has_set("high")


def test_named_set_falls_back_to_token(ab):
    assert ab.named_set("b") == ab.char("b")
    with pytest.raises(InventoryError):
        ab.named_set("z")
    with pytest.raises(InventoryError):
        ab.char("z")


@pytest.mark.parametrize(
    "rows, message",
    [
        ([], "empty segment inventory"),
        ([("a", "vowel", ()), ("a", "vowel", ())], "duplicate"),
        ([("seg", "vowel", ())], "reserved"),
        ([("a", "tone", ())], "vowel or consonant"),
        ([("a", "vowel", ("mora",))], "reserved"),
        ([("a", "vowel", ()), ("b", "consonant", ("a",))], "collides"),
        ([("a", "vowel", ()), ("ab", "consonant", ())], "prefix"),
    ],
)
def test_inventory_validation(rows, message):
    with pytest.raises(InventoryError, match=message):
        Alphabet.from_inventory(rows)


def test_tokenize_maximal_munch():
    al = Alphabet.from_inventory(
        [("ky", "consonant", ()), ("t", "consonant", ()), ("u", "vowel", ())]
    )
    assert al.tokenize("kyutu") == ["ky", "u", "t", "u"]
    with pytest.raises(InventoryError, match="offset 2"):
        al.tokenize("kyxu")


def ref_tokenize(tokens, text):
    """Maximal munch by trying every token at every offset, longest first."""
    out, i = [], 0
    while i < len(text):
        tok = next((t for t in sorted(tokens, key=len, reverse=True)
                    if text.startswith(t, i)), None)
        if tok is None:
            return i  # the offset where tokenization fails
        out.append(tok)
        i += len(tok)
    return out


# any text over the tokens' characters, or a text of one-character tokens
# only, which a draw of the first rarely gives
@given(st.one_of(st.text(alphabet="kytsuhx", max_size=12), st.text(alphabet="suh", max_size=12)))
def test_tokenize_matches_reference(text):
    tokens = ["ky", "tsh", "s", "u", "h"]
    al = Alphabet.from_inventory(
        [(t, "vowel" if t == "u" else "consonant", ()) for t in tokens]
    )
    want = ref_tokenize(tokens, text)
    if isinstance(want, int):
        with pytest.raises(InventoryError, match=f"offset {want}$"):
            al.tokenize(text)
    else:
        assert al.tokenize(text) == want
        assert al.token_masks(text) == [al.char(t) for t in want]


def test_tokenize_single_char(ab):
    assert ab.tokenize("abba") == ["a", "b", "b", "a"]
    assert ab.tokenize("") == []


# -- label display ----------------------------------------------------------


def test_format_label_compact(ab):
    assert ab.format_label(ab.sigma) == "sigma"
    assert ab.format_label(ab.seg) == "seg"
    assert ab.format_label(ab.repeat) == "repeat"
    assert ab.format_label(ab.char("a")) == "a"
    assert ab.format_label(ab.char("a") & ab.named_set(":1")) == "a:1"
    one = ab.char("a") & ab.named_set(":0") & ab.complement(ab.named_set("mora")) \
        & ab.named_set("final")
    assert ab.format_label(one) == "a:0-m@fin"
    both = (ab.char("a") | ab.char("b")) & ab.named_set("mora")
    assert ab.format_label(both) == "{a,b}+m"
    assert ab.format_label(ab.repeat | ab.skip) == "{repeat,skip}"


def _eval_expr(al, expr):
    """Tiny evaluator for the dump expression dialect, used as an oracle."""
    total = 0
    for conj in expr.split(" | "):
        bits = al.sigma
        for atom in conj.split(" & "):
            neg = atom.startswith("~")
            if neg:
                atom = atom[1:]
            if atom.startswith("{"):
                val = 0
                for name in atom[1:-1].split(","):
                    val |= al.named_set(name)
            elif atom.startswith("'"):
                val = al.named_set(atom[1:-1])
            else:
                val = al.named_set(atom)
            bits &= al.complement(val) if neg else val
        total |= bits
    return total


@pytest.mark.parametrize(
    "build",
    [
        lambda al: al.sigma,
        lambda al: al.seg,
        lambda al: al.repeat | al.skip,
        lambda al: al.char("a"),
        lambda al: al.char("a") & al.named_set(":1"),
        lambda al: al.char("a") & al.named_set("mora") & al.named_set("medial"),
        lambda al: (al.char("a") | al.char("b")) & al.complement(al.named_set("mora")),
        lambda al: al.char("a") | al.skip,
        lambda al: al.seg & al.complement(al.named_set("initial")),
        # ragged set: different variant signatures for a and b
        lambda al: (al.char("a") & al.named_set(":1")) | (al.char("b") & al.named_set("mora")),
        # non-product set within one token: {(m,:1), (~m,:0)} x positions
        lambda al: (al.char("a") & al.named_set("mora") & al.named_set(":1"))
        | (al.char("a") & al.complement(al.named_set("mora")) & al.named_set(":0")),
        lambda al: 1 << 5,
    ],
)
def test_format_label_expr_roundtrip(ab, build):
    bits = build(ab)
    assert _eval_expr(ab, ab.format_label_expr(bits)) == bits


def test_format_label_expr_exhaustive_single_token():
    """Every subset of one token's 12 variants round-trips exactly."""
    al = Alphabet.from_inventory([("x", "vowel", ())])
    for bits in range(1, 1 << 12):
        assert _eval_expr(al, al.format_label_expr(bits)) == bits


# -- value semantics ------------------------------------------------------------

AB_ROWS = [("a", "vowel", ()), ("b", "consonant", ())]


def test_alphabet_is_an_immutable_value(ab):
    twin = Alphabet.from_inventory(AB_ROWS)
    assert twin == ab and twin is not ab and not twin != ab
    assert ab != Alphabet.from_inventory([("a", "vowel", ()), ("c", "consonant", ())])
    assert ab != Alphabet.from_inventory(AB_ROWS[::-1])
    assert (ab == "ab") is False
    # the token lengths follow from the inventory and are derived, not passed
    fields = (ab.symbols, ab.chars, ab._char_mask, ab._class_mask)
    rebuilt = Alphabet(*fields)
    assert rebuilt == ab and rebuilt._token_lengths == ab._token_lengths
    # and so are the stored masks, which follow from the class masks
    assert (ab.sigma, ab.seg, ab.repeat, ab.skip) == tuple(
        ab.named_set(name) for name in ("sigma", "seg", "repeat", "skip"))
    assert ab.tech == ab.repeat | ab.skip
    assert repr(ab) == f"Alphabet(symbols={ab.symbols!r}, chars={ab.chars!r})"
    with pytest.raises(TypeError):
        hash(ab)


@pytest.mark.parametrize(
    "field", ["symbols", "chars", "_char_mask", "_token_lengths", "tech", "sigma", "other"]
)
def test_alphabet_fields_cannot_be_assigned(ab, field):
    with pytest.raises(FrozenInstanceError):
        setattr(ab, field, None)
    with pytest.raises(FrozenInstanceError):
        delattr(ab, field)


@pytest.mark.parametrize(
    "clone", [copy.copy, copy.deepcopy, lambda al: pickle.loads(pickle.dumps(al))]
)
def test_alphabet_copies_and_pickles(ab, clone):
    twin = clone(ab)
    assert twin == ab and repr(twin) == repr(ab)
    assert twin._token_lengths == ab._token_lengths
    masks = ("sigma", "seg", "tech", "repeat", "skip")
    assert [getattr(twin, m) for m in masks] == [getattr(ab, m) for m in masks]
    assert twin.tokenize("abba") == ["a", "b", "b", "a"]
