"""The parse chain and the producer chain against reference builders that
make one arc per token and one loop per state, each in a list comprehension."""

from hypothesis import given
from hypothesis import strategies as st

from redup.alphabet import Alphabet
from redup.analyses import load_grammar
from redup.errors import InventoryError
from redup.fsa import build_from_string
from redup.interpret import prepare_parse_input

KOASATI = load_grammar("koasati").alphabet
# multi-character tokens: a text over their characters splits by maximal munch
MULTI = Alphabet.from_inventory(
    [(t, "vowel" if t == "u" else "consonant", ()) for t in ["ky", "tsh", "s", "u", "h"]]
)


def ref_chain(al, text):
    """(n, start, finals, raw_arcs, token labels) of the parse chain."""
    labels = [al.char(tok) for tok in al.tokenize(text)]
    tech = al.named_set("repeat") | al.named_set("skip")
    n = len(labels)
    arcs = [(i, i + 1, label, False) for i, label in enumerate(labels)]
    arcs += [(i, i, tech, False) for i in range(n + 1)]
    return n + 1, 0, frozenset((n,)), tuple(arcs), labels


def ref_word(al, text, pc):
    """(n, start, finals, raw_arcs) of `build_from_string`'s chain."""
    labels = [al.char(tok) for tok in al.tokenize(text)]
    n = len(labels)
    arcs = tuple((i, i + 1, label, pc) for i, label in enumerate(labels))
    return n + 1, 0, frozenset((n,)), arcs


def outcome(build, *args):
    """What `build` returns, or the text of the `InventoryError` it raises."""
    try:
        return build(*args)
    except InventoryError as e:
        return "InventoryError: %s" % e


def chain_fields(m):
    return m.n, m.start, m.finals, m.raw_arcs, m._tokens


def word_fields(m):
    return m.n, m.start, m.finals, m.raw_arcs


# Koasati text with two off-inventory characters, or text over the
# characters of the multi-character tokens with one off them
texts = st.one_of(
    st.tuples(st.just(KOASATI), st.lists(st.text(alphabet="tahspinklocxQ", max_size=24),
                                          min_size=1, max_size=4)),
    st.tuples(st.just(MULTI), st.lists(st.text(alphabet="kytsuhx", max_size=16),
                                        min_size=1, max_size=4)),
)


@given(texts)
def test_chains_match_the_reference(drawn):
    """Each chain of a sequence of queries has the reference's fields, or
    raises its error; and the producer and consumer chains
    `build_from_string` builds of each text match."""
    al, queries = drawn
    for text in queries:
        got = outcome(prepare_parse_input, al, text)
        want = outcome(ref_chain, al, text)
        if isinstance(want, str):
            assert got == want
        else:
            assert chain_fields(got) == want
        for pc in (True, False):
            word = outcome(build_from_string, al, text, None, pc)
            want = outcome(ref_word, al, text, pc)
            assert (word if isinstance(want, str) else word_fields(word)) == want
