"""A parse chain is built from its token labels alone, and its arcs are made
the first time something reads them.

Every operation that reads arcs must see the chain the eager reference
builder of ``test_parse_chain`` makes, and a parse must read none of them.
"""

import copy
import pickle
from functools import lru_cache
from unittest import mock

from hypothesis import given
from hypothesis import strategies as st

from redup import cli, interpret
from redup.analyses import load_grammar
from redup.dump import dump_text
from redup.enrich import enrich
from redup.errors import InventoryError
from redup.fsa import Fsa, build_from_string, canonical, combine, is_empty, trim
from redup.interpret import close, intersect_open, prepare_parse_input
from redup.lazy import lazy_intersect, lazy_wrap, materialize
from test_parse_chain import KOASATI, MULTI, ref_chain

KOASATI_FORMS = ["lapatlookin", "tahastoopin", "akholatlin", "okhoocakkon", "aphositnoc"]


def machine(al):
    """A machine to parse against: Koasati's wordform lexicon, or for the
    multi-character tokens an enriched union of producer words."""
    return _machine(al is KOASATI)


@lru_cache(maxsize=None)
def _machine(koasati):
    if koasati:
        return load_grammar("koasati").compile("wordform_lexicon")
    words = [build_from_string(MULTI, w) for w in ("kyu", "tshuh", "sukyuh", "u")]
    return enrich(combine("union", words))


def fields(m):
    return m.n, m.start, m.finals, m.raw_arcs, m._trim


# Koasati forms and text with two off-inventory characters, or text over
# the characters of the multi-character tokens with one off them
texts = st.one_of(
    st.tuples(st.just(KOASATI), st.one_of(st.sampled_from(KOASATI_FORMS),
                                          st.text(alphabet="tahspinklocxQ", max_size=16))),
    st.tuples(st.just(MULTI), st.one_of(st.sampled_from(["kyu", "tshuh", "sukyuh"]),
                                        st.text(alphabet="kytsuhx", max_size=12))),
)

# each operation that reads a chain's arcs, to an equality-comparable value
OPERATIONS = {
    "raw_arcs": lambda al, c: c.raw_arcs,
    "arcs": lambda al, c: c.arcs,
    "out_raw": lambda al, c: c.out_raw(),
    "hash": lambda al, c: hash(c),
    "pickle": lambda al, c: fields(pickle.loads(pickle.dumps(c))),
    "copy": lambda al, c: fields(copy.copy(c)),
    "deepcopy": lambda al, c: fields(copy.deepcopy(c)),
    "general product": lambda al, c: fields(intersect_open(c, machine(al))),
    "closed product": lambda al, c: fields(close(machine(al), c)),
    "trim": lambda al, c: fields(trim(c)),
    "canonical": lambda al, c: fields(canonical(c)),
    "dump_text": lambda al, c: dump_text(c),
    "lazy product": lambda al, c: fields(
        materialize(lazy_intersect(lazy_wrap(machine(al)), c))),
}


@given(texts)
def test_a_chain_reads_as_the_eager_one(drawn):
    """Each operation gives, on a chain none has read yet, what it gives on
    the chain built with its arcs; the chain equals that one; and its
    arcs, once made, are one tuple however often they are read."""
    al, text = drawn
    try:
        n, start, finals, arcs, _labels = ref_chain(al, text)
    except InventoryError:
        return
    for name, operation in OPERATIONS.items():
        chain = prepare_parse_input(al, text)
        assert chain._raw_arcs is None, name
        eager = Fsa.from_raw(al, n, start, finals, arcs)
        assert operation(al, chain) == operation(al, eager), name
        assert chain._raw_arcs is not None and chain._raw_arcs == arcs, name
    chain = prepare_parse_input(al, text)
    eager = Fsa.from_raw(al, n, start, finals, arcs)
    assert chain == eager and hash(chain) == hash(eager)
    assert chain.raw_arcs is chain.raw_arcs and chain.raw_arcs == arcs


@given(texts)
def test_a_chain_read_before_a_parse_parses_as_one_read_after(drawn):
    al, text = drawn
    try:
        early = prepare_parse_input(al, text)
    except InventoryError:
        return
    early_arcs = early.raw_arcs
    got = intersect_open(machine(al), early)
    late = prepare_parse_input(al, text)
    want = intersect_open(machine(al), late)
    assert late._raw_arcs is None
    assert fields(got) == fields(want)
    assert is_empty(close(got)) == is_empty(close(want))
    assert late.raw_arcs == early_arcs and late.raw_arcs is late.raw_arcs
    assert early.raw_arcs is early_arcs


# -- a parse never makes the chain's arcs -----------------------------------------


def test_a_parse_leaves_the_chain_without_arcs():
    """First and repeated accepted queries, and a rejected one."""
    m = load_grammar("koasati").compile("wordform_lexicon")  # an empty memo
    al = m.alphabet
    for text, empty in (("lapatlookin", False), ("lapatlookin", False),
                        ("tahastopin", True)):
        chain = prepare_parse_input(al, text)
        assert is_empty(close(intersect_open(m, chain))) is empty, text
        assert chain._raw_arcs is None, text


def test_the_eager_cli_parse_leaves_the_chain_without_arcs(capsys):
    chains = []
    real = interpret.prepare_parse_input

    def captured(alphabet, string):
        chains.append(real(alphabet, string))
        return chains[-1]

    with mock.patch.object(cli, "prepare_parse_input", captured):
        for surface, code in (("lapatlookin", 0), ("tahastopin", 1)):
            assert cli.main(["parse", "koasati", "wordform_lexicon", surface,
                             "--eager"]) == code
    assert capsys.readouterr().out == "ACCEPT\nREJECT\n"
    assert len(chains) == 2 and all(c._raw_arcs is None for c in chains)
