"""`build_stem` and `Lexicon.from_specs` take their default constraints from
the grammar they are given.

Given no `constraints`, a stem is intersected with the three Koasati
constraints as the stem's own grammar defines them, so a grammar that
extends the packaged Koasati source (here by one more segment, which
changes the alphabet) builds its stems over its own alphabet. A lexicon
compiles them once, not once per stem, and the packaged grammar's stay
cached. A grammar that does not define them raises `CompileError`.
"""

from unittest import mock

import pytest

from redup import analyses
from redup.analyses import Lexicon, StemSpec, build_stem, grammar_source, load_grammar
from redup.compiler import compile_grammar
from redup.errors import CompileError
from redup.fsa import language_equal

SPECS = [StemSpec("tahaspin", "tahaspin"), StemSpec("lapatkin", "lapatkin")]


@pytest.fixture(scope="module")
def extended():
    """The packaged Koasati grammar with one more consonant."""
    return compile_grammar(grammar_source("koasati") + "\nsegment m consonant.\n")


def test_a_stem_of_an_extended_grammar_is_the_grammars_own(extended):
    assert extended.alphabet != load_grammar("koasati").alphabet
    stem = build_stem(StemSpec("tahaspin", "tahaspin"), grammar=extended)
    assert stem.alphabet == extended.alphabet
    assert language_equal(stem, extended.compile("tahaspin"))


def test_a_lexicon_compiles_the_constraints_once(extended):
    analyses.koasati_constraints()  # the packaged grammar's, compiled and cached
    spy = mock.patch.object(analyses, "_compile_constraints",
                            wraps=analyses._compile_constraints)
    with spy as compiled:
        lexicon = Lexicon.from_specs(SPECS, grammar=extended)
        assert compiled.call_count == 1
        Lexicon.from_specs(SPECS)
        build_stem(SPECS[0])
        assert compiled.call_count == 1
    for spec, stem in zip(SPECS, lexicon.stems):
        assert language_equal(stem, extended.compile(spec.name))


def test_a_grammar_without_the_constraints_raises_compile_error():
    with pytest.raises(CompileError, match="unknown name 'moraification'"):
        build_stem(StemSpec("wulu", "wulu"), grammar=load_grammar("bambara"))
