"""The Koasati analysis against a string oracle that shares no code with it.

``perfbench/koasati.py`` restates punctual-aspect reduplication over plain
strings, with no automata, and generates seeded stems. It is imported here
read-only, from its file. On seeded lexicons of 5 to 60 stems, the wordform
compiled by either engine must generate exactly the oracle's forms, and
both engines' parses must accept exactly the oracle's forms: every form,
and a substitution, an insertion and a deletion of one token in each. The
empty string and every one-token string are checked the same way against
100 stems, whose wordform's start state has enough arcs to be indexed.
"""

import importlib.util
import random
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from redup.analyses import grammar_source
from redup.compiler import compile_grammar
from redup.fsa import is_empty, surface_strings
from redup.interpret import close, intersect_open, prepare_parse_input
from redup.lazy import is_empty_lazy, lazy_close, lazy_intersect, materialize


def _load_oracle():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "koasati.py"
    spec = importlib.util.spec_from_file_location("koasati_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


koasati = _load_oracle()
TOKENS = koasati.VOWELS + koasati.CONSONANTS


def compile_lexicon(stems):
    return compile_grammar(koasati.grammar_text(grammar_source("koasati"), stems))


def single_edits(rng: random.Random, word: str) -> list[str]:
    """One substitution, one insertion and one deletion, each at a seeded
    position."""
    i, j, k = rng.randrange(len(word)), rng.randrange(len(word) + 1), rng.randrange(len(word))
    other = rng.choice([t for t in TOKENS if t != word[i]])
    return [word[:i] + other + word[i + 1:],
            word[:j] + rng.choice(TOKENS) + word[j:],
            word[:k] + word[k + 1:]]


def parses(cg, eager, lazy, surface):
    chain = prepare_parse_input(cg.alphabet, surface)
    return (not is_empty(close(intersect_open(eager, chain))),
            not is_empty_lazy(lazy_close(lazy_intersect(lazy, chain))))


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10**6), count=st.integers(5, 60))
def test_wordforms_and_parses_match_the_oracle(seed, count):
    stems = koasati.stems(seed, count)
    forms = koasati.lexicon_forms(stems)
    cg = compile_lexicon(stems)
    eager = cg.compile(koasati.ENTRY)
    lazy = cg.compile(koasati.ENTRY, engine="lazy")
    assert surface_strings(eager) == forms
    assert surface_strings(materialize(lazy)) == forms
    rng = random.Random(f"edits:{seed}")
    queries = sorted(forms) + [q for f in sorted(forms) for q in single_edits(rng, f)]
    for surface in queries:
        assert parses(cg, eager, lazy, surface) == (surface in forms,) * 2, surface


def test_a_stem_without_forms_has_an_empty_wordform():
    barren = [s for s in koasati.stems(1, 200) if not koasati.punctual_forms(s)]
    # one of each skeleton, so both stem variants and both lengths are covered
    by_skeleton = {}
    for s in barren:
        by_skeleton.setdefault("".join("V" if c in koasati.VOWELS else "C" for c in s), s)
    assert len(by_skeleton) >= 8
    for stem in by_skeleton.values():
        cg = compile_lexicon([stem])
        assert is_empty(cg.compile(koasati.ENTRY)), stem
        assert is_empty(materialize(cg.compile(koasati.ENTRY, engine="lazy"))), stem
        assert parses(cg, cg.compile(koasati.ENTRY), cg.compile(koasati.ENTRY, engine="lazy"),
                      stem) == (False, False)


def test_empty_and_one_token_strings_match_the_oracle():
    """The shortest chains, of one state and of two, against a lexicon
    whose start state has many out-arcs."""
    stems = koasati.stems(1, 100)
    forms = koasati.lexicon_forms(stems)
    cg = compile_lexicon(stems)
    eager = cg.compile(koasati.ENTRY)
    lazy = cg.compile(koasati.ENTRY, engine="lazy")
    assert len(eager.out_raw()[eager.start]) >= 16
    for surface in ["", *TOKENS]:
        assert parses(cg, eager, lazy, surface) == (surface in forms,) * 2, surface
