"""The three worked analyses, built from the packaged grammar files.

Bambara doubles a whole noun around a fixed /o/ (wulu -> wuluowulu), Semai
copies the first and last segment of the base (cqEt -> ctcqEt), and Koasati
copies the initial consonant and infixes it with an /o(o)/ melody after the
first heavy syllable (tahaspin -> tahastoopin).  The grammar sources live in
``data/*.g``; this module loads them once and layers the stem- and
lexicon-construction helpers on top.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from . import dsl
from .compiler import CompiledGrammar, compile_grammar
from .dsl import GRAMMAR_NAMES, grammar_source
from .enrich import enrich
from .errors import StemRejectedError
from .fsa import Fsa, build_from_string, combine, is_empty
from .interpret import close, intersect_open

KOASATI_CONSTRAINT_NAMES = (
    "moraification",
    "mark_first_heavy_syllable",
    "positional_classification",
)


@functools.cache
def load_grammar(name: str) -> CompiledGrammar:
    """Load and cache one of the packaged grammars."""
    return compile_grammar(grammar_source(name))


# ---------------------------------------------------------------------------
# stems and lexica


class StemSpec(NamedTuple):
    """A lexical entry: a token string plus an optional expression for a
    variable first-segment slot.

    Vowel-initial Koasati stems put ``underspecified_for_voicing(...)`` in
    ``first_seg`` so the /h/ alternant of their initial vowel is stored
    alongside it.  ``first_seg`` may be an expression AST, source text for
    one, or None for an invariant stem.
    """

    name: str
    body: str
    first_seg: object | None = None


def build_stem(
    spec: StemSpec,
    constraints: Sequence[Fsa] | None = None,
    constraint_names: Sequence[str] | None = None,
    grammar: CompiledGrammar | None = None,
) -> Fsa:
    """Intersect a lexical string with its well-formedness constraints and
    enrich the survivor (self loops, then skips, then repeat arcs).

    Constraints apply one at a time so that an over-constrained entry fails
    loudly: the first one that empties the language is reported by name in a
    StemRejectedError.  They default to the Koasati set, as `grammar`
    defines it (the packaged Koasati grammar when none is given).
    """
    if not spec.body:
        raise ValueError("stem body must be non-empty")
    cg = grammar if grammar is not None else load_grammar("koasati")
    if constraints is None:
        constraints, constraint_names = _koasati_set(grammar, constraint_names)
    if constraint_names is None:
        constraint_names = tuple(f"constraint {i + 1}" for i in range(len(constraints)))

    base = build_from_string(cg.alphabet, spec.body)
    if spec.first_seg is not None:
        first = spec.first_seg
        if isinstance(first, str):
            first = dsl.parse_expression(first)
        base = combine("concat", [cg.compile(first), base])

    m = base
    for name, constraint in zip(constraint_names, constraints):
        m = intersect_open(m, constraint)
        if is_empty(m):
            raise StemRejectedError(spec.name, name)
    return enrich(m)


@dataclass(frozen=True)
class Lexicon:
    """A union of stems, each one enriched on its own.

    The order matters: move-back arcs added to an already-unioned automaton
    would let a path wander from one base into another and accept chimeras
    that copy half of each, so enrichment happens per stem and the union is
    taken afterwards.
    """

    stems: tuple[Fsa, ...]

    def __post_init__(self):
        object.__setattr__(self, "stems", tuple(self.stems))
        if not self.stems:
            raise ValueError("a lexicon needs at least one stem")

    @classmethod
    def from_specs(
        cls,
        specs: Sequence[StemSpec],
        constraints: Sequence[Fsa] | None = None,
        constraint_names: Sequence[str] | None = None,
        grammar: CompiledGrammar | None = None,
    ) -> "Lexicon":
        if constraints is None:  # compiled once for every stem
            constraints, constraint_names = _koasati_set(grammar, constraint_names)
        return cls(tuple(build_stem(s, constraints, constraint_names, grammar) for s in specs))

    def union(self) -> Fsa:
        if len(self.stems) == 1:
            return self.stems[0]
        return combine("union", list(self.stems))


# ---------------------------------------------------------------------------
# Koasati pieces


@functools.cache
def koasati_constraints() -> tuple[Fsa, ...]:
    """Moraification, first-heavy-syllable marking, and positional
    classification, each wrapped so technical symbols are invisible to it."""
    return _compile_constraints(load_grammar("koasati"))


def _compile_constraints(cg: CompiledGrammar) -> tuple[Fsa, ...]:
    """`koasati_constraints` as `cg` defines them; CompileError if it
    lacks one."""
    return tuple(
        cg.compile(f"ignore_technical_symbols_in({name})")
        for name in KOASATI_CONSTRAINT_NAMES
    )


def _koasati_set(
    grammar: CompiledGrammar | None, names: Sequence[str] | None
) -> tuple[tuple[Fsa, ...], Sequence[str]]:
    """The default constraints of a stem of `grammar` (the packaged Koasati
    grammar if None, whose are cached), and their names: `names` if given,
    else the Koasati ones."""
    if grammar is None or grammar is load_grammar("koasati"):
        constraints = koasati_constraints()
    else:
        constraints = _compile_constraints(grammar)
    return constraints, KOASATI_CONSTRAINT_NAMES if names is None else names


@functools.cache
def punctual_aspect_reduplication() -> Fsa:
    """The infixing copy morpheme: re-take the initial consonant of the
    first constituent and drop in the /o(o)/ melody before the second."""
    return load_grammar("koasati").compile("punctual_aspect_reduplication")


@functools.cache
def word_level_constraints() -> Fsa:
    """Word-final weight plus the two-heavy-syllable requirement."""
    return load_grammar("koasati").compile("word_level_constraints")


def wordform(entry: Fsa) -> Fsa:
    """Close an enriched stem (or union of stems) together with the
    reduplication morpheme under the word-level constraints."""
    return close(word_level_constraints(), entry, punctual_aspect_reduplication())


# ---------------------------------------------------------------------------
# Bambara and Semai pipelines


def _string_pipeline(grammar_name: str, macro: str, string: str, engine: str) -> Fsa:
    cg = load_grammar(grammar_name)
    if len(cg.alphabet.tokenize(string)) < 2:
        raise ValueError(f"{macro} needs a base of at least two segments")
    result = cg.compile(dsl.Call(macro, (dsl.Str(string),)), engine=engine)
    if engine == "lazy":
        from .lazy import materialize

        result = materialize(result)
    return result


def bambara_pipeline(noun: str, engine: str = "eager") -> Fsa:
    """Closed automaton for the doubled noun: wulu -> wuluowulu."""
    return _string_pipeline("bambara", "distributive", noun, engine)


def semai_pipeline(base: str, engine: str = "eager") -> Fsa:
    """Closed automaton for the continuative: cqEt -> ctcqEt."""
    return _string_pipeline("semai", "continuative", base, engine)
