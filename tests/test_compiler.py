"""Expression compilation: rules, not_contains, the ignore wrapper, macros.

The rule and not_contains constructions are checked against brute-force
oracles (a pair scan / a substring search over enumerated symbol sequences)
before any individual case is pinned.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import redup.compiler
from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.compiler import (
    _hoisted_subtrees,
    compile_grammar,
    compile_rule,
    ignore_technicals,
    not_contains,
)
from redup import dsl
from redup.dsl import Call, Concat, Name
from redup.errors import CompileError
from redup.fsa import (
    Fsa,
    accepts,
    build_from_string,
    canonical,
    combine,
    empty_string_fsa,
    enumerate_language,
    language_equal,
    never_fsa,
    symbol_fsa,
)
from redup.interpret import ProductStats, close, intersect_open
from redup.lazy import LazyFsa, materialize, total_expansions


def lowest(bits: int) -> int:
    """Index of the lowest symbol in a set."""
    assert bits
    return (bits & -bits).bit_length() - 1


def rule_oracle(al, seq, subject, outcome, context):
    """Direct scan: no symbol in subject-minus-outcome right before context."""
    banned = subject & al.complement(subject & outcome)
    return not any(
        (1 << x) & banned and (1 << z) & context for x, z in zip(seq, seq[1:])
    )


def all_seqs(universe, max_len):
    for n in range(max_len + 1):
        yield from itertools.product(universe, repeat=n)


RULES = [
    ("vowel", "mora", "sigma"),
    ("consonant", "mora", "consonant"),
    ("consonant", "~mora", "vowel"),
    ("a", ":1", "b"),
]


def named(al, spec: str) -> int:
    if spec.startswith("~"):
        return al.complement(al.named_set(spec[1:]))
    return al.named_set(spec)


@pytest.mark.parametrize("subject,outcome,context", RULES)
def test_rule_matches_pair_scan_oracle(ab, subject, outcome, context):
    x, y, z = (named(ab, s) for s in (subject, outcome, context))
    machine = compile_rule(ab, x, y, z)
    assert all(not a.label.pc for a in machine.arcs)
    for seq in all_seqs(range(ab.size), 2):
        assert accepts(machine, seq) == rule_oracle(ab, seq, x, y, z), seq


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_rule_oracle_on_longer_sequences(ab, data):
    subject, outcome, context = data.draw(st.sampled_from(RULES))
    x, y, z = (named(ab, s) for s in (subject, outcome, context))
    machine = compile_rule(ab, x, y, z)
    seq = data.draw(st.lists(st.integers(0, ab.size - 1), max_size=6))
    assert accepts(machine, tuple(seq)) == rule_oracle(ab, seq, x, y, z)


def test_moraic_vowel_rule_cases(ab):
    vowel, mora, sigma = ab.named_set("vowel"), ab.named_set("mora"), ab.sigma
    machine = compile_rule(ab, vowel, mora, sigma)
    a_light = lowest(ab.char("a") & ab.complement(mora))
    a_heavy = lowest(ab.char("a") & mora)
    b = lowest(ab.char("b"))
    assert not accepts(machine, [a_light, b])
    assert accepts(machine, [a_heavy, b])
    assert accepts(machine, [a_light])  # string-final subject is unconstrained


def test_empty_subject_accepts_everything(ab):
    machine = compile_rule(ab, 0, ab.named_set("mora"), ab.sigma)
    for seq in all_seqs(range(ab.size), 2):
        assert accepts(machine, seq)


def test_disjoint_outcome_is_an_error(ab):
    with pytest.raises(CompileError, match="shares no symbols"):
        compile_rule(ab, ab.named_set("vowel"), ab.named_set("consonant"), ab.sigma)


def test_rule_refines_labels_instead_of_deleting(ab):
    """Intersection with a rule narrows arc labels; surviving paths keep
    labels that are subsets of what the plain string automaton carried."""
    from redup.interpret import intersect_open

    chain = build_from_string(ab, "ab")
    rule = compile_rule(ab, ab.named_set("vowel"), ab.named_set("mora"), ab.sigma)
    product = intersect_open(chain, rule)
    chain_bits = [a.label.bits for a in chain.arcs]
    for arc in product.arcs:
        assert any(arc.label.bits & ~bits == 0 for bits in chain_bits)
    # the a-position in particular is forced moraic
    a_labels = [a.label.bits for a in product.arcs if a.label.bits & ab.char("a")]
    assert a_labels and all(bits & ~ab.named_set("mora") == 0 for bits in a_labels)


# -- not_contains ---------------------------------------------------------------


def factor_free(seq, factors):
    return not any(
        tuple(seq[i : i + len(f)]) == f
        for f in factors
        for i in range(len(seq) - len(f) + 1)
    )


def heavy_rime(al):
    mora = symbol_fsa(al, al.named_set("mora"), pc=False)
    return combine("concat", [mora, mora])


def test_not_contains_matches_substring_oracle(abc):
    """Exhaustive agreement on every sequence of length <= 6 over a
    three-symbol sub-alphabet."""
    pool = (
        lowest(abc.char("a") & abc.named_set("mora")),
        lowest(abc.char("b") & abc.named_set("mora")),
        lowest(abc.char("b") & abc.complement(abc.named_set("mora"))),
    )
    for pattern in (heavy_rime(abc), build_from_string(abc, "ab")):
        machine = not_contains(pattern)
        factors = enumerate_language(pattern, 2)
        for seq in all_seqs(pool, 6):
            assert accepts(machine, seq) == factor_free(seq, factors), seq


def test_not_contains_rejects_heavy_rime_anywhere(abc):
    machine = not_contains(heavy_rime(abc))
    am = lowest(abc.char("a") & abc.named_set("mora"))
    bm = lowest(abc.char("b") & abc.named_set("mora"))
    bl = lowest(abc.char("b") & abc.complement(abc.named_set("mora")))
    assert not accepts(machine, [bl, am, bm])
    assert accepts(machine, [am, bl, bm])


def test_not_contains_of_nothing_is_everything(abc):
    machine = not_contains(never_fsa(abc))
    for seq in all_seqs(range(abc.size), 2):
        assert accepts(machine, seq)


def test_not_contains_is_consumer_typed(abc):
    machine = not_contains(build_from_string(abc, "ab"))
    assert machine.arcs and all(not a.label.pc for a in machine.arcs)


# -- ignore_technicals ---------------------------------------------------------------


def test_ignore_restriction_equals_original(ab):
    """Strings without technical symbols pass the wrapped constraint exactly
    when they pass the plain one."""
    plain = combine(
        "concat",
        [
            symbol_fsa(ab, ab.char("a") & ab.named_set("mora"), pc=False),
            symbol_fsa(ab, ab.char("b"), pc=False),
        ],
    )
    wrapped = ignore_technicals(plain)
    rep, skip = lowest(ab.repeat), lowest(ab.skip)
    pool = (
        lowest(ab.char("a") & ab.named_set("mora")),
        lowest(ab.char("b") & ab.named_set("mora")),
        rep,
        skip,
    )
    tech = {rep, skip}
    for seq in all_seqs(pool, 4):
        if any(s in tech for s in seq):
            continue
        assert accepts(wrapped, seq) == accepts(plain, seq), seq


def test_ignore_lets_technicals_through_anywhere(ab):
    plain = combine(
        "concat",
        [
            symbol_fsa(ab, ab.char("a"), pc=False),
            symbol_fsa(ab, ab.char("b"), pc=False),
        ],
    )
    wrapped = ignore_technicals(plain)
    a, b = lowest(ab.char("a")), lowest(ab.char("b"))
    rep, skip = lowest(ab.repeat), lowest(ab.skip)
    assert accepts(wrapped, [rep, a, skip, skip, b, rep])
    assert not accepts(plain, [rep, a, skip, skip, b, rep])


def test_ignore_scanner_state_survives_interleaving(ab):
    """A constraint violation cannot hide behind an interleaved technical
    symbol: the scanner must not advance over it."""
    rule = compile_rule(ab, ab.named_set("vowel"), ab.named_set("mora"), ab.sigma)
    wrapped = ignore_technicals(rule)
    a_light = lowest(ab.char("a") & ab.complement(ab.named_set("mora")))
    b = lowest(ab.char("b"))
    rep = lowest(ab.repeat)
    assert not accepts(wrapped, [a_light, rep, b])
    assert accepts(wrapped, [a_light, rep])


def test_ignore_of_empty_string_machine_gains_one_loop(ab):
    wrapped = ignore_technicals(empty_string_fsa(ab))
    assert len(wrapped.arcs) == 1
    rep, skip = lowest(ab.repeat), lowest(ab.skip)
    assert accepts(wrapped, [rep, skip, rep])
    assert not accepts(wrapped, [lowest(ab.char("a"))])


# -- the evaluator ---------------------------------------------------------------


TINY = """
segment a vowel.
segment b consonant.

double(X) := [X, X].
ab := stringToAutomaton("ab").
loop := b *.
"""


@pytest.fixture(scope="module")
def cg():
    return compile_grammar(TINY)


def test_sets_compile_to_consumer_arcs(cg):
    m = cg.compile("[vowel, consonant, loop]")
    assert m.arcs and all(not a.label.pc for a in m.arcs)


def test_strings_compile_to_producer_chains(cg):
    m = cg.compile('"ab"')
    assert m.arcs and all(a.label.pc for a in m.arcs)
    assert language_equal(m, cg.compile("ab"))


def test_producer_retypes_a_whole_machine(cg):
    m = cg.compile("producer([vowel, consonant *])")
    assert m.arcs and all(a.label.pc for a in m.arcs)


def test_consumer_retypes_a_string(cg):
    m = cg.compile('consumer("ab")')
    assert m.arcs and all(not a.label.pc for a in m.arcs)
    assert language_equal(m, build_from_string(cg.alphabet, "ab", pc=False))


def test_set_intersection_stays_a_set(cg):
    al = cg.alphabet
    m = cg.compile("a & mora")
    assert len(m.arcs) == 1
    assert m.arcs[0].label.bits == al.char("a") & al.named_set("mora")


def test_empty_set_cannot_become_a_machine(cg):
    with pytest.raises(CompileError, match="empty symbol set"):
        cg.compile("vowel & consonant")


def test_mixed_intersection_builds_a_product(cg):
    al = cg.alphabet
    m = cg.compile("[a] & vowel")
    assert language_equal(m, symbol_fsa(al, al.char("a"), pc=False))


def test_complement_needs_a_set(cg):
    with pytest.raises(CompileError, match="not_contains"):
        cg.compile("~ ab")


def test_macro_call_equals_substitution(cg):
    assert language_equal(cg.compile("double(a)"), cg.compile("[a, a]"))


def test_macro_arity_checked(cg):
    with pytest.raises(CompileError, match="takes 1 argument"):
        cg.compile("double(a, b)")


def test_unknown_names_and_sets(cg):
    with pytest.raises(CompileError, match="unknown name"):
        cg.compile("nope")
    with pytest.raises(CompileError, match="unknown symbol set"):
        cg.compile("'nope'")


def test_free_variable_is_an_error(cg):
    with pytest.raises(CompileError, match="outside any definition"):
        cg.compile("Xyz")


def test_recursion_detected():
    g = compile_grammar("segment a vowel. f := g. g := f.")
    with pytest.raises(CompileError, match="recursive definition: f -> g -> f"):
        g.compile("f")


def test_macro_may_not_shadow_a_set():
    with pytest.raises(CompileError, match="shadows"):
        compile_grammar("segment a vowel. mora := a.")


def test_string_to_automaton_wants_a_string(cg):
    with pytest.raises(CompileError, match="expects a string"):
        cg.compile("stringToAutomaton(vowel)")


@pytest.mark.parametrize("node, name", [
    (dsl.Token("name", "a", 1, 1), "Token"),
    (Concat((Name("a"), dsl.Macro("f", (), Name("a")))), "Macro"),
    (("a", "b"), "tuple"),
    (None, "NoneType"),
])
def test_a_value_of_no_expression_type_cannot_compile(cg, node, name):
    with pytest.raises(CompileError, match=f"^cannot compile {name}$"):
        cg.compile(node)


def test_every_expression_node_has_an_evaluator():
    nodes = {cls for cls in vars(dsl).values()
             if isinstance(cls, type) and issubclass(cls, tuple) and hasattr(cls, "_fields")}
    assert set(redup.compiler._EVAL) == nodes - {dsl.Token, dsl.Macro, dsl.Grammar}


def test_rule_parts_must_be_sets(cg):
    with pytest.raises(CompileError, match="symbol set"):
        cg.compile('"ab" --> ( vowel / sigma )')


def test_unknown_engine_rejected(cg):
    with pytest.raises(CompileError, match="unknown engine"):
        cg.compile("a", engine="weird")


def test_uppercase_segments_resolve_as_sets():
    g = compile_grammar("segment E vowel. segment t consonant. x := [E, t].")
    m = g.compile("x")
    al = g.alphabet
    assert {a.label.bits for a in m.arcs} == {al.char("E"), al.char("t")}
    assert accepts(m, [lowest(al.char("E")), lowest(al.char("t"))])


# -- parameter-free subexpressions are evaluated once per compile ---------------


HOIST = """
segment a vowel.
segment b consonant.

alternating   := [consonant ^, [vowel, consonant] *, vowel ^].
ends_in_vowel := [sigma *, vowel].
word(S) := alternating & ends_in_vowel & stringToAutomaton(S).
words   := {word("ba"), word("aba"), word("baba")}.
"""

_INTERSECT = {"eager": "intersect_open", "lazy": "lazy_intersect"}


def _count_intersections(monkeypatch, engine) -> list:
    """Record every intersection the compiler builds with this engine."""
    name = _INTERSECT[engine]
    real = getattr(redup.compiler, name)
    calls = []

    def counted(*args):
        calls.append(name)
        return real(*args)

    monkeypatch.setattr(redup.compiler, name, counted)
    return calls


def _eager(m):
    return materialize(m) if isinstance(m, LazyFsa) else m


@pytest.mark.parametrize("engine", ["eager", "lazy"])
def test_closed_constraint_is_built_once_per_compile(monkeypatch, engine):
    g = compile_grammar(HOIST)
    al = g.alphabet
    calls = _count_intersections(monkeypatch, engine)
    stats = ProductStats()
    result = _eager(g.compile("words", engine=engine, stats=stats))
    # one constraint product, then one product per word; rebuilding the
    # constraint on every call would take six
    assert len(calls) == 4
    if engine == "eager":
        assert stats.calls == 4
    # the values live for one call: a second compile builds it again
    g.compile("words", engine=engine)
    assert len(calls) == 8

    constraint = intersect_open(g.compile("alternating"), g.compile("ends_in_vowel"))
    by_hand = combine(
        "union",
        [intersect_open(constraint, build_from_string(al, s)) for s in ("ba", "aba", "baba")],
    )
    assert canonical(result) == canonical(by_hand)


CLOSED_HOIST = HOIST + """
closed_word(S) := closed_interpretation(stringToAutomaton(S)
                                        & (alternating & ends_in_vowel)).
closed_words   := {closed_word("ba"), closed_word("aba"), closed_word("baba")}.
"""


def test_parameter_free_and_inside_a_closed_chain_is_built_once():
    g = compile_grammar(CLOSED_HOIST)
    al = g.alphabet
    stats = ProductStats()
    result = g.compile("closed_words", stats=stats)
    # one constraint product, then one closed product per word
    assert stats.calls == 4
    g.compile("closed_words", stats=stats)
    assert stats.calls == 8

    constraint = intersect_open(g.compile("alternating"), g.compile("ends_in_vowel"))
    by_hand = combine(
        "union",
        [close(intersect_open(build_from_string(al, s), constraint))
         for s in ("ba", "aba", "baba")],
    )
    assert canonical(result) == canonical(by_hand)


@pytest.mark.parametrize("engine", ["eager", "lazy"])
def test_empty_set_inside_a_closed_chain_is_an_error(cg, engine):
    with pytest.raises(CompileError, match="empty symbol set used as an automaton"):
        cg.compile("closed_interpretation(ab & (vowel & consonant))", engine=engine)


@pytest.mark.parametrize("grammar", GRAMMAR_NAMES)
def test_eager_and_lazy_agree_on_every_entry(grammar):
    g = load_grammar(grammar)
    for name, macro in g.macros.items():
        if not macro.params:
            eager = g.compile(name)
            lazy = _eager(g.compile(name, engine="lazy"))
            assert canonical(eager) == canonical(lazy), name


def test_closed_wordform_visits_fewer_pairs_than_the_open_chain():
    g = load_grammar("koasati")
    fused = ProductStats()
    result = g.compile("wordform_lexicon", stats=fused)

    chain = ProductStats()
    wlc, lexicon, punctual = (
        g.compile(name, stats=chain)
        for name in ("word_level_constraints", "lexicon", "punctual_aspect_reduplication")
    )
    open_product = intersect_open(intersect_open(wlc, lexicon, chain), punctual, chain)
    assert fused.calls == chain.calls
    assert fused.visited_pairs < chain.visited_pairs
    assert canonical(result) == canonical(close(open_product))


def test_koasati_hoists_the_stem_constraint_and_wordform_operands():
    g = load_grammar("koasati")
    hoisted = {
        name: _hoisted_subtrees(macro.body)
        for name, macro in g.macros.items()
        if macro.params
    }
    assert hoisted["first_"] == []
    [constraint] = hoisted["stem"]
    assert isinstance(constraint, Call)
    assert constraint.name == "ignore_technical_symbols_in"
    assert hoisted["underspecified_for_voicing"] == [
        Name("vowel"),
        Concat((Call("producer", (Name("h"),)), Call("consumer", (Name("skip"),)))),
    ]
    assert hoisted["wordform"] == [
        Name("word_level_constraints"),
        Name("punctual_aspect_reduplication"),
    ]
    assert g.hoisted == {id(n) for nodes in hoisted.values() for n in nodes}


SCOPED = """
segment o vowel.
segment t consonant.

a(X) := [X, b].
b := a("o").
broken(X) := [X, [o, vowel & consonant]].
fine(X) := [X, o].
"""


def test_recursion_through_a_hoisted_subtree_is_still_an_error():
    g = compile_grammar(SCOPED)
    for _ in range(2):
        with pytest.raises(CompileError, match="recursive definition: a -> b -> a"):
            g.compile('a("t")')
        with pytest.raises(CompileError, match="recursive definition: b -> a -> b"):
            g.compile("b")


def test_error_in_a_hoisted_subtree_raises_on_every_compile():
    g = compile_grammar(SCOPED)
    for _ in range(2):
        with pytest.raises(CompileError, match="empty symbol set"):
            g.compile('broken("t")')
    assert accepts(
        g.compile('fine("t")'), [lowest(g.alphabet.char(c)) for c in ("t", "o")]
    )


def _machines_reachable_from(root) -> list:
    """Every Fsa or LazyFsa held by root's attributes and containers."""
    seen, stack, found = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, str, int)):
            continue
        seen.add(id(obj))
        if isinstance(obj, (Fsa, LazyFsa)):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj)
            stack.extend(obj.values())
        elif isinstance(obj, (tuple, list, set, frozenset)):
            stack.extend(obj)
        elif hasattr(obj, "__dict__"):
            stack.extend(vars(obj).values())
    return found


@pytest.mark.parametrize("engine", ["eager", "lazy"])
def test_compiled_grammar_keeps_no_machines_after_compile(engine):
    g = load_grammar("koasati")
    assert g.compile("wordform_lexicon", engine=engine) is not None
    assert _machines_reachable_from(g) == []


def test_lazy_closed_chain_joins_its_largest_operand_last():
    # the lazy chain is built in `close`'s order, so its closed product meets
    # the lexicon only after the small constraints have narrowed it
    g = load_grammar("koasati")
    stats = ProductStats()
    eager = g.compile("wordform_lexicon", stats=stats)
    lazy = g.compile("wordform_lexicon", engine="lazy")
    assert canonical(materialize(lazy)) == canonical(eager)
    assert total_expansions(lazy, kind="intersect") <= stats.visited_pairs
