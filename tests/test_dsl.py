"""Grammar-file syntax: tokens, expression shapes, and definition parsing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from redup.analyses import grammar_source
from redup.dsl import (
    GRAMMAR_NAMES,
    And,
    Call,
    Concat,
    Empty,
    Name,
    Not,
    Opt,
    Quoted,
    Rule,
    Star,
    Str,
    Union,
    Token,
    Var,
    parse_expression,
    parse_grammar,
    tokenize_source,
)
from redup.dsl import BUILTIN_NAMES, Grammar, Macro
from redup.errors import GrammarError


# -- tokenizer ---------------------------------------------------------------


def test_token_positions():
    toks = tokenize_source("ab :=\n  cd.")
    assert [(t.kind, t.text, t.line, t.col) for t in toks] == [
        ("name", "ab", 1, 1),
        ("punct", ":=", 1, 4),
        ("name", "cd", 2, 3),
        ("punct", ".", 2, 5),
        ("eof", "", 2, 6),
    ]


def test_comments_and_quotes():
    toks = tokenize_source("a % ignored [junk\n\"wu lu\" ':1'")
    assert [(t.kind, t.text) for t in toks[:-1]] == [
        ("name", "a"),
        ("string", "wu lu"),
        ("qname", ":1"),
    ]


def test_arrow_lexes_as_one_token():
    kinds = [t.text for t in tokenize_source("a --> b") if t.kind == "punct"]
    assert kinds == ["-->"]


def test_unterminated_quote_reports_position():
    with pytest.raises(GrammarError) as exc:
        tokenize_source("x := 'oops\n.")
    assert exc.value.line == 1 and exc.value.col == 6


def test_unexpected_character():
    with pytest.raises(GrammarError, match="unexpected character"):
        tokenize_source("a ; b")


_REFERENCE_PUNCT = (
    ":=", "-->", "(", ")", "[", "]", "{", "}", ",", "&", "~", "*", "^", "/", "."
)


def _reference_tokenize(src: str) -> list[Token]:
    """The character-by-character tokenizer that the regex scan replaced."""
    toks: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "%":
            while i < n and src[i] != "\n":
                i += 1
            continue
        if c in "\"'":
            start_line, start_col = line, col
            j = src.find(c, i + 1)
            if j < 0 or "\n" in src[i:j]:
                raise GrammarError("unterminated quote", start_line, start_col)
            kind = "string" if c == '"' else "qname"
            toks.append(Token(kind, src[i + 1 : j], start_line, start_col))
            col += j + 1 - i
            i = j + 1
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (src[j].isalnum() or src[j] == "_"):
                j += 1
            word = src[i:j]
            kind = "var" if word[0].isupper() else "name"
            toks.append(Token(kind, word, line, col))
            col += j - i
            i = j
            continue
        for p in _REFERENCE_PUNCT:
            if src.startswith(p, i):
                toks.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise GrammarError(f"unexpected character {c!r}", line, col)
    toks.append(Token("eof", "", line, col))
    return toks


def _outcome(tokenize, src):
    """The token list, or the error's message, line and column."""
    try:
        return [tuple(t) for t in tokenize(src)]
    except GrammarError as err:
        return ("error", str(err), err.line, err.col)


# Characters where a regex class and the str predicates could part ways:
# `²`, `½` and `Ⅻ` are alphanumeric but not letters (and `²` matches neither
# `\d` nor `str.isalpha`), `ǅ` is a titlecase letter, `٣` a non-ASCII decimal
# digit, U+0301 a combining mark, U+2028 and `\x0b` line breaks other than
# `\n`; plus every character the grammar syntax gives a meaning to.
_TRICKY = list("aZ_09²½Ⅻǅ٣éßΩω\u0301\u2028\x0b\x00")
_TRICKY += list(" \t\r\n%\"'-:=>()[]{},&~*^/.;!")
_FRAGMENTS = [
    ":=", "-->", "--", "% note", '"wu lu"', "'a:1'", '"open\nline"', "'x\n'", "\r\n"
]
_SOURCES = st.lists(
    st.one_of(st.sampled_from(_TRICKY), st.sampled_from(_FRAGMENTS), st.characters()),
    max_size=30,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(_SOURCES)
def test_tokenizer_matches_the_reference_on_any_text(src):
    assert _outcome(tokenize_source, src) == _outcome(_reference_tokenize, src)


@pytest.mark.parametrize(
    "src",
    [
        "",
        "% only a comment",
        "a % trailing comment",
        "a\n% comment, then no newline",
        "x² := y.",
        "²x",
        "ǅa b",
        "a\tb\r\nc",
        "'open",
        '"spans\nlines"',
        "a -- b",
        "a : b",
        "é\u0301",
    ],
)
def test_tokenizer_matches_the_reference_on_edge_cases(src):
    assert _outcome(tokenize_source, src) == _outcome(_reference_tokenize, src)


@pytest.mark.parametrize("name", GRAMMAR_NAMES)
def test_tokenizer_matches_the_reference_on_packaged_grammars(name):
    src = grammar_source(name)
    assert tokenize_source(src) == _reference_tokenize(src)


# -- expressions ---------------------------------------------------------------


def test_empty_and_concat():
    assert parse_expression("[]") == Empty()
    assert parse_expression("[a, b]") == Concat((Name("a"), Name("b")))


def test_union_and_postfix():
    assert parse_expression("{a, b*}") == Union((Name("a"), Star(Name("b"))))
    assert parse_expression("a^") == Opt(Name("a"))


def test_postfix_binds_tighter_than_complement():
    assert parse_expression("~ a*") == Not(Star(Name("a")))


def test_and_is_left_associative():
    node = parse_expression("a & b & c")
    assert node == And(And(Name("a"), Name("b")), Name("c"))


def test_rule_has_lowest_precedence():
    node = parse_expression("vowel --> ( mora / sigma )")
    assert node == Rule(Name("vowel"), Name("mora"), Name("sigma"))
    node = parse_expression("a & b --> ( c / d & e )")
    assert isinstance(node, Rule)
    assert node.subject == And(Name("a"), Name("b"))
    assert node.context == And(Name("d"), Name("e"))


def test_calls_strings_and_quoted_sets():
    node = parse_expression("f(x, \"wu\", ':1')")
    assert node == Call("f", (Name("x"), Str("wu"), Quoted(":1")))


def test_variables_are_capitalized():
    assert parse_expression("Noun") == Var("Noun")


def test_trailing_input_rejected():
    with pytest.raises(GrammarError, match="trailing input"):
        parse_expression("a b")


def test_missing_close_paren():
    with pytest.raises(GrammarError, match="expected"):
        parse_expression("f(a")


# -- the parser against a reference --------------------------------------------


class _ReferenceParser:
    """The parser as it was before its per-token punct list and leaf fast
    path: every lookahead goes through `peek`, `at` and `next`."""

    def __init__(self, toks):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text):
        t = self.next()
        if t.kind == "punct" and t.text == text:
            return t
        raise GrammarError(f"expected {text!r}, found {t.text or t.kind!r}", t.line, t.col)

    def at(self, text):
        t = self.peek()
        return t.kind == "punct" and t.text == text

    def expr(self):
        left = self.and_expr()
        if self.at("-->"):
            self.next()
            self.expect("(")
            outcome = self.expr()
            self.expect("/")
            context = self.expr()
            self.expect(")")
            return Rule(left, outcome, context)
        return left

    def and_expr(self):
        node = self.unary()
        while self.at("&"):
            self.next()
            node = And(node, self.unary())
        return node

    def unary(self):
        if self.at("~"):
            self.next()
            return Not(self.unary())
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while True:
            if self.at("*"):
                self.next()
                node = Star(node)
            elif self.at("^"):
                self.next()
                node = Opt(node)
            else:
                return node

    def seq(self, closer):
        items = []
        if not self.at(closer):
            items.append(self.expr())
            while self.at(","):
                self.next()
                items.append(self.expr())
        self.expect(closer)
        return tuple(items)

    def primary(self):
        t = self.next()
        if t.kind == "punct":
            if t.text == "(":
                node = self.expr()
                self.expect(")")
                return node
            if t.text == "[":
                items = self.seq("]")
                return Empty() if not items else Concat(items)
            if t.text == "{":
                return Union(self.seq("}"))
            raise GrammarError(f"unexpected {t.text!r}", t.line, t.col)
        if t.kind == "string":
            return Str(t.text)
        if t.kind == "qname":
            return Quoted(t.text)
        if t.kind == "var":
            return Var(t.text)
        if t.kind == "name":
            if self.at("("):
                self.next()
                return Call(t.text, self.seq(")"))
            return Name(t.text)
        raise GrammarError("unexpected end of input", t.line, t.col)


def _reference_parse_expression(src):
    p = _ReferenceParser(tokenize_source(src))
    node = p.expr()
    tail = p.peek()
    if tail.kind != "eof":
        raise GrammarError(f"trailing input {tail.text!r}", tail.line, tail.col)
    return node


def _reference_parse_grammar(src):
    p = _ReferenceParser(tokenize_source(src))
    inventory = []
    macros = {}
    while p.peek().kind != "eof":
        t = p.next()
        if t.kind == "name" and t.text == "segment":
            fields = []
            while not p.at("."):
                ft = p.next()
                if ft.kind not in ("name", "var"):
                    raise GrammarError(
                        f"bad token {ft.text or ft.kind!r} in segment declaration",
                        ft.line, ft.col,
                    )
                fields.append(ft.text)
            p.expect(".")
            if len(fields) < 2:
                raise GrammarError(
                    "segment declaration needs a token and vowel/consonant", t.line, t.col
                )
            inventory.append((fields[0], fields[1], tuple(fields[2:])))
            continue
        if t.kind != "name":
            raise GrammarError(
                f"expected a definition, found {t.text or t.kind!r}", t.line, t.col
            )
        if t.text in BUILTIN_NAMES or t.text == "segment":
            raise GrammarError(f"cannot redefine {t.text!r}", t.line, t.col)
        params = ()
        if p.at("("):
            p.next()
            names = []
            while not p.at(")"):
                pt = p.next()
                if pt.kind != "var":
                    raise GrammarError("macro parameters must be capitalized", pt.line, pt.col)
                names.append(pt.text)
                if p.at(","):
                    p.next()
            p.expect(")")
            if len(set(names)) != len(names):
                raise GrammarError("duplicate macro parameter", t.line, t.col)
            params = tuple(names)
        p.expect(":=")
        body = p.expr()
        p.expect(".")
        if t.text in macros:
            raise GrammarError(f"{t.text!r} is defined twice", t.line, t.col)
        macros[t.text] = Macro(params, body, t.line)
    return Grammar(tuple(inventory), macros)


def _parsed(parse, src):
    """The result's repr, which names every node's class (AST nodes are
    tuples, so `Name("a") == Str("a")`), or the error's message, line and
    column."""
    try:
        return repr(parse(src))
    except GrammarError as err:
        return ("error", str(err), err.line, err.col)


# Grammar-shaped token soup: every punct, names, variables, strings, quoted
# names, the `segment` keyword and builtins, so that both well-formed and
# broken definitions, segment rows and expressions come up.
_WORDS = ["a", "b", "seg_1", "X", "Noun", "segment", "producer", "stem", "vowel",
          '"wu"', '""', "':1'", "%c\n", "\n"]
_PUNCTS = [":=", "-->", "(", ")", "[", "]", "{", "}", ",", "&", "~", "*", "^", "/", "."]
_GRAMMARS = st.lists(st.sampled_from(_WORDS + _PUNCTS), max_size=40).map(" ".join)
_DEFINITIONS = st.lists(
    st.tuples(
        st.sampled_from(["x", "y", "f(X)", "g(X, Y)", "segment", "h(x)", "k(X, X)"]),
        _GRAMMARS,
    ).map(lambda d: f"{d[0]} := {d[1]}."),
    max_size=4,
).map("\n".join)


@settings(max_examples=1000, deadline=None)
@given(st.one_of(_GRAMMARS, _DEFINITIONS))
def test_parser_matches_the_reference_on_token_soup(src):
    assert _parsed(parse_grammar, src) == _parsed(_reference_parse_grammar, src)
    assert _parsed(parse_expression, src) == _parsed(_reference_parse_expression, src)


@pytest.mark.parametrize(
    "src",
    [
        "", "a", "a b", "a *", "a ^ * ^", "~ ~ a", "a & b & c", "f(a, b", "f()", "f(",
        "[a, ]", "{a}", "{}", "[]", "a --> (b / c)", "a --> (b c)", "\"s\"(a)",
        "'q' * & X", "X(a)", "(a)", "(a", ")", "a -->", "segment a.", "segment a vowel",
        "x := a", "x := .", "x(Y := a.", "x(Y,) := a.", "x := a b.", "%only",
    ],
)
def test_parser_matches_the_reference_on_edge_cases(src):
    assert _parsed(parse_grammar, src) == _parsed(_reference_parse_grammar, src)
    assert _parsed(parse_expression, src) == _parsed(_reference_parse_expression, src)


@pytest.mark.parametrize("name", GRAMMAR_NAMES)
def test_parser_matches_the_reference_on_packaged_grammars(name):
    src = grammar_source(name)
    assert _parsed(parse_grammar, src) == _parsed(_reference_parse_grammar, src)
    assert repr(parse_grammar(src)).count("(") > 100


# -- grammar files ---------------------------------------------------------------


GOOD = """
% tiny but complete
segment w consonant.
segment u vowel round.

base := stringToAutomaton("wu").
first_(X) := [not_contains(X), X].
e := [].
"""


def test_parse_grammar_collects_inventory_and_macros():
    g = parse_grammar(GOOD)
    assert g.inventory == (("w", "consonant", ()), ("u", "vowel", ("round",)))
    assert set(g.macros) == {"base", "first_", "e"}
    assert g.macros["first_"].params == ("X",)
    assert g.macros["first_"].body == Concat(
        (Call("not_contains", (Var("X"),)), Var("X"))
    )
    assert g.macros["e"].body == Empty()


def test_duplicate_definition_rejected():
    with pytest.raises(GrammarError, match="defined twice"):
        parse_grammar("segment a vowel. x := a. x := a.")


def test_cannot_redefine_builtins():
    with pytest.raises(GrammarError, match="cannot redefine"):
        parse_grammar("segment a vowel. producer := a.")


def test_macro_parameters_must_be_capitalized():
    with pytest.raises(GrammarError, match="capitalized"):
        parse_grammar("segment a vowel. f(x) := a.")


def test_duplicate_macro_parameter():
    with pytest.raises(GrammarError, match="duplicate"):
        parse_grammar("segment a vowel. f(X, X) := a.")


def test_segment_row_needs_a_class():
    with pytest.raises(GrammarError, match="segment declaration"):
        parse_grammar("segment a.")


def test_error_carries_line_number():
    with pytest.raises(GrammarError) as exc:
        parse_grammar("segment a vowel.\nbroken := [.\n")
    assert exc.value.line == 2


def test_uppercase_segment_tokens_allowed():
    # Semai uses E, N, O, A as plain segments
    g = parse_grammar("segment E vowel. x := E.")
    assert g.inventory[0][0] == "E"
    assert g.macros["x"].body == Var("E")


@pytest.mark.parametrize("name", ["bambara", "semai", "koasati"])
def test_packaged_grammars_parse(name):
    g = parse_grammar(grammar_source(name))
    assert len(g.inventory) >= 10
    assert len(g.macros) >= 5
