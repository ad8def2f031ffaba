"""Grammar-file syntax: tokenizer, expression parser, and macro table.

Also the source text of the packaged grammars (`grammar_source`).

A grammar file is a sequence of `segment` inventory declarations and macro
definitions `head := body.` (with optional capitalized parameters, Prolog
style).  Expressions combine symbol sets and automata:

    []                 empty string          [E1, E2, ...]   concatenation
    {E1, E2, ...}      union                 E* / E^         star / optional
    E1 & E2            intersection          ~S              set complement
    X --> (Y / Z)      rewrite demand: X must be Y when followed by Z
    producer(S), consumer(S), "string", 'quoted-set-name', name(args)

`%` starts a comment.  Parsing is purely syntactic here; name resolution and
set-versus-machine typing happen in the compiler.

The parser fails beyond `MAX_NESTING` open brackets, braces, parentheses,
call argument lists, `~` and rule arrow `(...)`, one recursion each.  It
reads `&` chains and postfix `*`/`^` runs in loops; how deep their trees
nest is bounded where they are evaluated (`compiler.MAX_DEPTH`).
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import GrammarError

GRAMMAR_NAMES = ("bambara", "semai", "koasati")

MAX_NESTING = 100

BUILTIN_NAMES = frozenset(
    {
        "producer",
        "consumer",
        "not_contains",
        "ignore_technical_symbols_in",
        "add_self_loops",
        "add_skips",
        "add_repeats",
        "closed_interpretation",
        "stringToAutomaton",
    }
)

# One lexeme after optional blanks, within one line: a quote must close on
# its line, so an unclosed one falls through to the last alternative, which
# catches any other non-blank character; only trailing blanks go unmatched.
# `\w` is exactly `str.isalnum()` or `_`.  A word must also start with a
# letter or `_`, which `tokenize_source` checks (`[^\W\d]` would let
# non-decimal digits such as `²` through).
_LEXEME = re.compile(
    r"""[ \t\r]*(?:
        (?P<word>\w+)
      | (?P<punct>:=|-->|[()\[\]{},&~*^/.])
      | (?P<string>"[^"]*")
      | (?P<qname>'[^']*')
      | (?P<comment>%.*)
      | (?P<other>[^ \t\r]))""",
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # name | var | string | qname | punct | eof
    text: str
    line: int
    col: int


def tokenize_source(src: str) -> list[Token]:
    """Split grammar source into tokens, ending with an `eof` token.

    Lines and columns count from 1, columns in characters.  The `eof` token
    sits after the last character, or at the `%` of a comment that runs to
    the end of the input.
    """
    toks: list[Token] = []
    new = tuple.__new__  # Token._make without its length check, which costs more
    for line, text in enumerate(src.split("\n"), 1):
        end = len(text) + 1  # the eof column, if this is the last line
        for m in _LEXEME.finditer(text):
            kind = m.lastgroup
            col = m.start(kind) + 1
            if kind == "word":
                word = m.group(kind)
                c = word[0]
                if not (c.isalpha() or c == "_"):
                    raise GrammarError(f"unexpected character {c!r}", line, col)
                toks.append(new(Token, ("var" if c.isupper() else "name", word, line, col)))
            elif kind == "punct":
                toks.append(new(Token, ("punct", m.group(kind), line, col)))
            elif kind == "comment":
                end = col
                break
            elif kind == "other":
                c = m.group(kind)
                if c in "\"'":
                    raise GrammarError("unterminated quote", line, col)
                raise GrammarError(f"unexpected character {c!r}", line, col)
            else:  # string or qname
                toks.append(new(Token, (kind, m.group(kind)[1:-1], line, col)))
    toks.append(new(Token, ("eof", "", line, end)))
    return toks


# -- expression AST --------------------------------------------------------------


class Empty(NamedTuple):
    pass


class Str(NamedTuple):
    text: str


class Name(NamedTuple):
    name: str


class Quoted(NamedTuple):
    name: str


class Var(NamedTuple):
    name: str


class Call(NamedTuple):
    name: str
    args: tuple


class Concat(NamedTuple):
    items: tuple


class Union(NamedTuple):
    items: tuple


class Star(NamedTuple):
    item: object


class Opt(NamedTuple):
    item: object


class And(NamedTuple):
    left: object
    right: object


class Not(NamedTuple):
    item: object


class Rule(NamedTuple):
    """X --> (Y / Z): symbols in X must fall in Y whenever Z follows."""

    subject: object
    outcome: object
    context: object


# After a leaf token, a punct that may extend the expression it starts (a
# call's argument list, a postfix, `&` or a rule arrow).  Before any other
# token the leaf is a whole expression.
_CONTINUES = frozenset({"(", "*", "^", "&", "-->"})
_LEAVES = {"string": Str, "qname": Quoted, "var": Var, "name": Name}


def _children(node):
    """The expression nodes directly under `node`."""
    for value in node:
        if hasattr(value, "_fields"):
            yield value
        elif isinstance(value, tuple):
            yield from value


class _Parser:
    """Recursive descent over the token list.

    Per token it keeps the punct text (None for other tokens), so `at` is
    one list index and no token attribute lookup, and `expr` returns a leaf
    followed by a token that cannot extend it without descending through
    the precedence levels. `depth` counts the constructs open around the
    current token, one per recursive descent.
    """

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.pos = 0
        self.punct = [t.text if t.kind == "punct" else None for t in toks]
        self.depth = 0

    def enter(self) -> None:
        """Open one more level at the token just read; fail beyond `MAX_NESTING`."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            t = self.toks[self.pos - 1]
            raise GrammarError(f"expression nested more than {MAX_NESTING} deep", t.line, t.col)

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, text: str) -> Token:
        pos = self.pos
        self.pos = pos + 1
        t = self.toks[pos]
        if self.punct[pos] == text:
            return t
        raise GrammarError(f"expected {text!r}, found {t.text or t.kind!r}", t.line, t.col)

    def at(self, text: str) -> bool:
        return self.punct[self.pos] == text

    # expr := and ('-->' '(' expr '/' expr ')')?
    def expr(self):
        pos = self.pos
        leaf = _LEAVES.get(self.toks[pos].kind)
        if leaf is not None and self.punct[pos + 1] not in _CONTINUES:
            self.pos = pos + 1
            return leaf(self.toks[pos].text)
        left = self.and_expr()
        if self.at("-->"):
            self.next()
            self.expect("(")
            self.enter()
            outcome = self.expr()
            self.expect("/")
            context = self.expr()
            self.expect(")")
            self.depth -= 1
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
            self.enter()
            node = Not(self.unary())
            self.depth -= 1
            return node
        return self.postfix()

    def postfix(self):
        node = self.primary()
        while (p := self.punct[self.pos]) == "*" or p == "^":
            self.pos += 1
            node = Star(node) if p == "*" else Opt(node)
        return node

    def seq(self, closer: str) -> tuple:
        self.enter()
        items = []
        punct = self.punct
        if punct[self.pos] != closer:
            items.append(self.expr())
            while punct[self.pos] == ",":
                self.pos += 1
                items.append(self.expr())
        self.expect(closer)
        self.depth -= 1
        return tuple(items)

    def primary(self):
        t = self.next()
        if t.kind == "punct":
            if t.text == "(":
                self.enter()
                node = self.expr()
                self.expect(")")
                self.depth -= 1
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
            if self.punct[self.pos] == "(":
                self.pos += 1
                return Call(t.text, self.seq(")"))
            return Name(t.text)
        raise GrammarError("unexpected end of input", t.line, t.col)


def parse_expression(src: str):
    """Parse one expression (for CLI entry arguments)."""
    p = _Parser(tokenize_source(src))
    node = p.expr()
    tail = p.peek()
    if tail.kind != "eof":
        raise GrammarError(f"trailing input {tail.text!r}", tail.line, tail.col)
    return node


# -- grammar files ----------------------------------------------------------------


def grammar_source(name: str) -> str:
    """Source text of a packaged grammar file (bambara, semai, koasati)."""
    if name not in GRAMMAR_NAMES:
        raise ValueError(f"no packaged grammar named {name!r}")
    from importlib import resources

    return resources.files("redup").joinpath("data", f"{name}.g").read_text("utf-8")


class Macro(NamedTuple):
    params: tuple[str, ...]
    body: object
    line: int


class Grammar(NamedTuple):
    """Parsed grammar file: the segment inventory plus named definitions."""

    inventory: tuple[tuple[str, str, tuple[str, ...]], ...]
    macros: dict[str, Macro]


def parse_grammar(src: str) -> Grammar:
    p = _Parser(tokenize_source(src))
    inventory: list[tuple[str, str, tuple[str, ...]]] = []
    macros: dict[str, Macro] = {}
    while p.peek().kind != "eof":
        t = p.next()
        if t.kind == "name" and t.text == "segment":
            fields = []
            while not p.at("."):
                ft = p.next()
                if ft.kind not in ("name", "var"):
                    raise GrammarError(
                        f"bad token {ft.text or ft.kind!r} in segment declaration",
                        ft.line,
                        ft.col,
                    )
                fields.append(ft.text)
            p.expect(".")
            if len(fields) < 2:
                raise GrammarError(
                    "segment declaration needs a token and vowel/consonant",
                    t.line,
                    t.col,
                )
            inventory.append((fields[0], fields[1], tuple(fields[2:])))
            continue
        if t.kind != "name":
            raise GrammarError(
                f"expected a definition, found {t.text or t.kind!r}", t.line, t.col
            )
        if t.text in BUILTIN_NAMES or t.text == "segment":
            raise GrammarError(f"cannot redefine {t.text!r}", t.line, t.col)
        params: tuple[str, ...] = ()
        if p.at("("):
            p.next()
            names = []
            while not p.at(")"):
                pt = p.next()
                if pt.kind != "var":
                    raise GrammarError(
                        "macro parameters must be capitalized", pt.line, pt.col
                    )
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
