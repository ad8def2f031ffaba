"""Compile parsed grammar expressions into automata.

Expressions are typed by evaluation: a name or `~`/`&` combination of names
denotes a symbol set (an int bitmask), everything else denotes an automaton.
A set used where an automaton is expected becomes a single consuming symbol;
production is always explicit (`producer(...)`, or a lexical string, which
spells out as a producing chain).  Applied to a whole automaton, `producer`
and `consumer` retype every arc, the outermost application winning.

The same evaluator drives both engines: with `engine="lazy"` the two
composition seams — intersection of automata and closure — build LazyFsa
nodes instead.  Every other operator, the three enrichments included,
materializes its operands and is the eager one.  `redup.lazy` is imported
only when a compile asks for that engine, so eager compiles never load it.

`closed_interpretation` of an `&` chain evaluates the chain's operands once
each, typed as `&` types them, as automata; a hoisted `&` inside the chain
counts as one operand.  Both engines then join them in `closing_order`:
the others openly in source order, the one with the most arcs last.  The
eager engine passes them to `close`, which builds that last join as one
closed product; the lazy engine builds
`lazy_close(lazy_intersect(...(lazy_intersect(a, b), ...), largest))`.

Parameter-free subexpressions of parameterised definitions are evaluated
once per `compile()`: the grammar marks the largest subtrees of each such
body that use no parameter, and the evaluator keeps their values for the
rest of the call.  A stem macro's constraint is thus built once, not once
per stem.  Only values that evaluated successfully are kept, so an error
raises again wherever it is reached.

`[]`, the empty-string machine, is the unit of concatenation: built once
per `compile()`, it drops out of every concatenation, and a concatenation
left with one trim part is that part, not the copy `combine` would number
anew.  The two are isomorphic with the same arcs out of each state, in
order, and a product numbers pairs in the order it finds them, so every
product built on either is the same machine.

The evaluator counts how deep its calls nest, `closed_interpretation`'s `&`
chains included, and fails beyond `MAX_DEPTH` with the call path.
"""

from __future__ import annotations

from functools import reduce

from .alphabet import Alphabet
from . import dsl
from .dsl import BUILTIN_NAMES, Grammar, Macro
from .enrich import add_repeats, add_self_loops, add_skips
from .errors import DEFAULT_BUDGET, CompileError
from .fsa import (
    Fsa,
    _marked,
    build_from_string,
    combine,
    determinize,
    empty_string_fsa,
    never_fsa,
    symbol_fsa,
    trim,
)
from .interpret import ProductStats, close, closing_order, intersect_open

# how deep one evaluation may nest; at most 4 Python frames per level, so a
# deep grammar raises instead of exhausting Python's stack
MAX_DEPTH = 150

_ENRICH_FN = {
    "add_self_loops": add_self_loops,
    "add_skips": add_skips,
    "add_repeats": add_repeats,
}


def lazy_intersect(a, b):
    """`redup.lazy.lazy_intersect`; the lazy engine is imported on first use."""
    from . import lazy

    return lazy.lazy_intersect(a, b)


def compile_rule(alphabet: Alphabet, subject: int, outcome: int, context: int) -> Fsa:
    """Two-state scanner for `subject --> (outcome / context)`.

    Reading a subject symbol realized outside the outcome arms the scanner;
    a context symbol while armed kills the path.  Both states accept, so a
    string-final subject is unconstrained.
    """
    effective = subject & outcome
    if subject and not effective:
        raise CompileError(
            "rule outcome shares no symbols with its subject; "
            "no string could ever satisfy it"
        )
    banned = subject & alphabet.complement(effective)
    arcs = []

    def arc(src, bits, dst):
        if bits:
            arcs.append((src, dst, bits, False))

    if not banned:
        arc(0, alphabet.sigma, 0)
        return _marked(Fsa.from_raw(alphabet, 1, 0, frozenset({0}), tuple(arcs), check=True))
    arc(0, alphabet.complement(banned), 0)
    arc(0, banned, 1)
    arc(1, banned & alphabet.complement(context), 1)
    arc(1, alphabet.complement(banned | context), 0)
    return _marked(Fsa.from_raw(alphabet, 2, 0, frozenset({0, 1}), tuple(arcs), check=True))


def _retyped(machine: Fsa, pc: bool) -> Fsa:
    """The same machine, as trim, with every arc made producer (pc) or consumer."""
    arcs = tuple((s, d, b, pc) for s, d, b, _pc in machine.raw_arcs)
    m = Fsa.from_raw(machine.alphabet, machine.n, machine.start, machine.finals, arcs)
    return _marked(m, machine._trim)


def not_contains(machine: Fsa) -> Fsa:
    """All strings with no factor in the given language (a consuming filter)."""
    al = machine.alphabet
    blind = _retyped(machine, False)
    anything = combine("star", [symbol_fsa(al, al.sigma)])
    matcher = determinize(combine("concat", [anything, blind, anything]))
    # complete the DFA with a sink, then swap finals
    sink = matcher.n
    arcs = list(matcher.raw_arcs)
    covered = matcher.out_bits() + [0]
    for q in range(matcher.n + 1):
        missing = al.sigma & ~covered[q]
        if missing:
            arcs.append((q, sink, missing, False))
    finals = frozenset(q for q in range(matcher.n + 1) if q not in matcher.finals)
    return trim(Fsa.from_raw(al, matcher.n + 1, matcher.start, finals, tuple(arcs)))


def ignore_technicals(machine: Fsa) -> Fsa:
    """Make a constraint blind to copy/skip symbols.

    Every arc is restricted to its segment symbols (arcs that carried only
    technical symbols disappear), and every state gets a consuming
    technical-symbol self-loop, so repeats and skips pass through anywhere
    without advancing the constraint.
    """
    al = machine.alphabet
    seg, tech = al.seg, al.tech
    arcs = [(s, d, b & seg, pc) for s, d, b, pc in machine.raw_arcs if b & seg]
    arcs.extend((q, q, tech, False) for q in range(machine.n))
    return trim(Fsa.from_raw(al, machine.n, machine.start, machine.finals, tuple(arcs)))


def _hoisted_subtrees(body) -> list:
    """The largest subtrees of a macro body that use no parameter.

    Each one sits directly under a node that does use one, so its value is
    the same on every call of the macro.
    """
    order, stack = [], [body]
    while stack:  # pre-order, last child first: reversed, it is post-order
        order.append(stack.pop())
        stack.extend(dsl._children(order[-1]))
    uses: set[int] = set()  # ids of the nodes that use a parameter
    found = []
    for node in reversed(order):
        kids = list(dsl._children(node))
        if isinstance(node, dsl.Var) or any(id(k) in uses for k in kids):
            uses.add(id(node))
            found.extend(k for k in kids if id(k) not in uses)
    return found


class CompiledGrammar:
    """A grammar file bound to its alphabet, ready to compile entry points."""

    def __init__(self, grammar: Grammar):
        self.alphabet = Alphabet.from_inventory(grammar.inventory)
        self.macros = dict(grammar.macros)
        for name in self.macros:
            if self.alphabet.has_set(name):
                raise CompileError(f"definition {name!r} shadows a symbol set")
        # ids of nodes whose values compile() computes once; self.macros
        # keeps the nodes alive, so the ids stay theirs
        self.hoisted = frozenset(
            id(node)
            for macro in self.macros.values()
            if macro.params
            for node in _hoisted_subtrees(macro.body)
        )

    def compile(
        self,
        entry,
        engine: str = "eager",
        stats: ProductStats | None = None,
        budget: int = DEFAULT_BUDGET,
    ):
        """Compile an entry point (an expression AST or source text).

        Returns an Fsa, or a LazyFsa when `engine="lazy"` and the outermost
        operation is a lazy seam.  A set-valued entry becomes one consuming
        symbol, like a set anywhere else an automaton is expected.
        """
        if engine not in ("eager", "lazy"):
            raise CompileError(f"unknown engine {engine!r}")
        if isinstance(entry, str):
            entry = dsl.parse_expression(entry)
        ev = _Evaluator(self, engine, stats, budget)
        value = ev.eval(entry, {})
        if isinstance(value, int):
            return ev.machine(value)
        return value


def compile_grammar(source: str) -> CompiledGrammar:
    return CompiledGrammar(dsl.parse_grammar(source))


class _Evaluator:
    def __init__(self, cg: CompiledGrammar, engine, stats, budget):
        self.al = cg.alphabet
        self.macros = cg.macros
        self.engine = engine
        self.stats = stats
        self.budget = budget
        self.stack: list[str] = []
        self.depth = 0  # eval and _and_operands levels open
        self.hoisted = cg.hoisted
        self.memo: dict[int, object] = {}
        self.empty = empty_string_fsa(self.al)  # every `[]` of the compile

    # -- typing helpers ----------------------------------------------------

    def machine(self, v):
        """Coerce to an eager automaton (sets become one consuming symbol)."""
        if isinstance(v, int):
            if not v:
                raise CompileError("empty symbol set used as an automaton")
            return symbol_fsa(self.al, v)
        if isinstance(v, Fsa):
            return v
        from .lazy import materialize

        return materialize(v, self.budget)

    def lazy(self, v):
        from .lazy import LazyFsa, lazy_wrap

        if isinstance(v, LazyFsa):
            return v
        return lazy_wrap(self.machine(v))

    def set_of(self, v, what: str) -> int:
        if not isinstance(v, int):
            raise CompileError(f"{what} must be a symbol set, not an automaton")
        return v

    # -- evaluation ---------------------------------------------------------

    def _too_deep(self) -> CompileError:
        """One level beyond `MAX_DEPTH`; compile() drops the evaluator, so no
        error restores `depth` or `stack`."""
        path = " -> ".join(self.stack) or "the entry"
        return CompileError(f"expression nested more than {MAX_DEPTH} deep: {path}")

    def eval(self, node, env):
        key = id(node)
        if key in self.memo:
            return self.memo[key]
        method = _EVAL.get(type(node))
        if method is None:
            raise CompileError(f"cannot compile {type(node).__name__}")
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self._too_deep()
        value = method(self, node, env)
        self.depth -= 1
        if key in self.hoisted:
            self.memo[key] = value
        return value

    def _eval_empty(self, node, env):
        return self.empty

    def _eval_str(self, node, env):
        return build_from_string(self.al, node.text)

    def _eval_quoted(self, node, env):
        if not self.al.has_set(node.name):
            raise CompileError(f"unknown symbol set {node.name!r}")
        return self.al.named_set(node.name)

    def _eval_var(self, node, env):
        if node.name in env:
            return env[node.name]
        # uppercase segment tokens (Semai E, N, O, A) read as sets, like names
        if self.al.has_set(node.name):
            return self.al.named_set(node.name)
        raise CompileError(f"parameter {node.name} used outside any definition")

    def _eval_name(self, node, env):
        if node.name in self.macros:
            return self._expand(node.name, (), env)
        if self.al.has_set(node.name):
            return self.al.named_set(node.name)
        if node.name in BUILTIN_NAMES:
            raise CompileError(f"{node.name} needs arguments")
        raise CompileError(f"unknown name {node.name!r}")

    def _eval_call(self, node, env):
        name, args = node.name, node.args
        if name in BUILTIN_NAMES:
            return self._builtin(name, args, env)
        if name in self.macros:
            return self._expand(name, args, env)
        raise CompileError(f"unknown name {name!r}")

    def _eval_concat(self, node, env):
        """`[]`, the empty-string machine, is the unit: a part that is one
        drops out, and a trim part left alone is the concatenation itself."""
        parts = [m for m in (self.machine(self.eval(x, env)) for x in node.items)
                 if m.n != 1 or m.raw_arcs or not m.finals]
        if len(parts) == 1 and parts[0]._trim:
            return parts[0]
        return combine("concat", parts, self.al)

    def _eval_union(self, node, env):
        if not node.items:
            return never_fsa(self.al)
        parts = [self.machine(self.eval(x, env)) for x in node.items]
        return combine("union", parts)

    def _eval_star(self, node, env):
        return combine("star", [self.machine(self.eval(node.item, env))])

    def _eval_opt(self, node, env):
        return combine("optional", [self.machine(self.eval(node.item, env))])

    def _eval_not(self, node, env):
        bits = self.eval(node.item, env)
        if not isinstance(bits, int):
            raise CompileError(
                "~ complements a symbol set; for automata use not_contains"
            )
        return self.al.complement(bits)

    def _eval_and(self, node, env):
        left = self.eval(node.left, env)
        right = self.eval(node.right, env)
        if isinstance(left, int) and isinstance(right, int):
            return left & right
        if self.engine == "lazy":
            return lazy_intersect(self.lazy(left), self.lazy(right))
        return intersect_open(self.machine(left), self.machine(right), self.stats)

    def _eval_rule(self, node, env):
        subject = self.set_of(self.eval(node.subject, env), "a rule's subject")
        outcome = self.set_of(self.eval(node.outcome, env), "a rule's outcome")
        context = self.set_of(self.eval(node.context, env), "a rule's context")
        return compile_rule(self.al, subject, outcome, context)

    # -- builtins and macros --------------------------------------------------

    def _builtin(self, name, args, env):
        if name in ("producer", "consumer"):
            v = self._one(name, args, env)
            pc = name == "producer"
            if isinstance(v, int):
                if not v:
                    raise CompileError(f"{name}() of an empty symbol set")
                return symbol_fsa(self.al, v, pc)
            return _retyped(self.machine(v), pc)
        if name in _ENRICH_FN:
            # a machine with no finals accepts nothing enriched or not: a
            # rejected stem costs no enrichment
            m = self.machine(self._one(name, args, env))
            return _ENRICH_FN[name](m) if m.finals else m
        if name == "closed_interpretation":
            chain = self._and_operands(self._arg(name, args), env)
            operands = [self.machine(v) for v in chain]
            if self.engine == "lazy":
                from .lazy import lazy_close

                return lazy_close(reduce(lazy_intersect, closing_order(operands)))
            return close(*operands, stats=self.stats)
        if name == "not_contains":
            v = self._one(name, args, env)
            return not_contains(self.machine(v))
        if name == "ignore_technical_symbols_in":
            v = self._one(name, args, env)
            return ignore_technicals(self.machine(v))
        if name == "stringToAutomaton":
            v = self._one(name, args, env)
            if isinstance(v, int):
                raise CompileError("stringToAutomaton expects a string")
            return v
        raise AssertionError(name)

    def _arg(self, name, args):
        if len(args) != 1:
            raise CompileError(f"{name} takes one argument, got {len(args)}")
        return args[0]

    def _one(self, name, args, env):
        return self.eval(self._arg(name, args), env)

    def _and_operands(self, node, env) -> list:
        """The operands of the `&` chain `node`, each evaluated once.

        Typed as `_eval_and` types them: two symbol-set sides merge into one
        set, any other pair of sides becomes machines.  A hoisted `&` is one
        operand, so its memoised value is reused.
        """
        if not isinstance(node, dsl.And) or id(node) in self.hoisted:
            return [self.eval(node, env)]
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise self._too_deep()
        left = self._and_operands(node.left, env)
        right = self._and_operands(node.right, env)
        self.depth -= 1
        if len(left) == len(right) == 1:
            if isinstance(left[0], int) and isinstance(right[0], int):
                return [left[0] & right[0]]
        return [self.machine(v) for v in left + right]

    def _expand(self, name, args, env):
        macro: Macro = self.macros[name]
        if len(args) != len(macro.params):
            raise CompileError(
                f"{name} takes {len(macro.params)} argument(s), got {len(args)}"
            )
        if name in self.stack:
            raise CompileError("recursive definition: " + " -> ".join(self.stack + [name]))
        bound = {p: self.eval(a, env) for p, a in zip(macro.params, args)}
        self.stack.append(name)
        value = self.eval(macro.body, bound)
        self.stack.pop()
        return value


# node class -> the `_Evaluator` method that evaluates it, looked up once
_EVAL = {
    node: getattr(_Evaluator, "_eval_" + node.__name__.lower())
    for node in (dsl.Empty, dsl.Str, dsl.Quoted, dsl.Var, dsl.Name, dsl.Call, dsl.Concat,
                 dsl.Union, dsl.Star, dsl.Opt, dsl.Not, dsl.And, dsl.Rule)
}
