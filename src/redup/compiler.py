"""Compile parsed grammar expressions into automata.

Expressions are typed by evaluation: a name or `~`/`&` combination of names
denotes a symbol set (an int bitmask), everything else denotes an automaton.
A set used where an automaton is expected becomes a single consuming symbol;
production is always explicit (`producer(...)`, or a lexical string, which
spells out as a producing chain).  Applied to a whole automaton, `producer`
and `consumer` retype every arc, the outermost application winning.

The same evaluator drives both engines: with `engine="lazy"` the composition
seams — intersection of automata, the three enrichments, closure — build
LazyFsa nodes instead, and structural operators (concatenation, union, star)
materialize their operands.
"""

from __future__ import annotations

from .alphabet import Alphabet
from . import dsl
from .dsl import BUILTIN_NAMES, Grammar, Macro
from .enrich import add_repeats, add_self_loops, add_skips
from .errors import CompileError
from .fsa import (
    Fsa,
    build_from_string,
    combine,
    determinize,
    empty_string_fsa,
    never_fsa,
    trim,
)
from .interpret import ProductStats, close, intersect_open
from .lazy import (
    DEFAULT_BUDGET,
    LazyFsa,
    lazy_close,
    lazy_enrich,
    lazy_intersect,
    lazy_wrap,
    materialize,
)

_ENRICH_KIND = {
    "add_self_loops": "self_loops",
    "add_skips": "skips",
    "add_repeats": "repeats",
}
_ENRICH_FN = {
    "add_self_loops": add_self_loops,
    "add_skips": add_skips,
    "add_repeats": add_repeats,
}


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
        return Fsa.from_raw(alphabet, 1, 0, frozenset({0}), tuple(arcs), check=True)
    arc(0, alphabet.complement(banned), 0)
    arc(0, banned, 1)
    arc(1, banned & alphabet.complement(context), 1)
    arc(1, alphabet.complement(banned | context), 0)
    return Fsa.from_raw(alphabet, 2, 0, frozenset({0, 1}), tuple(arcs), check=True)


def _symbol(al: Alphabet, bits: int, pc: bool) -> Fsa:
    """One-symbol machine for a set built from the alphabet's own sets.

    The evaluator rejects empty sets before calling this, and every set it
    builds lies inside sigma, so the machine needs no validation.
    """
    return Fsa.from_raw(al, 2, 0, frozenset({1}), ((0, 1, bits, pc),))


def _retyped(machine: Fsa, pc: bool) -> Fsa:
    """The same machine with every arc made producer (pc) or consumer."""
    return Fsa.from_raw(
        machine.alphabet,
        machine.n,
        machine.start,
        machine.finals,
        tuple((s, d, b, pc) for s, d, b, _pc in machine.raw_arcs),
    )


def not_contains(machine: Fsa) -> Fsa:
    """All strings with no factor in the given language (a consuming filter)."""
    al = machine.alphabet
    blind = _retyped(machine, False)
    anything = combine("star", [_symbol(al, al.sigma, False)])
    matcher = determinize(combine("concat", [anything, blind, anything]))
    # complete the DFA with a sink, then swap finals
    sink = matcher.n
    arcs = list(matcher.raw_arcs)
    covered = [0] * (matcher.n + 1)
    for s, _d, b, _pc in matcher.raw_arcs:
        covered[s] |= b
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
    seg = al.seg
    arcs = [(s, d, b & seg, pc) for s, d, b, pc in machine.raw_arcs if b & seg]
    arcs.extend((q, q, al.tech, False) for q in range(machine.n))
    return trim(Fsa.from_raw(al, machine.n, machine.start, machine.finals, tuple(arcs)))


class CompiledGrammar:
    """A grammar file bound to its alphabet, ready to compile entry points."""

    def __init__(self, grammar: Grammar):
        self.alphabet = Alphabet.from_inventory(grammar.inventory)
        self.macros = dict(grammar.macros)
        for name in self.macros:
            if self.alphabet.has_set(name):
                raise CompileError(f"definition {name!r} shadows a symbol set")

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

    # -- typing helpers ----------------------------------------------------

    def machine(self, v):
        """Coerce to an eager automaton (sets become one consuming symbol)."""
        if isinstance(v, int):
            if not v:
                raise CompileError("empty symbol set used as an automaton")
            return _symbol(self.al, v, False)
        if isinstance(v, LazyFsa):
            return materialize(v, self.budget)
        return v

    def lazy(self, v) -> LazyFsa:
        if isinstance(v, LazyFsa):
            return v
        return lazy_wrap(self.machine(v))

    def set_of(self, v, what: str) -> int:
        if not isinstance(v, int):
            raise CompileError(f"{what} must be a symbol set, not an automaton")
        return v

    # -- evaluation ---------------------------------------------------------

    def eval(self, node, env):
        method = getattr(self, "_eval_" + type(node).__name__.lower(), None)
        if method is None:
            raise CompileError(f"cannot compile {type(node).__name__}")
        return method(node, env)

    def _eval_empty(self, node, env):
        return empty_string_fsa(self.al)

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
        parts = [self.machine(self.eval(x, env)) for x in node.items]
        return combine("concat", parts)

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
                return _symbol(self.al, v, pc)
            return _retyped(self.machine(v), pc)
        if name in _ENRICH_KIND:
            v = self._one(name, args, env)
            if self.engine == "lazy":
                return lazy_enrich(self.lazy(v), _ENRICH_KIND[name], self.budget)
            return _ENRICH_FN[name](self.machine(v))
        if name == "closed_interpretation":
            v = self._one(name, args, env)
            if self.engine == "lazy":
                return lazy_close(self.lazy(v))
            return close(self.machine(v))
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

    def _one(self, name, args, env):
        if len(args) != 1:
            raise CompileError(f"{name} takes one argument, got {len(args)}")
        return self.eval(args[0], env)

    def _expand(self, name, args, env):
        macro: Macro = self.macros[name]
        if len(args) != len(macro.params):
            raise CompileError(
                f"{name} takes {len(macro.params)} argument(s), got {len(args)}"
            )
        if name in self.stack:
            chain = " -> ".join(self.stack + [name])
            raise CompileError(f"recursive definition: {chain}")
        bound = {p: self.eval(a, env) for p, a in zip(macro.params, args)}
        self.stack.append(name)
        try:
            return self.eval(macro.body, bound)
        finally:
            self.stack.pop()
