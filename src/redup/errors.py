"""Exception types shared across the toolkit."""


class Frozen:
    """Base of the immutable slotted classes (`Alphabet`, `Fsa`).

    Assignment and deletion raise `dataclasses.FrozenInstanceError`, as on
    a frozen dataclass, so callers catch the standard type.  It is imported
    only when raised: loading the toolkit does not load `dataclasses`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")


class RedupError(Exception):
    """Base class for all toolkit errors."""


class InventoryError(RedupError):
    """A token is not declared in the segment inventory, or the inventory
    itself is ill-formed (duplicate or prefix-ambiguous tokens)."""


class AutomatonError(RedupError):
    """Structural problem with an automaton (bad state index, empty label,
    mismatched alphabets)."""


class EnumerationCapError(RedupError):
    """Language enumeration exceeded its result cap.

    `partial` holds what the enumeration found before it overflowed: the
    results of every path length below the one that overflowed, the same
    set the largest bound that fits returns.  It is empty on an error built
    by hand.
    """

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded the result cap of {cap}")
        self.cap = cap
        self.partial = frozenset()


class GrammarError(RedupError):
    """Syntax or well-formedness error in a grammar source file.

    Carries the source position so the CLI can print line:col diagnostics.
    """

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"{line}:{col if col is not None else 0}: {message}"
        super().__init__(message)


class CompileError(RedupError):
    """Semantic error while compiling a regex expression to an automaton
    (unknown name, arity mismatch, recursion, non-monotonic rule, ...)."""


class StemRejectedError(RedupError):
    """A lexical string was emptied by a well-formedness constraint."""

    def __init__(self, stem: str, constraint: str):
        super().__init__(f"stem {stem!r} is rejected by constraint {constraint!r}")
        self.stem = stem
        self.constraint = constraint


# Default cap on the descriptors a lazy automaton may expand.
DEFAULT_BUDGET = 1_000_000


class ExpansionBudgetError(RedupError):
    """A lazy automaton exceeded its descriptor-expansion budget."""

    def __init__(self, budget: int, expanded: int):
        super().__init__(
            f"lazy expansion budget of {budget} exceeded after {expanded} descriptors"
        )
        self.budget = budget
        self.expanded = expanded
