"""Finite-state morphology via resource-typed automaton intersection.

The core modules load with the package.  `redup.analyses` and `redup.lazy`,
and the names below exported from them, load on first use (PEP 562), so a
command that needs neither never imports them.
"""

from .alphabet import Alphabet, Kind, Symbol
from .compiler import (
    CompiledGrammar,
    compile_grammar,
    compile_rule,
    ignore_technicals,
    not_contains,
)
from .dump import dump_dot, dump_text
from .enrich import add_repeats, add_self_loops, add_skips, enrich
from .errors import (
    AutomatonError,
    CompileError,
    EnumerationCapError,
    ExpansionBudgetError,
    GrammarError,
    InventoryError,
    RedupError,
    StemRejectedError,
)
from .fsa import (
    Arc,
    Fsa,
    Label,
    accepts,
    build_from_string,
    canonical,
    combine,
    determinize,
    empty_string_fsa,
    enumerate_label_paths,
    enumerate_language,
    is_empty,
    language_equal,
    minimize,
    never_fsa,
    normalize,
    project_surface,
    surface_strings,
    symbol_fsa,
    trim,
)
from .interpret import (
    ProductStats,
    close,
    intersect_open,
    prepare_parse_input,
    universal_producer,
)

__version__ = "0.1.0"

_DEFERRED = {
    "analyses": (
        "Lexicon",
        "StemSpec",
        "bambara_pipeline",
        "build_stem",
        "load_grammar",
        "semai_pipeline",
        "wordform",
    ),
    "lazy": (
        "LazyFsa",
        "is_empty_lazy",
        "lazy_close",
        "lazy_enrich",
        "lazy_intersect",
        "materialize",
        "total_expansions",
    ),
}
_OWNER = {name: module for module, names in _DEFERRED.items() for name in names}

# what `from redup import *` binds: every public name, deferred ones included
__all__ = sorted(
    [name for name in globals() if not name.startswith("_")] + [*_DEFERRED, *_OWNER]
)


def __getattr__(name):
    # Resolved on every access and never stored here, so the binding stays
    # the submodule's own (anything that rebinds it there is seen here too).
    module = _OWNER.get(name, name)
    if module not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    owner = import_module(f"{__name__}.{module}")
    return owner if module == name else getattr(owner, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
