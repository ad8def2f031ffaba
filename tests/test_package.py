"""The package surface and the modules a command loads.

`redup` exports the same names as before `analyses` and `lazy` became
deferred, each the defining module's own object, and a CLI run on the eager
engine never imports `redup.lazy`, `redup.analyses`, `configparser` or
`dataclasses`, and importing `redup.analyses` does not load `redup.lazy`.
Import sets are read in fresh interpreters, since this test process has
already imported everything.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import redup

# Every public name, by the submodule that defines it.
EXPORTS = {
    "alphabet": ["Alphabet", "Kind", "Symbol"],
    "analyses": [
        "Lexicon", "StemSpec", "bambara_pipeline", "build_stem", "load_grammar",
        "semai_pipeline", "wordform",
    ],
    "compiler": [
        "CompiledGrammar", "compile_grammar", "compile_rule", "ignore_technicals",
        "not_contains",
    ],
    "dump": ["dump_dot", "dump_text"],
    "enrich": ["add_repeats", "add_self_loops", "add_skips", "enrich"],
    "errors": [
        "AutomatonError", "CompileError", "EnumerationCapError", "ExpansionBudgetError",
        "GrammarError", "InventoryError", "RedupError", "StemRejectedError",
    ],
    "fsa": [
        "Arc", "Fsa", "Label", "accepts", "build_from_string", "canonical", "combine",
        "determinize", "empty_string_fsa", "enumerate_label_paths", "enumerate_language",
        "is_empty", "language_equal", "minimize", "never_fsa", "normalize",
        "project_surface", "surface_strings", "symbol_fsa", "trim",
    ],
    "interpret": [
        "ProductStats", "close", "intersect_open", "prepare_parse_input",
        "universal_producer",
    ],
    "lazy": [
        "LazyFsa", "is_empty_lazy", "lazy_close", "lazy_enrich", "lazy_intersect",
        "materialize", "total_expansions",
    ],
}

# The public names of `dir(redup)` after `import redup`, as listed before the
# deferral: the exports plus the submodules bound on the package ("enrich"
# is the function, which shadows its module).
PUBLIC_NAMES = sorted(
    {name for names in EXPORTS.values() for name in names}
    | {"alphabet", "analyses", "compiler", "dsl", "dump", "errors", "fsa", "interpret", "lazy"}
)

NEVER_ON_THE_EAGER_CLI = {"redup.lazy", "redup.analyses", "configparser", "dataclasses"}


def _fresh(script: str) -> dict:
    """Run `script` in a new interpreter; its last stdout line is JSON."""
    env = {k: v for k, v in os.environ.items() if k != "REDUP_ENGINE"}
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    return json.loads(done.stdout.splitlines()[-1])


def _modules_added_by(*argvs) -> set[str]:
    """Modules a fresh interpreter gains from `import redup.cli` and the runs."""
    script = f"""
import sys
bare = set(sys.modules)
import json, redup.cli
codes = [redup.cli.main(argv) for argv in {list(map(list, argvs))!r}]
print()
print(json.dumps({{"codes": codes, "added": sorted(set(sys.modules) - bare)}}))
"""
    result = _fresh(script)
    assert result["codes"] == [0] * len(argvs)
    return set(result["added"])


def test_public_names_are_unchanged():
    # in a fresh interpreter: importing redup.cli here also binds redup.cli
    result = _fresh("""
import json, redup
print(json.dumps({
    "dir": [n for n in dir(redup) if not n.startswith("_")],
    "all": redup.__all__,
}))
""")
    assert len(PUBLIC_NAMES) == 70
    assert result["dir"] == PUBLIC_NAMES
    assert result["all"] == PUBLIC_NAMES


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_name_is_the_defining_modules_own(module):
    owner = importlib.import_module(f"redup.{module}")
    for name in EXPORTS[module]:
        namespace = {}
        exec(f"from redup import {name}", namespace)
        assert namespace[name] is getattr(owner, name), name
        assert getattr(redup, name) is getattr(owner, name), name


def test_submodules_are_bound_and_enrich_is_the_function():
    for module in ("alphabet", "analyses", "compiler", "dsl", "dump", "errors", "fsa",
                   "interpret", "lazy"):
        assert getattr(redup, module) is importlib.import_module(f"redup.{module}")
    assert redup.enrich is importlib.import_module("redup.enrich").enrich
    assert callable(redup.enrich)


def test_unknown_names_still_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        redup.nonexistent
    assert not hasattr(redup, "cli_main")


def test_deferred_modules_resolve_on_first_use():
    result = _fresh("""
import json, sys
import redup
before = sorted(m for m in ("redup.lazy", "redup.analyses") if m in sys.modules)
lazy_ok = redup.LazyFsa is redup.lazy.LazyFsa
analyses_ok = redup.analyses.load_grammar is redup.load_grammar
namespace = {}
exec("from redup import *", namespace)
print(json.dumps({
    "before": before,
    "lazy_ok": lazy_ok,
    "analyses_ok": analyses_ok,
    "stored": sorted(n for n in ("LazyFsa", "load_grammar") if n in vars(redup)),
    "star": sorted(n for n in namespace if n != "__builtins__"),
}))
""")
    assert result["before"] == []
    assert result["lazy_ok"] and result["analyses_ok"]
    assert result["stored"] == []  # resolved on each access, never cached
    assert result["star"] == PUBLIC_NAMES


def test_eager_verbs_load_neither_lazy_nor_analyses_nor_their_imports():
    added = _modules_added_by(
        ["compile", "bambara"],
        ["generate", "koasati", "wordform_tahaspin"],
        ["parse", "koasati", "wordform_lexicon", "tahastoopin"],
        ["dump-dot", "semai"],
    )
    assert "redup.cli" in added
    assert not added & NEVER_ON_THE_EAGER_CLI, sorted(added & NEVER_ON_THE_EAGER_CLI)


def test_importing_analyses_does_not_load_the_lazy_engine():
    result = _fresh("""
import json, sys
import redup.analyses
print(json.dumps({"lazy": "redup.lazy" in sys.modules}))
""")
    assert result == {"lazy": False}


def test_lazy_engine_and_config_load_on_request(tmp_path):
    config = tmp_path / "redup.ini"
    config.write_text("[redup]\nengine = lazy\n", "utf-8")
    added = _modules_added_by(
        ["parse", "koasati", "wordform_tahaspin", "tahastoopin", "--config", str(config)]
    )
    assert {"redup.lazy", "configparser"} <= added
    assert "redup.analyses" not in added


# Module-level functions that nothing in `src/redup` calls and `redup` does
# not export, each with the reason it stays.
UNREFERENCED = {
    "surface_path": "kept for the rejected-parse report of ROADMAP item 8",
}


def test_every_module_level_function_is_used_or_exported():
    """A function nothing refers to, in code rather than docstrings, and
    that the package does not export, is a leftover: each module-level
    function of `src/redup/*.py` must be named by some `Name`, `Attribute`
    or import alias there (its own body aside), or be in `redup.__all__`.
    Dunder hooks are called by Python itself."""
    defined, used = {}, set()
    for path in sorted(Path(redup.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text("utf-8")).body:
            is_def = isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            own = {stmt.name} if is_def else set()
            for name in own:
                defined[name] = path.name
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names = {node.id}
                elif isinstance(node, ast.Attribute):
                    names = {node.attr}
                elif isinstance(node, ast.alias):
                    names = {node.name.rpartition(".")[2], node.asname}
                else:
                    continue
                used |= names - own
    orphans = {f"{module}:{name}" for name, module in defined.items()
               if name not in used and name not in redup.__all__
               and not (name.startswith("__") and name.endswith("__"))
               and name not in UNREFERENCED}
    assert not orphans, sorted(orphans)
    assert set(UNREFERENCED) <= set(defined) - used
