"""Command-line front end.

Four verbs over a grammar file: `compile` writes the normalized automaton
dump, `generate` enumerates word forms, `parse` answers ACCEPT/REJECT for a
surface string, and `dump-dot` exports Graphviz.  Exit codes are a stable
scripting contract: 0 for success or ACCEPT, 1 for REJECT or an empty
language, 2 for usage, grammar, or compile errors.

A grammar argument may be a path or the bare name of one of the packaged
analyses (bambara, semai, koasati).  `--lazy`/`--eager` select the engine;
the default comes from `--config FILE` (an INI file with a `[redup]`
section), then the REDUP_ENGINE environment variable, then `eager`.
"""

import argparse
import configparser
import os
import sys
from pathlib import Path

from .analyses import GRAMMAR_NAMES, grammar_source
from .compiler import compile_grammar
from .dump import dump_dot, dump_text
from .errors import EnumerationCapError, RedupError
from .fsa import (
    Fsa,
    canonical,
    enumerate_label_paths,
    has_cycle,
    is_empty,
    project_surface,
    surface_strings,
)
from .interpret import close, intersect_open, prepare_parse_input
from .lazy import LazyFsa, is_empty_lazy, lazy_close, lazy_intersect, materialize

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2

ENGINES = ("eager", "lazy")


class _UsageError(Exception):
    pass


def _read_grammar(spec: str) -> str:
    path = Path(spec)
    if path.exists():
        return path.read_text("utf-8")
    name = spec[:-2] if spec.endswith(".g") else spec
    if name in GRAMMAR_NAMES:
        return grammar_source(name)
    raise _UsageError(f"no grammar file or packaged grammar named {spec!r}")


def _read_config(path: str) -> dict:
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as err:
        raise _UsageError(f"cannot read config file: {err}") from err
    except configparser.Error as err:
        raise _UsageError(f"bad config file: {err}") from err
    if not parser.has_section("redup"):
        return {}
    return dict(parser.items("redup"))


def _resolve_engine(args, config: dict) -> str:
    if getattr(args, "lazy", False):
        return "lazy"
    if getattr(args, "eager", False):
        return "eager"
    for source, value in (
        ("config file", config.get("engine")),
        ("REDUP_ENGINE", os.environ.get("REDUP_ENGINE")),
    ):
        if value:
            if value not in ENGINES:
                raise _UsageError(f"{source} asks for unknown engine {value!r}")
            return value
    return "eager"


def _resolve_max(args, config: dict):
    if getattr(args, "max", None) is not None:
        return args.max
    raw = config.get("max")
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise _UsageError(f"config max must be an integer, not {raw!r}") from None
    if value < 0:
        raise _UsageError("config max must be >= 0")
    return value


def _resolve_mode(args, config: dict) -> str:
    if getattr(args, "raw", False):
        return "raw"
    if getattr(args, "surface", False):
        return "surface"
    mode = config.get("mode")
    if mode is None:
        return "surface"
    if mode not in ("surface", "raw"):
        raise _UsageError(f"config mode must be surface or raw, not {mode!r}")
    return mode


def _default_entry(cg) -> str:
    names = [name for name, macro in cg.macros.items() if not macro.params]
    if not names:
        raise _UsageError("grammar has no parameterless definition to use as an entry")
    return names[-1]


def _compile_entry(cg, entry: str, engine: str) -> Fsa:
    machine = cg.compile(entry, engine=engine)
    if isinstance(machine, LazyFsa):
        machine = materialize(machine)
    return machine


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, "utf-8")


# -- verbs -------------------------------------------------------------


def cmd_compile(args, config) -> int:
    cg = compile_grammar(_read_grammar(args.grammar))
    entry = args.entry or _default_entry(cg)
    machine = canonical(_compile_entry(cg, entry, _resolve_engine(args, config)))
    counts = f"{entry}: {machine.n} states, {len(machine.raw_arcs)} arcs\n"
    if args.output is None:
        _emit(dump_text(machine), None)
        sys.stderr.write(counts)
    else:
        _emit(dump_text(machine), args.output)
        sys.stdout.write(counts)
    return EXIT_OK


def cmd_dump_dot(args, config) -> int:
    cg = compile_grammar(_read_grammar(args.grammar))
    entry = args.entry or _default_entry(cg)
    machine = canonical(_compile_entry(cg, entry, _resolve_engine(args, config)))
    _emit(dump_dot(machine, name=entry), args.output)
    return EXIT_OK


def _climb(enumerate_at, max_len: int):
    """Enumerate at growing bounds so a blown cap still yields the forms
    found below it (partial output plus a warning beats none)."""
    try:
        return enumerate_at(max_len), False
    except EnumerationCapError:
        pass
    found = set()
    for bound in range(max_len):
        try:
            found = enumerate_at(bound)
        except EnumerationCapError:
            break
    return found, True


def cmd_generate(args, config) -> int:
    cg = compile_grammar(_read_grammar(args.grammar))
    mode = _resolve_mode(args, config)
    max_len = _resolve_max(args, config)
    machine = _compile_entry(cg, args.entry, _resolve_engine(args, config))
    if is_empty(machine):
        sys.stderr.write(f"{args.entry}: empty language\n")
        return EXIT_REJECT

    if mode == "surface":
        cyclic = has_cycle(project_surface(machine))

        def enumerate_at(bound):
            return surface_strings(machine, max_len=bound)

    else:
        cyclic = has_cycle(machine)
        al = cg.alphabet

        def enumerate_at(bound):
            return {
                " ".join(al.format_label(label.bits) for label in path)
                for path in enumerate_label_paths(machine, bound)
            }

    if cyclic and max_len is None:
        raise _UsageError(f"{args.entry} has an infinite language; pass --max to bound it")
    bound = max_len if max_len is not None else machine.n
    forms, truncated = _climb(enumerate_at, bound)
    for form in sorted(forms):
        sys.stdout.write(form + "\n")
    if truncated:
        sys.stderr.write("warning: enumeration cap exceeded, output is partial\n")
    elif cyclic:
        sys.stderr.write(f"warning: infinite language truncated at length {bound}\n")
    return EXIT_OK


def cmd_parse(args, config) -> int:
    cg = compile_grammar(_read_grammar(args.grammar))
    cg.alphabet.tokenize(args.surface)  # unknown token -> usage error
    engine = _resolve_engine(args, config)
    parse_input = prepare_parse_input(cg.alphabet, args.surface)
    if engine == "lazy":
        machine = cg.compile(args.entry, engine="lazy")
        empty = is_empty_lazy(lazy_close(lazy_intersect(machine, parse_input)))
    else:
        machine = cg.compile(args.entry)
        empty = is_empty(close(intersect_open(machine, parse_input)))
    sys.stdout.write("REJECT\n" if empty else "ACCEPT\n")
    return EXIT_REJECT if empty else EXIT_OK


# -- wiring -------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    engine = shared.add_mutually_exclusive_group()
    engine.add_argument("--lazy", action="store_true", help="use the lazy engine")
    engine.add_argument("--eager", action="store_true", help="use the eager engine")
    shared.add_argument("--config", metavar="FILE", help="INI file, [redup] section")

    parser = argparse.ArgumentParser(
        prog="redup",
        description="Finite-state reduplication toolkit.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("compile", parents=[shared], help="write a normalized dump")
    p.add_argument("grammar")
    p.add_argument("entry", nargs="?", help="defaults to the last definition")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(run=cmd_compile)

    p = sub.add_parser("generate", parents=[shared], help="enumerate word forms")
    p.add_argument("grammar")
    p.add_argument("entry")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--surface", action="store_true", help="surface strings (default)")
    mode.add_argument("--raw", action="store_true", help="full symbol paths")
    p.add_argument("--max", type=int, metavar="N", help="bound path length")
    p.set_defaults(run=cmd_generate)

    p = sub.add_parser("parse", parents=[shared], help="accept or reject a string")
    p.add_argument("grammar")
    p.add_argument("entry")
    p.add_argument("surface")
    p.set_defaults(run=cmd_parse)

    p = sub.add_parser("dump-dot", parents=[shared], help="export Graphviz")
    p.add_argument("grammar")
    p.add_argument("entry", nargs="?", help="defaults to the last definition")
    p.add_argument("-o", "--output", metavar="FILE")
    p.set_defaults(run=cmd_dump_dot)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "max", None) is not None and args.max < 0:
        parser.error("--max must be >= 0")
    try:
        config = _read_config(args.config) if args.config else {}
        return args.run(args, config)
    except _UsageError as err:
        sys.stderr.write(f"redup: {err}\n")
        return EXIT_USAGE
    except RedupError as err:
        sys.stderr.write(f"redup: {err}\n")
        return EXIT_USAGE
    except OSError as err:
        sys.stderr.write(f"redup: {err}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
