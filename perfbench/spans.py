"""Spans around redup's public functions, recorded from outside the package.

``installed(tracer)`` replaces each traced function with a wrapper under
every ``redup`` module name that binds it (``trim`` is bound in
``redup.fsa``, ``redup.interpret``, ``redup.compiler`` and the package
itself), and in module-level dispatch tables such as the compiler's
``_ENRICH_FN``, and restores the originals on exit. Each call becomes one span:
name, parent span, start, end and the work counts read off its arguments
and result. Spans stay in memory until the run ends.

This module imports nothing from redup at load time, so a traced CLI child
can time ``import redup`` on its own.
"""

from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    parent: int  # index into the span list, -1 for a root
    start: float
    end: float
    counts: dict | None


def _product(args, kwargs, result):
    return {"pairs": result[4], "arcs_out": len(result[3])}


def _trim(args, kwargs, result):
    return {"states_in": args[0].n, "states_out": result.n}


def _arcs_added(args, kwargs, result):
    return {"arcs_added": len(result.arcs) - len(args[0].arcs)}


def _validated(args, kwargs, result):
    return {"arcs_validated": len(args[0].arcs)}


class Layer(NamedTuple):
    name: str  # span name, e.g. "fsa.trim"
    module: str
    attr: str  # "trim", or "Fsa.__post_init__" for a method
    count: Callable | None = None


LAYERS = (
    Layer("kernel.product", "redup._kernel", "product", _product),
    Layer("interpret.intersect_open", "redup.interpret", "intersect_open"),
    Layer("interpret.close", "redup.interpret", "close"),
    Layer("interpret.prepare_parse_input", "redup.interpret", "prepare_parse_input"),
    Layer("fsa.trim", "redup.fsa", "trim", _trim),
    Layer("fsa.Fsa", "redup.fsa", "Fsa.__post_init__", _validated),
    Layer("fsa.combine", "redup.fsa", "combine"),
    Layer("fsa.determinize", "redup.fsa", "determinize"),
    Layer("fsa.minimize", "redup.fsa", "minimize"),
    Layer("fsa.canonical", "redup.fsa", "canonical"),
    Layer("fsa.project_surface", "redup.fsa", "project_surface"),
    Layer("fsa.surface_strings", "redup.fsa", "surface_strings"),
    Layer("fsa.is_empty", "redup.fsa", "is_empty"),
    Layer("dump.dump_text", "redup.dump", "dump_text"),
    Layer("enrich.add_self_loops", "redup.enrich", "add_self_loops", _arcs_added),
    Layer("enrich.add_skips", "redup.enrich", "add_skips", _arcs_added),
    Layer("enrich.add_repeats", "redup.enrich", "add_repeats", _arcs_added),
    Layer("compiler.compile", "redup.compiler", "CompiledGrammar.compile"),
    Layer("compiler.not_contains", "redup.compiler", "not_contains"),
    Layer("compiler.ignore_technicals", "redup.compiler", "ignore_technicals"),
    Layer("dsl.parse_grammar", "redup.dsl", "parse_grammar"),
    Layer("cli.main", "redup.cli", "main"),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        # The body repeats span() inline: a generator context manager per
        # call would add to every one of the ~10^5 spans of a traced build.
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_[-1] if open_ else -1
            spans.append(None)
            open_.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                open_.pop()
                spans[index] = Span(name, parent, start, end, None)
            if count is not None:
                spans[index] = spans[index]._replace(counts=count(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, e.g. one operation of a workload."""
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)
        self._open.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, parent, start, end, None)


@contextmanager
def installed(tracer: Tracer):
    """Wrap every layer under every redup module binding it; undo on exit."""
    undo = []
    try:
        for layer in LAYERS:
            module = importlib.import_module(layer.module)
            owner_name, _, attr = layer.attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[attr]
                setattr(owner, attr, tracer.wrap(layer.name, original, layer.count))
                undo.append((owner, attr, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(layer.name, original, layer.count)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "redup" or mod_name.startswith("redup.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
                    elif type(value) is dict:  # dispatch tables such as _ENRICH_FN
                        for k, v in list(value.items()):
                            if v is original:
                                value[k] = wrapper
                                undo.append((value, k, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            if type(owner) is dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# -- span arithmetic -------------------------------------------------------------


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(i, ())):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.end - span.start - covered)
    return out


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, summed self time and summed counts."""
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
        for key, value in (span.counts or {}).items():
            row[key] = row.get(key, 0) + value
    return table


def exact_counts(table: dict[str, dict[str, float]]) -> dict[str, int]:
    """Every count in a summary (times left out): what must repeat exactly."""
    return {
        f"{name}.{key}": value
        for name, row in sorted(table.items())
        for key, value in sorted(row.items())
        if not key.endswith("_s")
    }
