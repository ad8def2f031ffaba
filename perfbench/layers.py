"""The per-layer metrics of the traced run, and what each should move.

A per-layer metric is named ``<workload>.<span>.<field>``: ``calls`` counts
spans, ``self_s`` sums their self time, any other field sums a work count
(see ``spans.LAYERS``). Times are totals over one traced pass of the
workload; counts are exact and must repeat between passes.

``MOVES`` is the map from each layer to the end-to-end figures it should
move. ``compile_s``, ``dump_s`` and ``generate_s`` are the stages of one
``lexicon_build`` operation, printed in the run's report; together they are
its ``latency_p50_ms``.
"""

from __future__ import annotations

# (span, fields, {workload: what it should move there})
MOVES = (
    ("kernel.product", ("calls", "self_s", "pairs", "arcs_out"),
     {"lexicon_build": "compile_s, latency_p50_ms", "parse_stream": "latency_p50_ms"}),
    ("kernel.product", ("self_s", "pairs"),
     {"cli_cold": "no change to latency_p50_ms (products are small here)"}),
    ("interpret.intersect_open", ("self_s",),
     {"lexicon_build": "compile_s, latency_p50_ms", "parse_stream": "latency_p50_ms"}),
    ("interpret.close", ("self_s",),
     {"lexicon_build": "compile_s, latency_p50_ms", "parse_stream": "latency_p50_ms"}),
    ("interpret.prepare_parse_input", ("self_s",), {"parse_stream": "latency_p50_ms"}),
    ("fsa.trim", ("calls", "self_s", "states_in", "states_out"),
     {"lexicon_build": "compile_s, latency_p50_ms", "parse_stream": "latency_p50_ms"}),
    ("fsa.Fsa", ("constructed", "arcs_validated", "validate_s"),
     {"lexicon_build": "compile_s, latency_p50_ms", "parse_stream": "latency_p50_ms"}),
    ("fsa.combine", ("calls", "self_s"),
     {"lexicon_build": "compile_s, latency_p50_ms", "cli_cold": "latency_p50_ms"}),
    ("fsa.determinize", ("self_s",),
     {"lexicon_build": "compile_s, latency_p50_ms", "cli_cold": "latency_p50_ms"}),
    ("fsa.minimize", ("self_s",), {"lexicon_build": "dump_s, latency_p50_ms"}),
    ("fsa.canonical", ("self_s",), {"lexicon_build": "dump_s, latency_p50_ms"}),
    ("dump.dump_text", ("self_s",), {"lexicon_build": "dump_s, latency_p50_ms"}),
    ("fsa.project_surface", ("self_s",), {"lexicon_build": "generate_s, latency_p50_ms"}),
    ("fsa.surface_strings", ("self_s",), {"lexicon_build": "generate_s, latency_p50_ms"}),
    ("fsa.is_empty", ("self_s",),
     {"lexicon_build": "generate_s, latency_p50_ms", "parse_stream": "latency_p50_ms"}),
    ("enrich.add_self_loops", ("self_s", "arcs_added"), {"lexicon_build": "compile_s, latency_p50_ms"}),
    ("enrich.add_skips", ("self_s", "arcs_added"), {"lexicon_build": "compile_s, latency_p50_ms"}),
    ("enrich.add_repeats", ("self_s", "arcs_added"), {"lexicon_build": "compile_s, latency_p50_ms"}),
    ("compiler.compile", ("self_s",),
     {"lexicon_build": "compile_s, latency_p50_ms", "cli_cold": "latency_p50_ms"}),
    ("compiler.not_contains", ("calls", "self_s"),
     {"lexicon_build": "compile_s, latency_p50_ms", "cli_cold": "latency_p50_ms"}),
    ("compiler.ignore_technicals", ("calls", "self_s"),
     {"lexicon_build": "compile_s, latency_p50_ms", "cli_cold": "latency_p50_ms"}),
    ("dsl.parse_grammar", ("self_s",),
     {"lexicon_build": "compile_s, latency_p50_ms", "cli_cold": "latency_p50_ms, setup_s"}),
    ("cli.main", ("self_s",), {"cli_cold": "latency_p50_ms"}),
)

# Figures measured around the spans rather than summed from them.
EXTRA = {
    "lexicon_build": (
        ("machine.states", "count", "compile_s"),
        ("machine.arcs", "count", "compile_s"),
        ("trace.overhead_frac", "fraction", "traced vs. untraced latency_p50_ms"),
    ),
    "parse_stream": (
        ("machine.states", "count", "setup_s"),
        ("machine.arcs", "count", "setup_s"),
        ("trace.overhead_frac", "fraction", "traced vs. untraced latency_p50_ms"),
    ),
    "cli_cold": (
        ("cli.import_s", "s", "latency_p50_ms, setup_s"),
        ("trace.overhead_frac", "fraction", "traced vs. untraced latency_p50_ms"),
    ),
}

WORKLOADS = ("lexicon_build", "parse_stream", "cli_cold")

# Fields of ``fsa.Fsa`` (spans around ``Fsa.__post_init__``) named for what
# they count.
_ALIASES = {"constructed": "calls", "validate_s": "self_s"}


def _unit(field: str) -> str:
    return "s" if field.endswith("_s") else "count"


def metrics() -> list[dict]:
    """Every per-layer metric, in BENCHMARK.json's form plus its ``moves``."""
    out = []
    for workload in WORKLOADS:
        for span, fields, moves in MOVES:
            if workload in moves:
                for field in fields:
                    out.append({
                        "name": f"{workload}.{span}.{field}",
                        "unit": _unit(field),
                        "better": "lower",
                        "moves": moves[workload],
                    })
        for name, unit, moves in EXTRA[workload]:
            out.append({"name": f"{workload}.{name}", "unit": unit,
                        "better": "lower", "moves": moves})
    return out


def values(workload: str, table: dict, extra: dict) -> dict[str, float]:
    """The workload's per-layer figures from a span summary and extras."""
    out = {}
    for span, fields, moves in MOVES:
        if workload in moves:
            row = table.get(span, {})
            for field in fields:
                out[f"{workload}.{span}.{field}"] = row.get(_ALIASES.get(field, field), 0)
    for name, _unit_, _moves in EXTRA[workload]:
        out[f"{workload}.{name}"] = extra[name]
    return out
