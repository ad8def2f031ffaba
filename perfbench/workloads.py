"""The three workloads, each a closed loop driven from this one process.

* ``lexicon_build``: compile a seeded 400-stem Koasati lexicon, dump it and
  enumerate its forms, as ``redup compile`` and ``redup generate`` do.
* ``parse_stream``: compile a 1,600-stem lexicon in set-up, then parse a
  seeded stream of forms and near misses, as ``redup parse`` does.
* ``cli_cold``: run ``python -m redup.cli`` processes one at a time on the
  shipped grammars.

``measure`` times a workload with tracing off and scales every time to the
reference host speed (``hostspeed``): a reference sample is taken before
and after each set-up, each build, each batch of queries and each batch of
processes. ``trace`` alternates untraced and traced passes over a fixed
slice of the same work, and checks that the exact counts repeat from one
traced pass to the next.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import golden
import hostspeed
import koasati
import layers
from spans import Span, Tracer, exact_counts, installed, summarize

LEXICON_STEMS = 400
PARSE_STEMS = 1600
QUERY_POOL = 20000
CLI_POOL = 5000
PARSE_TRACED_QUERIES = 100
SETUPS = {"parse_stream": 2, "cli_cold": 9}
# Reference products per host-speed sample (each about hostspeed.REF_S),
# and the operations timed between two samples.
SETUP_REF_PASSES = 13
LEXICON_REF_PASSES = 10
PARSE_REF_PASSES, PARSE_BATCH = 3, 40
CLI_REF_PASSES, CLI_BATCH = 3, 4
CHILD_TIMEOUT_S = 120


class Failures:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(what)


class Run:
    """What one benchmark run knows: checkout, seed, time and failures."""

    def __init__(self, root: Path, seed: int, seconds: float):
        self.root = root
        self.seed = seed
        self.seconds = seconds
        self.failures = Failures()
        self.golden_rows = golden.read_forms(root / "tests" / "golden")
        self.golden_dump = (root / "tests" / "golden" / "bambara_wulu.dump").read_text("utf-8")
        self.child_env = dict(os.environ)
        self.child_env.pop("REDUP_ENGINE", None)
        src = str(root / "src")
        self.child_env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in self.child_env.get("PYTHONPATH", "").split(os.pathsep) if p]
        )


def p90(xs: list[float]) -> float:
    """The 90th percentile, interpolated between order statistics as numpy does."""
    return statistics.quantiles(xs, n=10, method="inclusive")[-1] if len(xs) > 1 else xs[0]


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


# -- lexicon_build -------------------------------------------------------------------


class LexiconBuild:
    stems = LEXICON_STEMS

    def __init__(self, run: Run):
        from redup.analyses import grammar_source
        from redup.compiler import compile_grammar

        self.run = run
        stems = koasati.stems(run.seed, self.stems)
        self.expected = koasati.lexicon_forms(stems)
        self.source = koasati.grammar_text(grammar_source("koasati"), stems)
        if koasati.ENTRY not in compile_grammar(self.source).macros:
            raise RuntimeError("generated grammar lacks its entry")
        self.first: tuple | None = None  # (states, arcs, dump) of the first build

    def op(self) -> tuple[float, float, float, object]:
        """One build; returns compile, dump and generate seconds and the machine."""
        from redup.compiler import compile_grammar
        from redup.dump import dump_text
        from redup.fsa import canonical, is_empty, surface_strings

        t0 = perf_counter()
        machine = compile_grammar(self.source).compile(koasati.ENTRY)
        t1 = perf_counter()
        dump = dump_text(canonical(machine))
        t2 = perf_counter()
        forms = set() if is_empty(machine) else surface_strings(machine)
        t3 = perf_counter()
        built = (machine.n, len(machine.arcs), dump)
        if self.first is None:
            self.first = built
        ok = forms == self.expected and built == self.first
        self.run.failures.record(ok, f"lexicon_build: {len(forms)} forms, oracle {len(self.expected)}")
        return t1 - t0, t2 - t1, t3 - t2, machine


def measure_lexicon_build(run: Run, setup_s: list[float]) -> tuple[list[str], dict]:
    # Set-up takes milliseconds, so a burst of set-ups would sample the
    # machine's speed at one moment only. Timing one before every build
    # spreads the samples over the run; the builds all use the first.
    scale = hostspeed.Scale(LEXICON_REF_PASSES)
    work = None
    stages: list[tuple[float, float, float]] = []
    raw_setup, raw = [], []
    deadline = perf_counter() + run.seconds
    while not stages or perf_counter() < deadline:
        scale.begin()
        gc.collect()
        t0 = perf_counter()
        fresh = LexiconBuild(run)
        raw_setup.append(perf_counter() - t0)
        work = work or fresh
        gc.collect()
        times = work.op()[:3]
        factor = scale.end()
        setup_s.append(raw_setup[-1] * factor)
        stages.append(tuple(t * factor for t in times))
        raw.append(sum(times))
    lat = [sum(s) for s in stages]
    n = len(lat)
    lines = _wall_lines(raw, raw_setup, scale) + [
        f"compile_s {statistics.median(s[0] for s in stages):.4f} s (median, n={n})",
        f"dump_s {statistics.median(s[1] for s in stages):.4f} s (median, n={n})",
        f"generate_s {statistics.median(s[2] for s in stages):.4f} s (median, n={n})",
        f"stems {work.stems}, forms {len(work.expected)}, machine {work.first[0]} states "
        f"{work.first[1]} arcs",
    ]
    return lines, _latency_metrics(lat, _rss_mb(resource.RUSAGE_SELF))


# -- parse_stream ----------------------------------------------------------------------


class ParseStream:
    stems = PARSE_STEMS

    def __init__(self, run: Run):
        from redup.analyses import grammar_source
        from redup.compiler import compile_grammar

        self.run = run
        stems = koasati.stems(run.seed, self.stems)
        accepted = koasati.lexicon_forms(stems)
        self.queries = koasati.queries(run.seed, accepted, QUERY_POOL)
        self.verdicts = [q in accepted for q in self.queries]
        source = koasati.grammar_text(grammar_source("koasati"), stems)
        cg = compile_grammar(source)
        self.alphabet = cg.alphabet
        self.machine = cg.compile(koasati.ENTRY)

    def op(self, i: int) -> float:
        from redup.fsa import is_empty
        from redup.interpret import close, intersect_open, prepare_parse_input

        query = self.queries[i % len(self.queries)]
        t0 = perf_counter()
        accepted = not is_empty(
            close(intersect_open(self.machine, prepare_parse_input(self.alphabet, query)))
        )
        elapsed = perf_counter() - t0
        self.run.failures.record(
            accepted == self.verdicts[i % len(self.queries)],
            f"parse_stream: {query} {'ACCEPT' if accepted else 'REJECT'}",
        )
        return elapsed


def measure_parse_stream(run: Run, setup_s: list[float]) -> tuple[list[str], dict]:
    work, raw_setup = _setups(run, ParseStream, "parse_stream", setup_s)
    scale = hostspeed.Scale(PARSE_REF_PASSES)
    lat: list[float] = []
    raw: list[float] = []
    deadline = perf_counter() + run.seconds
    while not lat or perf_counter() < deadline:
        scale.begin()
        batch = [work.op(len(raw) + k) for k in range(PARSE_BATCH)]
        factor = scale.end()
        raw += batch
        lat += [t * factor for t in batch]
    accepts = sum(work.verdicts[i % len(work.verdicts)] for i in range(len(lat)))
    lines = _wall_lines(raw, raw_setup, scale) + [
        f"queries {len(lat)} ({accepts} accepted), lexicon {work.stems} stems, "
        f"machine {work.machine.n} states {len(work.machine.arcs)} arcs",
    ]
    return lines, _latency_metrics(lat, _rss_mb(resource.RUSAGE_SELF))


# -- cli_cold ----------------------------------------------------------------------------


class Spawner:
    """Runs python processes through ``spawner.py``, one at a time.

    ``close()`` ends it and returns its children's largest peak RSS in MB;
    leaving the ``with`` block ends it in any case.
    """

    def __init__(self, run: Run):
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("spawner.py")), str(CHILD_TIMEOUT_S)],
            cwd=run.root,
            env=run.child_env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, args: list[str]) -> dict:
        self.proc.stdin.write(json.dumps([sys.executable, *args]) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> float:
        self.proc.stdin.close()
        peak = self._reply()["maxrss_kb"] / 1024
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return peak

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"spawner.py ended early with code {self.proc.wait()}")
        return json.loads(line)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()
        if not self.proc.stdin.closed:
            self.proc.stdin.close()


class CliCold:
    def __init__(self, run: Run, spawner: Spawner):
        self.run = run
        self.spawner = spawner
        self.cases = golden.cli_sequence(run.golden_rows, run.golden_dump, run.seed, CLI_POOL)
        # One process before timing fills the bytecode cache.
        if self.spawner.run(["-m", "redup.cli", "--help"])["code"] != 0:
            raise RuntimeError("python -m redup.cli --help failed")

    def op(self, case: golden.Case, args: list[str]) -> float:
        done = self.spawner.run(args)
        if done["code"] is None:
            self.run.failures.record(False, f"cli_cold: {' '.join(case.argv)} timed out")
        else:
            self.run.failures.record(
                case.check(done["code"], done["out"], done["err"]),
                f"cli_cold: {' '.join(case.argv)} exit {done['code']}",
            )
        return done["elapsed"]


def measure_cli_cold(run: Run, setup_s: list[float]) -> tuple[list[str], dict]:
    with Spawner(run) as spawner:
        work, raw_setup = _setups(run, lambda r: CliCold(r, spawner), "cli_cold", setup_s)
        scale = hostspeed.Scale(CLI_REF_PASSES)
        lat: list[float] = []
        raw: list[float] = []
        deadline = perf_counter() + run.seconds
        while not lat or perf_counter() < deadline:
            scale.begin()
            batch = []
            for _ in range(CLI_BATCH):
                case = work.cases[(len(raw) + len(batch)) % len(work.cases)]
                batch.append(work.op(case, ["-m", "redup.cli", *case.argv]))
            factor = scale.end()
            raw += batch
            lat += [t * factor for t in batch]
        peak_mb = spawner.close()
    kinds = {k: sum(c.kind == k for c in work.cases[: len(lat)]) for k in golden.KINDS}
    lines = _wall_lines(raw, raw_setup, scale) + [
        "processes " + ", ".join(f"{k} {v}" for k, v in kinds.items())
    ]
    return lines, _latency_metrics(lat, peak_mb)


MEASURE = {
    "lexicon_build": measure_lexicon_build,
    "parse_stream": measure_parse_stream,
    "cli_cold": measure_cli_cold,
}


def _setups(run: Run, cls, name: str, setup_s: list[float]):
    """Set the workload up SETUPS[name] times, timing each; keep the last.

    Appends the scaled set-up times to ``setup_s``; returns the workload and
    the wall times.
    """
    scale = hostspeed.Scale(SETUP_REF_PASSES)
    work = None
    raw: list[float] = []
    for _ in range(SETUPS[name]):
        work = None  # free the previous set-up first
        gc.collect()
        scale.begin()
        t0 = perf_counter()
        work = cls(run)
        raw.append(perf_counter() - t0)
        setup_s.append(raw[-1] * scale.end())
    return work, raw


def _wall_lines(lat: list[float], setup: list[float], scale: hostspeed.Scale) -> list[str]:
    """The unscaled wall times, and the host speed they were scaled by."""
    ref = statistics.median(scale.samples)
    return [
        f"wall latency_p50_ms {statistics.median(lat) * 1e3:.4g} latency_p90_ms "
        f"{p90(lat) * 1e3:.4g} setup_s {statistics.median(setup):.4g} (unscaled)",
        f"host reference product {ref * 1e3:.4g} ms, median of {len(scale.samples)} samples "
        f"(scaled to {hostspeed.REF_S * 1e3:.4g} ms)",
    ]


def _latency_metrics(lat: list[float], rss_mb: float) -> dict:
    return {
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms", len(lat)),
        "latency_p90_ms": (p90(lat) * 1e3, "ms", len(lat)),
        "ops_per_s": (len(lat) / sum(lat), "1/s", len(lat)),
        "peak_rss_mb": (rss_mb, "MB", 1),
    }


# -- traced passes -------------------------------------------------------------------------


def _passes(run: Run, name: str, untraced, traced, budget_s: float) -> tuple[dict, list]:
    """Alternate untraced and traced passes (at least two of each) for budget_s.

    ``untraced()`` returns per-operation latencies; ``traced()`` returns
    latencies, the span list and extra figures (names ending in ``_s`` are
    times, the rest exact counts). Each traced pass must repeat the counts
    of the first; a drift counts as a failure. Every time is scaled to the
    reference host speed, a pass at a time.
    """
    plain, spanned, tables, extras, all_spans = [], [], [], [], []
    scale = hostspeed.Scale(LEXICON_REF_PASSES)
    start = perf_counter()
    while len(tables) < 2 or perf_counter() - start < budget_s:
        scale.begin()
        lat = untraced()
        factor = scale.end()
        plain += [t * factor for t in lat]
        lat, spans, extra = traced()
        factor = scale.end()
        spanned += [t * factor for t in lat]
        table = {
            span_name: {key: v * factor if key.endswith("_s") else v for key, v in row.items()}
            for span_name, row in summarize(spans).items()
        }
        extra = {key: v * factor if key.endswith("_s") else v for key, v in extra.items()}
        counts = {**exact_counts(table), **_counts(extra)}
        if tables:
            first = {**exact_counts(tables[0]), **_counts(extras[0])}
            drift = sorted(k for k in first.keys() | counts.keys() if first.get(k) != counts.get(k))
            run.failures.record(not drift, f"{name}: counts drifted between traced passes: {drift[:4]}")
        tables.append(table)
        extras.append(extra)
        all_spans.append(spans)
    # Counts repeat exactly, so the first pass holds them; times are medians.
    merged = {
        span_name: {
            key: statistics.median(t[span_name][key] for t in tables) if key.endswith("_s") else value
            for key, value in row.items()
        }
        for span_name, row in tables[0].items()
    }
    extra = {
        key: statistics.median(e[key] for e in extras) if key.endswith("_s") else value
        for key, value in extras[0].items()
    }
    extra["trace.overhead_frac"] = statistics.median(spanned) / statistics.median(plain) - 1
    return layers.values(name, merged, extra), all_spans


def _counts(extra: dict) -> dict:
    return {k: v for k, v in extra.items() if not k.endswith("_s")}


def trace_lexicon_build(run: Run, budget_s: float):
    work = LexiconBuild(run)

    def untraced():
        gc.collect()
        return [sum(work.op()[:3])]

    def traced():
        gc.collect()
        tracer = Tracer()
        with installed(tracer), tracer.span("op"):
            compile_s, dump_s, generate_s, machine = work.op()
        extra = {"machine.states": machine.n, "machine.arcs": len(machine.arcs)}
        return [compile_s + dump_s + generate_s], tracer.spans, extra

    return _passes(run, "lexicon_build", untraced, traced, budget_s)


def trace_parse_stream(run: Run, budget_s: float):
    work = ParseStream(run)
    extra = {"machine.states": work.machine.n, "machine.arcs": len(work.machine.arcs)}

    def untraced():
        return [work.op(i) for i in range(PARSE_TRACED_QUERIES)]

    def traced():
        tracer = Tracer()
        lat = []
        with installed(tracer):
            for i in range(PARSE_TRACED_QUERIES):
                with tracer.span("op"):
                    lat.append(work.op(i))
        return lat, tracer.spans, extra

    return _passes(run, "parse_stream", untraced, traced, budget_s)


def trace_cli_cold(run: Run, budget_s: float):
    with Spawner(run) as spawner:
        return _trace_cli_cold(run, CliCold(run, spawner), budget_s)


def _trace_cli_cold(run: Run, work: CliCold, budget_s: float):
    cases = golden.cli_cover(run.golden_rows, run.golden_dump, run.seed)
    child = str(Path(__file__).with_name("trace_child.py"))
    spans_dir = run.root / ".perfbench"
    spans_dir.mkdir(exist_ok=True)

    def untraced():
        return [work.op(case, ["-m", "redup.cli", *case.argv]) for case in cases]

    def traced():
        spans: list[Span] = []
        lat, imports = [], []
        with tempfile.TemporaryDirectory(dir=spans_dir) as tmp:
            out = os.path.join(tmp, "spans.json")
            for case in cases:
                lat.append(work.op(case, [child, out, *case.argv]))
                if not os.path.exists(out):  # the failed check is already recorded
                    continue
                with open(out, encoding="utf-8") as handle:
                    record = json.load(handle)
                os.unlink(out)
                imports.append(record["import_s"])
                base = len(spans)
                for name, parent, start, end, counts in record["spans"]:
                    spans.append(Span(name, parent + base if parent >= 0 else -1, start, end, counts))
        return lat, spans, {"cli.import_s": statistics.median(imports) if imports else 0.0}

    return _passes(run, "cli_cold", untraced, traced, budget_s)


TRACE = {
    "lexicon_build": trace_lexicon_build,
    "parse_stream": trace_parse_stream,
    "cli_cold": trace_cli_cold,
}
