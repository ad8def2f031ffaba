"""Seeded benchmark for redup: one workload per run, pure-Python kernel.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lexicon_build --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times the workload with tracing off and reports
its end-to-end metrics, every time scaled to a fixed host speed by a
reference loop sampled around the timed work (``hostspeed.py``); the
unscaled wall times are printed on the lines before the result. With
``--trace 1`` it runs the traced passes of every workload instead and
reports the per-layer metrics (``layers.py``); the spans are written to
``.perfbench/`` at the end. Every output is checked: Koasati forms and
parse verdicts against the string oracle in ``koasati.py``, CLI output
against ``tests/golden``. The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import platform
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _import_redup():
    """Import redup from this checkout's src/, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "redup" / "__init__.py").is_file():
        _fail(f"no redup sources under {src}")
    if not (ROOT / "tests" / "golden").is_dir():
        _fail("no tests/golden in this checkout")
    sys.path.insert(0, str(src))
    import redup
    import redup._kernel

    if Path(redup.__file__).resolve().parent != src / "redup":
        _fail(f"imported redup from {redup.__file__}, not from {src}")
    return redup._kernel.BACKEND


def _write_spans(path: Path, traced: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with gzip.open(path, "wt", encoding="utf-8") as handle:
        for workload, passes in traced.items():
            for number, spans in enumerate(passes):
                for index, span in enumerate(spans):
                    handle.write(json.dumps({
                        "workload": workload, "pass": number, "id": index,
                        "parent": span.parent, "name": span.name,
                        "start": span.start, "end": span.end, "counts": span.counts,
                    }) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    backend = _import_redup()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import golden
    import hostspeed
    import workloads

    if args.workload not in workloads.MEASURE:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.MEASURE)}")
    run = workloads.Run(ROOT, args.seed, args.seconds)
    try:
        golden.check_oracle(run.golden_rows)
    except ValueError as err:
        _fail(str(err))

    cpu = hostspeed.pin()
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace} "
        f"python {platform.python_version()} kernel {backend} nproc {os.cpu_count()} "
        f"pinned to cpu {cpu}"
    )
    metrics = {}
    try:
        _measure(args, run, metrics)
        code = 0
    except Exception:  # an exception is a failed operation: report it, then fail
        traceback.print_exc()
        run.failures.record(False, "exception, traceback above")
        code = 1

    fails = run.failures
    print(f"error_rate {fails.failed / max(fails.attempted, 1):.6g} ({fails.failed}/{fails.attempted})")
    for reason in fails.reasons:
        sys.stderr.write(f"perfbench: wrong output: {reason}\n")
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": metrics,
    }))
    return code


def _measure(args, run, metrics: dict) -> None:
    import layers
    import workloads

    if args.trace:
        units = {m["name"]: m["unit"] for m in layers.metrics()}
        traced = {}
        share = args.seconds / len(workloads.TRACE)
        for name, trace in workloads.TRACE.items():
            values, traced[name] = trace(run, share)
            for metric, value in values.items():
                metrics[metric] = {"value": value, "unit": units[metric]}
                print(f"{metric} {value:.6g} {units[metric]}")
        spans_out = ROOT / ".perfbench" / f"spans-seed{args.seed}.jsonl.gz"
        _write_spans(spans_out, traced)
        print(f"spans {sum(len(s) for p in traced.values() for s in p)} -> {spans_out.relative_to(ROOT)}")
    else:
        setup_s: list[float] = []
        lines, measured = workloads.MEASURE[args.workload](run, setup_s)
        measured["setup_s"] = (statistics.median(setup_s), "s", len(setup_s))
        for line in lines:
            print(line)
        for metric, (value, unit, n) in sorted(measured.items()):
            metrics[metric] = {"value": value, "unit": unit}
            print(f"{metric} {value:.6g} {unit} (n={n})")


if __name__ == "__main__":
    sys.exit(main())
