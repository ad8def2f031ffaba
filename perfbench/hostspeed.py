"""The host's speed, read from a fixed pure-Python reference loop.

On a shared host the same pure-Python work can take a third longer for
minutes at a time, when other tenants load the machine. Such a swing moves
a run's raw times more than the bounds the benchmark sets, so every time it
reports is scaled to a fixed host speed:

    reported = wall time * REF_S / reference time

where the reference time is the mean of two samples of the reference loop,
one taken just before the timed work and one just after, in the same
process on the same CPU (``pin`` keeps the process and its children on one
CPU). The loop is written without redup and mixes three kinds of
interpreter work in about equal parts, as redup does: a small automaton
product (tuple keys in a dict, a work list, bitwise label tests), lookups
scattered over a table of some megabytes, which wait on memory, and calls
that build small objects, sets and sorted lists. A host slowdown hits the
three differently; a loop of the first kind alone overstates it for redup's
work by about a third. Nothing a change to redup does can alter the loop's
speed, so the ratio keeps every change to redup and drops most of the
host's drift. ``REF_S`` is about what one pass of the loop takes on a
2.1 GHz Xeon VM with its sibling threads idle, so reported times are close
to the wall times of such a machine. The raw wall times are printed as
well.
"""

from __future__ import annotations

import gc
import os
from time import perf_counter

REF_S = 0.015  # the time of one reference pass that times are scaled to
_SIZE_A, _SIZE_B = 53, 47
_TABLE_SIZE, _LOOKUPS, _CALL_ROUNDS = 100_003, 16_000, 270

# Two fixed automata: three arcs out of each state, each with a label mask.
_A = [[((s * 5 + k) % _SIZE_A, 1 << (s + k) % 6 | 1 << k) for k in range(3)] for s in range(_SIZE_A)]
_B = [[((s * 7 + k) % _SIZE_B, 1 << (s * k) % 6 | 2 << k) for k in range(3)] for s in range(_SIZE_B)]


def _product() -> tuple[int, int]:
    index = {(0, 0): 0}
    todo = [(0, 0)]
    arcs = []
    while todo:
        p, q = todo.pop()
        src = index[p, q]
        for p2, la in _A[p]:
            for q2, lb in _B[q]:
                label = la & lb
                if label:
                    key = (p2, q2)
                    dst = index.get(key)
                    if dst is None:
                        dst = index[key] = len(index)
                        todo.append(key)
                    arcs.append((src, dst, label))
    return len(index), len(arcs)


# About 22 MB of tuples behind a dict, read in a scattered order.
_TABLE = {(i * 7919) % _TABLE_SIZE: (i, i ^ 0x5A5A) for i in range(_TABLE_SIZE)}
_KEYS = [(i * 48271) % _TABLE_SIZE for i in range(1, _LOOKUPS + 1)]


def _lookups() -> int:
    total = 0
    for key in _KEYS:
        a, b = _TABLE[key]
        total += a ^ b
    return total


class _State:
    __slots__ = ("n", "arcs", "final")

    def __init__(self, n: int, arcs: list, final: frozenset):
        self.n, self.arcs, self.final = n, arcs, final


def _step(state: _State, i: int) -> list:
    return [(a, (b * 3 + i) % state.n, frozenset((a, b))) for a, b, _ in state.arcs[:4]]


def _calls() -> int:
    state = _State(97, [(i, i * 5 % 97, None) for i in range(97)], frozenset(range(0, 97, 3)))
    total = 0
    for i in range(_CALL_ROUNDS):
        arcs = sorted(_step(state, i) + state.arcs[4:], key=lambda arc: (arc[0], arc[1]))
        state = _State(state.n, arcs, state.final)
        total += len({arc[1] for arc in state.arcs if arc[1] in state.final})
    return total


def _pass() -> tuple:
    return _product(), _lookups(), _calls()


_EXPECTED = _pass()


def sample(passes: int) -> float:
    """Mean seconds that one reference pass takes now, over ``passes``."""
    enabled = gc.isenabled()
    gc.disable()  # the collector's cost depends on the program's heap
    try:
        t0 = perf_counter()
        for _ in range(passes):
            got = _pass()
        elapsed = (perf_counter() - t0) / passes
    finally:
        if enabled:
            gc.enable()
    if got != _EXPECTED:
        raise RuntimeError(f"reference pass gave {got}, expected {_EXPECTED}")
    return elapsed


class Scale:
    """Scales wall times to the reference speed, a stretch of work at a time.

    ``begin()`` samples the reference before a stretch of work, ``end()``
    samples it after and returns the factor for the times measured in
    between. The sample that ends one stretch begins the next. A sample is
    ``passes`` products, about ``passes * REF_S`` seconds.
    """

    def __init__(self, passes: int):
        self.passes = passes
        self._before: float | None = None
        self.samples: list[float] = []

    def begin(self) -> None:
        if self._before is None:
            self._before = sample(self.passes)
            self.samples.append(self._before)

    def end(self) -> float:
        if self._before is None:
            raise RuntimeError("Scale.end() without begin()")
        after = sample(self.passes)
        self.samples.append(after)
        factor = REF_S / ((self._before + after) / 2)
        self._before = after
        return factor


def pin() -> int | None:
    """Keep this process, and the processes it starts, on one CPU.

    The reference samples then run on the CPU the timed work runs on. The
    highest-numbered CPU is taken, as the first one usually serves the
    interrupts. Returns the CPU, or None where affinity cannot be set.
    """
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu
