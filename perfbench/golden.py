"""References for the shipped grammars, read from the golden files.

``tests/golden/*.forms`` lists every surface form of each entry point, and
``tests/golden/bambara_wulu.dump`` is the committed ``compile`` dump of
``bambara distributive_wulu``. The CLI cases below are drawn from them with
a seed, each with the exit code and output a correct redup must give.
"""

from __future__ import annotations

import random
from pathlib import Path
from typing import Callable, NamedTuple

from koasati import lexicon_forms, near_miss, punctual_forms

DUMP_GRAMMAR, DUMP_ENTRY = "bambara", "distributive_wulu"
KINDS = ("generate", "parse_accept", "parse_reject", "compile", "dump_dot")


class Forms(NamedTuple):
    grammar: str
    entry: str
    forms: tuple[str, ...]


def read_forms(golden: Path) -> list[Forms]:
    rows = []
    for path in sorted(golden.glob("*.forms")):
        for line in path.read_text("utf-8").splitlines():
            entry, _, forms = line.partition("\t")
            rows.append(Forms(path.stem, entry, tuple(forms.split())))
    return rows


def check_oracle(rows: list[Forms]) -> None:
    """Raise unless the Koasati oracle reproduces every Koasati golden row.

    ``wordform_<stem>`` holds the forms of one stem; ``wordform_lexicon``
    holds those of all the others together.
    """
    koasati = [r for r in rows if r.grammar == "koasati"]
    stems = [r.entry.removeprefix("wordform_") for r in koasati]
    stems = [s for s in stems if s != "lexicon"]
    if not stems:
        raise ValueError("no Koasati golden rows to check the oracle against")
    for row in koasati:
        name = row.entry.removeprefix("wordform_")
        want = lexicon_forms(stems) if name == "lexicon" else punctual_forms(name)
        if want != set(row.forms):
            raise ValueError(
                f"oracle disagrees with golden {row.entry}: "
                f"oracle {sorted(want)}, golden {sorted(row.forms)}"
            )


# -- dump and dot shapes -------------------------------------------------------


class Shape(NamedTuple):
    n: int
    finals: frozenset[int]
    arcs: tuple[tuple[int, int, bool], ...]  # sorted (src, dst, producer)


def dump_shape(text: str) -> Shape | None:
    """States, finals and arc endpoints of a ``compile`` dump, or None."""
    lines = text.splitlines()
    try:
        head, start, finals = lines[:3]
        if not head.startswith("states ") or start != "start 0" or not finals.startswith("finals"):
            return None
        n = int(head.removeprefix("states "))
        fin = frozenset(int(q) for q in finals.split()[1:])
        arcs = []
        for line in lines[3:]:
            word, src, dst, role, _expr = line.split(" ", 4)
            if word != "arc" or role not in ("P", "C"):
                return None
            arcs.append((int(src), int(dst), role == "P"))
    except ValueError:
        return None
    return Shape(n, fin, tuple(sorted(arcs)))


def dot_shape(text: str, name: str) -> Shape | None:
    """The same shape read back from a ``dump-dot`` digraph, or None."""
    lines = text.splitlines()
    if not lines or lines[0] != f"digraph {name} {{" or lines[-1] != "}":
        return None
    n, finals, arcs = 0, set(), []
    try:
        for line in lines[1:-1]:
            line = line.strip()
            if line.startswith("__start") or line.startswith(("rankdir", "node ")):
                continue
            left, _, attrs = line.partition(" [")
            if " -> " in left:
                src, dst = left.split(" -> ")
                arcs.append((int(src), int(dst), "penwidth=2" in attrs))
            else:
                q = int(left)
                n += 1
                if "doublecircle" in attrs:
                    finals.add(q)
    except ValueError:
        return None
    return Shape(n, frozenset(finals), tuple(sorted(arcs)))


def closed_shape_ok(shape: Shape | None) -> bool:
    """A closed machine: in-range arcs, some final, producer arcs only."""
    return (
        shape is not None
        and bool(shape.finals)
        and all(q < shape.n for q in shape.finals)
        and all(s < shape.n and d < shape.n and p for s, d, p in shape.arcs)
    )


# -- CLI cases -------------------------------------------------------------------


class Case(NamedTuple):
    kind: str
    argv: tuple[str, ...]
    check: Callable[[int, str, str], bool]  # (exit code, stdout, stderr) -> ok


def _exact(rc: int, out: str, err: str | None = None):
    return lambda code, stdout, stderr: (
        code == rc and stdout == out and (err is None or stderr == err)
    )


def _compile_ok(entry: str):
    def check(code, stdout, stderr):
        shape = dump_shape(stdout)
        return (
            code == 0
            and closed_shape_ok(shape)
            and stderr == f"{entry}: {shape.n} states, {len(shape.arcs)} arcs\n"
        )

    return check


def _dot_ok(entry: str, want: Shape | None):
    def check(code, stdout, stderr):
        shape = dot_shape(stdout, entry)
        return code == 0 and closed_shape_ok(shape) and (want is None or shape == want)

    return check


def cases_by_kind(rows: list[Forms], dump: str, rng: random.Random) -> dict[str, list[Case]]:
    """Every case of each kind, in a fixed order (near misses drawn from rng)."""
    golden_dump = dump_shape(dump)
    by_kind: dict[str, list[Case]] = {k: [] for k in KINDS}
    for row in rows:
        g, e = row.grammar, row.entry
        listing = "".join(f + "\n" for f in sorted(row.forms))
        by_kind["generate"].append(Case("generate", ("generate", g, e), _exact(0, listing, "")))
        for form in row.forms:
            by_kind["parse_accept"].append(
                Case("parse_accept", ("parse", g, e, form), _exact(0, "ACCEPT\n", ""))
            )
        tokens = "".join(sorted({c for r in rows if r.grammar == g for f in r.forms for c in f}))
        for form in row.forms:
            miss = near_miss(rng, form, tokens)
            while miss in row.forms:
                miss = near_miss(rng, form, tokens)
            by_kind["parse_reject"].append(
                Case("parse_reject", ("parse", g, e, miss), _exact(1, "REJECT\n", ""))
            )
        exact_dump = (g, e) == (DUMP_GRAMMAR, DUMP_ENTRY)
        by_kind["compile"].append(
            Case(
                "compile",
                ("compile", g, e),
                _exact(0, dump, f"{e}: {golden_dump.n} states, {len(golden_dump.arcs)} arcs\n")
                if exact_dump
                else _compile_ok(e),
            )
        )
        by_kind["dump_dot"].append(
            Case("dump_dot", ("dump-dot", g, e), _dot_ok(e, golden_dump if exact_dump else None))
        )
    return by_kind


def cli_sequence(rows: list[Forms], dump: str, seed: int, count: int) -> list[Case]:
    """A seeded stream of cases: a kind uniformly, then a case of that kind."""
    rng = random.Random(f"cli:{seed}")
    by_kind = cases_by_kind(rows, dump, rng)
    return [rng.choice(by_kind[rng.choice(KINDS)]) for _ in range(count)]


def cli_cover(rows: list[Forms], dump: str, seed: int) -> list[Case]:
    """One seeded case of every kind on every grammar: the traced CLI pass."""
    rng = random.Random(f"cli-cover:{seed}")
    by_kind = cases_by_kind(rows, dump, rng)
    grammars = sorted({r.grammar for r in rows})
    return [
        rng.choice([c for c in by_kind[k] if c.argv[1] == g])
        for k in KINDS
        for g in grammars
    ]
