"""Raw compile outputs pinned by digest.

``golden/raw_machines.sha256`` holds, per line, the sha256 of one compiled
machine in raw form, ``repr((n, start, sorted(finals), raw_arcs,
per_call))`` with ``per_call`` the compile's ``ProductStats.per_call``,
followed by the grammar and entry names. It covers every parameterless
entry of the shipped grammars and the wordform of the seed-1, 400-stem
Koasati lexicon that ``perfbench/koasati.py`` generates (grammar name
``koasati-400``). The canonical dumps of ``compile_dumps.sha256`` do not
see state numbering, arc order or the products run; these digests do, so
a change meant to make a compile cheaper must leave them as they are.

Run as a script, this module prints the digests of the current tree in
the golden file's format.
"""

import hashlib
from pathlib import Path

import pytest

from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.interpret import ProductStats
from test_koasati_oracle import compile_lexicon, koasati

GOLDEN = Path(__file__).parent / "golden" / "raw_machines.sha256"
LEXICON = "koasati-400"


def raw_digest(grammar: str, entry: str) -> str:
    if grammar == LEXICON:
        cg = compile_lexicon(koasati.stems(1, 400))
    else:
        cg = load_grammar(grammar)
    stats = ProductStats()
    m = cg.compile(entry, stats=stats)
    raw = (m.n, m.start, sorted(m.finals), m.raw_arcs, stats.per_call)
    return hashlib.sha256(repr(raw).encode()).hexdigest()


def entries() -> list[tuple[str, str]]:
    shipped = [(g, name) for g in GRAMMAR_NAMES
               for name, macro in load_grammar(g).macros.items() if not macro.params]
    return shipped + [(LEXICON, koasati.ENTRY)]


def _golden():
    rows = []
    for line in GOLDEN.read_text().splitlines():
        digest, grammar, entry = line.split()
        rows.append(pytest.param(grammar, entry, digest, id=f"{grammar}-{entry}"))
    return rows


@pytest.mark.parametrize("grammar, entry, digest", _golden())
def test_raw_machine_matches_golden_digest(grammar, entry, digest):
    assert raw_digest(grammar, entry) == digest


def test_golden_covers_every_parameterless_entry_and_the_lexicon():
    pinned = [(p.values[0], p.values[1]) for p in _golden()]
    assert sorted(pinned) == sorted(entries()) and len(pinned) == 39


if __name__ == "__main__":
    for grammar, entry in entries():
        print(raw_digest(grammar, entry), grammar, entry)
