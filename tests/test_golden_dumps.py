"""Canonical compile dumps of every parameterless entry, pinned by digest.

``golden/compile_dumps.sha256`` holds, per line, the sha256 of
``dump_text(canonical(m))`` for one parameterless entry of a shipped
grammar, followed by the grammar and entry names. A refactor of the
automaton operations must leave every dump byte-identical.
"""

import hashlib
from pathlib import Path

import pytest

from redup.analyses import GRAMMAR_NAMES, load_grammar
from redup.dump import dump_text
from redup.fsa import canonical

GOLDEN = Path(__file__).parent / "golden" / "compile_dumps.sha256"


def _golden():
    rows = []
    for line in GOLDEN.read_text().splitlines():
        digest, grammar, entry = line.split()
        rows.append(pytest.param(grammar, entry, digest, id=f"{grammar}-{entry}"))
    return rows


@pytest.mark.parametrize("grammar, entry, digest", _golden())
def test_compile_dump_matches_golden_digest(grammar, entry, digest):
    dump = dump_text(canonical(load_grammar(grammar).compile(entry)))
    assert hashlib.sha256(dump.encode()).hexdigest() == digest


def test_golden_covers_every_parameterless_entry():
    entries = {
        (g, name)
        for g in GRAMMAR_NAMES
        for name, macro in load_grammar(g).macros.items()
        if not macro.params
    }
    pinned = {(p.values[0], p.values[1]) for p in _golden()}
    assert pinned == entries and len(entries) == 38
