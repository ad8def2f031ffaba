"""The oracle against the goldens, and the seeded generators."""

from pathlib import Path

import pytest

import golden
import koasati

GOLDEN = Path(__file__).resolve().parents[2] / "tests" / "golden"


def test_oracle_reproduces_every_koasati_golden_row():
    rows = golden.read_forms(GOLDEN)
    assert [r.entry for r in rows if r.grammar == "koasati"]
    golden.check_oracle(rows)


def test_oracle_disagreement_is_loud():
    rows = golden.read_forms(GOLDEN)
    tampered = [
        r._replace(forms=r.forms + ("tahastopin",)) if r.entry == "wordform_tahaspin" else r
        for r in rows
    ]
    with pytest.raises(ValueError, match="wordform_tahaspin"):
        golden.check_oracle(tampered)


@pytest.mark.parametrize(
    "stem,forms",
    [
        ("tahaspin", {"tahastoopin"}),
        ("aklatlin", {"akholatlin", "akhoolatlin"}),
        ("tata", set()),  # no heavy syllable to cut after
    ],
)
def test_punctual_forms(stem, forms):
    assert koasati.punctual_forms(stem) == forms


def test_stems_repeat_per_seed_and_differ_across_seeds():
    assert koasati.stems(7, 200) == koasati.stems(7, 200)
    assert koasati.stems(7, 200) != koasati.stems(8, 200)
    stems = koasati.stems(7, 200)
    assert len(set(stems)) == 200
    assert any(s[0] in koasati.VOWELS for s in stems)
    assert any(s[0] in koasati.CONSONANTS for s in stems)


def test_queries_repeat_per_seed_and_mix_forms_with_near_misses():
    forms = koasati.lexicon_forms(koasati.stems(3, 100))
    queries = koasati.queries(3, forms, 400)
    assert queries == koasati.queries(3, forms, 400)
    assert queries != koasati.queries(4, forms, 400)
    assert all(q in forms for q in queries[::2])
    assert sum(q not in forms for q in queries[1::2]) > 150


def test_grammar_text_uses_both_first_slot_variants():
    text = koasati.grammar_text("", ["tahaspin", "aklatlin"])
    assert 'bench_stem_0 := stem([], "tahaspin").' in text
    assert 'bench_stem_1 := stem(underspecified_for_voicing(a), "klatlin").' in text
    assert f"{koasati.ENTRY} := wordform(bench_lexicon)." in text


def test_cli_cases_repeat_per_seed_and_accept_the_goldens():
    rows = golden.read_forms(GOLDEN)
    dump = (GOLDEN / "bambara_wulu.dump").read_text("utf-8")
    seq = golden.cli_sequence(rows, dump, 5, 300)
    assert [c.argv for c in seq] == [c.argv for c in golden.cli_sequence(rows, dump, 5, 300)]
    assert {c.kind for c in seq} == set(golden.KINDS)
    cover = golden.cli_cover(rows, dump, 5)
    assert {(c.kind, c.argv[1]) for c in cover} == {
        (k, g) for k in golden.KINDS for g in ("bambara", "koasati", "semai")
    }
    wulu = next(c for c in seq if c.kind == "compile" and c.argv[2] == "distributive_wulu")
    assert wulu.check(0, dump, "distributive_wulu: 14 states, 14 arcs\n")
    assert not wulu.check(0, dump.replace("arc 0 1", "arc 0 2"), "distributive_wulu: 14 states, 14 arcs\n")
    for case in seq:
        if case.kind == "parse_reject":
            assert case.check(1, "REJECT\n", "")
            assert not case.check(0, "ACCEPT\n", "")


def test_dump_and_dot_shapes_agree():
    dump = (GOLDEN / "bambara_wulu.dump").read_text("utf-8")
    shape = golden.dump_shape(dump)
    assert shape.n == 14 and shape.finals == {13} and len(shape.arcs) == 14
    assert golden.closed_shape_ok(shape)
    dot = ["digraph w {", "  rankdir=LR;", "  node [shape=circle];",
           '  __start [shape=point, label=""];', "  __start -> 0;"]
    dot += [f"  {q} [shape={'doublecircle' if q in shape.finals else 'circle'}];" for q in range(shape.n)]
    dot += [f'  {s} -> {d} [label="x", penwidth=2];' for s, d, _ in shape.arcs]
    assert golden.dot_shape("\n".join(dot + ["}"]) + "\n", "w") == shape
    assert golden.dump_shape("states x\n") is None
