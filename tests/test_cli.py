"""The command-line contract: verbs, exit codes, goldens, determinism.

Exit codes are load-bearing (0 accept/success, 1 reject/empty, 2 usage or
compile error), so every test asserts the code as well as the output. The
golden form lists and the committed dump come from the files under
tests/golden/.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from redup.cli import main
from redup.dump import dump_dot
from redup.fsa import build_from_string

GOLDEN = Path(__file__).parent / "golden"


def forms_table():
    rows = []
    for path in sorted(GOLDEN.glob("*.forms")):
        for line in path.read_text("utf-8").splitlines():
            entry, _, forms = line.partition("\t")
            rows.append((path.stem, entry, forms.split()))
    return rows


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- generate -------------------------------------------------------------


@pytest.mark.parametrize("grammar,entry,forms", forms_table())
def test_generate_matches_the_golden_forms(capsys, grammar, entry, forms):
    code, out, err = run(capsys, "generate", grammar, entry, "--surface")
    assert code == 0
    assert out == "".join(f + "\n" for f in forms)
    assert err == ""


def test_generate_is_byte_deterministic(capsys):
    first = run(capsys, "generate", "koasati", "wordform_lexicon", "--surface")
    second = run(capsys, "generate", "koasati", "wordform_lexicon", "--surface")
    assert first == second


@pytest.mark.parametrize("bound", ([], ["--max", "12"]))
def test_surface_generate_projects_once(capsys, monkeypatch, bound):
    import redup.cli
    import redup.fsa

    calls = []

    def counted(machine, project=redup.fsa.project_surface):
        calls.append(machine)
        return project(machine)

    monkeypatch.setattr(redup.fsa, "project_surface", counted)
    monkeypatch.setattr(redup.cli, "project_surface", counted)
    code, out, _err = run(capsys, "generate", "koasati", "wordform_lexicon", *bound)
    assert code == 0 and out
    assert len(calls) == 1


def test_generate_of_an_empty_language_exits_one(capsys):
    code, out, err = run(
        capsys, "generate", "koasati", 'wordform(stem([], "tata"))', "--surface"
    )
    assert code == 1
    assert out == ""
    assert "empty language" in err


def test_raw_generation_needs_a_bound_on_cyclic_machines(capsys):
    code, out, err = run(capsys, "generate", "bambara", "distributive_wulu", "--raw")
    assert code == 2 and out == ""
    assert "--max" in err


def test_raw_generation_shows_the_technical_symbols(capsys):
    code, out, err = run(
        capsys, "generate", "bambara", "distributive_wulu", "--raw", "--max", "13"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines)
    assert len(lines) == 1  # length 13 admits only the four-repeat path
    assert lines[0].split().count("repeat") == 4
    assert "w:1" in lines[0] and " o:0 " in lines[0]
    assert "truncated at length 13" in err


def test_truncation_warning_counts_cap_overflow_as_partial(capsys):
    code, out, err = run(
        capsys, "generate", "koasati", "consumer(consonant) *", "--max", "6"
    )
    assert code == 0
    lines = out.splitlines()
    # length 6 overflows the enumeration cap; everything shorter is kept
    assert len(lines) == sum(8**k for k in range(6))
    assert "partial" in err


def test_raw_cap_overflow_keeps_every_shorter_path(capsys):
    code, out, err = run(
        capsys, "generate", "koasati",
        "{consumer(t), consumer(a), consumer(h), consumer(s)} *", "--raw", "--max", "9",
    )
    assert code == 0
    lines = out.splitlines()
    # the 4**9 paths of length 9 overflow the enumeration cap; every path
    # shorter than that is kept, the empty one included
    assert len(lines) == sum(4**k for k in range(9))
    assert all(len(line.split()) < 9 for line in lines)
    assert "partial" in err


def test_max_zero_is_legal(capsys):
    code, out, err = run(
        capsys, "generate", "bambara", "distributive_wulu", "--surface", "--max", "0"
    )
    assert code == 0 and out == ""


# -- parse -------------------------------------------------------------

PARSE_TABLE = [
    ("bambara", "distributive_wulu", "wuluowulu", 0),
    ("bambara", "distributive_wulu", "wuluwulu", 1),
    ("koasati", "wordform_lexicon", "tahastoopin", 0),
    ("koasati", "wordform_lexicon", "tahastopin", 1),
    ("koasati", "wordform_lexicon", "akholatlin", 0),
]


@pytest.mark.parametrize("grammar,entry,surface,code", PARSE_TABLE)
def test_parse_table(capsys, grammar, entry, surface, code):
    got, out, _ = run(capsys, "parse", grammar, entry, surface)
    assert got == code
    assert out == ("ACCEPT\n" if code == 0 else "REJECT\n")


@pytest.mark.parametrize("flags", [(), ("--eager",), ("--lazy",)])
@pytest.mark.parametrize("grammar,entry,surface,code", PARSE_TABLE)
def test_eager_parse_is_an_open_product_then_a_one_part_close(
    capsys, monkeypatch, flags, grammar, entry, surface, code
):
    """The parse step runs `close(intersect_open(machine, chain))`, as the
    benchmark's parse stream does: the open product is the chain product,
    and no product, closed or not, runs beside it. A fused
    `close(machine, chain)` would walk back from every final of the lexicon."""
    import redup._kernel
    import redup.cli
    import redup.compiler

    events = []

    def spy(name, fn, note=lambda *a, **k: None):
        def wrapped(*args, **kwargs):
            events.append((name, note(*args, **kwargs)))
            return fn(*args, **kwargs)

        return wrapped

    compile_ = redup.compiler.CompiledGrammar.compile

    def compiled(*args, **kwargs):
        machine = compile_(*args, **kwargs)
        events.append(("compiled", None))
        return machine

    monkeypatch.setattr(redup.compiler.CompiledGrammar, "compile", compiled)
    monkeypatch.setattr(redup.cli, "close", spy("close", redup.cli.close, lambda *p: len(p)))
    monkeypatch.setattr(redup.cli, "intersect_open", spy("open", redup.cli.intersect_open))
    monkeypatch.setattr(
        redup._kernel, "product",
        spy("product", redup._kernel.product, lambda a, b, live=None: live is not None),
    )
    monkeypatch.setattr(
        redup._kernel, "chain_product", spy("chain", redup._kernel.chain_product)
    )
    monkeypatch.setattr(
        redup._kernel, "coreachable", spy("coreachable", redup._kernel.coreachable)
    )
    got, out, _ = run(capsys, "parse", grammar, entry, surface, *flags)
    assert got == code
    assert out == ("ACCEPT\n" if code == 0 else "REJECT\n")
    parse_step = events[len(events) - events[::-1].index(("compiled", None)):]
    if flags == ("--lazy",):
        assert parse_step == []
    else:
        assert parse_step == [("open", None), ("chain", None), ("close", 1)]


def test_parse_rejects_unknown_tokens_as_usage(capsys):
    expected = "redup: cannot tokenize 'tahasxopin': no inventory token matches at offset 5\n"
    for flags in ((), ("--eager",), ("--lazy",)):
        code, out, err = run(
            capsys, "parse", "koasati", "wordform_lexicon", "tahasxopin", *flags
        )
        assert (code, out, err) == (2, "", expected), flags


@pytest.mark.parametrize("surface,code", [("tahastoopin", 0), ("tahastopin", 1)])
def test_parse_agrees_across_engines(capsys, surface, code):
    for flag in ("--eager", "--lazy"):
        got, out, _ = run(capsys, "parse", "koasati", "wordform_tahaspin", surface, flag)
        assert got == code, flag


# -- engine selection -------------------------------------------------------------


def test_lazy_and_eager_generation_agree(capsys):
    eager = run(capsys, "generate", "koasati", "wordform_aklatlin", "--eager")
    lazy = run(capsys, "generate", "koasati", "wordform_aklatlin", "--lazy")
    assert eager == lazy
    assert eager[0] == 0 and eager[1]


def test_engine_comes_from_the_environment(capsys, monkeypatch):
    monkeypatch.setenv("REDUP_ENGINE", "lazy")
    code, out, _ = run(capsys, "generate", "semai", "continuative_cqEt")
    assert code == 0 and out == "ctcqEt\n"
    monkeypatch.setenv("REDUP_ENGINE", "sometimes")
    code, _, err = run(capsys, "generate", "semai", "continuative_cqEt")
    assert code == 2
    assert "unknown engine" in err


def test_config_file_sets_defaults_and_flags_win(capsys, tmp_path):
    cfg = tmp_path / "redup.ini"
    cfg.write_text("[redup]\nengine = eager\nmode = raw\nmax = 13\n", "utf-8")
    code, out, err = run(
        capsys, "generate", "bambara", "distributive_wulu", "--config", str(cfg)
    )
    assert code == 0
    assert "repeat" in out  # raw mode taken from the config
    code, out, _ = run(
        capsys,
        "generate", "bambara", "distributive_wulu",
        "--config", str(cfg), "--surface",
    )
    assert code == 0 and out == "wuluowulu\n"  # the flag overrides the file


def test_bad_config_values_are_usage_errors(capsys, tmp_path):
    cfg = tmp_path / "redup.ini"
    cfg.write_text("[redup]\nmax = many\n", "utf-8")
    code, _, err = run(capsys, "generate", "semai", "continuative_cqEt",
                       "--config", str(cfg))
    assert code == 2 and "max" in err
    code, _, err = run(capsys, "generate", "semai", "continuative_cqEt",
                       "--config", str(tmp_path / "missing.ini"))
    assert code == 2


# -- compile and dump-dot -------------------------------------------------------------


def test_compile_reproduces_the_committed_dump(capsys, tmp_path):
    out_file = tmp_path / "wulu.dump"
    code, out, err = run(
        capsys, "compile", "bambara", "distributive_wulu", "-o", str(out_file)
    )
    assert code == 0
    assert out_file.read_text("utf-8") == (GOLDEN / "bambara_wulu.dump").read_text(
        "utf-8"
    )
    assert out.startswith("distributive_wulu: ")
    assert "states" in out and err == ""


def test_compile_without_output_file_dumps_to_stdout(capsys):
    code, out, err = run(capsys, "compile", "bambara", "distributive_wulu")
    assert code == 0
    assert out == (GOLDEN / "bambara_wulu.dump").read_text("utf-8")
    assert err.startswith("distributive_wulu: ")


def test_compile_entry_defaults_to_the_last_definition(capsys):
    code, _, err = run(capsys, "compile", "semai")
    assert code == 0
    assert err.startswith("continuative_cfAl: ")


def test_compile_reports_syntax_errors_with_positions(capsys, tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_text("segment a vowel.\nsegment b.\n", "utf-8")
    code, out, err = run(capsys, "compile", str(bad))
    assert code == 2 and out == ""
    assert "redup:" in err and "2:" in err  # line-numbered diagnostic


def test_unknown_entry_is_a_compile_error(capsys):
    code, _, err = run(capsys, "generate", "koasati", "nope")
    assert code == 2
    assert "unknown name" in err


def test_missing_grammar_file_is_a_usage_error(capsys):
    code, _, err = run(capsys, "compile", "nonsense.g")
    assert code == 2
    assert "no grammar file" in err


def test_dump_dot_is_deterministic_graphviz(capsys):
    first = run(capsys, "dump-dot", "semai", "continuative_cqEt")
    second = run(capsys, "dump-dot", "semai", "continuative_cqEt")
    assert first == second
    code, out, _ = first
    assert code == 0
    assert out.startswith("digraph continuative_cqEt {")
    assert out.rstrip().endswith("}")


def test_dump_dot_quotes_a_name_that_is_no_plain_dot_id(capsys, tmp_path):
    code, out, _ = run(capsys, "dump-dot", "bambara", "synced_constituent & copy_morpheme")
    assert code == 0
    assert out.startswith('digraph "synced_constituent & copy_morpheme" {\n')
    grammar = tmp_path / "keyword.g"
    grammar.write_text('segment a vowel.\nnode := "a".\n_2 := "a".\n', "utf-8")
    code, out, _ = run(capsys, "dump-dot", str(grammar), "node")
    assert code == 0
    assert out.startswith('digraph "node" {\n')
    code, out, _ = run(capsys, "dump-dot", str(grammar), "_2")
    assert code == 0
    assert out.startswith("digraph _2 {\n")


@pytest.mark.parametrize("name,written", [
    ("plain_Name2", "plain_Name2"),
    ("Digraph", '"Digraph"'),
    ("STRICT", '"STRICT"'),
    ("2nd", '"2nd"'),
    ("caf\u00e9", '"caf\u00e9"'),
    ('say "a" \\ b', '"say \\"a\\" \\\\ b"'),
])
def test_dump_dot_writes_the_name_as_a_dot_id(ab, name, written):
    first = dump_dot(build_from_string(ab, "a"), name).split("\n", 1)[0]
    assert first == f"digraph {written} {{"


def test_module_entry_point_runs_as_a_process():
    proc = subprocess.run(
        [sys.executable, "-m", "redup.cli", "parse", "bambara",
         "distributive_wulu", "wuluowulu"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == "ACCEPT\n"
