"""Deep grammars end in a grammar or compile error, never in a traceback.

Each shape nests constructs `depth` levels deep around the string "a" (the
complements and set `&` chains around the set `a`, which a parse rejects),
or chains `depth` definitions, each naming the one before. Through
`cli.main`, on both engines, `compile` and `parse` of every shape at every
depth must either print what its depth-10 form prints, or exit 2 with one
line on stderr. The parser's shapes fail beyond `dsl.MAX_NESTING` with a
line and column; postfix runs, `&` chains and definition chains are read
without recursion and fail where they are evaluated, beyond
`compiler.MAX_DEPTH`, naming the call path. Any other exception fails the
test.
"""

import re
import subprocess
import sys

import pytest

from redup.cli import main
from redup.compiler import MAX_DEPTH, compile_grammar
from redup.dsl import MAX_NESTING, Call, Str
from redup.errors import CompileError

PARSER, EVALUATOR = "parser", "evaluator"

# shape -> (the grammar's definitions at a depth, which bound it meets,
# the deepest of DEPTHS at which it still compiles)
SHAPES = {
    "parentheses": (lambda d: [f"e := {'(' * d}\"a\"{')' * d}."], PARSER, 100),
    "brackets": (lambda d: [f"e := {'[' * d}\"a\"{']' * d}."], PARSER, 100),
    "braces": (lambda d: [f"e := {'{' * d}\"a\"{'}' * d}."], PARSER, 100),
    "calls": (lambda d: [f"e := {'f(' * d}\"a\"{')' * d}."], PARSER, 100),
    "complements": (lambda d: [f"e := {'~' * d}a."], PARSER, 100),  # d is even
    "stars": (lambda d: [f"e := \"a\"{'*' * d}."], EVALUATOR, 100),
    "options": (lambda d: [f"e := \"a\"{'^' * d}."], EVALUATOR, 100),
    # at most 100 of each, so that beyond depth 100 only their sum is too deep
    "stars of brackets": (
        lambda d: [f"e := {'[' * min(d // 2, 100)}\"a\"{']' * min(d // 2, 100)}"
                   f"{'*' * min(d // 2, 100)}."],
        EVALUATOR, 100),
    "and of strings": (lambda d: ["e := " + " & ".join(['"a"'] * d) + "."], EVALUATOR, 100),
    "and of sets": (lambda d: ["e := " + " & ".join(["a"] * d) + "."], EVALUATOR, 100),
    "closed and": (
        lambda d: ["e := closed_interpretation(" + " & ".join(['"a"'] * d) + ")."],
        EVALUATOR, 100),
    # the hoisted operand of a parameterised definition
    "stars in a definition": (lambda d: [f"g(X) := [X, \"a\"{'*' * d}].", 'e := g("a").'],
                              EVALUATOR, 100),
    "definitions": (
        lambda d: ['m1 := "a".', *(f"m{i} := m{i - 1}." for i in range(2, d)), f"e := m{d - 1}."],
        EVALUATOR, 100),
    # each body within MAX_NESTING, their sum not: 100 of them is 9,000 deep
    "definitions of brackets": (
        lambda d: ['m0 := "a".',
                   *(f"m{i} := {'[' * min(d, 90)}m{i - 1}{']' * min(d, 90)}." for i in range(1, d)),
                   f"e := m{d - 1}."],
        EVALUATOR, 10),
}
DEPTHS = (10, 100, 1000, 5000)
HEADER = ["segment a vowel.", "segment b consonant.", "f(X) := X."]


def write(tmp_path, name, lines):
    path = tmp_path / f"{name}.g"
    path.write_text("\n".join(HEADER + lines) + "\n", "utf-8")
    return path


def run(capsys, path, verb, engine):
    args = [verb, str(path), "e"] + (["a"] if verb == "parse" else []) + [engine]
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_too_deep(err, bound):
    if bound == PARSER:
        assert re.fullmatch(rf"redup: 4:\d+: expression nested more than {MAX_NESTING} deep\n", err)
    else:
        assert re.fullmatch(rf"redup: expression nested more than {MAX_DEPTH} deep: e( -> \w+)*\n", err)


@pytest.mark.parametrize("engine", ["--eager", "--lazy"])
@pytest.mark.parametrize("verb", ["compile", "parse"])
@pytest.mark.parametrize("shape", SHAPES)
def test_deep_shapes_compile_alike_or_exit_two(capsys, tmp_path, shape, verb, engine):
    lines, bound, compiles_to = SHAPES[shape]
    shallow = run(capsys, write(tmp_path, 10, lines(10)), verb, engine)
    assert shallow[0] == (1 if verb == "parse" and shape in ("complements", "and of sets") else 0)
    assert shallow[1]
    for depth in DEPTHS:
        code, out, err = run(capsys, write(tmp_path, depth, lines(depth)), verb, engine)
        if depth <= compiles_to:
            assert (code, out, err) == shallow
        else:
            assert code == 2 and out == ""
            assert_too_deep(err, bound)


def rule_arrows(depth):
    """`a --> (a --> (... / a) / a)`: a rule's outcome must be a set, so every
    depth is a compile error, and beyond `MAX_NESTING` a grammar error."""
    return ["e := " + "a --> (" * depth + "a" + " / a)" * depth + "."]


@pytest.mark.parametrize("engine", ["--eager", "--lazy"])
@pytest.mark.parametrize("verb", ["compile", "parse"])
def test_nested_rule_arrows_are_counted_by_the_parser(capsys, tmp_path, verb, engine):
    for depth in DEPTHS:
        code, out, err = run(capsys, write(tmp_path, depth, rule_arrows(depth)), verb, engine)
        assert code == 2 and out == ""
        if depth <= MAX_NESTING:
            assert err == "redup: a rule's outcome must be a symbol set, not an automaton\n"
        else:
            assert_too_deep(err, PARSER)


def test_many_siblings_are_not_deep(capsys, tmp_path):
    path = write(tmp_path, "wide", ["e := {" + ", ".join(['["a", "b"]'] * 1000) + "}."])
    code, out, _err = run(capsys, path, "compile", "--eager")
    assert code == 0 and out.startswith("states ")


def stack_depth() -> int:
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


# A level of nested builtin or macro calls costs the evaluator 4 Python
# frames (eval, _eval_call, _builtin or _expand, and _one or the argument
# comprehension), the most of any node; 50 more cover compile() and the
# innermost node's own work. So a caller less than 350 frames deep can
# compile anything within Python's default limit of 1,000.
MARGIN = 4 * MAX_DEPTH + 50


@pytest.mark.parametrize("engine", ["eager", "lazy"])
@pytest.mark.parametrize("name", ["producer", "f"])
def test_nested_calls_at_max_depth_fit_the_frame_margin(engine, name):
    cg = compile_grammar("\n".join(HEADER) + "\n")
    node = Str("a")
    for _ in range(MAX_DEPTH - 1):
        node = Call(name, (node,))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(stack_depth() + MARGIN)
    try:
        machine = cg.compile(node, engine=engine)
        with pytest.raises(CompileError, match=f"nested more than {MAX_DEPTH} deep: the entry"):
            cg.compile(Call(name, (node,)), engine=engine)
    finally:
        sys.setrecursionlimit(limit)
    assert machine == cg.compile(Str("a") if name == "f" else Call(name, (Str("a"),)))


@pytest.mark.parametrize("lines", [
    SHAPES["definitions of brackets"][0](100),
    SHAPES["and of strings"][0](500),
    rule_arrows(1000),
], ids=["definitions of brackets", "and of strings", "rule arrows"])
def test_deep_grammars_exit_two_in_a_fresh_interpreter(tmp_path, lines):
    path = write(tmp_path, "deep", lines)
    for engine in ("--eager", "--lazy"):
        proc = subprocess.run([sys.executable, "-m", "redup.cli", "compile", str(path), "e", engine],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
