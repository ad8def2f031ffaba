"""Deep grammars end in a grammar or compile error, never in a traceback.

Each shape nests constructs `depth` levels deep around the string "a" (the
complements around the set `a`, which a parse rejects), or chains `depth`
definitions, each naming the one before. Through `cli.main`, on both
engines, `compile` and `parse` of every shape at every depth must either
print what its depth-10 form prints, or exit 2 with one line on stderr: a
nesting beyond `dsl.MAX_NESTING` or a chain beyond
`compiler.MAX_CALL_DEPTH`. Any other exception fails the test.
"""

import re

import pytest

from redup.cli import main
from redup.compiler import MAX_CALL_DEPTH
from redup.dsl import MAX_NESTING

SHAPES = {
    "parentheses": lambda d: "(" * d + '"a"' + ")" * d,
    "brackets": lambda d: "[" * d + '"a"' + "]" * d,
    "braces": lambda d: "{" * d + '"a"' + "}" * d,
    "calls": lambda d: "f(" * d + '"a"' + ")" * d,
    "complements": lambda d: "~" * d + "a",  # d is even
    "stars": lambda d: '"a"' + "*" * d,
    "options": lambda d: '"a"' + "^" * d,
    # at most 100 of each, so that beyond depth 100 only their sum is too deep
    "stars of brackets": lambda d: ("[" * min(d // 2, 100) + '"a"' + "]" * min(d // 2, 100)
                                    + "*" * min(d // 2, 100)),
}
DEPTHS = (10, 100, 1000, 5000)


def grammar(shape, depth):
    lines = ["segment a vowel.", "segment b consonant.", "f(X) := X."]
    if shape == "definitions":
        lines.append('m1 := "a".')
        lines.extend(f"m{i} := m{i - 1}." for i in range(2, depth))
        lines.append(f"e := m{depth - 1}.")
    else:
        lines.append(f"e := {SHAPES[shape](depth)}.")
    return "\n".join(lines) + "\n"


def run(capsys, tmp_path, shape, depth, verb, engine):
    path = tmp_path / f"{depth}.g"
    path.write_text(grammar(shape, depth), "utf-8")
    args = [verb, str(path), "e"] + (["a"] if verb == "parse" else []) + [engine]
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("engine", ["--eager", "--lazy"])
@pytest.mark.parametrize("verb", ["compile", "parse"])
@pytest.mark.parametrize("shape", [*SHAPES, "definitions"])
def test_deep_shapes_compile_alike_or_exit_two(capsys, tmp_path, shape, verb, engine):
    shallow = run(capsys, tmp_path, shape, 10, verb, engine)
    assert shallow[0] == (1 if verb == "parse" and shape == "complements" else 0)
    assert shallow[1]
    limit = MAX_CALL_DEPTH if shape == "definitions" else MAX_NESTING
    for depth in DEPTHS:
        code, out, err = run(capsys, tmp_path, shape, depth, verb, engine)
        if depth <= limit:
            assert (code, out, err) == shallow
        else:
            assert code == 2 and out == ""
            assert err.count("\n") == 1
            if shape == "definitions":
                assert err.startswith(f"redup: definitions nested more than {MAX_CALL_DEPTH} deep: e -> m")
            else:
                assert re.fullmatch(rf"redup: 4:\d+: expression nested more than {MAX_NESTING} deep\n", err)
