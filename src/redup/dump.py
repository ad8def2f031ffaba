"""Plain-text and Graphviz serializations of automata.

The text dump is deterministic (states renumbered, arcs sorted) so two runs
over the same machine produce byte-identical files. Labels are written as
exact symbol-set expressions in a dump dialect of their own
(``Alphabet.format_label_expr``); they do not in general parse as grammar
expressions, and today only the test oracle ``_eval_expr`` in
``tests/test_alphabet.py`` reads them back.
"""

from __future__ import annotations

import re

from .alphabet import Alphabet
from .fsa import Fsa


def _dump_order(arc):
    src, dst, bits, pc = arc
    return src, dst, not pc, bits


def dump_text(a: Fsa) -> str:
    lines = [f"states {a.n}", f"start {a.start}"]
    lines.append("finals " + " ".join(str(q) for q in sorted(a.finals)))
    exprs: dict[int, str] = {}  # each distinct label is formatted once
    for src, dst, bits, pc in sorted(a.raw_arcs, key=_dump_order):
        role = "P" if pc else "C"
        expr = exprs.get(bits)
        if expr is None:
            expr = exprs[bits] = a.alphabet.format_label_expr(bits)
        lines.append(f"arc {src} {dst} {role} {expr}")
    return "\n".join(lines) + "\n"


_DOT_KEYWORDS = frozenset({"graph", "node", "edge", "digraph", "subgraph", "strict"})


def _dot_id(name: str) -> str:
    """`name` as it is if it is a plain DOT ID, else as a quoted DOT string."""
    if re.fullmatch(r"[A-Za-z_]\w*", name, re.ASCII) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dump_dot(a: Fsa, name: str = "fsa") -> str:
    """Graphviz digraph; producer arcs drawn bold, final states doubled."""
    out = [f"digraph {_dot_id(name)} {{", "  rankdir=LR;", '  node [shape=circle];']
    out.append(f'  __start [shape=point, label=""];')
    out.append(f"  __start -> {a.start};")
    for q in range(a.n):
        shape = "doublecircle" if q in a.finals else "circle"
        out.append(f"  {q} [shape={shape}];")
    for src, dst, bits, pc in sorted(a.raw_arcs, key=_dump_order):
        lbl = a.alphabet.format_label(bits).replace('"', '\\"')
        pen = ", penwidth=2" if pc else ""
        out.append(f'  {src} -> {dst} [label="{lbl}"{pen}];')
    out.append("}")
    return "\n".join(out) + "\n"

