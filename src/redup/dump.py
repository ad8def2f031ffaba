"""Plain-text and Graphviz serializations of automata.

The text dump is deterministic (states renumbered, arcs sorted) so two runs
over the same machine produce byte-identical files; labels are written as
exact symbol-set expressions that round-trip through the expression language.
"""

from __future__ import annotations

from .alphabet import Alphabet
from .fsa import Fsa


def _dump_order(arc):
    src, dst, bits, pc = arc
    return src, dst, not pc, bits


def dump_text(a: Fsa) -> str:
    lines = [f"states {a.n}", f"start {a.start}"]
    lines.append("finals " + " ".join(str(q) for q in sorted(a.finals)))
    for src, dst, bits, pc in sorted(a.raw_arcs, key=_dump_order):
        role = "P" if pc else "C"
        expr = a.alphabet.format_label_expr(bits)
        lines.append(f"arc {src} {dst} {role} {expr}")
    return "\n".join(lines) + "\n"


def dump_dot(a: Fsa, name: str = "fsa") -> str:
    """Graphviz digraph; producer arcs drawn bold, final states doubled."""
    out = [f"digraph {name} {{", "  rankdir=LR;", '  node [shape=circle];']
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


def path_display(a: Fsa, labels) -> str:
    """One raw path in compact notation, e.g. 'w:1+m u:0 repeat repeat'."""
    return " ".join(a.alphabet.format_label(l.bits) for l in labels)
