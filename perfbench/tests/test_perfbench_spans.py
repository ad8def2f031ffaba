"""Span arithmetic and the wrappers around redup's functions."""

import importlib

import pytest

import spans
from spans import Span, Tracer, exact_counts, installed, self_times, summarize


def test_self_time_subtracts_the_cover_of_the_children():
    tree = [
        Span("root", -1, 0.0, 10.0, None),
        Span("a", 0, 1.0, 3.0, None),
        Span("b", 0, 2.0, 5.0, {"pairs": 4}),  # overlaps a: 1..5 covered once
        Span("c", 0, 7.0, 8.0, None),
        Span("leaf", 2, 2.5, 3.5, None),
        Span("b", -1, 11.0, 12.0, {"pairs": 6}),
    ]
    assert self_times(tree) == pytest.approx([5.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    table = summarize(tree)
    assert table["b"] == pytest.approx({"calls": 2, "self_s": 3.0, "pairs": 10})
    assert exact_counts(table) == {
        "a.calls": 1, "b.calls": 2, "b.pairs": 10, "c.calls": 1, "leaf.calls": 1, "root.calls": 1,
    }


def test_child_clipped_to_its_parent():
    tree = [Span("p", -1, 0.0, 2.0, None), Span("c", 0, 1.0, 4.0, None)]
    assert self_times(tree) == pytest.approx([1.0, 3.0])


def test_wrappers_nest_and_record_counts():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2, lambda args, kwargs, result: {"out": result})
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x))
    assert outer(3) == 12
    assert [s.name for s in tracer.spans] == ["outer", "inner", "inner"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    assert summarize(tracer.spans)["inner"]["out"] == 12


def test_installed_wraps_every_binding_and_restores_them():
    import redup
    import redup.compiler
    import redup.fsa
    import redup.interpret
    from redup.analyses import load_grammar

    enrich = importlib.import_module("redup.enrich")  # redup.enrich is the function
    original = redup.fsa.trim
    tracer = Tracer()
    with installed(tracer):
        for module in (redup, redup.fsa, redup.interpret, redup.compiler):
            assert module.trim is not original
        assert redup.compiler._ENRICH_FN["add_repeats"] is enrich.add_repeats
        assert hasattr(enrich.add_repeats, "__wrapped__")
        load_grammar.__wrapped__("koasati").compile("wordform_tahaspin")
    for module in (redup, redup.fsa, redup.interpret, redup.compiler):
        assert module.trim is original
    assert not hasattr(redup.compiler._ENRICH_FN["add_repeats"], "__wrapped__")
    assert not hasattr(redup.fsa.Fsa.__post_init__, "__wrapped__")
    table = summarize(tracer.spans)
    for name in ("kernel.product", "fsa.trim", "fsa.Fsa", "compiler.compile",
                 "enrich.add_repeats", "compiler.not_contains", "interpret.close"):
        assert table[name]["calls"] > 0, name
    assert table["kernel.product"]["pairs"] > 0
    assert table["fsa.trim"]["states_in"] >= table["fsa.trim"]["states_out"]
    assert {layer.name for layer in spans.LAYERS} >= set(table) - {"op"}
