"""Self-time arithmetic and wrapper installation of the tracer."""

import sys
import types

import pytest

from tracing import Span, Tracer, layer_times, self_times


def test_self_time_on_a_hand_built_tree():
    # root 0..10 with children a 1..4 (grandchild 2..3) and b 5..9;
    # a second root 20..21 from another run.
    spans = [
        Span("root", 0.0, 10.0, None, 1),
        Span("a", 1.0, 4.0, 0, 1),
        Span("a.inner", 2.0, 3.0, 1, 1),
        Span("b", 5.0, 9.0, 0, 1),
        Span("root", 20.0, 21.0, None, 2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    lt = layer_times(spans)
    assert lt.total["root"] == pytest.approx(11.0)
    assert lt.self["root"] == pytest.approx(4.0)
    assert lt.calls == {"root": 2, "a": 1, "a.inner": 1, "b": 1}


def test_overlapping_children_are_counted_once():
    spans = [
        Span("p", 0.0, 10.0, None, 0),
        Span("c", 1.0, 5.0, 0, 0),
        Span("c", 3.0, 7.0, 0, 0),
        Span("c", 9.0, 12.0, 0, 0),  # clipped at the parent's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_wrappers_nest_and_absent_targets_are_reported():
    module = types.ModuleType("fake_layer")
    module.outer = lambda: module.inner() + 1
    module.inner = lambda: 41

    sys.modules["fake_layer"] = module
    try:
        tracer = Tracer(run=7, keep={"layer.outer": lambda out: out * 2})
        absent = tracer.install((
            ("fake_layer", "outer", "layer.outer"),
            ("fake_layer", "inner", "layer.inner"),
            ("fake_layer", "gone", "layer.gone"),
        ))
        assert module.outer() == 42
    finally:
        del sys.modules["fake_layer"]
    assert absent == ["layer.gone"]
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, inner.name, inner.parent) == ("layer.outer", None, "layer.inner", 0)
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert {s.run for s in tracer.spans} == {7}
    assert tracer.results == {"layer.outer": [84]}
