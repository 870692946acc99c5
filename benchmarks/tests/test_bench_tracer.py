"""Self-time arithmetic and attribute wrapping of the benchmark's tracer.

Run with ``python3 -m pytest benchmarks/tests``.
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tracer import Tracer, self_times, totals_by_name  # noqa: E402


def span(span_id, name, start, end, parent=None, **extra):
    return {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, **extra}


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("a", "chain", 0.0, 10.0),
        span("b", "stage", 1.0, 4.0, "a"),
        span("c", "kernel", 2.0, 3.0, "b"),
        span("d", "stage", 5.0, 9.0, "a"),
    ]
    own = self_times(spans)
    assert own["a"] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own["b"] == pytest.approx(3.0 - 1.0)
    assert own["c"] == pytest.approx(1.0)
    assert own["d"] == pytest.approx(4.0)
    # Self times partition the root span exactly.
    assert sum(own.values()) == pytest.approx(10.0)


def test_parallel_children_are_counted_once_where_they_overlap():
    spans = [
        span("root", "grid", 0.0, 10.0),
        span("w1", "trial", 1.0, 6.0, "root"),
        span("w2", "trial", 4.0, 8.0, "root"),
    ]
    # Children cover [1, 8]: 7 s of the 10 s interval.
    assert self_times(spans)["root"] == pytest.approx(3.0)


def test_child_reaching_outside_its_parent_is_clipped():
    spans = [span("p", "outer", 2.0, 5.0), span("c", "inner", 1.0, 4.0, "p")]
    assert self_times(spans)["p"] == pytest.approx(1.0)


def test_totals_by_name_sums_self_time_calls_and_amounts():
    spans = [
        span("a", "chain", 0.0, 6.0),
        span("b", "draw", 1.0, 2.0, "a", n=12),
        span("c", "draw", 3.0, 5.0, "a", n=30),
    ]
    rows = totals_by_name(spans)
    assert rows["draw"] == {"self_s": pytest.approx(3.0), "total_s": pytest.approx(3.0),
                            "calls": 2, "n": 42}
    assert rows["chain"]["self_s"] == pytest.approx(3.0)


def test_wrap_records_nested_spans_and_uninstall_restores():
    mod = types.SimpleNamespace()

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    class Box:
        @classmethod
        def make(cls, n):
            return [n]

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.wrap(mod, "inner", "layer.inner", amount=lambda a, k, r: a[0])
    tracer.wrap(mod, "outer", "layer.outer")
    tracer.wrap(Box, "make", "layer.make")

    assert mod.outer(3) == 8
    assert Box.make(5) == [5]
    by_name = {s["name"]: s for s in tracer.spans}
    assert by_name["layer.inner"]["parent"] == by_name["layer.outer"]["id"]
    assert by_name["layer.inner"]["n"] == 3
    assert by_name["layer.make"]["parent"] is None

    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    assert Box.make(1) == [1]
    assert len(tracer.spans) == 3


def test_failed_call_still_closes_its_span():
    mod = types.SimpleNamespace()

    def boom():
        raise ValueError("no")

    mod.boom = boom
    tracer = Tracer()
    tracer.wrap(mod, "boom", "layer.boom")
    with pytest.raises(ValueError):
        mod.boom()
    assert [s["name"] for s in tracer.spans] == ["layer.boom"]
    with tracer.span("after"):
        pass
    assert tracer.spans[-1]["parent"] is None
