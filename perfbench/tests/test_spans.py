import types

import pytest

from spans import Span, Target, Tracer, self_seconds


def span(name, start, end, parent=None):
    return Span(name, start, end, parent, None, None)


def test_self_time_subtracts_nested_children():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 5.0, 6.0, parent=0),
    ]
    # a loses b (3) and d (1) but not its grandchild c, which b already covers
    assert self_seconds(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_counts_overlapping_and_overhanging_children_once():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 2.0, 6.0, parent=0),
        span("c", 4.0, 8.0, parent=0),  # overlaps b on [4, 6]
        span("d", 9.0, 12.0, parent=0),  # runs past the end of a
    ]
    assert self_seconds(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        self.t += 1.0
        return self.t


def test_tracer_wraps_and_restores_module_attributes():
    lib = types.SimpleNamespace()
    lib.inner = lambda xs: len(xs)
    lib.outer = lambda xs: lib.inner(xs) + 1
    original_inner = lib.inner
    tracer = Tracer([Target(lib, "outer", "lib.outer"),
                     Target(lib, "inner", "lib.inner", shape=lambda a: (len(a[0]), 1))],
                    clock=FakeClock())
    with tracer.installed():
        tracer.request = "7"
        assert lib.outer([1, 2, 3]) == 4
    assert lib.inner is original_inner
    assert lib.outer([1]) == 2  # restored: no further spans
    outer, inner = tracer.spans
    assert (outer.name, outer.parent, outer.start, outer.end) == ("lib.outer", None, 1.0, 4.0)
    assert (inner.name, inner.parent, inner.shape, inner.request) == ("lib.inner", 0, (3, 1), "7")
    assert self_seconds(tracer.spans) == [2.0, 1.0]


def test_tracer_restores_attributes_when_the_block_raises():
    lib = types.SimpleNamespace(f=lambda: 1)
    original = lib.f
    tracer = Tracer([Target(lib, "f", "lib.f")])
    with pytest.raises(RuntimeError):
        with tracer.installed():
            raise RuntimeError("boom")
    assert lib.f is original
