"""Self-time arithmetic and span parentage of the benchmark's tracer.

    python3 -m pytest bench/test_spans.py
"""

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from spans import Span, Tracer, _union_length, install, layer_metrics, self_times  # noqa: E402


def span(id, parent, start, end, thread=1, layer="qft", name="f", phase="loop"):
    return Span(id, parent, layer, name, thread, 0, phase, start, end)


def test_nested_spans():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 6.0), span(3, 2, 2.0, 3.0)]
    assert self_times(spans) == {1: 5.0, 2: 4.0, 3: 1.0}


def test_sibling_spans():
    spans = [span(1, None, 0.0, 10.0), span(2, 1, 1.0, 3.0), span(3, 1, 5.0, 9.0)]
    assert self_times(spans) == {1: 4.0, 2: 2.0, 3: 4.0}


def test_overlapping_children_on_two_threads_count_once():
    spans = [
        span(1, None, 0.0, 10.0, thread=1),
        span(2, 1, 1.0, 6.0, thread=2),
        span(3, 1, 4.0, 8.0, thread=3),
        span(4, 3, 5.0, 7.5, thread=3),
    ]
    times = self_times(spans)
    assert times[1] == pytest.approx(3.0)  # children cover [1, 8]
    assert times[3] == pytest.approx(1.5)


def test_child_outliving_its_parent_is_clipped():
    spans = [span(1, None, 0.0, 5.0), span(2, 1, 4.0, 7.0, thread=2)]
    assert self_times(spans)[1] == pytest.approx(4.0)


def test_union_length():
    assert _union_length([]) == 0.0
    assert _union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == 4.0


def test_worker_thread_roots_hang_off_the_anchor_thread():
    tracer = Tracer()
    tracer.anchor_here()
    with tracer.operation(7):
        outer = tracer.open("cli", "main")
        seen = {}

        def worker():
            inner = tracer.open("algorithms", "find_order")
            child = tracer.open("estimation", "sample_control")
            tracer.close(child)
            tracer.close(inner)
            seen["inner"], seen["child"] = inner, child

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        tracer.close(outer)
    assert seen["inner"].parent == outer.id
    assert seen["child"].parent == seen["inner"].id
    assert seen["inner"].op == 7 and seen["inner"].thread != outer.thread


def test_law_requests_without_children_are_cache_hits():
    tracer = Tracer()
    tracer.spans = [
        span(1, None, 0.0, 4.0, layer="bench", name="operation"),
        span(2, 1, 0.0, 3.0, layer="estimation", name="control_distribution"),
        span(3, 2, 0.5, 2.5, layer="qft", name="apply_fourier"),
        span(4, 1, 3.0, 3.5, layer="estimation", name="control_distribution"),
    ]
    out = layer_metrics(tracer, loop_ops=1, checked_ops=1, setups=1)
    assert out["estimation.law_requests"] == 2
    assert out["estimation.law_computes"] == 1
    assert out["estimation.law_s"] == pytest.approx(3.5)
    assert out["estimation.self_s"] == pytest.approx(1.5)
    assert out["qft.self_s"] == pytest.approx(2.0)


def test_install_wraps_every_namespace_and_uninstall_restores():
    import hsplab
    from hsplab import algorithms, cli, oracles

    before = (hsplab.find_order, algorithms.find_order, cli.find_order, oracles.OracleInstance.evaluate)
    tracer = Tracer()
    uninstall = install(tracer)
    try:
        assert hsplab.find_order is algorithms.find_order is cli.find_order
        assert algorithms.find_order is not before[1]
        tracer.phase = "loop"
        inst = oracles.make_order_instance(15, 2)
        assert algorithms.find_order(inst, algorithms.SolverParams(period_bound=15)).value == 4
    finally:
        uninstall()
    assert (hsplab.find_order, algorithms.find_order, cli.find_order,
            oracles.OracleInstance.evaluate) == before
    names = {s.name for s in tracer.spans}
    assert {"make_order_instance", "find_order", "sample_control", "apply_fourier"} <= names
    assert tracer.counts[("loop", "evaluate.verify")] >= 1
