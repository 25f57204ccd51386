"""Metrics registry unit tests: instruments, labels, reports, nulls."""

import json
import threading

import pytest

from repro.obs.metrics import (
    NULL_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
)


class TestInstruments:
    def test_counter_accumulates(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.snapshot() == 3.5

    def test_gauge_last_write_wins(self):
        g = Gauge()
        g.set(1.0)
        g.set(0.25)
        assert g.snapshot() == 0.25

    def test_histogram_summary_stats(self):
        h = Histogram()
        for v in (1.0, 3.0, 2.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 3
        assert snap["total"] == 6.0
        assert snap["mean"] == 2.0
        assert snap["min"] == 1.0 and snap["max"] == 3.0

    def test_empty_histogram_snapshot_is_zeroed(self):
        assert Histogram().snapshot() == {
            "count": 0, "total": 0.0, "mean": 0.0, "min": 0.0, "max": 0.0}


class TestRegistry:
    def test_same_name_and_labels_share_an_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("runs", outcome="cached")
        b = reg.counter("runs", outcome="cached")
        assert a is b
        a.inc()
        assert b.snapshot() == 1

    def test_label_order_does_not_split_the_series(self):
        reg = MetricsRegistry()
        a = reg.counter("bytes", direction="down", shard=1)
        b = reg.counter("bytes", shard=1, direction="down")
        assert a is b

    def test_different_labels_are_different_series(self):
        reg = MetricsRegistry()
        assert reg.counter("runs", outcome="cached") is not \
            reg.counter("runs", outcome="computed")
        assert len(reg) == 2

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError, match="already registered"):
            reg.gauge("x")

    def test_concurrent_registration_yields_one_instrument(self):
        reg = MetricsRegistry()
        n_threads = 8
        barrier = threading.Barrier(n_threads)
        got = [None] * n_threads

        def register(i):
            barrier.wait()
            got[i] = reg.counter("bytes", client="c0")

        threads = [threading.Thread(target=register, args=(i,))
                   for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert all(c is got[0] for c in got)
        assert len(reg.snapshot()) == 1

    def test_snapshot_is_sorted_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("b").inc(2)
        reg.gauge("a", node=1).set(0.5)
        snap = reg.snapshot()
        assert [rec["name"] for rec in snap] == ["a", "b"]
        assert snap[0] == {"name": "a", "labels": {"node": 1},
                           "kind": "gauge", "value": 0.5}

    def test_render_text_one_line_per_metric(self):
        reg = MetricsRegistry()
        reg.counter("epochs").inc(3)
        reg.counter("bytes", direction="down").inc(10)
        reg.histogram("lat").observe(2.0)
        text = reg.render_text()
        assert "epochs 3" in text
        assert "bytes{direction=down} 10" in text
        assert "lat count=1" in text

    def test_render_json_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("epochs").inc()
        doc = json.loads(reg.render_json())
        assert doc["metrics"][0]["name"] == "epochs"
        assert doc["metrics"][0]["value"] == 1


class TestNullMetrics:
    def test_factories_return_one_shared_noop(self):
        a = NULL_METRICS.counter("x", shard=1)
        b = NULL_METRICS.gauge("y")
        c = NULL_METRICS.histogram("z")
        assert a is b is c
        a.inc()
        a.inc(5)
        b.set(1.0)
        c.observe(2.0)  # all no-ops, nothing recorded

    def test_null_reports_are_empty(self):
        null = NullMetrics()
        assert null.snapshot() == []
        assert null.render_text() == ""
        assert json.loads(null.render_json()) == {"metrics": []}
        assert len(null) == 0
        assert null.enabled is False
