"""Request tracing: span recording, the bounded ring, the span cap,
and (unit-level) propagation across the process boundary.  The full
serve → engine → worker → store chain is exercised in
``test_serve_metrics.py``.
"""

from __future__ import annotations

import logging

import pytest

from repro.obs import trace as obs_trace
from repro.obs.trace import (
    MAX_SPANS,
    Trace,
    TraceBuffer,
    current,
    finish_trace,
    start_trace,
    worker_trace,
)


@pytest.fixture(autouse=True)
def tracing_on():
    """Every test in this file assumes the default-enabled state and
    must not leak a disabled switch into the rest of the suite."""
    obs_trace.set_enabled(True)
    yield
    obs_trace.set_enabled(True)


class TestTrace:
    def test_add_span_rebases_onto_origin(self):
        trace = Trace("t")
        trace.add_span("a", trace.origin + 0.001, 0.0025)
        (entry,) = trace.spans
        assert entry == {"name": "a", "start_ms": 1.0, "ms": 2.5}

    def test_extra_fields_ride_along(self):
        trace = Trace("t")
        trace.add_span("store.read", trace.origin, 0.001, bytes=42)
        assert trace.spans[0]["bytes"] == 42

    def test_span_cap_counts_drops(self):
        trace = Trace("t")
        for index in range(MAX_SPANS + 7):
            trace.add_span(f"s{index}", trace.origin, 0.0)
        assert len(trace.spans) == MAX_SPANS
        assert trace.dropped == 7
        assert trace.to_dict()["dropped_spans"] == 7

    def test_merge_remote_tags_and_respects_cap(self):
        trace = Trace("t")
        remote = [{"name": "worker.chunk", "start_ms": 0.0, "ms": 1.0}]
        trace.merge_remote(remote, worker=3)
        (entry,) = trace.spans
        assert entry["remote"] is True
        assert entry["worker"] == 3
        assert remote[0].get("remote") is None  # input not mutated

        for _ in range(MAX_SPANS - 2):
            trace.add_span("pad", trace.origin, 0.0)
        trace.merge_remote([dict(remote[0])] * 3)  # room for one of three
        assert len(trace.spans) == MAX_SPANS
        assert trace.dropped == 2

    def test_export_spans_is_a_deep_copy(self):
        trace = Trace("t")
        trace.add_span("a", trace.origin, 0.0)
        exported = trace.export_spans()
        exported[0]["name"] = "mutated"
        assert trace.spans[0]["name"] == "a"


class TestTraceBuffer:
    def test_ring_keeps_newest_oldest_first(self):
        ring = TraceBuffer(3)
        for index in range(5):
            ring.append({"id": index})
        assert [entry["id"] for entry in ring.snapshot()] == [2, 3, 4]
        assert len(ring) == 3
        ring.clear()
        assert ring.snapshot() == []


class TestContextManagers:
    def test_start_trace_publishes_and_buffers(self):
        obs_trace.RECENT.clear()
        with start_trace("serve.test") as trace:
            assert current() is trace
            current().add_span("inner", trace.origin, 0.0, n=2)
        assert current() is None
        (entry,) = obs_trace.RECENT.snapshot()
        assert entry["op"] == "serve.test"
        assert entry["total_ms"] >= 0.0
        assert entry["spans"][0]["name"] == "inner"
        assert entry["spans"][0]["n"] == 2

    def test_disabled_yields_none_everywhere(self):
        obs_trace.set_enabled(False)
        obs_trace.RECENT.clear()
        with start_trace("serve.test") as trace:
            assert trace is None
            # the hot-path contract: no trace in flight, nothing recorded
            tr = current()
            assert tr is None
            if tr is not None:
                tr.add_span("inner", tr.origin, 0.0)
        assert len(obs_trace.RECENT) == 0

    def test_worker_trace_carries_parent_id(self):
        with worker_trace("abc123") as trace:
            assert trace.trace_id == "abc123"
            assert trace.op == "worker"
            assert current() is trace
        with worker_trace(None) as trace:
            assert trace is None

    def test_slow_request_log(self, caplog):
        trace = Trace("serve.batch")
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            finish_trace(trace, duration=0.010, slow_ms=5.0)
            finish_trace(trace, duration=0.001, slow_ms=5.0)
            finish_trace(trace, duration=0.010, slow_ms=None)
            finish_trace(trace, duration=0.010, slow_ms=0.0)  # 0 = off
        slow = [r for r in caplog.records if "slow request" in r.message]
        assert len(slow) == 1
        assert trace.trace_id in slow[0].getMessage()
        assert "total_ms=10.000" in slow[0].getMessage()


