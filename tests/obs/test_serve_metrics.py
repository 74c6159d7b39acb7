"""The serve-layer telemetry surfaces: the ``metrics`` op (JSON +
Prometheus), the additive ``latency``/``trace`` stats blocks, the
legacy-stats-keys regression pin, and the acceptance-criterion trace
that crosses connection → engine → process worker → store.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.hypergraphs.families import triangle_hypergraph
from repro.io import bag_to_dict
from repro.obs import trace as obs_trace
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import random_collection_over

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def triangle_payload(n_collections: int = 4, seed: int = 0) -> dict:
    """Small planted triangles: cyclic, so each check takes the Theorem 4
    search, the one job kind the process pool runs."""
    rng = random.Random(seed)
    collections = [
        random_collection_over(
            triangle_hypergraph(), rng, domain_size=3, n_tuples=6
        )
        for _ in range(n_collections)
    ]
    return {
        "op": "batch",
        "collections": [
            {"bags": [bag_to_dict(bag) for bag in collection]}
            for collection in collections
        ],
    }


def pair_payload(n_pairs: int = 1, seed: int = 0) -> dict:
    pairs = []
    for index in range(n_pairs):
        shift = seed * 100 + index
        r = Bag.from_pairs(AB, [((1 + shift, 2), 2), ((2 + shift, 2), 1)])
        s = Bag.from_pairs(BC, [((2, 5 + shift), 3)])
        pairs.append([bag_to_dict(r), bag_to_dict(s)])
    return {"op": "batch", "pairs": pairs}


@pytest.fixture(autouse=True)
def tracing_on():
    obs_trace.set_enabled(True)
    yield
    obs_trace.set_enabled(True)


class TestMetricsOp:
    def test_metrics_op_shape(self):
        server = ReproServer()
        assert server.handle_payload(pair_payload())["ok"]
        assert server.handle_payload({"op": "ping"})["ok"]

        response = server.handle_payload({"op": "metrics"})
        assert response["ok"] and response["op"] == "metrics"
        snapshot = response["json"]
        assert set(snapshot) >= {"counters", "gauges", "histograms"}

        # per-op latency histograms with percentiles
        batch = snapshot["histograms"]["repro_request_seconds{op=batch}"]
        assert batch["count"] == 1
        assert 0.0 < batch["p50"] <= batch["p99"]
        ping = snapshot["histograms"]["repro_request_seconds{op=ping}"]
        assert ping["count"] == 1

        # daemon totals are counters (the metrics op itself is counted
        # by the time the registry is read); store levels stay gauges
        assert snapshot["counters"]["repro_server_requests"] == 3
        assert snapshot["counters"]["repro_server_batches"] == 1
        assert "repro_engine_consistency_queries" in snapshot["counters"]
        assert snapshot["counters"]["repro_store_misses"] >= 1
        assert "repro_store_entries" in snapshot["gauges"]

        # well-formed Prometheus text with the histogram series
        prometheus = response["prometheus"]
        assert "# TYPE repro_request_seconds histogram" in prometheus
        assert 'repro_request_seconds_bucket{op="batch",le="+Inf"} 1' in (
            prometheus
        )
        assert 'repro_request_seconds_count{op="batch"} 1' in prometheus
        assert "# TYPE repro_server_requests counter" in prometheus
        assert "repro_server_requests 3" in prometheus

        # recent traces ride along for `repro obs --traces`
        assert any(
            entry["op"] == "serve.batch" for entry in response["traces"]
        )

    def test_metrics_op_over_the_socket(self):
        """The CI smoke path: scrape a live daemon over TCP."""
        server = ReproServer()
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address, wire_format="json") as client:
                assert client.request(pair_payload())["ok"]
                response = client.request({"op": "metrics"})
        finally:
            server.shutdown()
        assert response["ok"]
        assert response["json"]["counters"]["repro_server_requests"] >= 2
        assert response["prometheus"].endswith("\n")
        assert "repro_request_seconds_bucket" in response["prometheus"]


class TestStatsSurface:
    LEGACY_KEYS = {
        "stats", "store", "kernels", "requests", "batches",
        "request_errors", "connections", "active_connections",
        "max_inflight", "inflight_batches", "peak_inflight",
        "admission_refusals", "uptime_seconds",
    }

    def test_latency_and_trace_blocks(self):
        server = ReproServer(slow_ms=250.0)
        assert server.handle_payload(pair_payload())["ok"]
        stats = server.handle_payload({"op": "stats"})
        assert set(stats["latency"]) == {"batch"}  # only ops that fired
        summary = stats["latency"]["batch"]
        assert summary["count"] == 1
        assert set(summary) == {
            "count", "sum", "min", "max", "p50", "p95", "p99",
        }
        # "recent" is read while the stats request's own trace is still
        # open, so pin the shape, not the exact ring occupancy
        assert stats["trace"]["enabled"] is True
        assert stats["trace"]["slow_ms"] == 250.0
        assert stats["trace"]["recent"] >= 1

    def test_legacy_stats_keys_unchanged(self):
        """The regression pin: telemetry is additive — every
        pre-telemetry stats key survives with its old type (but
        ``wire_format``, which went with the setting it named), and the
        only new top-level keys are ``latency`` and ``trace``."""
        server = ReproServer()
        assert server.handle_payload(pair_payload())["ok"]
        stats = server.stats()
        assert set(stats) == self.LEGACY_KEYS | {"latency", "trace"}
        for key in ("stats", "store", "kernels"):
            assert isinstance(stats[key], dict)
        assert stats["requests"] == 1
        assert stats["batches"] == 1
        assert stats["request_errors"] == 0
        for key in (
            "connections", "active_connections", "max_inflight",
            "inflight_batches", "peak_inflight", "admission_refusals",
        ):
            assert isinstance(stats[key], int)
        assert stats["uptime_seconds"] >= 0.0


class TestCrossLayerTrace:
    def test_spans_cross_connection_engine_worker_and_store(self, tmp_path):
        """The acceptance criterion: one traced request over a real
        socket shows spans from the serve connection, the jobs/engine
        layer, a process-executor worker (merged back remote), and the
        persistent store."""
        obs_trace.RECENT.clear()
        store_dir = str(tmp_path / "store")
        server = ReproServer(store_dir=store_dir, parallelism=2)
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                assert client.request(triangle_payload(seed=1))["ok"]
        finally:
            server.shutdown()

        batches = [
            entry for entry in obs_trace.RECENT.snapshot()
            if entry["op"] == "serve.batch"
        ]
        assert batches, obs_trace.RECENT.snapshot()
        entry = batches[-1]
        names = [span["name"] for span in entry["spans"]]
        assert any(name.startswith("jobs.") for name in names), names
        assert any(
            name.startswith("executor.") for name in names
        ), names
        workers = [
            span for span in entry["spans"] if span["name"] == "worker.chunk"
        ]
        assert workers and all(span["remote"] for span in workers), names
        assert any(name.startswith("store.") for name in names), names
        assert entry["total_ms"] > 0.0

    def test_disk_read_through_span_on_warm_restart(self, tmp_path):
        """Reopening the store: a fresh daemon answering the same batch
        from disk records the store.read span."""
        store_dir = str(tmp_path / "store")
        payload = pair_payload(n_pairs=2, seed=2)
        first = ReproServer(store_dir=store_dir)
        assert first.handle_payload(payload)["ok"]
        first.shutdown()

        obs_trace.RECENT.clear()
        second = ReproServer(store_dir=store_dir)
        try:
            assert second.handle_payload(payload)["ok"]
        finally:
            second.shutdown()
        (entry,) = [
            e for e in obs_trace.RECENT.snapshot()
            if e["op"] == "serve.batch"
        ]
        reads = [
            span for span in entry["spans"] if span["name"] == "store.read"
        ]
        assert reads, entry["spans"]
        assert all(span["bytes"] > 0 for span in reads)
