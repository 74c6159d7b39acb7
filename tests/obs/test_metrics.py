"""The metrics registry: counters, gauges, log-bucket histograms,
and both exposition formats.

The histogram contract under test is the one the serving layer relies
on: a reported percentile is within one bucket ratio of the exact
sorted-oracle answer (and never below it), ``min``/``max``/``sum`` are
exact, and concurrent recording loses nothing.
"""

from __future__ import annotations

import math
import random
import re
import threading

import pytest

from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles,
    render_json,
    render_prometheus,
)
from repro.obs.metrics import BUCKET_BOUNDS, BUCKET_RATIO, flat_name

QS = (0.50, 0.95, 0.99)


def oracle(values: list, q: float) -> float:
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


class TestHistogramOracle:
    @pytest.mark.parametrize("seed", range(6))
    def test_percentiles_within_one_bucket_of_sorted_oracle(self, seed):
        rng = random.Random(seed)
        hist = Histogram("t")
        # log-uniform over the full in-range span of the bucket table
        values = [
            10.0 ** rng.uniform(-5.9, 1.9) for _ in range(rng.randrange(1, 500))
        ]
        for value in values:
            hist.record(value)
        for q in QS:
            exact = oracle(values, q)
            reported = hist.percentile(q)
            assert exact <= reported + 1e-12, (q, exact, reported)
            assert reported <= exact * BUCKET_RATIO * (1 + 1e-9), (
                q, exact, reported,
            )

    def test_summary_exact_fields(self):
        hist = Histogram("t")
        values = [0.002, 0.004, 0.008, 0.5]
        for value in values:
            hist.record(value)
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(sum(values))
        assert summary["min"] == min(values)
        assert summary["max"] == max(values)

    def test_tiny_values_land_in_first_bucket(self):
        hist = Histogram("t")
        hist.record(0.0)
        hist.record(1e-9)
        assert hist.count == 2
        assert hist.percentile(0.99) <= BUCKET_BOUNDS[0]

    def test_overflow_bucket_reports_exact_max(self):
        hist = Histogram("t")
        hist.record(250.0)
        hist.record(9000.5)
        assert hist.percentile(0.99) == 9000.5
        assert hist.summary()["max"] == 9000.5

    def test_percentile_never_exceeds_observed_max(self):
        hist = Histogram("t")
        hist.record(0.0015)
        assert hist.percentile(0.99) == 0.0015

    def test_empty_histogram(self):
        hist = Histogram("t")
        summary = hist.summary()
        assert summary["count"] == 0
        assert summary["p99"] == 0.0
        assert hist.buckets() == []

    def test_reset(self):
        hist = Histogram("t")
        hist.record(0.5)
        hist.reset()
        assert hist.count == 0
        assert hist.summary()["max"] == 0.0


class TestHistogramConcurrency:
    def test_threaded_hammer_loses_nothing(self):
        """8 threads x 500 records: exact count and sum, and every
        percentile still bracketed by the oracle bound (runs under
        REPRO_SANITIZE=1 in the sanitize CI job)."""
        hist = Histogram("hammer")
        counter = Counter("hammer_total")
        n_threads, per_thread = 8, 500
        all_values: list = []
        lock = threading.Lock()

        def work(seed: int) -> None:
            rng = random.Random(seed)
            mine = [10.0 ** rng.uniform(-5.5, 1.5) for _ in range(per_thread)]
            for value in mine:
                hist.record(value)
                counter.inc()
            with lock:
                all_values.extend(mine)

        threads = [
            threading.Thread(target=work, args=(seed,))
            for seed in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert hist.count == n_threads * per_thread
        assert counter.value == n_threads * per_thread
        summary = hist.summary()
        assert summary["sum"] == pytest.approx(sum(all_values))
        assert summary["min"] == min(all_values)
        assert summary["max"] == max(all_values)
        for q in QS:
            exact = oracle(all_values, q)
            assert exact <= hist.percentile(q) <= exact * BUCKET_RATIO * (
                1 + 1e-9
            )


class TestRegistry:
    def test_get_or_create_is_idempotent(self):
        registry = MetricsRegistry()
        a = registry.counter("x")
        b = registry.counter("x")
        assert a is b

    def test_labels_distinguish_metrics(self):
        registry = MetricsRegistry()
        a = registry.histogram("lat", {"op": "batch"})
        b = registry.histogram("lat", {"op": "ping"})
        assert a is not b
        a.record(0.1)
        assert b.count == 0

    def test_kind_mismatch_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_gauge_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(4.0)
        gauge.add(-1.5)
        assert gauge.value == 2.5

    def test_snapshot_shape_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h", {"op": "x"}).record(0.2)
        snap = registry.snapshot()
        assert snap["counters"] == {"c": 3}
        assert snap["gauges"] == {"g": 1.5}
        entry = snap["histograms"]["h{op=x}"]
        assert entry["count"] == 1
        assert entry["buckets"][-1][1] == 1  # cumulative reaches count
        registry.reset()
        assert registry.snapshot()["counters"] == {"c": 0}

    def test_flat_name(self):
        assert flat_name("n", None) == "n"
        assert flat_name("n", {"b": 1, "a": 2}) == "n{a=2,b=1}"


class TestPercentilesHelper:
    def test_matches_oracle(self):
        rng = random.Random(11)
        values = [rng.random() for _ in range(137)]
        out = percentiles(values, qs=QS)
        assert out["count"] == 137
        for q in QS:
            assert out[f"p{int(q * 100)}"] == oracle(values, q)

    def test_empty(self):
        assert percentiles([]) == {"count": 0, "p50": 0.0, "p99": 0.0}


PROM_LINE = re.compile(
    r"^(# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)"
    r'|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_]\w*="[^"]*"'
    r'(,[a-zA-Z_]\w*="[^"]*")*\})? -?[0-9.+eE-]+(\+Inf)?)$'
)


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$")


def assert_strict_exposition(text: str) -> None:
    """The Prometheus text-format rules a scraper enforces: one ``# TYPE``
    per family, the family's samples right after it (histograms through
    their ``_bucket``/``_sum``/``_count`` series), no sample repeated,
    and cumulative buckets that end at ``_count``."""
    assert text.endswith("\n")
    typed: set = set()
    family = kind = None
    seen: set = set()
    buckets: dict = {}
    counts: dict = {}
    for line in text.splitlines():
        if line.startswith("# TYPE "):
            _, _, family, kind = line.split(" ")
            assert family not in typed, f"second TYPE line for {family}"
            typed.add(family)
            continue
        match = _SAMPLE.match(line)
        assert match, line
        name, labels, value = match.groups()
        float(value)
        names = {family}
        if kind == "histogram":
            names = {family + s for s in ("_bucket", "_sum", "_count")}
        assert name in names, f"{name} outside its family block ({family})"
        assert (name, labels) not in seen, f"repeated sample {line}"
        seen.add((name, labels))
        if name.endswith("_bucket") and kind == "histogram":
            series = re.sub(r',?le="[^"]*"', "", labels)
            buckets.setdefault((family, series), []).append(float(value))
        elif name.endswith("_count") and kind == "histogram":
            counts[(family, (labels or "{}"))] = float(value)
    for (hist, series), cumulative in buckets.items():
        assert cumulative == sorted(cumulative), (hist, series)
        assert cumulative[-1] == counts[(hist, series)], (hist, series)


class TestExposition:
    # The keys of ``ReproServer.stats()`` that only ever grow (besides
    # every engine counter), by the prefix each is exported under, and
    # the level readings that stay gauges.
    MONOTONE = {
        "repro_server": (
            "requests", "batches", "request_errors", "connections",
            "admission_refusals",
        ),
        "repro_store": (
            "hits", "misses", "evictions", "invalidations", "merged",
        ),
        "repro_store_persistent": (
            "hot_hits", "disk_hits", "buffer_hits", "skipped_segments",
            "appends", "flushes", "compactions", "torn_tails",
        ),
    }
    LEVELS = {
        "repro_server": (
            "active_connections", "inflight_batches", "peak_inflight",
            "uptime_seconds",
        ),
        "repro_store": ("entries", "hit_rate"),
        "repro_store_persistent": (
            "shards", "records", "dead_records", "pending", "segments",
            "disk_bytes",
        ),
    }

    def build_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("repro_c", {"kind": "a"}).inc(2)
        registry.gauge("repro_g").set(0.25)
        hist = registry.histogram("repro_lat", {"op": "batch"})
        for value in (0.001, 0.004, 0.004, 2.0):
            hist.record(value)
        return registry.snapshot()

    def test_prometheus_is_well_formed(self):
        text = render_prometheus(self.build_snapshot())
        assert text.endswith("\n")
        lines = text.splitlines()
        for line in lines:
            assert PROM_LINE.match(line) or '+Inf"' in line, line
        # histogram series: cumulative buckets, +Inf == _count
        buckets = [
            line for line in lines if line.startswith("repro_lat_bucket")
        ]
        counts = [int(line.rsplit(" ", 1)[1]) for line in buckets]
        assert counts == sorted(counts)
        assert buckets[-1].startswith('repro_lat_bucket{op="batch",le="+Inf"}')
        assert counts[-1] == 4
        assert 'repro_lat_count{op="batch"} 4' in lines

    def test_labelled_family_gets_one_type_line(self):
        registry = MetricsRegistry()
        for op in ("a", "b", "c"):
            registry.counter("repro_y", {"op": op}).inc()
        text = render_prometheus(registry.snapshot())
        assert text.count("# TYPE repro_y counter") == 1
        assert_strict_exposition(text)

    def test_snapshot_exposition_is_strict(self):
        registry = MetricsRegistry()
        registry.counter("repro_c").inc()
        registry.counter("repro_c", {"kind": "a"}).inc(2)
        registry.counter("repro_c_total").inc()  # sorts inside repro_c's keys
        registry.gauge("repro_g", {"shard": "1"}).set(3)
        registry.gauge("repro_g", {"shard": "0"}).set(2)
        for op in ("batch", "ping"):
            registry.histogram("repro_lat", {"op": op}).record(0.004)
        assert_strict_exposition(render_prometheus(registry.snapshot()))

    def test_metrics_op_exposition_is_strict(self, tmp_path):
        import json
        import socket

        from repro.server import ReproServer

        server = ReproServer(store_dir=str(tmp_path / "store"))
        server.bind_tcp()
        server.serve_in_background()
        line = json.dumps({
            "op": "batch",
            "pairs": [[
                {"schema": ["A", "B"], "tuples": [[[1, 2], 3]]},
                {"schema": ["B", "C"], "tuples": [[[2, 5], 3]]},
            ]],
            "suites": [["planted-path", 3, 0]],
        }).encode() + b"\n"
        try:
            with socket.create_connection(server.address, timeout=10) as raw:
                replies = raw.makefile("rb")

                def send(data):
                    raw.sendall(data)
                    return json.loads(replies.readline())

                assert send(line)["ok"]
                first = server.handle_payload({"op": "metrics"})
                # the first batch's suite reads verdicts back from the
                # store, so the connection's later lines are read
                # through the ingest memo: two misses, then two hits,
                # and a line it cannot read exactly falls back
                for _ in range(2):
                    assert send(line)["ok"]
                assert not send(b'{"pairs": [[{"schema": 5}]]}\n')["ok"]
            second = server.handle_payload({"op": "metrics"})
            stats = server.stats()
        finally:
            server.shutdown()
        text = first["prometheus"]
        assert text.count("# TYPE repro_engine_compute_seconds histogram") == 1
        assert_strict_exposition(text)
        assert_strict_exposition(second["prometheus"])

        # every monotone stats() key reaches Prometheus typed counter
        sections = {
            "repro_server": stats,
            "repro_store": stats["store"],
            "repro_store_persistent": stats["store"]["persistent"],
        }
        types = dict(re.findall(r"^# TYPE (\S+) (\S+)$", text, re.M))
        monotone = [f"repro_engine_{key}" for key in stats["stats"]]
        for prefix, keys in self.MONOTONE.items():
            assert set(keys) <= set(sections[prefix]), prefix
            monotone += [f"{prefix}_{key}" for key in keys]
        # the ingest memo counts into the server's registry only
        monotone += [
            "repro_ingest_memo_hits", "repro_ingest_memo_misses",
            "repro_ingest_line_fallbacks",
        ]
        assert len(monotone) == 31
        for family in monotone:
            assert types.get(family) == "counter", family
        for prefix, keys in self.LEVELS.items():
            for key in keys:
                assert types.get(f"{prefix}_{key}") == "gauge", key
        assert types.get("repro_ingest_memo_rows") == "gauge"
        assert "repro_store_disk_hits" not in types

        # no counter reads lower on a later scrape
        before = first["json"]["counters"]
        after = second["json"]["counters"]
        assert set(before) <= set(after)
        for key, value in before.items():
            assert after[key] >= value, key
        assert after["repro_server_batches"] == 3
        assert after["repro_ingest_memo_misses"] == 2
        assert after["repro_ingest_memo_hits"] == 2
        assert after["repro_ingest_line_fallbacks"] == 1
        assert second["json"]["gauges"]["repro_ingest_memo_rows"] == 2

    def test_json_is_one_line_and_round_trips(self):
        import json

        text = render_json(self.build_snapshot(), traces=[{"id": "t"}])
        assert "\n" not in text
        payload = json.loads(text)
        assert payload["counters"] == {"repro_c{kind=a}": 2}
        assert payload["traces"] == [{"id": "t"}]
