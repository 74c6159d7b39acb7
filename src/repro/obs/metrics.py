"""The metrics registry: named counters, gauges, and log-bucket
latency histograms.

Every layer of the stack (serve socket, jobs driver, Engine, executors,
wire codec, persistent store) records into one of two registries:

* the process-global :data:`REGISTRY` for process-wide totals — wire
  traffic, store I/O latency — exactly the counters the pre-telemetry
  code kept as racy module-level dicts, and
* a per-:class:`~repro.server.ReproServer` registry for daemon totals
  and per-op request latency, so tests (and a multi-daemon host) see
  exact per-server counts.

Counters and gauges are lock-protected (the ``obs`` tier sits *last* in
the declared lock order, so any layer may record while holding its own
lock).  The histogram is fixed-bound log-bucketed: geometric bucket
bounds spanning 1 microsecond to 100 seconds at :data:`BUCKETS_PER_DECADE`
per decade, so ``record`` is a bisect into a 65-slot table (O(1) — the
table size is a constant) and percentile readout walks the counts once.
A reported percentile is the *upper bound* of the bucket holding the
target rank, so it overshoots the true sample by at most one bucket
ratio (``10**(1/8)`` ≈ 1.33) — exact enough for p50/p95/p99 dashboards
and regression gates, with exact ``min``/``max``/``sum`` kept alongside.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

from ..analysis.registry import shared_state

__all__ = [
    "BUCKET_BOUNDS",
    "BUCKET_RATIO",
    "BUCKETS_PER_DECADE",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "percentiles",
]

# Geometric bucket bounds: 8 per decade from 1e-6 s to 100 s.  A sample
# lands in the first bucket whose upper bound is >= the sample; anything
# past the last bound lands in the overflow bucket (reported as the
# exact observed max).
BUCKETS_PER_DECADE = 8
BUCKET_RATIO = 10.0 ** (1.0 / BUCKETS_PER_DECADE)
_DECADES = range(-6, 2)  # 1e-6 .. 1e+2
BUCKET_BOUNDS = tuple(
    10.0 ** (exp + step / BUCKETS_PER_DECADE)
    for exp in _DECADES
    for step in range(BUCKETS_PER_DECADE)
) + (10.0 ** 2,)
_N_BOUNDS = len(BUCKET_BOUNDS)


@shared_state("_lock", "_value", tier="obs")
class Counter:
    """A monotonically increasing named total."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        self._value = 0

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0


@shared_state("_lock", "_value", tier="obs")
class Gauge:
    """A point-in-time value (set or adjusted, not summed over time)."""

    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0


@shared_state(
    "_lock", "_counts", "_count", "_sum", "_min", "_max", tier="obs"
)
class Histogram:
    """Fixed-bound log-bucket latency histogram (seconds).

    ``record`` is a bisect into the constant 65-bound table plus one
    slot increment under the lock; ``percentile`` reports the upper
    bound of the bucket holding the target rank (within one
    :data:`BUCKET_RATIO` of the true sample), except the overflow
    bucket, which reports the exact observed max.
    """

    __slots__ = ("name", "labels", "_lock", "_counts", "_count",
                 "_sum", "_min", "_max", "__weakref__")

    def __init__(self, name: str, labels: dict | None = None) -> None:
        self.name = name
        self.labels = dict(labels) if labels else {}
        self._lock = threading.Lock()
        # one slot per bound + the overflow slot
        self._counts = [0] * (_N_BOUNDS + 1)
        self._count = 0
        self._sum = 0.0
        self._min = 0.0
        self._max = 0.0

    def record(self, seconds: float) -> None:
        index = bisect_left(BUCKET_BOUNDS, seconds)
        with self._lock:
            self._counts[index] += 1
            if self._count == 0 or seconds < self._min:
                self._min = seconds
            if seconds > self._max:
                self._max = seconds
            self._count += 1
            self._sum += seconds

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def reset(self) -> None:
        with self._lock:
            for i in range(len(self._counts)):
                self._counts[i] = 0
            self._count = 0
            self._sum = 0.0
            self._min = 0.0
            self._max = 0.0

    def _percentile_locked(self, q: float) -> float:
        if self._count == 0:
            return 0.0
        # rank of the q-quantile sample, 1-indexed: the smallest sample
        # with cumulative count >= q * n (matching a sorted-list oracle
        # ``values[ceil(q * n) - 1]``).
        rank = max(1, -(-int(q * self._count * 1_000_000) // 1_000_000))
        seen = 0
        for index, bucket_count in enumerate(self._counts):
            seen += bucket_count
            if seen >= rank:
                if index >= _N_BOUNDS:
                    return self._max
                # cap at the exact observed max: still >= the true
                # sample, and keeps p99 <= max for sparse histograms
                return min(BUCKET_BOUNDS[index], self._max)
        return self._max

    def percentile(self, q: float) -> float:
        with self._lock:
            return self._percentile_locked(q)

    def summary(self) -> dict:
        """The JSON-shaped readout: count/sum/min/max plus p50/p95/p99."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "p50": self._percentile_locked(0.50),
                "p95": self._percentile_locked(0.95),
                "p99": self._percentile_locked(0.99),
            }

    def buckets(self) -> list:
        """Cumulative ``[upper_bound, count]`` pairs for Prometheus
        exposition, trimmed after the last occupied bucket (the ``+Inf``
        bucket is always appended by the renderer)."""
        with self._lock:
            counts = list(self._counts)
        occupied = [i for i in range(_N_BOUNDS) if counts[i]]
        if not occupied:
            return []
        out = []
        cumulative = 0
        for index in range(occupied[0], occupied[-1] + 1):
            cumulative += counts[index]
            out.append([BUCKET_BOUNDS[index], cumulative])
        return out


def percentiles(samples, qs=(0.50, 0.99)) -> dict:
    """Exact percentiles of a small in-memory sample list — the helper
    the benchmarks use for their per-section ``latency`` blocks (no
    bucketing: benches hold every sample anyway)."""
    ordered = sorted(samples)
    out = {"count": len(ordered)}
    for q in qs:
        key = f"p{int(q * 100)}"
        if not ordered:
            out[key] = 0.0
            continue
        rank = max(1, -(-int(q * len(ordered) * 1_000_000) // 1_000_000))
        out[key] = ordered[min(rank, len(ordered)) - 1]
    return out


@shared_state("_lock", "_metrics", tier="obs")
class MetricsRegistry:
    """Thread-safe name -> metric table.

    ``counter``/``gauge``/``histogram`` are get-or-create (idempotent,
    so module-level call sites can cache the returned object and hot
    paths skip the registry lock entirely).  A metric's identity is its
    ``(kind, name, sorted(labels))`` key; registering the same name
    with a different kind is an error.
    """

    __slots__ = ("_lock", "_metrics", "__weakref__")

    _KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics = {}

    def _get(self, kind: str, name: str, labels: dict | None):
        key = (name, tuple(sorted((labels or {}).items())))
        with self._lock:
            existing = self._metrics.get(key)
            if existing is not None:
                if not isinstance(existing, self._KINDS[kind]):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{type(existing).__name__}, not {kind}"
                    )
                return existing
            metric = self._KINDS[kind](name, labels)
            self._metrics[key] = metric
            return metric

    def counter(self, name: str, labels: dict | None = None) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, labels: dict | None = None) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(self, name: str, labels: dict | None = None) -> Histogram:
        return self._get("histogram", name, labels)

    def metrics(self) -> list:
        with self._lock:
            return list(self._metrics.values())

    def reset(self) -> None:
        """Zero every registered metric (test and bench isolation)."""
        for metric in self.metrics():
            metric.reset()

    def snapshot(self) -> dict:
        """A JSON-shaped dump: ``{"counters": {...}, "gauges": {...},
        "histograms": {name: summary+buckets}}`` with ``name{k=v,...}``
        flat keys for labelled metrics."""
        counters: dict = {}
        gauges: dict = {}
        histograms: dict = {}
        for metric in self.metrics():
            key = flat_name(metric.name, metric.labels)
            if isinstance(metric, Counter):
                counters[key] = metric.value
            elif isinstance(metric, Gauge):
                gauges[key] = metric.value
            else:
                entry = metric.summary()
                entry["buckets"] = metric.buckets()
                histograms[key] = entry
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
        }


def flat_name(name: str, labels: dict | None) -> str:
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


# The process-global registry: process-wide totals (wire traffic,
# store I/O).  Per-server counters live on each
# ReproServer's own registry instead.
REGISTRY = MetricsRegistry()
