"""Unified telemetry: metrics registry, latency histograms, request
tracing, and exposition.

Three small modules, one contract:

* :mod:`repro.obs.metrics` — thread-safe counters/gauges/log-bucket
  histograms in a :class:`MetricsRegistry`; the process-global
  :data:`REGISTRY` carries process-wide totals (wire traffic, store
  I/O latency) while each ``ReproServer`` owns a private
  registry for exact per-daemon counts.
* :mod:`repro.obs.trace` — per-request spans behind a contextvar,
  propagated across the process boundary by shipping the trace id out
  and span deltas back (exactly like verdict deltas); finished traces
  land in the bounded :data:`RECENT` ring with a ``--slow-ms`` log.
* :mod:`repro.obs.expo` — renders merged registry snapshots as
  one-line JSON and Prometheus text (the ``metrics`` serve op and
  ``repro obs`` CLI), counters typed as counters.

Overhead contract: on the warm serve path, telemetry costs one
per-request histogram record plus one contextvar read per layer —
engine-layer histograms record only on *miss* (compute) branches, so a
cache-hit workload pays nothing there.  bench_serve measures the
end-to-end overhead of tracing and gates it at ≤ 1.25x (the median of
alternated traced/untraced passes, reported in ``BENCH_serve.json``).

All locks and shared containers here are declared in the
:mod:`repro.analysis` registry under the terminal ``obs`` tier, so
recording a metric while holding any engine or store lock is legal
under RL05 and the ``REPRO_SANITIZE=1`` proxies.
"""

from __future__ import annotations

from .expo import merge_snapshots, render_json, render_prometheus
from .metrics import (
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentiles,
)
from .trace import (
    RECENT,
    Trace,
    TraceBuffer,
    current,
    finish_trace,
    set_enabled,
    start_trace,
    worker_trace,
)

__all__ = [
    "REGISTRY",
    "RECENT",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Trace",
    "TraceBuffer",
    "current",
    "finish_trace",
    "merge_snapshots",
    "percentiles",
    "render_json",
    "render_prometheus",
    "set_enabled",
    "start_trace",
    "worker_trace",
]
