"""Request tracing: per-request spans across serve → engine → executor
→ store, including process-executor workers.

A :class:`Trace` is a trace id plus an append-only span list.  The
serve layer opens one per request (:func:`start_trace`) and publishes
it in a :mod:`contextvars` context variable, so any layer below can
attach spans without plumbing arguments through every signature —
the hot-path contract is::

    tr = current()
    if tr is not None:
        tr.add_span("engine.marginal", t0, elapsed)

(one contextvar read and a ``None`` check when tracing is off or no
request is in flight — the overhead budget the bench_serve gate
measures).

Crossing the process boundary: the trace id rides the job payload to
process workers; each worker runs under its own local :class:`Trace`
and ships its span list back with the verdict deltas, which the parent
merges via :meth:`Trace.merge_remote` — worker span offsets are
worker-local clocks, so merged spans are tagged ``"remote": True``
rather than re-based.

Finished traces land in the bounded ring buffer :data:`RECENT`
(:class:`TraceBuffer`) and, above the configurable ``--slow-ms``
threshold, in the ``repro.obs`` slow-request log.  Per-trace span
count is capped at :data:`MAX_SPANS` with an explicit drop counter, so
a pathological batch cannot balloon memory.
"""

from __future__ import annotations

import contextvars
import itertools
import logging
import threading
import time
from contextlib import contextmanager

from ..analysis.registry import shared_state

__all__ = [
    "MAX_SPANS",
    "RECENT",
    "Trace",
    "TraceBuffer",
    "current",
    "enabled",
    "finish_trace",
    "set_enabled",
    "start_trace",
    "worker_trace",
]

logger = logging.getLogger("repro.obs")

MAX_SPANS = 256

# Transient kill switch (benchmark baselines measure the untraced
# path on the same build).  Plain bool: flipped by the bench/test
# driver thread, read-only everywhere else.
_enabled = True

# Monotonic trace-id source: wall-clock seed + process-local counter,
# cheap and unique enough across a daemon fleet's logs.
_ids = itertools.count(int(time.time() * 1000) << 20)

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "repro_obs_trace", default=None
)


def set_enabled(value: bool) -> None:
    global _enabled
    _enabled = bool(value)


def enabled() -> bool:
    return _enabled


def current():
    """The in-flight :class:`Trace` of this context, or ``None``."""
    return _CURRENT.get()


class Trace:
    """One request's span list.  ``add_span`` offsets are seconds since
    the trace's own ``perf_counter`` origin (workers' offsets are their
    local origins — see ``merge_remote``).

    A trace belongs to one thread: the handler thread that opens it
    writes every span (a process batch merges its workers' spans in
    that thread too) and finishes it.  Only a finished trace is read
    elsewhere (:class:`TraceBuffer`), so it takes no lock.
    """

    __slots__ = ("trace_id", "op", "origin", "spans", "dropped", "total_ms")

    def __init__(self, op: str, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or f"{next(_ids):x}"
        self.op = op
        self.origin = time.perf_counter()
        self.spans = []
        self.dropped = 0
        self.total_ms = None  # stamped by finish_trace

    def add_span(self, name: str, start: float, duration: float,
                 **extra) -> None:
        """Record one span; ``start`` is an absolute ``perf_counter``
        reading taken in this process (re-based onto the trace
        origin)."""
        entry = {
            "name": name,
            "start_ms": round((start - self.origin) * 1000.0, 3),
            "ms": round(duration * 1000.0, 3),
            **extra,
        }
        if len(self.spans) >= MAX_SPANS:
            self.dropped += 1
            return
        self.spans.append(entry)

    def merge_remote(self, spans, worker: int | None = None) -> None:
        """Fold a process worker's span list back in (the span analogue
        of merging verdict deltas).  Offsets stay worker-local clocks;
        spans are tagged remote instead of re-based."""
        spans = list(spans)
        for index, entry in enumerate(spans):
            if len(self.spans) >= MAX_SPANS:
                self.dropped += len(spans) - index
                break
            tagged = dict(entry)
            tagged["remote"] = True
            if worker is not None:
                tagged["worker"] = worker
            self.spans.append(tagged)

    def export_spans(self) -> list:
        """The picklable span list a worker ships back to its parent."""
        return [dict(entry) for entry in self.spans]

    def to_dict(self) -> dict:
        # A shallow copy is a snapshot: span dicts are never mutated
        # once appended (add_span and merge_remote build fresh ones).
        out = {
            "id": self.trace_id,
            "op": self.op,
            "spans": list(self.spans),
        }
        if self.dropped:
            out["dropped_spans"] = self.dropped
        if self.total_ms is not None:
            out["total_ms"] = self.total_ms
        return out


@shared_state("_lock", "_ring", "_next", tier="obs")
class TraceBuffer:
    """Bounded ring of the most recent finished traces.  A buffered
    :class:`Trace` is rendered to its dict by :meth:`snapshot`, not
    when it finishes, so a request pays for its ring slot only."""

    __slots__ = ("capacity", "_lock", "_ring", "_next", "__weakref__")

    def __init__(self, capacity: int = 64) -> None:
        self.capacity = capacity
        self._lock = threading.Lock()
        self._ring = []
        self._next = 0

    def append(self, entry: "Trace | dict") -> None:
        with self._lock:
            if len(self._ring) < self.capacity:
                self._ring.append(entry)
            else:
                self._ring[self._next] = entry
                self._next = (self._next + 1) % self.capacity

    def snapshot(self) -> list:
        """Oldest-first copy of the buffered traces, as dicts."""
        with self._lock:
            entries = self._ring[self._next:] + self._ring[:self._next]
        return [
            entry.to_dict() if isinstance(entry, Trace) else entry
            for entry in entries
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        with self._lock:
            del self._ring[:]
            self._next = 0


# The process-wide ring of recent traces — what the ``metrics`` serve
# op and ``repro obs --traces`` expose.
RECENT = TraceBuffer(64)


def finish_trace(trace: Trace, duration: float,
                 slow_ms: float | None = None) -> None:
    """Close out a request trace: stamp the total duration, append it
    to :data:`RECENT`, and emit the slow-request log line when the
    total clears ``slow_ms``."""
    trace.total_ms = total_ms = round(duration * 1000.0, 3)
    RECENT.append(trace)
    if slow_ms is not None and total_ms >= slow_ms > 0:
        logger.warning(
            "slow request trace=%s op=%s total_ms=%.3f spans=%d",
            trace.trace_id, trace.op, total_ms, len(trace.spans),
        )


@contextmanager
def start_trace(op: str, slow_ms: float | None = None):
    """Open the root trace for one request (serve layer / CLI batch).
    Yields the :class:`Trace` (or ``None`` when tracing is disabled)
    and finishes it into :data:`RECENT` on exit."""
    if not _enabled:
        yield None
        return
    trace = Trace(op)
    token = _CURRENT.set(trace)
    start = trace.origin
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
        finish_trace(trace, time.perf_counter() - start, slow_ms)


@contextmanager
def worker_trace(trace_id: str | None):
    """The process-worker side: run the chunk under a local trace
    carrying the parent's id, or a no-op when the parent wasn't
    tracing.  The caller ships ``trace.export_spans()`` back with the
    verdict deltas."""
    if trace_id is None:
        yield None
        return
    trace = Trace("worker", trace_id=trace_id)
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
