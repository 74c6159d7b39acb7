"""Per-layer metrics from a traced run: the launcher's spans, the
client's round trips, and the daemon's ``stats`` op read before and
after the measured phase.

A span's self time is its duration minus the durations of its direct
children (spans nest on one thread, so children never overlap).  A
span belongs to the measured phase when its request root started
inside the phase window; spans outside any request (collections on
other threads, worker starts) count when they start inside it.
"""

from __future__ import annotations

from collections import defaultdict

# metric -> span whose self time it sums, per request, in ms
SELF_TIME_MS = {
    "server.self_ms": "server.handle_payload",
    "wire.decode_ms": "wire.decode",
    "wire.encode_ms": "wire.encode",
    "io.bag_from_dict_ms": "io.bag_from_dict",
    "io.bag_to_dict_ms": "io.bag_to_dict",
    "jobs.parse_self_ms": "jobs.parse",
    "jobs.run_self_ms": "jobs.run",
    "fingerprint.ms": "fingerprint",
    "session.get_ms": "session.get",
    "session.put_ms": "session.put",
    "pairwise.consistent_ms": "pairwise.consistent",
    "pairwise.witness_ms": "pairwise.witness",
    "global.acyclic_ms": "global.acyclic",
    "global.search_ms": "global.search",
    "store.read_ms": "store.read",
    "store.flush_ms": "store.flush",
    "runtime.gc_ms": "runtime.gc",
}

UNITS = {
    "server.io_ms": "ms",
    **{name: "ms" for name in SELF_TIME_MS},
    "wire.req_kb": "KiB",
    "wire.resp_kb": "KiB",
    "fingerprint.calls": "count",
    "session.hit_ratio": "fraction",
    "session.evictions": "count",
    "columnar.share": "fraction",
    "executors.batch_ms": "ms",
    "executors.worker_cpu_ms": "ms",
    "executors.workers_started": "count",
    "store.open_s": "s",
    "store.disk_hit_ratio": "fraction",
    "store.bytes_per_record": "bytes",
    "trace.coverage": "fraction",
    "trace.overhead": "ratio",
}

_KERNEL_OPS = (
    "marginals", "consistency", "witnesses", "joins", "semijoins", "fingerprints",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _delta(before: dict, after: dict, *path: str) -> float:
    """``after[path] - before[path]`` for nested stats; missing reads 0."""

    def read(stats) -> float:
        for key in path:
            stats = stats.get(key) if isinstance(stats, dict) else None
        return stats if isinstance(stats, (int, float)) else 0

    return read(after) - read(before)


def per_layer(
    trace: dict,
    samples: list,
    requests: list,
    window: tuple[float, float],
    stats_before: dict,
    stats_after: dict,
) -> dict[str, float]:
    """Every per-layer metric, per measured request unless its unit
    says otherwise."""
    lo, hi = window
    n = len(samples)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    batch_ms = worker_cpu_ms = covered = 0.0
    open_s: list[float] = []
    for thread in trace["threads"]:
        spans = thread["spans"]
        child = [0.0] * len(spans)
        for _, start, end, parent, _, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        measured: set[int] = set()
        for i, (name, start, end, _, request, value) in enumerate(spans):
            if name == "store.open":
                open_s.append(end - start)
            if name == "request" and lo <= start <= hi:
                measured.add(request)
                covered += child[i]
            if request not in measured and not (
                request is None and lo <= start <= hi
            ):
                continue
            calls[name] += 1
            self_ms[name] += (end - start - child[i]) * 1000
            if name == "executors.batch":
                batch_ms += (end - start) * 1000
                worker_cpu_ms += value * 1000
    round_trip = sum(s.received - s.sent for s in samples)

    store_before = stats_before.get("store", {})
    store_after = stats_after.get("store", {})
    lookups = _delta(store_before, store_after, "hits") + _delta(
        store_before, store_after, "misses"
    )
    disk_hits = _delta(store_before, store_after, "persistent", "disk_hits")
    columnar = sum(
        _delta(stats_before, stats_after, "kernels", "columnar_" + op)
        for op in _KERNEL_OPS
    )
    row = sum(
        _delta(stats_before, stats_after, "kernels", "row_" + op)
        for op in _KERNEL_OPS
    )
    persistent = store_after.get("persistent") or {}

    metrics = {
        "server.io_ms": (round_trip - covered) * 1000 / n,
        **{
            metric: self_ms[span] / n for metric, span in SELF_TIME_MS.items()
        },
        "wire.req_kb": sum(len(requests[s.index].data) for s in samples) / 1024 / n,
        "wire.resp_kb": sum(len(s.response) for s in samples) / 1024 / n,
        "fingerprint.calls": calls["fingerprint"] / n,
        "session.hit_ratio": _ratio(
            _delta(store_before, store_after, "hits") - disk_hits, lookups
        ),
        "session.evictions": _delta(store_before, store_after, "evictions") / n,
        "columnar.share": _ratio(columnar, columnar + row),
        "executors.batch_ms": batch_ms / n,
        "executors.worker_cpu_ms": worker_cpu_ms / n,
        "executors.workers_started": calls["executors.worker_start"] / n,
        "store.open_s": sum(open_s) / len(open_s) if open_s else 0.0,
        "store.disk_hit_ratio": _ratio(disk_hits, lookups),
        "store.bytes_per_record": _ratio(
            persistent.get("disk_bytes", 0), persistent.get("records", 0)
        ),
        "trace.coverage": _ratio(covered, round_trip),
    }
    return metrics
