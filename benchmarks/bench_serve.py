"""E-SERVE — process-pool scaling and warm-cache daemon round-trips.

Two claims:

1. **Cores beat the GIL on CPU-bound misses.**  On a batch of distinct
   cyclic global checks (planted-triangle instances force the Theorem 4
   exact search), ``global_check_many(backend="process")`` — which
   ships fingerprinted payloads to worker processes and merges their
   verdict deltas back — is measurably faster than
   ``backend="thread"``, whose workers serialize on the interpreter
   lock.  One untimed process batch starts the pool first, then thread
   and process batches alternate ``CPU_ROUNDS`` times and the gate reads
   the median per-round ratio, so neither the fork nor one noisy batch
   decides it.  Gated only on multi-core machines (on one core there is
   nothing to win; the bench then still asserts verdict parity and
   skips the timing gate).

2. **A warm daemon beats cold batch re-runs.**  Replaying the same job
   stream against one long-running ``repro serve`` engine over a
   socket is at least 5x faster per round than cold ``repro batch``
   semantics (a fresh engine per run), because the content-addressed
   store turns every repeated job into a hit — JSON + socket overhead
   included.

``REPRO_BENCH_SMOKE=1`` shrinks the sizes so CI replays the file in
seconds; ``REPRO_BENCH_OUT=path`` writes the measured trajectory (CI
stores it as ``BENCH_serve.json`` alongside ``BENCH_live.json``).
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time

import pytest

from repro.engine.session import Engine
from repro.obs import percentiles, set_enabled
from repro.server import ReproServer, ServeClient
from repro.workloads.suites import get_suite

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

# -- claim 1: process vs thread on CPU-bound global checks --------------
# The per-collection work must dwarf pool startup + payload pickling
# even at smoke sizes, so smoke shrinks the batch, not the instances.
TRIANGLE_SIZE = 5
N_COLLECTIONS = 4 if SMOKE else 6
CPU_ROUNDS = 3
MIN_PROCESS_SPEEDUP = 1.1 if SMOKE else 1.25

# -- claim 2: warm serve vs cold batch ----------------------------------
N_ROUNDS = 4 if SMOKE else 8
STREAM_SUITES = [
    ["planted-path", 6, seed] for seed in range(3 if SMOKE else 5)
]
STREAM_TRIANGLE = [["planted-triangle", 3 if SMOKE else 4, 0]]
MIN_WARM_SPEEDUP = 5.0

_MEASUREMENTS: dict = {
    "bench": "serve",
    "smoke": SMOKE,
}


def cpu_collections() -> list[list]:
    """Distinct cyclic (search-path) instances: no two collections share
    a verdict, so every job is a genuine CPU-bound miss."""
    suite = get_suite("planted-triangle")
    return [
        suite.build(TRIANGLE_SIZE, seed=seed) for seed in range(N_COLLECTIONS)
    ]


def run_backend(backend: str, collections, workers: int) -> tuple[float, list]:
    engine = Engine()
    start = time.perf_counter()
    results = engine.global_check_many(
        collections, parallelism=workers, backend=backend
    )
    elapsed = time.perf_counter() - start
    return elapsed, [r.consistent for r in results]


def test_process_backend_beats_threads_on_cpu_bound_checks():
    """Gate 1: the process executor's verdict-delta merge must buy real
    wall-clock on CPU-bound global checks (multi-core machines only —
    verdict parity is asserted everywhere)."""
    cores = os.cpu_count() or 1
    workers = min(4, cores)
    collections = cpu_collections()

    serial_elapsed, serial_verdicts = run_backend(
        "serial", collections, workers=1
    )
    # Untimed: the first process batch also pays the pool's fork.
    _, process_verdicts = run_backend("process", collections, workers)
    assert process_verdicts == serial_verdicts
    assert all(serial_verdicts)  # planted instances are consistent
    thread_times, process_times = [], []
    for _ in range(CPU_ROUNDS):
        for backend, times in (
            ("thread", thread_times), ("process", process_times)
        ):
            elapsed, verdicts = run_backend(backend, collections, workers)
            assert verdicts == serial_verdicts, backend
            times.append(elapsed)
    ratios = [t / p for t, p in zip(thread_times, process_times)]
    speedup = statistics.median(ratios)
    thread_elapsed = statistics.median(thread_times)
    process_elapsed = statistics.median(process_times)
    print(
        f"\ncpu-bound global checks ({N_COLLECTIONS} x triangle "
        f"size {TRIANGLE_SIZE}, {workers} workers, median of "
        f"{CPU_ROUNDS} alternated rounds): "
        f"serial {serial_elapsed * 1000:.0f} ms, "
        f"thread {thread_elapsed * 1000:.0f} ms, "
        f"process {process_elapsed * 1000:.0f} ms, "
        f"process/thread speedup {speedup:.2f}x "
        f"(rounds {', '.join(f'{r:.2f}' for r in ratios)})"
    )
    skip_reason = (
        None
        if cores >= 2
        else f"single-core machine ({cores} core): process parallelism "
        "has nothing to win"
    )
    _MEASUREMENTS["cpu_bound"] = {
        "cores": cores,
        "workers": workers,
        "n_collections": N_COLLECTIONS,
        "triangle_size": TRIANGLE_SIZE,
        "rounds": CPU_ROUNDS,
        "serial_seconds": serial_elapsed,
        "thread_seconds": thread_elapsed,
        "process_seconds": process_elapsed,
        "thread_round_seconds": thread_times,
        "process_round_seconds": process_times,
        "round_ratios": ratios,
        "process_over_thread": speedup,
        "min_speedup": MIN_PROCESS_SPEEDUP,
        "gated": cores >= 2,
        "skip_reason": skip_reason,
    }
    _write_out()
    if skip_reason is not None:
        print(f"cpu_bound gate skipped: {skip_reason}")
        pytest.skip(skip_reason)
    assert speedup >= MIN_PROCESS_SPEEDUP, (
        f"process backend only {speedup:.2f}x over threads "
        f"(required {MIN_PROCESS_SPEEDUP}x on {cores} cores)"
    )


def stream_jobs() -> dict:
    return {"suites": STREAM_SUITES + STREAM_TRIANGLE}


def run_cold_rounds(n: int) -> tuple[float, list]:
    """Cold `repro batch` semantics: a fresh engine per round (exactly
    what each CLI invocation pays, minus interpreter startup — a
    baseline *favourable* to cold)."""
    from repro.engine.jobs import parse_jobs, run_jobs

    samples = []
    gc.collect()  # don't let a pending gen-2 collection land mid-loop
    start = time.perf_counter()
    for _ in range(n):
        round_start = time.perf_counter()
        run_jobs(parse_jobs(stream_jobs()), Engine())
        samples.append(time.perf_counter() - round_start)
    return time.perf_counter() - start, samples


def run_warm_rounds(address, n: int) -> tuple[float, dict, list]:
    with ServeClient(address) as client:
        client.request(stream_jobs())  # warm the store once
        samples = []
        gc.collect()  # don't let a pending gen-2 collection land mid-loop
        start = time.perf_counter()
        for _ in range(n):
            round_start = time.perf_counter()
            response = client.request(stream_jobs())
            samples.append(time.perf_counter() - round_start)
            assert response["ok"]
        elapsed = time.perf_counter() - start
        stats = client.request({"op": "stats"})
    return elapsed, stats, samples


def test_warm_serve_rounds_beat_cold_batch():
    """Gate 2: warm daemon round-trips >= 5x over cold per-run engines
    on a repeated-job stream."""
    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    try:
        warm_elapsed, stats, warm_samples = run_warm_rounds(address, N_ROUNDS)
    finally:
        server.shutdown()
    cold_elapsed, cold_samples = run_cold_rounds(N_ROUNDS)

    assert stats["store"]["hit_rate"] > 0.5  # the stream really repeats
    speedup = cold_elapsed / warm_elapsed
    print(
        f"\nrepeated-job stream x{N_ROUNDS}: cold batch "
        f"{cold_elapsed * 1000:.0f} ms, warm serve "
        f"{warm_elapsed * 1000:.0f} ms, speedup {speedup:.1f}x "
        f"(store hit rate {stats['store']['hit_rate']:.2f})"
    )
    _MEASUREMENTS["warm_serve"] = {
        "n_rounds": N_ROUNDS,
        "cold_seconds": cold_elapsed,
        "warm_seconds": warm_elapsed,
        "speedup": speedup,
        "store_hit_rate": stats["store"]["hit_rate"],
        "min_speedup": MIN_WARM_SPEEDUP,
        "latency": {
            "warm_round": percentiles(warm_samples),
            "cold_round": percentiles(cold_samples),
        },
        "server_latency": stats.get("latency", {}),
    }
    _write_out()
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm serve only {speedup:.2f}x over cold batch "
        f"(required {MIN_WARM_SPEEDUP}x)"
    )


# -- claim 3: telemetry rides for (nearly) free -------------------------
# Same warm in-process request replayed with tracing on vs off; the
# traced path additionally allocates a Trace, touches the contextvar in
# each instrumented layer, and appends to the recent-trace ring.  The
# design target is <= 3% on this workload (engine histograms record
# only on miss branches, so the warm path pays none of them); the gate
# itself is generous (1.25x) because CI timer noise at sub-millisecond
# request times dwarfs the real overhead.
OVERHEAD_ROUNDS = 30 if SMOKE else 80
MAX_OVERHEAD_RATIO = 1.25


def test_telemetry_overhead_on_warm_requests():
    server = ReproServer()
    payload = {"op": "batch", **stream_jobs()}
    assert server.handle_payload(payload)["ok"]  # warm the store

    def one_pass() -> float:
        gc.collect()  # a GC pause in either mode would swamp the delta
        start = time.perf_counter()
        for _ in range(OVERHEAD_ROUNDS):
            assert server.handle_payload(payload)["ok"]
        return time.perf_counter() - start

    # alternate traced/untraced passes and keep each mode's best, so a
    # background hiccup cannot bias one side
    traced = untraced = float("inf")
    try:
        for _ in range(3):
            set_enabled(True)
            traced = min(traced, one_pass())
            set_enabled(False)
            untraced = min(untraced, one_pass())
    finally:
        set_enabled(True)
    ratio = traced / untraced
    print(
        f"\ntelemetry overhead on {OVERHEAD_ROUNDS} warm requests: "
        f"traced {traced * 1000:.1f} ms, untraced {untraced * 1000:.1f} ms, "
        f"ratio {ratio:.3f} (overhead {(ratio - 1) * 100:+.1f}%)"
    )
    _MEASUREMENTS["telemetry_overhead"] = {
        "rounds": OVERHEAD_ROUNDS,
        "traced_seconds": traced,
        "untraced_seconds": untraced,
        "ratio": ratio,
        "overhead_percent": (ratio - 1.0) * 100.0,
        "target_percent": 3.0,
        "max_ratio": MAX_OVERHEAD_RATIO,
    }
    _write_out()
    assert ratio <= MAX_OVERHEAD_RATIO, (
        f"telemetry overhead {ratio:.3f}x exceeds the "
        f"{MAX_OVERHEAD_RATIO}x gate"
    )


def _write_out() -> None:
    """Write the trajectory after every gate so a failing assert still
    leaves the measurements behind (CI uploads them on failure too)."""
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(_MEASUREMENTS, fh, indent=2)


def test_serve_stream_timing(benchmark):
    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    try:
        with ServeClient(address) as client:
            client.request(stream_jobs())

            def round_trip():
                return client.request(stream_jobs())

            response = benchmark(round_trip)
            assert response["ok"]
    finally:
        server.shutdown()
