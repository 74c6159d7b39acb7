"""E-SERVE — process-pool scaling and warm-cache daemon round-trips.

Two claims:

1. **Cores beat the GIL on CPU-bound misses.**  On a batch of distinct
   cyclic global checks (planted-triangle instances force the Theorem 4
   exact search), ``global_check_many(parallelism=N)`` — which ships
   fingerprinted payloads to N worker processes and merges their
   verdict deltas back — is measurably faster than the plain serial
   loop.  One untimed process batch starts the pool first, then serial
   and process batches alternate ``CPU_ROUNDS`` times and the gate reads
   the median per-round ratio, so neither the fork nor one noisy batch
   decides it.  Gated only on multi-core machines (on one core there is
   nothing to win; the bench then still asserts verdict parity and
   skips the timing gate).  Each process round also records every
   worker's CPU time and the vCPU it last ran on
   (``/proc/<pid>/stat`` fields 14-15 and 39), which shows whether the
   workers really ran side by side.

2. **A warm daemon beats cold batch re-runs.**  Replaying the same job
   stream against one long-running ``repro serve`` engine over a
   socket is at least 5x faster per round than cold ``repro batch``
   semantics (a fresh engine per run), because the content-addressed
   store turns every repeated job into a hit and the engine keeps the
   stream's suite instances built — JSON + socket overhead included.

``REPRO_BENCH_SMOKE=1`` shrinks the sizes so CI replays the file in
seconds; ``REPRO_BENCH_OUT=path`` writes the measured trajectory (CI
stores it as ``BENCH_serve.json`` alongside ``BENCH_live.json``).
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import statistics
import time
from pathlib import Path

import pytest

from repro.engine.session import Engine
from repro.obs import percentiles, set_enabled
from repro.server import ReproServer, ServeClient
from repro.workloads.suites import get_suite

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

# -- claim 1: process pool vs serial loop on CPU-bound global checks ----
# The batch must stay CPU-bound: one size-5 planted triangle takes about
# 2 ms to decide, so enough of them must dwarf payload pickling and the
# delta merge.  Smoke shrinks the batch, not the instances.  A batch
# then lasts ~50 ms, and on a shared 2-vCPU VM one descheduled worker
# swings a single round between 0.7x and 2x, so the median takes many
# rounds (15 rounds read 1.25-1.78x at both sizes).
TRIANGLE_SIZE = 5
N_COLLECTIONS = 24 if SMOKE else 32
CPU_ROUNDS = 15
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


CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def worker_stats() -> dict[int, tuple[float, int]]:
    """Each live pool worker's CPU seconds and the vCPU it last ran on
    (``/proc/<pid>/stat`` fields 14-15 and 39)."""
    stats = {}
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except FileNotFoundError:
            continue
        fields = stat.rpartition(")")[2].split()
        cpu = (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
        stats[child.pid] = (cpu, int(fields[36]))
    return stats


def run_batch(collections, parallelism: int) -> tuple[float, list]:
    engine = Engine()
    start = time.perf_counter()
    results = engine.global_check_many(collections, parallelism=parallelism)
    elapsed = time.perf_counter() - start
    return elapsed, [r.consistent for r in results]


def test_process_pool_beats_serial_on_cpu_bound_checks():
    """Gate 1: the process pool's verdict-delta merge must buy real
    wall-clock over the serial loop on CPU-bound global checks
    (multi-core machines only — verdict parity is asserted
    everywhere)."""
    cores = os.cpu_count() or 1
    workers = min(4, cores)
    collections = cpu_collections()

    _, serial_verdicts = run_batch(collections, 1)
    assert all(serial_verdicts)  # planted instances are consistent
    # Untimed: the first process batch also pays the pool's fork.
    _, process_verdicts = run_batch(collections, workers)
    assert process_verdicts == serial_verdicts
    serial_times, process_times, process_workers = [], [], []
    for _ in range(CPU_ROUNDS):
        for parallelism, times in (
            (1, serial_times), (workers, process_times)
        ):
            before = worker_stats()
            elapsed, verdicts = run_batch(collections, parallelism)
            assert verdicts == serial_verdicts, parallelism
            times.append(elapsed)
            if parallelism != 1:
                process_workers.append([
                    {
                        "pid": pid,
                        "cpu_ms": (cpu - before.get(pid, (0.0,))[0]) * 1000,
                        "vcpu": vcpu,
                    }
                    for pid, (cpu, vcpu) in worker_stats().items()
                ])
    one_vcpu = sum(
        len({worker["vcpu"] for worker in round_workers}) == 1
        for round_workers in process_workers
    )
    ratios = [t / p for t, p in zip(serial_times, process_times)]
    speedup = statistics.median(ratios)
    serial_elapsed = statistics.median(serial_times)
    process_elapsed = statistics.median(process_times)
    print(
        f"\ncpu-bound global checks ({N_COLLECTIONS} x triangle "
        f"size {TRIANGLE_SIZE}, {workers} workers, median of "
        f"{CPU_ROUNDS} alternated rounds): "
        f"serial {serial_elapsed * 1000:.0f} ms, "
        f"process {process_elapsed * 1000:.0f} ms, "
        f"process/serial speedup {speedup:.2f}x "
        f"(rounds {', '.join(f'{r:.2f}' for r in ratios)}; all workers "
        f"last on one vCPU in {one_vcpu} of {CPU_ROUNDS} process rounds)"
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
        "process_seconds": process_elapsed,
        "serial_round_seconds": serial_times,
        "process_round_seconds": process_times,
        "process_round_workers": process_workers,
        "process_rounds_on_one_vcpu": one_vcpu,
        "round_ratios": ratios,
        "process_over_serial": speedup,
        "min_speedup": MIN_PROCESS_SPEEDUP,
        "gated": cores >= 2,
        "skip_reason": skip_reason,
    }
    _write_out()
    if skip_reason is not None:
        print(f"cpu_bound gate skipped: {skip_reason}")
        pytest.skip(skip_reason)
    assert speedup >= MIN_PROCESS_SPEEDUP, (
        f"process pool only {speedup:.2f}x over the serial loop "
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
# request times dwarfs the real overhead.  A warm request takes 60-110 us
# now that the engine keeps the stream's suite instances built, so a
# pass lasts a few milliseconds and a brief fast or slow spell of the
# host swings one pass by a third: on a shared 2-vCPU VM, each mode's
# best of 3 passes read 1.25-1.70x in 3 of 40 runs around a typical
# 1.10-1.17x.  The gate reads the median of OVERHEAD_PASSES paired
# traced/untraced ratios instead (1.07-1.12x full, 1.10-1.21x smoke
# over 54 runs).  The trace's fixed ~10 us is thus 7-21% of this
# request, well above the 3% target (ROADMAP).
OVERHEAD_ROUNDS = 30 if SMOKE else 80
OVERHEAD_PASSES = 15
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

    # alternate traced/untraced passes and read the median of the
    # paired ratios, so neither a background hiccup nor a brief fast
    # spell of the host in one pass decides the gate
    traced_passes, untraced_passes = [], []
    try:
        for _ in range(OVERHEAD_PASSES):
            set_enabled(True)
            traced_passes.append(one_pass())
            set_enabled(False)
            untraced_passes.append(one_pass())
    finally:
        set_enabled(True)
    ratios = [t / u for t, u in zip(traced_passes, untraced_passes)]
    ratio = statistics.median(ratios)
    traced = statistics.median(traced_passes)
    untraced = statistics.median(untraced_passes)
    print(
        f"\ntelemetry overhead on {OVERHEAD_ROUNDS} warm requests "
        f"(median of {OVERHEAD_PASSES} alternated passes): "
        f"traced {traced * 1000:.1f} ms, untraced {untraced * 1000:.1f} ms, "
        f"ratio {ratio:.3f} (overhead {(ratio - 1) * 100:+.1f}%)"
    )
    _MEASUREMENTS["telemetry_overhead"] = {
        "rounds": OVERHEAD_ROUNDS,
        "passes": OVERHEAD_PASSES,
        "traced_seconds": traced,
        "untraced_seconds": untraced,
        "pass_ratios": ratios,
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
