"""E-DISPATCH — which batches are worth a worker process.

The paper's dichotomy says where the work is: pair verdicts (Lemma 2),
Corollary 1 witnesses and Theorem 6 folds are polynomial and close to
linear in their input, and only cyclic collections need the exponential
search of Theorem 4.  Shipping a job to the process pool costs CPU in
proportion to its input (the parent fingerprints and pickles each bag,
the worker unpickles it and derives its fingerprint again), so only the
search can pay for it.  This sweep is the measurement behind that rule
(``engine/executors.py``).

For each kind of global batch — acyclic path collections (three bags,
Theorem 6) and cyclic triangles (Theorem 4) — each batch size and each
row count a bag, it times the batch at ``parallelism`` ``None`` (the
plain loop) and 2, alternating the two over paired rounds, and reads
the total CPU of this process and its live pool workers
(``/proc/<pid>/stat``).  Every round runs fresh bag copies (no cached
marginals or fingerprints) through a fresh engine, so every job is a
miss; one untimed process round per cell starts the pool first.

Gate: every acyclic cell runs at ``parallelism=2`` within
``MAX_RATIO`` of the plain loop (the median of the per-round
process/serial ratios).  Cyclic cells are measured, not gated.

Pair checks and witnesses are not swept: their batches take no
``parallelism`` and are always the plain loop.  The committed
``BENCH_dispatch.json`` holds one run per tree, each labelled with its
commit; its pair and witness cells come from trees whose pair batches
still took the parameter.  The sweep calls only the public
``global_check_many(parallelism=...)``, which those trees take too.
``REPRO_BENCH_SMOKE=1`` shrinks the row counts; ``REPRO_BENCH_OUT=path``
writes the run.
"""

from __future__ import annotations

import gc
import json
import math
import multiprocessing
import os
import pickle
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from repro.engine import executors
from repro.engine.session import Engine
from repro.hypergraphs.families import path_hypergraph, triangle_hypergraph
from repro.workloads.generators import random_collection_over

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

WORKERS = 2
ROUNDS = 15
MAX_RATIO = 1.2
BATCH_SIZES = (8, 32)
ROWS = {
    "acyclic": (16, 128) if SMOKE else (16, 128, 1024),
    "cyclic": (4, 16) if SMOKE else (4, 16, 32),
}
GATED = ("acyclic",)

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def build_batch(kind: str, size: int, rows: int, seed: int) -> bytes:
    """A pickled batch of ``size`` distinct jobs (bags pickle without
    their indexes, so every load is a cold copy)."""
    rng = random.Random(seed)
    if kind == "acyclic":
        # 2*sqrt(rows) values per attribute keep supports near ``rows``
        # while the join attributes still fan out
        domain = max(3, round(2 * math.sqrt(rows)))
        batch = [
            random_collection_over(
                path_hypergraph(4), rng, domain_size=domain, n_tuples=rows
            )
            for _ in range(size)
        ]
    else:
        batch = [
            random_collection_over(
                triangle_hypergraph(), rng,
                domain_size=max(2, math.isqrt(rows)), n_tuples=rows,
            )
            for _ in range(size)
        ]
    return pickle.dumps(batch)


def run_collections(batch: list, parallelism: int | None) -> list:
    return [
        (result.consistent, result.method, result.witness)
        for result in Engine().global_check_many(
            batch, parallelism=parallelism
        )
    ]


def tree_cpu() -> float:
    """CPU seconds of this process (all threads) plus its live
    children (the pool's workers)."""
    total = time.process_time()
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except FileNotFoundError:
            continue
        fields = stat.rpartition(")")[2].split()
        total += (int(fields[11]) + int(fields[12])) / CLOCK_TICKS
    return total


def timed(blob: bytes, parallelism: int | None):
    batch = pickle.loads(blob)
    gc.collect()
    cpu = tree_cpu()
    start = time.perf_counter()
    results = run_collections(batch, parallelism)
    elapsed = time.perf_counter() - start
    return elapsed, tree_cpu() - cpu, results


def measure_cell(kind: str, size: int, rows: int, seed: int) -> dict:
    blob = build_batch(kind, size, rows, seed)
    _, _, expected = timed(blob, None)
    _, _, shipped = timed(blob, WORKERS)  # untimed: starts the pool
    assert shipped == expected, (kind, size, rows)
    serial, process, serial_cpu, process_cpu = [], [], 0.0, 0.0
    for _ in range(ROUNDS):
        elapsed, cpu, results = timed(blob, None)
        assert results == expected
        serial.append(elapsed)
        serial_cpu += cpu
        elapsed, cpu, results = timed(blob, WORKERS)
        assert results == expected
        process.append(elapsed)
        process_cpu += cpu
    ratios = [p / s for s, p in zip(serial, process)]
    ratio = statistics.median(ratios)
    return {
        "kind": kind,
        "batch": size,
        "rows": rows,
        "serial_ms": statistics.median(serial) * 1000,
        "process_ms": statistics.median(process) * 1000,
        "ratio": ratio,
        "round_ratios": ratios,
        "serial_cpu_ms": serial_cpu / ROUNDS * 1000,
        "process_cpu_ms": process_cpu / ROUNDS * 1000,
        "cpu_ratio": process_cpu / serial_cpu if serial_cpu else None,
        "gated": kind in GATED,
        "ok": kind not in GATED or ratio <= MAX_RATIO,
    }


def _commit() -> dict:
    """The checkout this file runs in: its HEAD, and whether ``src/``
    differs from it (a measured change not yet committed)."""
    root = Path(__file__).resolve().parents[1]

    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", *args], cwd=root, capture_output=True, text=True,
                timeout=10,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    head = git("rev-parse", "--short", "HEAD")
    status = git("status", "--porcelain", "--", "src")
    return {"commit": head, "src_modified": bool(status) if head else None}


def test_only_search_work_pays_for_a_worker():
    cores = os.cpu_count() or 1
    cells = []
    # each cell keeps the seed it had when pair and witness cells (two
    # kinds with the acyclic row counts) ran first, so its batch is the
    # one the committed runs measured
    seed = 2 * len(BATCH_SIZES) * len(ROWS["acyclic"])
    try:
        for kind, row_counts in ROWS.items():
            for size in BATCH_SIZES:
                for rows in row_counts:
                    seed += 1
                    cell = measure_cell(kind, size, rows, seed)
                    cells.append(cell)
                    print(
                        f"\n{kind:>9} {size:>2} x {rows:>4} rows: serial "
                        f"{cell['serial_ms']:8.2f} ms, parallelism={WORKERS} "
                        f"{cell['process_ms']:8.2f} ms, ratio "
                        f"{cell['ratio']:.2f}, cpu ratio "
                        f"{cell['cpu_ratio'] or 0:.2f}",
                        end="",
                    )
    finally:
        executors.shutdown_pools()
    failures = [
        f"{c['kind']} {c['batch']}x{c['rows']}: {c['ratio']:.2f}x"
        for c in cells if not c["ok"]
    ]
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        run = {
            "bench": "dispatch",
            "smoke": SMOKE,
            **_commit(),
            "python": sys.version.split()[0],
            "cores": cores,
            "workers": WORKERS,
            "rounds": ROUNDS,
            "max_ratio": MAX_RATIO,
            "cells": cells,
            "gate_failures": failures,
        }
        with open(out, "w") as fh:
            json.dump(run, fh, indent=2)
    assert not failures, (
        f"parallelism={WORKERS} slower than {MAX_RATIO}x the plain loop "
        f"on Theorem 6 folds: {failures}"
    )
