"""E-LIVE — streaming updates: LiveEngine vs cold Engine recompute.

Claim: on an update -> re-check serving loop, the incremental path
(O(1) pair-checker bumps per update, O(m^2) flag reads per decision,
Theorem 2 upgrading pairwise to global over the acyclic path schema) is
at least 10x faster than the cold strategy the PR-1 engine forces —
rebuilding immutable bags and re-deciding pairwise consistency from
scratch after every update — with identical verdict streams.

The file also asserts the bounded-cache guarantee: an
``Engine(capacity=N)`` session sweeping more than N distinct pairs
never holds more than N cached results.

``REPRO_BENCH_SMOKE=1`` shrinks every size so CI can replay the file in
seconds (the speedup gate is relaxed to >= 3x there: tiny instances
leave little recompute to skip).  ``REPRO_BENCH_OUT=path`` writes the
measured trajectory as JSON (CI stores it as ``BENCH_live.json`` so the
perf trend is tracked across PRs).
"""

from __future__ import annotations

import gc
import json
import os
import random
import statistics
import time

from repro.consistency.global_ import pairwise_consistent
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine.live import LiveEngine
from repro.engine.session import Engine
from repro.obs import percentiles
from repro.workloads.generators import planted_collection, planted_pair

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

N_BAGS = 4 if SMOKE else 6
N_TUPLES = 48 if SMOKE else 120
N_TXNS = 15 if SMOKE else 50
DOMAIN = 4 if SMOKE else 8
MIN_SPEEDUP = 3.0 if SMOKE else 10.0
# A smoke live pass lasts ~1 ms, so one pass's ratio swings with the
# host (single passes read 2.9-6.4x on a 2-vCPU VM), and the first timed
# live pass is still partly cold (the warm-up replays only 2 updates):
# in CI's three-file bench-smoke invocation a single pass pair read
# 2.5-3.7x in 14 runs, 3 of them under the 3x bound.  The gate reads
# the median of SPEEDUP_PASSES paired ratios instead, as bench_serve's
# telemetry gate does: 4.2-5.2x at smoke size (14 runs) and 16.2-18.2x
# at full size (6 runs).
SPEEDUP_PASSES = 15


def path_schemas(m: int) -> list[Schema]:
    return [Schema([f"X{i}", f"X{i + 1}"]) for i in range(m)]


def make_workload() -> tuple[list[Bag], list[tuple[int, tuple, int]]]:
    """A planted (consistent, acyclic) collection plus a valid stream of
    tuple updates, generated against a simulated union-level state so
    both execution paths can replay it verbatim.

    The stream is a sequence of *transactions*: each inserts or deletes
    one tuple of the hidden union-schema witness and propagates its
    marginal row to every bag.  Mid-transaction the collection is
    (usually) inconsistent; at every transaction boundary it is
    consistent again — the monitoring pattern where the cold path must
    keep paying full pairwise re-scans.
    """
    from repro.core.schema import projection_plan

    rng = random.Random(20210621)
    schemas = path_schemas(N_BAGS)
    plant, bags = planted_collection(
        schemas, rng, domain_size=DOMAIN, n_tuples=N_TUPLES,
        max_multiplicity=4,
    )
    union = plant.schema
    plans = [
        projection_plan(union.attrs, schema.attrs) for schema in schemas
    ]
    pool = dict(plant.items())
    updates = []
    for _ in range(N_TXNS):
        if pool and rng.random() < 0.4:
            rows = sorted(pool)
            row = rows[rng.randrange(len(rows))]
            amount = -1
            if pool[row] == 1:
                del pool[row]
            else:
                pool[row] -= 1
        else:
            row = tuple(rng.randrange(DOMAIN) for _ in union.attrs)
            amount = 1
            pool[row] = pool.get(row, 0) + 1
        for index, plan in enumerate(plans):
            updates.append((index, plan(row), amount))
    return bags, updates


def run_live(bags, updates, samples=None) -> list[bool]:
    """The incremental serving loop: update one handle, re-decide global
    consistency (Theorem 2 over the acyclic path schema).  ``samples``
    collects per-update seconds for the latency percentile block."""
    live = LiveEngine(bags)
    handles = live.handles
    live.pairwise_consistent()  # materialize the checkers once
    verdicts = []
    for index, row, amount in updates:
        tick = time.perf_counter() if samples is not None else 0.0
        live.update(handles[index], row, amount)
        verdicts.append(live.globally_consistent())
        if samples is not None:
            samples.append(time.perf_counter() - tick)
    return verdicts


def run_cold(bags, updates, samples=None) -> list[bool]:
    """The cold strategy the immutable engine forces: apply the update
    to plain dicts, rebuild every bag, re-run the pairwise scan from
    scratch (Theorem 2 still skips the exact solver — the schema is
    acyclic — so this baseline is the *fast* cold path)."""
    state = [dict(bag.items()) for bag in bags]
    schemas = [bag.schema for bag in bags]
    verdicts = []
    for index, row, amount in updates:
        tick = time.perf_counter() if samples is not None else 0.0
        new = state[index].get(row, 0) + amount
        if new == 0:
            state[index].pop(row)
        else:
            state[index][row] = new
        current = [
            Bag(schema, mults) for schema, mults in zip(schemas, state)
        ]
        verdicts.append(pairwise_consistent(current))
        if samples is not None:
            samples.append(time.perf_counter() - tick)
    return verdicts


def test_live_streaming_speedup():
    """The acceptance gate: >= 10x (3x at smoke sizes) on the streaming
    update -> re-check workload, the median of SPEEDUP_PASSES paired
    pass ratios, identical verdicts on every pass."""
    bags, updates = make_workload()
    # Warm both paths (itemgetter plans, import-time costs).
    run_live(bags, updates[:2])
    run_cold(bags, updates[:2])

    live_samples: list = []
    cold_samples: list = []
    live_passes: list = []
    cold_passes: list = []
    for _ in range(SPEEDUP_PASSES):
        gc.collect()  # a GC pause in one pass would swamp its ratio
        start = time.perf_counter()
        live_verdicts = run_live(bags, updates, samples=live_samples)
        live_passes.append(time.perf_counter() - start)

        gc.collect()
        start = time.perf_counter()
        cold_verdicts = run_cold(bags, updates, samples=cold_samples)
        cold_passes.append(time.perf_counter() - start)

        assert live_verdicts == cold_verdicts
        # Every transaction boundary restores consistency, so the
        # stream must keep re-reaching "consistent" (not decay to
        # all-False).
        assert live_verdicts[N_BAGS - 1 :: N_BAGS] == [True] * N_TXNS

    ratios = [cold / live for live, cold in zip(live_passes, cold_passes)]
    speedup = statistics.median(ratios)
    live_elapsed = statistics.median(live_passes)
    cold_elapsed = statistics.median(cold_passes)
    print(
        f"\nstreaming workload (median of {SPEEDUP_PASSES} paired "
        f"passes): cold {cold_elapsed * 1000:.1f} ms, "
        f"live {live_elapsed * 1000:.1f} ms, speedup {speedup:.1f}x"
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(
                {
                    "bench": "live",
                    "smoke": SMOKE,
                    "n_bags": N_BAGS,
                    "n_tuples": N_TUPLES,
                    "n_updates": N_TXNS * N_BAGS,
                    "cold_seconds": cold_elapsed,
                    "live_seconds": live_elapsed,
                    "speedup": speedup,
                    "pass_ratios": ratios,
                    "min_speedup": MIN_SPEEDUP,
                    "latency": {
                        "live_update": percentiles(live_samples),
                        "cold_update": percentiles(cold_samples),
                    },
                },
                fh,
                indent=2,
            )
    assert speedup >= MIN_SPEEDUP, (
        f"incremental path only {speedup:.2f}x faster than cold recompute "
        f"(required {MIN_SPEEDUP}x)"
    )


def test_live_streaming_timing(benchmark):
    bags, updates = make_workload()
    verdicts = benchmark(run_live, bags, updates)
    assert len(verdicts) == len(updates)


def test_cold_streaming_timing(benchmark):
    bags, updates = make_workload()
    verdicts = benchmark(run_cold, bags, updates)
    assert len(verdicts) == len(updates)


def test_bounded_cache_sweep_never_exceeds_capacity():
    """The second acceptance gate: a capacity-N engine sweeping more
    than N distinct pairs holds at most N cached results throughout."""
    capacity = 8
    engine = Engine(capacity=capacity)
    ab, bc = Schema(["A", "B"]), Schema(["B", "C"])
    for seed in range(3 * capacity):
        _, r, s = planted_pair(ab, bc, random.Random(seed), n_tuples=6)
        engine.are_consistent(r, s)
        engine.witness(r, s)
        assert len(engine) <= capacity
    assert engine.stats.evictions >= 2 * capacity
