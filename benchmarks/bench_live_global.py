"""E-LIVE-GLOBAL — streaming witness maintenance vs the cold fold.

Claim: on an update -> re-fetch-the-global-witness serving loop over
acyclic schemas, the persistent fold tree of
:mod:`repro.engine.live_global` (delta repair along the touched
leaf-to-root path, node-local re-fold on repair failure, snapshot
restore on delete-to-zero) is at least 10x faster than re-running the
Theorem 6 fold (`acyclic_global_witness`) from scratch after every
transaction — while producing *equally valid* witnesses: every
maintained witness passes ``is_witness`` and agrees with the reference
fold's witness on the exact marginal of every bag (both must equal the
bag itself), and obeys the Theorem 6 support bound.  The same streams
also time ``LiveEngine.global_check(mode="cold")``, reported but not
gated: by default ``global_check`` serves the tree only from
``FOLD_TREE_MIN_ROWS`` rows, and the smoke streams sit below that floor
while the full-size streams sit above it.

The stream and the collections come from
:func:`repro.workloads.generators.planted_stream` over two acyclic
shapes: a path (deep join tree — long repair paths) and a star (wide
join tree — fan-in at the root), so both fold-tree extremes are gated.

``REPRO_BENCH_SMOKE=1`` shrinks the sizes so CI replays the file in
seconds (the gate relaxes to >= 3x there: tiny instances leave little
fold to skip).  ``REPRO_BENCH_OUT=path`` writes the measured
trajectory as JSON (CI stores it as ``BENCH_live_global.json``).
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.consistency.global_ import acyclic_global_witness
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine.live import LiveEngine
from repro.obs import percentiles
from repro.workloads.generators import planted_stream

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

N_PATH_BAGS = 4 if SMOKE else 6
N_STAR_LEAVES = 3 if SMOKE else 5
N_TUPLES = 12 if SMOKE else 30
N_TXNS = 8 if SMOKE else 24
DOMAIN = 4 if SMOKE else 6
MIN_SPEEDUP = 3.0 if SMOKE else 10.0


def path_schemas(m: int) -> list[Schema]:
    return [Schema([f"X{i}", f"X{i + 1}"]) for i in range(m)]


def star_schemas(leaves: int) -> list[Schema]:
    return [Schema(["Hub", f"L{i}"]) for i in range(leaves)]


def make_workloads():
    """(name, bags, transactions) per acyclic shape; identical streams
    are replayed by both execution strategies."""
    workloads = []
    for name, schemas in (
        ("path", path_schemas(N_PATH_BAGS)),
        ("star", star_schemas(N_STAR_LEAVES)),
    ):
        rng = random.Random(20210621 + len(schemas))
        bags, transactions = planted_stream(
            schemas, rng, N_TXNS, domain_size=DOMAIN, n_tuples=N_TUPLES,
            max_multiplicity=3,
        )
        workloads.append((name, bags, transactions))
    return workloads


def run_live(bags, transactions, samples=None, mode="live") -> list[Bag]:
    """The maintained path: apply each transaction to the live handles,
    then read the global witness from the fold tree (``mode="cold"``:
    from the same session's memoized cold fold instead).  ``samples``
    collects per-transaction seconds for the latency block."""
    live = LiveEngine(bags)
    handles = live.handles
    live.global_check(mode=mode)  # build the tree once (the cold path
    # pays the equivalent first fold inside the timed loop)
    witnesses = []
    for transaction in transactions:
        tick = time.perf_counter() if samples is not None else 0.0
        for index, row, amount in transaction:
            live.update(handles[index], row, amount)
        witnesses.append(live.global_check(mode=mode).witness)
        if samples is not None:
            samples.append(time.perf_counter() - tick)
    return witnesses


def run_cold(bags, transactions, samples=None) -> list[Bag]:
    """The cold strategy PR 2's engine forces for witnesses: apply the
    transaction to plain dicts, rebuild every bag, re-run the whole
    Theorem 6 fold."""
    state = [dict(bag.items()) for bag in bags]
    schemas = [bag.schema for bag in bags]
    witnesses = []
    for transaction in transactions:
        tick = time.perf_counter() if samples is not None else 0.0
        for index, row, amount in transaction:
            new = state[index].get(row, 0) + amount
            if new == 0:
                state[index].pop(row)
            else:
                state[index][row] = new
        current = [
            Bag(schema, mults) for schema, mults in zip(schemas, state)
        ]
        witnesses.append(acyclic_global_witness(current))
        if samples is not None:
            samples.append(time.perf_counter() - tick)
    return witnesses


def replay_states(bags, transactions) -> list[list[Bag]]:
    """The collection at every transaction boundary (for verification)."""
    state = [dict(bag.items()) for bag in bags]
    schemas = [bag.schema for bag in bags]
    states = []
    for transaction in transactions:
        for index, row, amount in transaction:
            new = state[index].get(row, 0) + amount
            if new == 0:
                state[index].pop(row)
            else:
                state[index][row] = new
        states.append(
            [Bag(schema, dict(mults)) for schema, mults in zip(schemas, state)]
        )
    return states


def test_live_global_streaming_speedup():
    """The acceptance gate: >= 10x (3x at smoke sizes) on the streaming
    update -> global-witness workload, witnesses cross-checked against
    the reference fold at every step."""
    workloads = make_workloads()
    # Warm every path (itemgetter plans, import-time costs).
    for _, bags, transactions in workloads:
        run_live(bags, transactions[:1])
        run_live(bags, transactions[:1], mode="cold")
        run_cold(bags, transactions[:1])

    live_elapsed = cold_elapsed = cold_mode_elapsed = 0.0
    per_shape = {}
    all_live = {}
    all_cold = {}
    for name, bags, transactions in workloads:
        live_samples: list = []
        cold_samples: list = []
        start = time.perf_counter()
        all_live[name] = run_live(bags, transactions, samples=live_samples)
        live_shape = time.perf_counter() - start
        start = time.perf_counter()
        all_cold[name] = run_cold(bags, transactions, samples=cold_samples)
        cold_shape = time.perf_counter() - start
        # Reported, not gated: the session's own cold fold, which
        # global_check picks below FOLD_TREE_MIN_ROWS.
        start = time.perf_counter()
        run_live(bags, transactions, mode="cold")
        cold_mode_shape = time.perf_counter() - start
        live_elapsed += live_shape
        cold_elapsed += cold_shape
        cold_mode_elapsed += cold_mode_shape
        per_shape[name] = {
            "live_seconds": live_shape,
            "cold_seconds": cold_shape,
            "speedup": cold_shape / live_shape,
            "cold_mode_seconds": cold_mode_shape,
            "speedup_over_cold_mode": cold_mode_shape / live_shape,
            "latency": {
                "live_transaction": percentiles(live_samples),
                "cold_transaction": percentiles(cold_samples),
            },
        }

    # Cross-check every step: the maintained witness must be a real
    # witness, match the reference fold's marginal on every bag schema
    # exactly (both equal the bag), and obey the Theorem 6 bound.
    for name, bags, transactions in workloads:
        for step, state in enumerate(replay_states(bags, transactions)):
            live_witness = all_live[name][step]
            cold_witness = all_cold[name][step]
            assert is_witness(state, live_witness), (name, step)
            for bag in state:
                live_marginal = live_witness.marginal(bag.schema)
                assert live_marginal == cold_witness.marginal(bag.schema)
                assert live_marginal == bag
            bound = sum(bag.support_size for bag in state)
            assert live_witness.support_size <= bound, (name, step)

    speedup = cold_elapsed / live_elapsed
    shapes = ", ".join(
        "{} {:.1f}x".format(name, shape["speedup"])
        for name, shape in per_shape.items()
    )
    print(
        f"\nstreaming global witness: cold {cold_elapsed * 1000:.1f} ms, "
        f"live {live_elapsed * 1000:.1f} ms, speedup {speedup:.1f}x "
        f"({shapes}); LiveEngine mode='cold' "
        f"{cold_mode_elapsed * 1000:.1f} ms, "
        f"{cold_mode_elapsed / live_elapsed:.2f}x the tree"
    )
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(
                {
                    "bench": "live_global",
                    "smoke": SMOKE,
                    "n_path_bags": N_PATH_BAGS,
                    "n_star_leaves": N_STAR_LEAVES,
                    "n_tuples": N_TUPLES,
                    "n_transactions": N_TXNS,
                    "cold_seconds": cold_elapsed,
                    "live_seconds": live_elapsed,
                    "speedup": speedup,
                    "cold_mode_seconds": cold_mode_elapsed,
                    "speedup_over_cold_mode": (
                        cold_mode_elapsed / live_elapsed
                    ),
                    "per_shape": per_shape,
                    "min_speedup": MIN_SPEEDUP,
                },
                fh,
                indent=2,
            )
    assert speedup >= MIN_SPEEDUP, (
        f"maintained fold only {speedup:.2f}x faster than the cold "
        f"Theorem 6 fold (required {MIN_SPEEDUP}x)"
    )


def test_repairs_dominate_recomputes():
    """The maintenance profile assertion: on the consistency-preserving
    stream, delta repairs (plus snapshot restores) serve the refreshes;
    node re-folds stay rare (initial build + genuine repair failures)."""
    _, bags, transactions = make_workloads()[0]
    live = LiveEngine(bags)
    handles = live.handles
    live.global_check(mode="live")
    for transaction in transactions:
        for index, row, amount in transaction:
            live.update(handles[index], row, amount)
        assert live.global_check(mode="live").consistent
    stats = live.live_global_stats()
    served = stats["node_repairs"] + stats["snapshot_restores"]
    initial_folds = len(bags)
    assert served > 0
    assert stats["node_recomputes"] <= initial_folds + served // 4, stats


def test_live_global_timing(benchmark):
    _, bags, transactions = make_workloads()[0]
    witnesses = benchmark(run_live, bags, transactions)
    assert len(witnesses) == len(transactions)


def test_cold_fold_timing(benchmark):
    _, bags, transactions = make_workloads()[0]
    witnesses = benchmark(run_cold, bags, transactions)
    assert len(witnesses) == len(transactions)
