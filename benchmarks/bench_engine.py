"""E-ENG — the engine's kernels vs the seed execution paths.

Claim: routing marginals, joins, and the Corollary 1 witness pipeline
through the shared plan-compiled kernel plus the memoizing
:class:`repro.engine.Engine` makes a batched two-bag witness workload
at least 2x faster than the seed's from-scratch loops, with bit-equal
results.  The seed paths are preserved verbatim in
:mod:`repro.engine.reference`, so the baseline is exactly the code the
engine replaced.

``REPRO_BENCH_SMOKE=1`` shrinks every size so CI can replay the whole
file in seconds (the speedup assertion is relaxed to >= 1.2x there:
tiny instances leave little work to amortize).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.consistency.witness import is_witness
from repro.core.schema import Schema
from repro.engine import kernels
from repro.engine.reference import (
    seed_are_consistent,
    seed_bag_join,
    seed_consistency_witness,
    seed_marginal,
)
from repro.engine.session import Engine
from repro.workloads.generators import planted_pair

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])

# The "medium two-bag witness workload": a pool of distinct consistent
# pairs, each queried several times — the batched-serving access pattern
# the Engine exists for.
POOL_SIZE = 4 if SMOKE else 10
REPEATS = 3 if SMOKE else 6
PAIR_TUPLES = 12 if SMOKE else 48
MIN_SPEEDUP = 1.2 if SMOKE else 2.0


def make_pool(n_pairs: int, n_tuples: int) -> list[tuple]:
    pool = []
    for seed in range(n_pairs):
        rng = random.Random(1000 + seed)
        _, r, s = planted_pair(
            AB, BC, rng,
            domain_size=max(3, n_tuples // 2),
            n_tuples=n_tuples,
            max_multiplicity=8,
        )
        pool.append((r, s))
    return pool


def witness_queries() -> list[tuple]:
    pool = make_pool(POOL_SIZE, PAIR_TUPLES)
    queries = [pair for _ in range(REPEATS) for pair in pool]
    random.Random(7).shuffle(queries)
    return queries


def run_seed_path(queries):
    return [seed_consistency_witness(r, s) for r, s in queries]


def run_engine_path(queries):
    return Engine().witness_many(queries)


def test_engine_witness_workload_speedup():
    """The acceptance gate: >= 2x on the medium witness workload."""
    queries = witness_queries()
    # Warm both paths once (itemgetter plans, pyc-level caches) so the
    # measurement compares steady-state executions.
    run_seed_path(queries[:2])
    run_engine_path(queries[:2])

    start = time.perf_counter()
    seed_witnesses = run_seed_path(queries)
    seed_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    engine_witnesses = run_engine_path(queries)
    engine_elapsed = time.perf_counter() - start

    for (r, s), witness in zip(queries, engine_witnesses):
        assert witness is not None and is_witness([r, s], witness)
    assert len(seed_witnesses) == len(engine_witnesses)

    speedup = seed_elapsed / engine_elapsed
    print(
        f"\nwitness workload: seed {seed_elapsed * 1000:.1f} ms, "
        f"engine {engine_elapsed * 1000:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"engine path only {speedup:.2f}x faster than the seed path "
        f"(required {MIN_SPEEDUP}x)"
    )


def test_engine_witness_workload_timing(benchmark):
    queries = witness_queries()
    witnesses = benchmark(run_engine_path, queries)
    assert all(witness is not None for witness in witnesses)


def test_seed_witness_workload_timing(benchmark):
    queries = witness_queries()
    witnesses = benchmark(run_seed_path, queries)
    assert len(witnesses) == len(queries)


@pytest.mark.parametrize("n", [16 if SMOKE else 64, 64 if SMOKE else 256])
def test_marginal_kernel_vs_seed_loop(benchmark, n):
    """The cache-free kernel itself (plan-compiled projection) must beat
    the seed's per-row generator loop; correctness is asserted, the
    timing is informational."""
    rng = random.Random(2)
    _, r, _ = planted_pair(
        AB, BC, rng, domain_size=max(3, n // 2), n_tuples=n,
    )
    common = Schema(["B"])
    expected = seed_marginal(r, common)

    def kernel_marginal():
        return kernels.marginal_table(
            r.items(), r.schema.attrs, common.attrs
        )

    table = benchmark(kernel_marginal)
    assert dict(expected.items()) == table


@pytest.mark.parametrize("n", [16 if SMOKE else 64])
def test_join_kernel_matches_seed(benchmark, n):
    rng = random.Random(3)
    _, r, s = planted_pair(
        AB, BC, rng, domain_size=max(3, n // 2), n_tuples=n,
    )
    expected = seed_bag_join(r, s)
    joined = benchmark(r.bag_join, s)
    assert joined == expected


def test_batched_consistency_vs_seed(benchmark):
    """are_consistent_many over the workload pool: memoized marginals
    answer repeats without touching the rows."""
    queries = witness_queries()
    expected = [seed_are_consistent(r, s) for r, s in queries]

    def engine_batch():
        return Engine().are_consistent_many(queries)

    verdicts = benchmark(engine_batch)
    assert verdicts == expected
