"""E6 — Theorem 5 + Corollary 4: minimal two-bag witnesses.

Claim: a minimal witness is computable in strongly polynomial time and
its support never exceeds ||R||supp + ||S||supp.  The series sweeps
support size; the bound is asserted on every output.
"""

import random

import pytest

from repro.consistency.pairwise import consistency_witness
from repro.consistency.witness import (
    check_theorem5_bound,
    is_witness,
    minimal_pairwise_witness,
)
from repro.core.schema import Schema
from repro.workloads.generators import planted_pair

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def pair(n: int, seed: int = 11):
    rng = random.Random(seed)
    _, r, s = planted_pair(
        AB, BC, rng, domain_size=max(3, n // 3), n_tuples=n,
        max_multiplicity=6,
    )
    return r, s


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_minimal_witness(benchmark, n):
    r, s = pair(n)
    witness = benchmark(minimal_pairwise_witness, r, s)
    assert is_witness([r, s], witness)
    assert check_theorem5_bound(r, s, witness)


@pytest.mark.parametrize("n", [4, 8, 16, 32])
def test_plain_witness_baseline(benchmark, n):
    """Corollary 1's witness as the engine builds it (the
    northwest-corner rule: no flow network, inclusion-minimal by
    construction), timed beside Corollary 4's max-flow loop above."""
    r, s = pair(n)
    witness = benchmark(consistency_witness, r, s)
    assert is_witness([r, s], witness)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_minimal_never_bigger_than_plain(benchmark, n):
    r, s = pair(n)

    def both():
        return minimal_pairwise_witness(r, s), consistency_witness(r, s)

    minimal, plain = benchmark(both)
    assert minimal.support_size <= plain.support_size
