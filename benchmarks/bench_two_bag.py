"""E1 — Lemma 2 + Corollary 1: two-bag consistency, five deciders.

Claim: the marginal test (Lemma 2(2)), the max-flow decider
(Lemma 2(5)) and the witness (Corollary 1, built by the northwest-corner
rule) are polynomial; all deciders agree.  The series below
sweeps the number of support tuples; expect the marginal test to be the
fastest by a wide margin and the LP (exact simplex) the slowest.
"""

import random

import pytest

from repro.consistency.pairwise import (
    are_consistent,
    consistency_witness,
    consistent_via_flow,
    consistent_via_lp,
)
from repro.consistency.witness import is_witness
from repro.core.schema import Schema
from repro.workloads.generators import planted_pair

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def make_pair(n_tuples: int, seed: int = 1):
    rng = random.Random(seed)
    _, r, s = planted_pair(
        AB, BC, rng, domain_size=max(3, n_tuples // 2), n_tuples=n_tuples,
        max_multiplicity=8,
    )
    return r, s


@pytest.mark.parametrize("n", [4, 16, 64, 256])
def test_marginal_check(benchmark, n):
    r, s = make_pair(n)
    assert benchmark(are_consistent, r, s)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_flow_decider(benchmark, n):
    r, s = make_pair(n)
    assert benchmark(consistent_via_flow, r, s)


@pytest.mark.parametrize("n", [4, 16])
def test_lp_decider(benchmark, n):
    r, s = make_pair(n)
    assert benchmark(consistent_via_lp, r, s)


@pytest.mark.parametrize("n", [4, 16, 64])
def test_witness_construction(benchmark, n):
    r, s = make_pair(n)
    witness = benchmark(consistency_witness, r, s)
    assert is_witness([r, s], witness)


@pytest.mark.parametrize("bits", [8, 64, 512])
def test_binary_multiplicities_cost_nothing(benchmark, bits):
    """Corollary 1 is strongly polynomial: scaling multiplicities to
    2^512 must not change the witness construction's complexity class
    (the northwest-corner rule only compares and subtracts them)."""
    r, s = make_pair(8)
    r = r.scale(2**bits)
    s = s.scale(2**bits)
    witness = benchmark(consistency_witness, r, s)
    assert is_witness([r, s], witness)
