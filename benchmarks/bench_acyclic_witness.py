"""E7 — Theorem 6: global witness construction over acyclic schemas.

Claim: polynomial time, output support bounded by the sum of input
supports.  Series: number of relations m along a chain, and edge width
for chains of wide overlapping edges.
"""


import pytest

from repro.consistency.global_ import acyclic_global_witness
from repro.consistency.witness import is_witness
from repro.hypergraphs.families import chain_of_cliques, path_hypergraph
from repro.workloads.generators import random_collection_over


@pytest.mark.parametrize("m", [3, 6, 12, 24])
def test_chain_length_sweep(benchmark, m, rng):
    bags = random_collection_over(path_hypergraph(m + 1), rng, n_tuples=5)
    witness = benchmark(acyclic_global_witness, bags)
    assert is_witness(bags, witness)
    assert witness.support_size <= sum(b.support_size for b in bags)


@pytest.mark.parametrize("width", [2, 3, 4])
def test_edge_width_sweep(benchmark, width, rng):
    h = chain_of_cliques([width] * 4)
    bags = random_collection_over(h, rng, n_tuples=4)
    witness = benchmark(acyclic_global_witness, bags)
    assert is_witness(bags, witness)
