"""Ablations — design choices DESIGN.md calls out, measured.

One knob in the solvers:

* **Forced-value propagation** in the integer search: measured here via
  instances whose constraints chain (each marginal pins the next), where
  propagation collapses the search tree.
"""

import random

import pytest

from repro.consistency.global_ import global_witness
from repro.consistency.program import ConsistencyProgram
from repro.hypergraphs.families import triangle_hypergraph
from repro.lp.integer_feasibility import find_solution
from repro.workloads.generators import random_collection_over


@pytest.mark.parametrize("domain", [2, 3])
def test_search_on_feasible_instances(benchmark, domain):
    """Feasible cyclic instances: the exact search finds a witness."""
    rng = random.Random(31)
    bags = random_collection_over(
        triangle_hypergraph(), rng, domain_size=domain,
        n_tuples=domain * domain,
    )
    result = benchmark(global_witness, bags, "search", 50_000_000)
    assert result.consistent


@pytest.mark.parametrize("chain", [4, 8, 12])
def test_forced_value_propagation_on_chains(benchmark, chain):
    """Chains of tightly-coupled constraints: each variable is the last
    unassigned variable of some constraint most of the time, so the
    propagation rule fires constantly and the search is near-linear."""
    rng = random.Random(37)
    from repro.hypergraphs.families import path_hypergraph

    bags = random_collection_over(
        path_hypergraph(chain), rng, n_tuples=4
    )
    program = ConsistencyProgram.build(bags)
    solution = benchmark(find_solution, program.system)
    assert solution is not None
