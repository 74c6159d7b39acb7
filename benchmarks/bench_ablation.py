"""Ablations — design choices DESIGN.md calls out, measured.

Two knobs in the solvers:

* **LP presolve** on the cyclic search path: the rational relaxation is
  an exact necessary condition; on infeasible-but-pairwise-consistent
  instances it can refute without entering the exponential search.
* **Forced-value propagation** in the integer search: measured here via
  instances whose constraints chain (each marginal pins the next), where
  propagation collapses the search tree.
"""

import random

import pytest

from repro.consistency.global_ import global_witness
from repro.consistency.local_global import tseitin_collection
from repro.consistency.program import ConsistencyProgram
from repro.hypergraphs.families import cycle_hypergraph, triangle_hypergraph
from repro.lp.integer_feasibility import find_solution
from repro.workloads.generators import random_collection_over


def infeasible_instance(n: int):
    """Pairwise consistent, globally inconsistent (Tseitin on C_n)."""
    return tseitin_collection(list(cycle_hypergraph(n).edges))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_with_lp_presolve(benchmark, n):
    bags = infeasible_instance(n)
    result = benchmark(global_witness, bags, "search", 50_000_000, True)
    assert not result.consistent


@pytest.mark.parametrize("n", [3, 4, 5])
def test_without_lp_presolve(benchmark, n):
    bags = infeasible_instance(n)
    result = benchmark(global_witness, bags, "search", 50_000_000, False)
    assert not result.consistent


@pytest.mark.parametrize("domain", [2, 3])
def test_search_on_feasible_instances(benchmark, domain):
    """Feasible instances pay the presolve for nothing — the flip side
    of the ablation."""
    rng = random.Random(31)
    bags = random_collection_over(
        triangle_hypergraph(), rng, domain_size=domain,
        n_tuples=domain * domain,
    )
    result = benchmark(global_witness, bags, "search", 50_000_000, True)
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
