"""End-to-end pipeline properties across modules.

Each test here strings several subsystems together the way a downstream
user would, on randomized inputs, and checks a whole-pipeline invariant
— the kind of bug (interface mismatch, convention drift) unit tests
miss.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency import (
    acyclic_global_witness,
    collection_certificate,
    decide_global_consistency,
    global_witness,
    is_witness,
    pairwise_consistent,
    verify_certificate,
)
from repro.consistency.repair import repair_collection
from repro.hypergraphs import is_acyclic, random_acyclic_hypergraph
from repro.io import collection_from_json, collection_to_json
from repro.workloads.generators import (
    perturb_bag,
    random_collection_over,
)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(2, 3))
def test_planted_acyclic_full_pipeline(seed, n_edges, arity):
    """random acyclic schema -> planted collection -> decide -> witness
    -> verify -> serialize -> deserialize -> still a witness."""
    rng = random.Random(seed)
    hypergraph = random_acyclic_hypergraph(n_edges, arity, rng)
    bags = random_collection_over(hypergraph, rng, n_tuples=3)
    result = global_witness(bags)
    assert result.consistent
    assert result.method == "acyclic"
    assert is_witness(bags, result.witness)
    # Serialization round-trip preserves witness-hood.
    reloaded = collection_from_json(collection_to_json(bags))
    assert is_witness(reloaded, result.witness)


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_perturb_then_certify_then_repair(seed, n_edges):
    """break a planted collection -> certificate verifies -> repair ->
    consistent again -> witness constructible."""
    rng = random.Random(seed)
    hypergraph = random_acyclic_hypergraph(n_edges, 3, rng)
    bags = random_collection_over(hypergraph, rng, n_tuples=3)
    victim = rng.randrange(len(bags))
    broken = list(bags)
    broken[victim] = perturb_bag(broken[victim], rng)
    if pairwise_consistent(broken):
        # Perturbation can land consistent only if the victim shares no
        # constraint; totals differ though, so only possible with a
        # single bag.
        assert len(broken) == 1
        return
    certificate = collection_certificate(broken)
    assert certificate is not None
    assert verify_certificate(broken, certificate)
    fixed, cost = repair_collection(broken)
    assert cost > 0
    assert decide_global_consistency(fixed)
    witness = acyclic_global_witness(fixed)
    assert is_witness(fixed, witness)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000))
def test_cyclic_counterexample_pipeline_on_random_hypergraphs(seed):
    """random hypergraph -> if cyclic: counterexample -> pairwise OK,
    certificate of global inconsistency verifies."""
    from repro.consistency import find_local_to_global_counterexample
    from repro.hypergraphs.families import random_hypergraph

    rng = random.Random(seed)
    hypergraph = random_hypergraph(5, 4, 3, rng)
    bags = find_local_to_global_counterexample(hypergraph)
    if bags is None:
        assert is_acyclic(hypergraph)
        return
    assert pairwise_consistent(bags)
    certificate = collection_certificate(bags)
    assert certificate is not None
    assert verify_certificate(bags, certificate)


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 10_000), st.integers(2, 4))
def test_incremental_checker_agrees_with_batch_on_random_walk(seed, n_edges):
    """A random update walk keeps a live session's maintained verdicts
    in lockstep with from-scratch pairwise and global checks."""
    from repro.engine.live import LiveEngine

    rng = random.Random(seed)
    hypergraph = random_acyclic_hypergraph(n_edges, 3, rng)
    bags = random_collection_over(hypergraph, rng, n_tuples=2)
    live = LiveEngine(bags)
    handles = live.handles
    for _ in range(6):
        handle = handles[rng.randrange(len(bags))]
        row = tuple(rng.randrange(2) for _ in handle.schema.attrs)
        current = handle.multiplicity(row)
        live.update(handle, row, rng.choice([1, 2, -current or 1]))
        snapshot = [h.bag() for h in handles]
        assert live.pairwise_consistent() == pairwise_consistent(snapshot)
        assert live.globally_consistent() == (
            decide_global_consistency(snapshot)
        )


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 10_000))
def test_theorem6_witness_feeds_optimizer(seed):
    """Theorem 6 witness -> minimize support -> still a witness within
    Theorem 3 bounds."""
    from repro.consistency import check_theorem3_bounds, minimize_witness

    rng = random.Random(seed)
    hypergraph = random_acyclic_hypergraph(3, 3, rng)
    bags = random_collection_over(hypergraph, rng, n_tuples=2)
    witness = acyclic_global_witness(bags)
    slim = minimize_witness(bags, witness)
    assert is_witness(bags, slim)
    report = check_theorem3_bounds(bags, slim, minimal=True)
    assert report.all_ok
