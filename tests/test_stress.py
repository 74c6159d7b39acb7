"""Stress tests: larger instances, still seconds not minutes.

These guard the implementations' practical complexity (quadratic-ish
blowups in supposedly near-linear code paths show up here first).
"""

import random


from repro.consistency.global_ import acyclic_global_witness
from repro.consistency.pairwise import are_consistent, consistency_witness
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.flows.maxflow import max_flow, verify_flow
from repro.flows.network import FlowNetwork
from repro.hypergraphs.acyclicity import (
    is_acyclic,
    join_tree,
    running_intersection_order,
    verify_join_tree,
    verify_running_intersection,
)
from repro.hypergraphs.chordality import is_chordal_graph
from repro.hypergraphs.families import (
    cycle_hypergraph,
    path_hypergraph,
    random_acyclic_hypergraph,
)
from repro.hypergraphs.graphs import Graph
from repro.hypergraphs.obstructions import find_obstruction


class TestFlowScale:
    def test_thousand_node_layered_network(self):
        rng = random.Random(5)
        layers = 10
        width = 100
        net = FlowNetwork("s", "t")
        for i in range(width):
            net.add_edge("s", (0, i), rng.randint(1, 10))
            net.add_edge((layers - 1, i), "t", rng.randint(1, 10))
        for layer in range(layers - 1):
            for i in range(width):
                for _ in range(3):
                    j = rng.randrange(width)
                    net.add_edge(
                        (layer, i), (layer + 1, j), rng.randint(1, 10)
                    )
        result = max_flow(net)
        assert verify_flow(net, result)
        assert result.value > 0

    def test_large_bipartite_consistency(self):
        rng = random.Random(6)
        ab = Schema(["A", "B"])
        bc = Schema(["B", "C"])
        union = Schema(["A", "B", "C"])
        rows = {}
        for _ in range(400):
            rows[(rng.randrange(20), rng.randrange(20), rng.randrange(20))] = (
                rng.randint(1, 100)
            )
        plant = Bag(union, rows)
        r, s = plant.marginal(ab), plant.marginal(bc)
        assert are_consistent(r, s)
        w = consistency_witness(r, s)
        assert is_witness([r, s], w)


class TestHypergraphScale:
    def test_200_edge_path_acyclicity(self):
        h = path_hypergraph(201)
        assert is_acyclic(h)
        tree = join_tree(h)
        assert verify_join_tree(tree)
        rip = running_intersection_order(h)
        assert verify_running_intersection(rip)

    def test_100_edge_random_acyclic(self):
        h = random_acyclic_hypergraph(100, 5, random.Random(7))
        assert is_acyclic(h)

    def test_obstruction_in_40_cycle(self):
        obstruction = find_obstruction(cycle_hypergraph(40))
        assert obstruction.kind == "cycle"
        assert len(obstruction.vertices) == 40

    def test_chordality_on_dense_graph(self):
        rng = random.Random(8)
        n = 120
        edges = [
            (i, j)
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < 0.2
        ]
        g = Graph(range(n), edges)
        # Just exercise it at scale; the answer is cross-checked against
        # networkx on small graphs elsewhere.
        is_chordal_graph(g)


class TestWitnessScale:
    def test_forty_relation_chain_global_witness(self, rng):
        from repro.workloads.generators import random_collection_over

        bags = random_collection_over(path_hypergraph(41), rng, n_tuples=4)
        w = acyclic_global_witness(bags)
        assert is_witness(bags, w)

    def test_wide_multiplicity_chain(self):
        """A 10-edge chain with 2^64 multiplicities end to end."""
        from repro.workloads.generators import example1_instance

        bags, _ = example1_instance(10)
        big = [bag.scale(2**64) for bag in bags]
        w = acyclic_global_witness(big)
        assert is_witness(big, w)
