"""Theorems 2 (Step 1), 4 and 6: global consistency of collections."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.global_ import (
    acyclic_global_witness,
    decide_global_consistency,
    global_witness,
    k_wise_consistent,
    pairwise_consistent,
)
from repro.consistency.local_global import tseitin_collection
from repro.consistency.program import ConsistencyProgram
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.errors import CyclicSchemaError, InconsistentError
from repro.hypergraphs.families import cycle_hypergraph, triangle_hypergraph
from repro.lp.simplex import solve_lp
from repro.workloads.generators import planted_collection, random_collection_over
from tests.conftest import planted_collections

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
CD = Schema(["C", "D"])


class TestPairwise:
    def test_planted_collections_are_pairwise_consistent(self, rng):
        _, bags = planted_collection([AB, BC, CD], rng)
        assert pairwise_consistent(bags)

    def test_single_bag_is_pairwise_consistent(self):
        assert pairwise_consistent([Bag.from_pairs(AB, [((1, 2), 1)])])

    def test_inconsistent_pair_detected(self):
        r = Bag.from_pairs(AB, [((1, 2), 3)])
        s = Bag.from_pairs(BC, [((2, 1), 1)])
        assert not pairwise_consistent([r, s])


class TestKWise:
    def test_tseitin_is_pairwise_but_not_3wise(self):
        bags = tseitin_collection(list(triangle_hypergraph().edges))
        assert k_wise_consistent(bags, 2)
        assert not k_wise_consistent(bags, 3)

    def test_planted_is_k_wise_for_all_k(self, rng):
        _, bags = planted_collection([AB, BC, CD], rng, n_tuples=3)
        for k in range(1, len(bags) + 1):
            assert k_wise_consistent(bags, k)

    def test_k_larger_than_m_means_global(self, rng):
        _, bags = planted_collection([AB, BC], rng, n_tuples=3)
        assert k_wise_consistent(bags, 10) == decide_global_consistency(bags)

    def test_invalid_k_rejected(self):
        with pytest.raises(ValueError):
            k_wise_consistent([], 0)


class TestTheorem6AcyclicWitness:
    def test_path_collection_witnessed(self, rng):
        _, bags = planted_collection([AB, BC, CD], rng)
        witness = acyclic_global_witness(bags)
        assert is_witness(bags, witness)

    def test_support_bound(self, rng):
        _, bags = planted_collection([AB, BC, CD], rng)
        witness = acyclic_global_witness(bags)
        assert witness.support_size <= sum(b.support_size for b in bags)

    def test_cyclic_schema_raises(self):
        bags = tseitin_collection(list(triangle_hypergraph().edges))
        with pytest.raises((CyclicSchemaError, InconsistentError)):
            acyclic_global_witness(bags)

    def test_pairwise_inconsistent_raises(self):
        r = Bag.from_pairs(AB, [((1, 2), 3)])
        s = Bag.from_pairs(BC, [((2, 1), 1)])
        with pytest.raises(InconsistentError):
            acyclic_global_witness([r, s])

    def test_duplicate_equal_schemas_are_fine(self, rng):
        _, bags = planted_collection([AB, BC], rng)
        witness = acyclic_global_witness(bags + [bags[0]])
        assert is_witness(bags, witness)

    def test_duplicate_unequal_schemas_raise(self):
        r1 = Bag.from_pairs(AB, [((1, 2), 1)])
        r2 = Bag.from_pairs(AB, [((3, 4), 1)])
        with pytest.raises(InconsistentError):
            acyclic_global_witness([r1, r2])

    def test_covered_schema_collection(self, rng):
        """A collection whose schemas include a covered edge (B) still
        works: GYO handles covered edges."""
        _, bags = planted_collection([AB, BC, Schema(["B"])], rng)
        witness = acyclic_global_witness(bags)
        assert is_witness(bags, witness)

    def test_wide_acyclic_schema(self, rng):
        schemas = [Schema(["A", "B", "C"]), Schema(["B", "C", "D"]),
                   Schema(["D", "E"])]
        _, bags = planted_collection(schemas, rng)
        witness = acyclic_global_witness(bags)
        assert is_witness(bags, witness)

    @settings(deadline=None)
    @given(planted_collections(max_bags=3))
    def test_random_planted_acyclic_collections(self, data):
        from repro.hypergraphs.acyclicity import is_acyclic
        from repro.hypergraphs.hypergraph import hypergraph_of_bags

        _, bags = data
        if not is_acyclic(hypergraph_of_bags(bags)):
            return
        try:
            witness = acyclic_global_witness(bags)
        except InconsistentError:
            pytest.fail("planted collections are pairwise consistent")
        assert is_witness(bags, witness)


class TestDecision:
    def test_acyclic_planted_is_consistent(self, rng):
        _, bags = planted_collection([AB, BC, CD], rng)
        assert decide_global_consistency(bags)

    def test_cyclic_planted_is_consistent_via_search(self, rng):
        bags = random_collection_over(triangle_hypergraph(), rng, n_tuples=3)
        result = global_witness(bags)
        assert result.consistent
        assert result.method == "search"
        assert is_witness(bags, result.witness)

    def test_tseitin_detected_inconsistent(self):
        bags = tseitin_collection(list(triangle_hypergraph().edges))
        result = global_witness(bags)
        assert not result.consistent
        assert result.witness is None

    def test_tseitin_c4_detected_inconsistent(self):
        bags = tseitin_collection(list(cycle_hypergraph(4).edges))
        assert not decide_global_consistency(bags)

    def test_method_acyclic_on_cyclic_raises(self):
        bags = tseitin_collection(list(triangle_hypergraph().edges))
        with pytest.raises(CyclicSchemaError):
            decide_global_consistency(bags, method="acyclic")

    def test_method_search_works_on_acyclic(self, rng):
        _, bags = planted_collection([AB, BC], rng, n_tuples=3)
        assert decide_global_consistency(bags, method="search")

    def test_empty_collection_rejected(self):
        with pytest.raises(InconsistentError):
            decide_global_consistency([])

    def test_search_refutes_tseitin_triangle(self):
        """Pairwise consistent, with an empty join of supports: the
        exact search refutes it on its own, with no relaxation first."""
        bags = tseitin_collection(list(triangle_hypergraph().edges))
        assert not ConsistencyProgram.build(bags).join_rows
        result = global_witness(bags)
        assert not result.consistent
        assert result.method == "search"

    def test_auto_matches_search_on_cyclic(self, rng):
        for _ in range(5):
            bags = random_collection_over(
                triangle_hypergraph(), rng, n_tuples=2
            )
            assert decide_global_consistency(
                bags, method="auto"
            ) == decide_global_consistency(bags, method="search")


class TestTheorem2Step1Agreement:
    """On acyclic schemas, pairwise consistency alone must match the
    exact search — that is Theorem 2's content, checked instance-wise."""

    @settings(deadline=None)
    @given(planted_collections(min_bags=2, max_bags=3))
    def test_pairwise_equals_search_on_acyclic(self, data):
        from repro.hypergraphs.acyclicity import is_acyclic
        from repro.hypergraphs.hypergraph import hypergraph_of_bags

        _, bags = data
        if not is_acyclic(hypergraph_of_bags(bags)):
            return
        fast = decide_global_consistency(bags, method="auto")
        slow = decide_global_consistency(bags, method="search")
        assert fast == slow


@st.composite
def margin_triangles(draw) -> list[Bag]:
    """Triangles AB, BC, AC built from one shared margin per attribute
    (domain 2-4, total 6-14): each bag is a random table with its two
    attributes' margins, so the collection is pairwise consistent and
    only the cyclic search decides it."""
    domain = draw(st.integers(2, 4))
    total = draw(st.integers(6, 14))
    margins = {}
    for attr in "ABC":
        cuts = draw(st.lists(
            st.integers(0, total), min_size=domain - 1, max_size=domain - 1
        ))
        bounds = [0, *sorted(cuts), total]
        margins[attr] = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
    bags = []
    for x, y in (("A", "B"), ("B", "C"), ("A", "C")):
        rows, cols = list(margins[x]), list(margins[y])
        counts: dict = {}
        for _ in range(total):
            i = draw(st.sampled_from([k for k, n in enumerate(rows) if n]))
            j = draw(st.sampled_from([k for k, n in enumerate(cols) if n]))
            counts[(i, j)] = counts.get((i, j), 0) + 1
            rows[i] -= 1
            cols[j] -= 1
        bags.append(Bag.from_pairs(Schema([x, y]), list(counts.items())))
    return bags


class TestRelaxationOracle:
    """The rational relaxation of P(R1, ..., Rm) is a necessary
    condition only, so it stays a test oracle for the exact search: an
    infeasible relaxation must come with an inconsistent answer."""

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(margin_triangles())
    def test_search_agrees_with_the_relaxation(self, bags):
        assert pairwise_consistent(bags)
        program = ConsistencyProgram.build(bags)
        relaxation = solve_lp(program.dense_matrix(), program.dense_rhs())
        result = global_witness(bags)
        assert result.method == "search"
        if relaxation.status != "optimal":
            assert not result.consistent
        if result.consistent:
            assert is_witness(bags, result.witness)
