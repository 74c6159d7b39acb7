"""Torture tests: hostile inputs across the whole stack.

Unicode attributes, tuple-valued domain elements, None values, mixed
types, huge multiplicities, empty schemas, single-attribute overlap —
every decision procedure should handle them or fail loudly with a
library exception, never crash with a bare TypeError/KeyError.
"""


from repro.consistency.global_ import decide_global_consistency
from repro.consistency.pairwise import are_consistent, consistency_witness
from repro.consistency.witness import is_witness, minimal_pairwise_witness
from repro.core.bags import Bag
from repro.core.relations import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tup


class TestExoticAttributeNames:
    def test_unicode_attributes(self):
        schema = Schema(["α", "β"])
        r = Bag.from_pairs(schema, [(("x", "y"), 2)])
        assert r.marginal(Schema(["α"])).multiplicity(("x",)) == 2

    def test_tuple_attributes(self):
        schema = Schema([("rel", 1), ("rel", 2)])
        r = Bag.from_pairs(schema, [((5, 6), 1)])
        assert r.multiplicity((5, 6)) == 1

    def test_mixed_type_attributes_have_stable_order(self):
        s1 = Schema([1, "A", ("t", 0)])
        s2 = Schema([("t", 0), 1, "A"])
        assert s1.attrs == s2.attrs


class TestExoticValues:
    def test_none_values(self):
        schema = Schema(["A", "B"])
        r = Bag.from_pairs(schema, [((None, 1), 2), ((None, None), 1)])
        assert r.marginal(Schema(["A"])).multiplicity((None,)) == 3

    def test_tuple_values_join_correctly(self):
        ab = Schema(["A", "B"])
        bc = Schema(["B", "C"])
        key = ("composite", 7)
        r = Bag.from_pairs(ab, [((1, key), 2)])
        s = Bag.from_pairs(bc, [((key, 9), 2)])
        assert are_consistent(r, s)
        w = consistency_witness(r, s)
        assert is_witness([r, s], w)

    def test_string_int_value_mix(self):
        schema = Schema(["A"])
        r = Bag.from_pairs(schema, [((1,), 1), (("1",), 1)])
        assert r.support_size == 2  # 1 and "1" are distinct values

    def test_frozenset_values(self):
        schema = Schema(["A", "B"])
        r = Bag.from_pairs(schema, [((frozenset({1, 2}), 0), 3)])
        assert r.unary_size == 3


class TestScale:
    def test_astronomical_multiplicities(self):
        ab = Schema(["A", "B"])
        bc = Schema(["B", "C"])
        big = 10**100
        r = Bag.from_pairs(ab, [((1, 2), big), ((3, 2), big)])
        s = Bag.from_pairs(bc, [((2, 5), big), ((2, 6), big)])
        assert are_consistent(r, s)
        w = minimal_pairwise_witness(r, s)
        assert is_witness([r, s], w)
        assert w.unary_size == 2 * big

    def test_hundred_edge_path_witness(self, rng):
        from repro.consistency.global_ import acyclic_global_witness
        from repro.hypergraphs.families import path_hypergraph
        from repro.workloads.generators import random_collection_over

        bags = random_collection_over(path_hypergraph(60), rng, n_tuples=3)
        w = acyclic_global_witness(bags)
        assert is_witness(bags, w)

    def test_wide_schema(self):
        attrs = [f"A{i:02d}" for i in range(20)]
        schema = Schema(attrs)
        row = tuple(range(20))
        r = Bag.from_pairs(schema, [(row, 7)])
        half = Schema(attrs[:10])
        assert r.marginal(half).unary_size == 7


class TestDegenerateSchemas:
    def test_both_empty_schemas(self):
        a = Bag.empty_schema_bag(5)
        b = Bag.empty_schema_bag(5)
        assert are_consistent(a, b)
        w = consistency_witness(a, b)
        assert w == Bag.empty_schema_bag(5)

    def test_empty_schema_vs_nonempty(self):
        a = Bag.empty_schema_bag(3)
        b = Bag.from_pairs(Schema(["A"]), [((0,), 1), ((1,), 2)])
        assert are_consistent(a, b)  # totals match
        w = consistency_witness(a, b)
        assert is_witness([a, b], w)

    def test_single_shared_attribute_many_bags(self):
        bags = [
            Bag.from_mappings([({"X": 7, f"P{i}": i}, 4)])
            for i in range(5)
        ]
        # Star schema: acyclic; all marginals on X equal (7: 4).
        assert decide_global_consistency(bags)

    def test_identical_bags_collection(self):
        r = Bag.from_pairs(Schema(["A", "B"]), [((1, 2), 3)])
        assert decide_global_consistency([r, r, r])

    def test_relation_with_zero_arity_rows(self):
        rel = Relation.from_pairs(Schema([]), [()])
        assert len(rel) == 1
        assert rel.project(Schema([])) == rel

    def test_tup_exotic_equality(self):
        assert Tup(Schema(["A"]), (1,)) != (1,)
        assert Tup(Schema(["A"]), (1,)) != Tup(Schema(["B"]), (1,))
