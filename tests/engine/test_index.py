"""Per-instance index caches: memoization identity and correctness."""

import gc
import marshal
import random
import weakref

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.index import BagIndex, RelationIndex
from repro.errors import SchemaError
from repro.workloads.generators import random_bag

AB = Schema(["A", "B"])
ABC = Schema(["A", "B", "C"])
B = Schema(["B"])


class TestBagIndex:
    def test_index_is_memoized_per_bag(self):
        bag = Bag.from_pairs(AB, [((1, 2), 1)])
        assert BagIndex.of(bag) is BagIndex.of(bag)

    def test_distinct_equal_bags_have_distinct_indexes(self):
        a = Bag.from_pairs(AB, [((1, 2), 1)])
        b = Bag.from_pairs(AB, [((1, 2), 1)])
        assert a == b
        assert BagIndex.of(a) is not BagIndex.of(b)

    def test_marginal_is_cached(self):
        bag = random_bag(ABC, random.Random(0), n_tuples=6)
        first = bag.marginal(AB)
        assert bag.marginal(AB) is first

    def test_marginal_on_own_schema_returns_the_bag(self):
        bag = random_bag(ABC, random.Random(0), n_tuples=6)
        assert bag.marginal(ABC) is bag

    def test_marginal_values(self):
        bag = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)])
        assert bag.marginal(B).multiplicity((2,)) == 3

    def test_buckets_partition_the_items(self):
        bag = random_bag(ABC, random.Random(1), n_tuples=8)
        buckets = BagIndex.of(bag).buckets(B)
        flattened = {
            row: mult
            for bucket in buckets.values()
            for row, mult in bucket
        }
        assert flattened == dict(bag.items())
        for key, bucket in buckets.items():
            for row, _ in bucket:
                assert (row[ABC.index_of("B")],) == key

    def test_key_set_matches_support_projection(self):
        bag = random_bag(ABC, random.Random(2), n_tuples=8)
        assert BagIndex.of(bag).key_set(AB) == set(
            bag.support().project(AB).rows
        )

    def test_sorted_rows_cached_and_deterministic(self):
        bag = random_bag(ABC, random.Random(3), n_tuples=8)
        index = BagIndex.of(bag)
        first = index.sorted_rows()
        assert index.sorted_rows() is first
        # the canonical order: rows by their fingerprint records' bytes
        assert first == sorted(
            bag.support_rows(),
            key=lambda row: marshal.dumps((row, bag.multiplicity(row)), 2),
        )
        assert [tup.values for tup, _ in bag.tuples()] == first

    def test_a_bag_and_its_index_are_freed_without_the_collector(self):
        # the index holds the bag's table, not the bag: no reference
        # cycle, so dropping the last bag frees both at once
        bag = random_bag(ABC, random.Random(5), n_tuples=8)
        index = weakref.ref(BagIndex.of(bag))
        fingerprint.of_bag(bag)
        bag.marginal(AB)
        BagIndex.of(bag).buckets(B)
        gc.disable()
        try:
            del bag
            assert index() is None
        finally:
            gc.enable()

    def test_marginal_validates_target(self):
        bag = Bag.from_pairs(AB, [((1, 2), 1)])
        with pytest.raises(SchemaError):
            bag.marginal(Schema(["Z"]))


class TestRelationIndex:
    def test_projection_cached(self):
        relation = random_bag(ABC, random.Random(4), n_tuples=8).support()
        first = relation.project(AB)
        assert relation.project(AB) is first

    def test_projection_on_own_schema_returns_the_relation(self):
        relation = random_bag(ABC, random.Random(4), n_tuples=8).support()
        assert relation.project(ABC) is relation

    def test_key_set_matches_projection_rows(self):
        relation = random_bag(ABC, random.Random(5), n_tuples=8).support()
        assert RelationIndex.of(relation).key_set(B) == set(
            relation.project(B).rows
        )

    def test_buckets_partition_the_rows(self):
        relation = random_bag(ABC, random.Random(6), n_tuples=8).support()
        buckets = RelationIndex.of(relation).buckets(B)
        flattened = {row for bucket in buckets.values() for row in bucket}
        assert flattened == set(relation.rows)


class TestSchemaPositionMap:
    def test_index_of_matches_canonical_order(self):
        schema = Schema(["C", "A", "B"])
        for i, attr in enumerate(schema.attrs):
            assert schema.index_of(attr) == i

    def test_index_of_missing_attribute_raises(self):
        with pytest.raises(SchemaError):
            AB.index_of("Z")
