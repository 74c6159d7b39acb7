"""Unit and property tests for serialization (repro.io)."""

import json

import pytest
from hypothesis import given

from repro.core.bags import Bag
from repro.core.relations import Relation
from repro.core.schema import Schema
from repro.errors import SchemaError
from repro.hypergraphs.families import cycle_hypergraph, path_hypergraph
from repro.io import (
    bag_from_dict,
    bag_from_json,
    bag_from_table,
    bag_to_json,
    collection_from_json,
    collection_to_json,
    hypergraph_from_json,
    hypergraph_to_json,
    relation_from_json,
    relation_to_json,
)
from tests.conftest import bags, relations_over, schemas

AB = Schema(["A", "B"])


class TestBagJson:
    def test_roundtrip(self):
        bag = Bag.from_pairs(AB, [((1, 2), 3), (("x", "y"), 1)])
        assert bag_from_json(bag_to_json(bag)) == bag

    def test_empty_bag_roundtrip(self):
        assert bag_from_json(bag_to_json(Bag.empty(AB))) == Bag.empty(AB)

    def test_empty_schema_bag_roundtrip(self):
        bag = Bag.empty_schema_bag(7)
        assert bag_from_json(bag_to_json(bag)) == bag

    def test_big_multiplicities_are_exact(self):
        bag = Bag.from_pairs(AB, [((1, 2), 2**200)])
        assert bag_from_json(bag_to_json(bag)) == bag

    def test_output_is_valid_json(self):
        bag = Bag.from_pairs(AB, [((1, 2), 3)])
        data = json.loads(bag_to_json(bag))
        assert data["schema"] == ["A", "B"]

    def test_malformed_rejected(self):
        with pytest.raises(SchemaError):
            bag_from_dict({"schema": ["A"]})
        with pytest.raises(SchemaError):
            bag_from_dict({"schema": ["A"], "tuples": [[1, 2]]})
        for value in ([1, 2], {"k": 1}):  # unhashable once decoded
            with pytest.raises(SchemaError, match="unhashable"):
                bag_from_dict({"schema": ["A"], "tuples": [[[value], 1]]})

    @given(bags())
    def test_random_roundtrip(self, bag):
        assert bag_from_json(bag_to_json(bag)) == bag


class TestRelationJson:
    def test_roundtrip(self):
        rel = Relation.from_pairs(AB, [(1, 2), (3, 4)])
        assert relation_from_json(relation_to_json(rel)) == rel

    @given(schemas(1, 3).flatmap(lambda s: relations_over(s)))
    def test_random_roundtrip(self, rel):
        assert relation_from_json(relation_to_json(rel)) == rel

    @pytest.mark.parametrize("rows", [
        "[[[1, 2]]]", '[[{"k": 1}]]', "[1]", "5",
    ], ids=["array-value", "object-value", "scalar-row", "not-a-list"])
    def test_malformed_rejected(self, rows):
        with pytest.raises(SchemaError, match="malformed relation"):
            relation_from_json('{"schema": ["A"], "rows": %s}' % rows)


class TestCollectionJson:
    def test_roundtrip(self):
        bags_list = [
            Bag.from_pairs(AB, [((1, 2), 3)]),
            Bag.from_pairs(Schema(["B", "C"]), [((2, 1), 1)]),
        ]
        assert collection_from_json(collection_to_json(bags_list)) == bags_list

    def test_malformed_rejected(self):
        for text in ("{}", '{"bags": 5}'):
            with pytest.raises(SchemaError, match="malformed collection"):
                collection_from_json(text)


class TestHypergraphJson:
    @pytest.mark.parametrize(
        "factory", [lambda: path_hypergraph(4), lambda: cycle_hypergraph(5)]
    )
    def test_roundtrip(self, factory):
        h = factory()
        assert hypergraph_from_json(hypergraph_to_json(h)) == h

    def test_isolated_vertices_survive(self):
        from repro.hypergraphs.hypergraph import Hypergraph

        h = Hypergraph(["A", "B", "Z"], [("A", "B")])
        assert hypergraph_from_json(hypergraph_to_json(h)) == h


class TestTableParsing:
    def test_parse_paper_table(self):
        text = "A  B  #\na1  b1  : 2\na2  b2  : 1\na3  b3  : 5"
        bag = bag_from_table(text)
        assert bag.multiplicity(("a3", "b3")) == 5
        assert bag.unary_size == 8

    def test_roundtrip_with_display(self):
        from repro.display import bag_table

        bag = Bag.from_pairs(AB, [((1, 2), 3), ((4, 5), 1)])
        assert bag_from_table(bag_table(bag)) == bag

    def test_integers_parsed(self):
        bag = bag_from_table("A  #\n42  : 1")
        assert bag.multiplicity((42,)) == 1

    def test_empty_marker(self):
        bag = bag_from_table("A  B  #\n(empty)")
        assert not bag

    def test_malformed_rejected(self):
        with pytest.raises(SchemaError):
            bag_from_table("")
        with pytest.raises(SchemaError):
            bag_from_table("A B\n1 2 : 3")  # header missing '#'
        with pytest.raises(SchemaError):
            bag_from_table("A B #\n1 2 3")  # row missing ':'
        with pytest.raises(SchemaError):
            bag_from_table("A B #\n1 : 3")  # arity mismatch
