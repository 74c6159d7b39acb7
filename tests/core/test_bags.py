"""Unit tests for Bag: marginals (Equation 2), bag join, size measures."""

import pytest

from repro.core.bags import Bag, bag_join_all
from repro.core.relations import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tup
from repro.errors import MultiplicityError, SchemaError

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
ABC = Schema(["A", "B", "C"])
B = Schema(["B"])


def paper_bag() -> Bag:
    """The Section 2 example: {(a1,b1):2, (a2,b2):1, (a3,b3):5}."""
    return Bag.from_pairs(
        AB, [(("a1", "b1"), 2), (("a2", "b2"), 1), (("a3", "b3"), 5)]
    )


class TestConstruction:
    def test_zero_multiplicity_dropped(self):
        b = Bag(AB, {(1, 2): 0, (3, 4): 1})
        assert b.multiplicity((1, 2)) == 0
        assert len(b) == 1

    def test_negative_multiplicity_rejected(self):
        with pytest.raises(MultiplicityError):
            Bag(AB, {(1, 2): -1})

    def test_non_integer_multiplicity_rejected(self):
        with pytest.raises(MultiplicityError):
            Bag(AB, {(1, 2): 1.5})

    def test_bool_multiplicity_rejected(self):
        with pytest.raises(MultiplicityError):
            Bag(AB, {(1, 2): True})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(SchemaError):
            Bag(AB, {(1,): 1})

    def test_from_pairs_accumulates(self):
        b = Bag.from_pairs(AB, [((1, 2), 2), ((1, 2), 3)])
        assert b.multiplicity((1, 2)) == 5

    def test_from_pairs_checks_each_multiplicity_before_summing(self):
        # a bool would sum to a valid 1, and 2 + -1 to a valid 1
        for pairs in (
            [((1, 2), True)],
            [((1, 2), 2), ((1, 2), -1)],
            [((1, 2), -1), ((1, 2), 2)],
            [((1, 2), 1.0)],
        ):
            with pytest.raises(MultiplicityError):
                Bag.from_pairs(AB, pairs)

    def test_from_relation_gives_multiplicity_one(self):
        r = Relation.from_pairs(AB, [(1, 2), (3, 4)])
        b = Bag.from_relation(r)
        assert b.is_relation()
        assert b.support() == r

    def test_multiplicity_by_tup(self):
        b = paper_bag()
        assert b.multiplicity(Tup(AB, ("a1", "b1"))) == 2

    def test_multiplicity_wrong_schema_tup_raises(self):
        b = paper_bag()
        with pytest.raises(SchemaError):
            b.multiplicity(Tup(BC, ("a1", "b1")))

    def test_callable_alias(self):
        b = paper_bag()
        assert b(("a3", "b3")) == 5

    def test_empty_schema_bag(self):
        b = Bag.empty_schema_bag(7)
        assert b.schema == Schema()
        assert b.multiplicity(()) == 7
        assert Bag.empty_schema_bag(0) == Bag.empty(Schema())


class TestSizeMeasures:
    """The five measures of Section 5.2."""

    def test_support_size(self):
        assert paper_bag().support_size == 3

    def test_multiplicity_bound(self):
        assert paper_bag().multiplicity_bound == 5

    def test_unary_size(self):
        assert paper_bag().unary_size == 8

    def test_binary_size_is_sum_of_logs(self):
        import math

        expected = math.log2(3) + math.log2(2) + math.log2(6)
        assert paper_bag().binary_size == pytest.approx(expected)

    def test_multiplicity_size_is_max_log(self):
        import math

        assert paper_bag().multiplicity_size == pytest.approx(math.log2(6))

    def test_empty_bag_measures(self):
        b = Bag.empty(AB)
        assert b.support_size == 0
        assert b.multiplicity_bound == 0
        assert b.unary_size == 0
        assert b.binary_size == 0.0

    def test_norm_inequalities(self):
        b = paper_bag()
        assert b.unary_size <= b.support_size * b.multiplicity_bound
        assert b.binary_size <= b.support_size * b.multiplicity_size


class TestMarginal:
    def test_marginal_sums_multiplicities(self):
        b = Bag.from_pairs(AB, [((1, 2), 2), ((3, 2), 5)])
        assert b.marginal(B).multiplicity((2,)) == 7

    def test_marginal_composition_law(self):
        """R[Z][W] = R[W] for W <= Z <= X (Section 2)."""
        b = Bag.from_pairs(ABC, [((1, 2, 3), 2), ((1, 2, 4), 1), ((5, 2, 3), 3)])
        assert b.marginal(AB).marginal(B) == b.marginal(B)

    def test_support_of_marginal_is_projection_of_support(self):
        """R'[Z] = R[Z]' (Section 2)."""
        b = Bag.from_pairs(ABC, [((1, 2, 3), 2), ((1, 2, 4), 1)])
        assert b.support().project(AB) == b.marginal(AB).support()

    def test_marginal_on_empty_schema_is_total(self):
        b = paper_bag()
        assert b.marginal(Schema()).multiplicity(()) == 8

    def test_marginal_on_full_schema_is_identity(self):
        b = paper_bag()
        assert b.marginal(AB) == b


class TestBagJoin:
    def test_multiplicities_multiply(self):
        r = Bag.from_pairs(AB, [((1, 2), 2)])
        s = Bag.from_pairs(BC, [((2, 3), 5)])
        j = r.bag_join(s)
        assert j.multiplicity((1, 2, 3)) == 10

    def test_join_support_is_join_of_supports(self):
        r = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)])
        s = Bag.from_pairs(BC, [((2, 1), 3), ((2, 2), 1)])
        assert r.bag_join(s).support() == r.support().join(s.support())

    def test_join_commutative(self):
        r = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)])
        s = Bag.from_pairs(BC, [((2, 1), 3)])
        assert r.bag_join(s) == s.bag_join(r)

    def test_join_with_empty_schema_bag_scales(self):
        r = Bag.from_pairs(AB, [((1, 2), 2)])
        k = Bag.empty_schema_bag(3)
        assert r.bag_join(k) == r.scale(3)

    def test_bag_join_all_identity(self):
        j = bag_join_all([])
        assert j.multiplicity(()) == 1


class TestOrderAndArithmetic:
    def test_containment(self):
        small = Bag.from_pairs(AB, [((1, 2), 1)])
        big = Bag.from_pairs(AB, [((1, 2), 2), ((3, 4), 1)])
        assert small <= big
        assert not big <= small

    def test_containment_needs_same_schema(self):
        with pytest.raises(SchemaError):
            Bag.empty(AB) <= Bag.empty(BC)

    def test_addition(self):
        a = Bag.from_pairs(AB, [((1, 2), 1)])
        b = Bag.from_pairs(AB, [((1, 2), 2), ((3, 4), 1)])
        assert (a + b).multiplicity((1, 2)) == 3

    def test_subtraction(self):
        a = Bag.from_pairs(AB, [((1, 2), 3)])
        b = Bag.from_pairs(AB, [((1, 2), 1)])
        assert (a - b).multiplicity((1, 2)) == 2

    def test_subtraction_below_zero_raises(self):
        a = Bag.from_pairs(AB, [((1, 2), 1)])
        b = Bag.from_pairs(AB, [((1, 2), 2)])
        with pytest.raises(MultiplicityError):
            a - b

    def test_scale(self):
        a = Bag.from_pairs(AB, [((1, 2), 3)])
        assert a.scale(4).multiplicity((1, 2)) == 12
        assert a.scale(0) == Bag.empty(AB)

    def test_scale_negative_raises(self):
        with pytest.raises(MultiplicityError):
            paper_bag().scale(-1)

    def test_restrict(self):
        b = paper_bag()
        kept = b.restrict(lambda t: t["A"] == "a1")
        assert kept.unary_size == 2

    def test_big_multiplicities_are_exact(self):
        big = 2**200
        b = Bag.from_pairs(AB, [((1, 2), big)])
        assert b.marginal(B).multiplicity((2,)) == big
