"""Randomized cross-check: engine-routed results vs the five Lemma 2
deciders and the preserved seed paths.

The acceptance gate for the engine refactor: on a randomized stream of
schema shapes (overlapping, nested, disjoint, empty) and bag contents
(including empty bags), every decider of ``ALL_DECIDERS`` must agree
with the engine verdict, engine marginals/joins must equal the seed
loops bit for bit, and every produced witness must verify.
"""

import random

import pytest

from repro.consistency.pairwise import ALL_DECIDERS
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine.reference import (
    seed_are_consistent,
    seed_bag_join,
    seed_consistency_witness,
    seed_marginal,
)
from repro.engine.session import Engine
from repro.errors import InconsistentError
from repro.workloads.generators import random_bag

SCHEMA_SHAPES = [
    (Schema(["A", "B"]), Schema(["B", "C"])),      # overlap on one attr
    (Schema(["A", "B"]), Schema(["A", "B"])),      # identical schemas
    (Schema(["A", "B", "C"]), Schema(["B"])),      # nested
    (Schema(["A", "B"]), Schema(["C", "D"])),      # disjoint (cartesian)
    (Schema(["A"]), Schema()),                     # one empty schema
    (Schema(), Schema()),                          # both empty
]


def random_pair(rng: random.Random) -> tuple[Bag, Bag]:
    left_schema, right_schema = SCHEMA_SHAPES[
        rng.randrange(len(SCHEMA_SHAPES))
    ]
    bags = []
    for schema in (left_schema, right_schema):
        if rng.random() < 0.15:
            bags.append(Bag.empty(schema))
        else:
            bags.append(
                random_bag(
                    schema,
                    rng,
                    domain_size=2,
                    n_tuples=rng.randint(1, 4),
                    max_multiplicity=3,
                )
            )
    return bags[0], bags[1]


@pytest.mark.parametrize("seed", range(30))
def test_all_deciders_agree_with_the_engine(seed):
    rng = random.Random(seed)
    engine = Engine()
    r, s = random_pair(rng)
    verdicts = {name: decider(r, s) for name, decider in ALL_DECIDERS}
    assert len(set(verdicts.values())) == 1, (
        f"Lemma 2 deciders disagree on seed {seed}: {verdicts}"
    )
    expected = verdicts["marginals"]
    assert engine.are_consistent(r, s) == expected
    assert seed_are_consistent(r, s) == expected
    if expected:
        witness = engine.witness(r, s)
        assert is_witness([r, s], witness)
        assert is_witness([r, s], seed_consistency_witness(r, s))
    else:
        with pytest.raises(InconsistentError):
            engine.witness(r, s)


@pytest.mark.parametrize("seed", range(30))
def test_engine_marginal_and_join_match_the_seed_paths(seed):
    rng = random.Random(seed)
    r, s = random_pair(rng)
    common = r.schema & s.schema
    assert r.marginal(common) == seed_marginal(r, common)
    assert s.marginal(common) == seed_marginal(s, common)
    assert r.marginal(Schema()) == seed_marginal(r, Schema())
    assert r.bag_join(s) == seed_bag_join(r, s)
    assert s.bag_join(r) == seed_bag_join(s, r)


class TestEdgeCases:
    def test_empty_bags_over_empty_schemas_are_consistent(self):
        r = Bag.empty(Schema())
        s = Bag.empty(Schema())
        for name, decider in ALL_DECIDERS:
            assert decider(r, s), name
        assert Engine().are_consistent(r, s)

    def test_empty_schema_bags_compare_totals(self):
        r = Bag.empty_schema_bag(3)
        s = Bag.empty_schema_bag(3)
        for name, decider in ALL_DECIDERS:
            assert decider(r, s), name
        witness = Engine().witness(r, s)
        assert is_witness([r, s], witness)

    def test_empty_schema_bags_with_unequal_totals_are_inconsistent(self):
        r = Bag.empty_schema_bag(3)
        s = Bag.empty_schema_bag(4)
        for name, decider in ALL_DECIDERS:
            assert not decider(r, s), name

    def test_empty_versus_nonempty_bag(self):
        r = Bag.empty(Schema(["A", "B"]))
        s = Bag.from_pairs(Schema(["B", "C"]), [((0, 0), 1)])
        for name, decider in ALL_DECIDERS:
            assert not decider(r, s), name

    def test_both_empty_bags_share_all_shapes(self):
        for left_schema, right_schema in SCHEMA_SHAPES:
            r = Bag.empty(left_schema)
            s = Bag.empty(right_schema)
            assert Engine().are_consistent(r, s)
            for name, decider in ALL_DECIDERS:
                assert decider(r, s), name
