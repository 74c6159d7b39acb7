"""LiveEngine: incremental invalidation semantics and stream cross-checks."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.global_ import decide_global_consistency
from repro.consistency.pairwise import are_consistent
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.live import LiveBag, LiveEngine
from repro.errors import InconsistentError, MultiplicityError, SchemaError
from repro.workloads.generators import planted_collection

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
CD = Schema(["C", "D"])
EF = Schema(["E", "F"])  # disjoint from the others: empty common schema


def planted_live(schemas, seed=0, n_tuples=4):
    _, bags = planted_collection(schemas, random.Random(seed),
                                 n_tuples=n_tuples)
    live = LiveEngine(bags)
    return live, live.handles


class TestHandles:
    def test_add_bag_returns_live_handle(self):
        live = LiveEngine()
        bag = Bag.from_pairs(AB, [((1, 2), 3)])
        handle = live.add_bag(bag, name="ledger")
        assert isinstance(handle, LiveBag)
        assert handle.name == "ledger"
        assert handle.bag() is bag  # the given bag is the first snapshot
        assert handle.multiplicity((1, 2)) == 3

    def test_snapshot_stable_until_update_then_fresh(self):
        live = LiveEngine([Bag.from_pairs(AB, [((1, 2), 1)])])
        handle = live.handles[0]
        snapshot = handle.bag()
        assert handle.bag() is snapshot
        live.update(handle, (1, 2), 1)
        assert handle.bag() is not snapshot
        assert handle.bag() == Bag.from_pairs(AB, [((1, 2), 2)])

    def test_update_validates_arity(self):
        live = LiveEngine([Bag.empty(AB)])
        with pytest.raises(SchemaError):
            live.update(live.handles[0], (1,), 1)
        assert not live.handles[0].bag()  # state untouched

    def test_update_rejects_negative_multiplicity(self):
        live = LiveEngine([Bag.empty(AB)])
        with pytest.raises(MultiplicityError):
            live.update(live.handles[0], (1, 2), -1)

    def test_zero_amount_is_a_noop(self):
        live = LiveEngine([Bag.from_pairs(AB, [((1, 2), 1)])])
        handle = live.handles[0]
        snapshot = handle.bag()
        live.update(handle, (1, 2), 0)
        assert handle.bag() is snapshot
        assert live.updates == 0

    def test_update_accepts_integer_index(self):
        live = LiveEngine([Bag.empty(AB)])
        live.update(0, (1, 2), 2)
        assert live.handles[0].multiplicity((1, 2)) == 2

    def test_fingerprint_hashes_the_row_as_stored(self):
        """``(True, "x")`` finds the stored ``(1, "x")`` entry, so the
        maintained fingerprint must move that row's term: the handle
        and its snapshot both fingerprint like a freshly built bag."""
        schema = Schema(["A", "B"])
        live = LiveEngine([Bag.from_pairs(schema, [((1, "x"), 2)])])
        handle = live.handles[0]

        def assert_in_step():
            fresh = Bag(schema, dict(handle.items()))
            assert handle.fingerprint() == fingerprint.of_bag(fresh)
            assert fingerprint.of_bag(handle.bag()) == fingerprint.of_bag(fresh)

        live.update(handle, (True, "x"), 1)
        assert dict(handle.items()) == {(1, "x"): 3}
        assert_in_step()
        live.update(handle, (True, "x"), -3)  # delete to zero
        assert not handle
        assert_in_step()
        live.update(handle, (True, "x"), 1)  # now stored as spelled
        assert_in_step()

    def test_foreign_handle_rejected(self):
        live = LiveEngine([Bag.empty(AB)])
        other = LiveEngine([Bag.empty(AB)])
        with pytest.raises(KeyError):
            live.update(other.handles[0], (1, 2), 1)


class TestIncrementalConsistency:
    def test_insert_breaks_then_repair(self):
        live = LiveEngine([
            Bag.from_pairs(AB, [((1, 2), 1)]),
            Bag.from_pairs(BC, [((2, 9), 1)]),
        ])
        r, s = live.handles
        assert live.are_consistent(r, s)
        live.update(r, (3, 2), 1)
        assert not live.are_consistent(r, s)
        live.update(s, (2, 0), 1)
        assert live.are_consistent(r, s)

    def test_self_pair_is_consistent(self):
        live = LiveEngine([Bag.from_pairs(AB, [((1, 2), 1)])])
        assert live.are_consistent(live.handles[0], live.handles[0])

    def test_empty_common_schema_tracks_totals(self):
        live = LiveEngine([
            Bag.from_pairs(AB, [((1, 2), 2)]),
            Bag.from_pairs(EF, [((5, 6), 2)]),
        ])
        r, t = live.handles
        assert live.are_consistent(r, t)
        live.update(t, (7, 8), 1)  # totals 2 vs 3
        assert not live.are_consistent(r, t)
        live.update(r, (1, 2), 1)
        assert live.are_consistent(r, t)

    def test_disagreeing_cells_orientation(self):
        live = LiveEngine([
            Bag.from_pairs(AB, [((1, 2), 3)]),
            Bag.from_pairs(BC, [((2, 9), 1)]),
        ])
        r, s = live.handles
        assert live.disagreeing_cells(r, s) == {(2,): 2}
        assert live.disagreeing_cells(s, r) == {(2,): -2}

    def test_inconsistent_pairs_reported(self):
        live = LiveEngine([
            Bag.from_pairs(AB, [((1, 2), 1)]),
            Bag.from_pairs(BC, [((2, 9), 1)]),
            Bag.from_pairs(CD, [((9, 0), 2)]),
        ])
        assert live.inconsistent_pairs() == [(0, 2), (1, 2)]
        live.update(2, (9, 0), -1)
        assert live.inconsistent_pairs() == []


class TestInvalidation:
    def test_untouched_pair_keeps_memoized_witness(self):
        live, (h0, h1, h2) = planted_live([AB, BC, CD], seed=1)
        w01 = live.witness(h0, h1)
        live.update(h2, (7, 7), 1)
        assert live.witness(h0, h1) is w01

    def test_touched_pair_recomputes_witness(self):
        live, (h0, h1, h2) = planted_live([AB, BC, CD], seed=2)
        w12 = live.witness(h1, h2)
        live.update(h2, (0, 0), 1)
        live.update(h1, (0, 0), 1)
        assert live.stats.invalidations > 0
        new = live.witness(h1, h2)
        assert new is not w12
        assert is_witness([h1.bag(), h2.bag()], new)

    def test_witness_raises_after_breaking_update(self):
        live, (h0, h1) = planted_live([AB, BC], seed=3)
        live.witness(h0, h1)
        live.update(h0, (8, 9), 1)  # bump one side only: totals disagree
        with pytest.raises(InconsistentError):
            live.witness(h0, h1)

    def test_global_result_invalidated_per_participant(self):
        live, (h0, h1, h2) = planted_live([AB, BC, CD], seed=4)
        first = live.global_check()
        assert live.global_check() is first  # snapshot-keyed memo
        live.update(h1, (0, 0), 1)
        assert live.global_check() is not first

    def test_join_and_marginal_answer_from_the_snapshots(self):
        live, (h0, h1) = planted_live([AB, BC], seed=5)
        joined = live.join(h0, h1)
        assert joined == h0.bag().bag_join(h1.bag())
        assert live.join(h0, h1) == joined
        marg = live.marginal(h0, Schema(["B"]))
        assert marg == h0.bag().marginal(Schema(["B"]))
        assert live.marginal(h0, Schema(["B"])) is marg  # the index memo
        assert len(live) == 0  # the verdict store holds neither
        live.update(h0, (4, 4), 1)
        assert live.join(h0, h1) == h0.bag().bag_join(h1.bag())
        assert live.marginal(h0, Schema(["B"])) == marg + Bag.from_pairs(
            Schema(["B"]), [((4,), 1)]
        )


class TestGlobal:
    def test_acyclic_theorem2_matches_solver(self):
        live, handles = planted_live([AB, BC, CD], seed=6)
        assert live.schema_acyclic()
        assert live.globally_consistent() == decide_global_consistency(
            [h.bag() for h in handles]
        )

    def test_cyclic_falls_back_to_exact_solver(self):
        from repro.consistency.local_global import tseitin_collection
        from repro.hypergraphs.families import cycle_hypergraph

        bags = tseitin_collection(list(cycle_hypergraph(3).edges))
        live = LiveEngine(bags)
        assert not live.schema_acyclic()
        assert live.pairwise_consistent()  # Tseitin: pairwise ok...
        assert not live.globally_consistent()  # ...globally broken

    def test_whole_set_answers_follow_added_bags(self):
        """The whole-set acyclicity key and the all-pairs verdict must
        both see a bag added after they were first answered."""
        live, handles = planted_live([AB, BC], seed=3)
        assert live.schema_acyclic() and live.globally_consistent()
        live.add_bag(Bag.from_pairs(Schema(["A", "C"]), [((9, 9), 1)]))
        assert not live.schema_acyclic()  # A-B, B-C, A-C: a triangle
        assert live.schema_acyclic(handles)  # the first two still a path
        assert not live.pairwise_consistent()
        assert live.pairwise_consistent(handles)
        assert not live.globally_consistent()

    def test_capacity_forwarded_to_inner_engine(self):
        live = LiveEngine(capacity=2)
        assert live.engine.capacity == 2


class TestStreamCrossCheck:
    """The acceptance cross-check: after every update, the live verdicts
    equal from-scratch recomputation on the current snapshots."""

    SCHEMAS = [AB, BC, CD, EF]  # EF gives an empty-common-schema pair

    def _random_update(self, rng, live, handles):
        handle = handles[rng.randrange(len(handles))]
        rows = sorted(handle.items(), key=repr)
        if rows and rng.random() < 0.45:
            row, mult = rows[rng.randrange(len(rows))]
            # deletes, including delete-to-zero
            amount = -mult if rng.random() < 0.5 else -1
        else:
            row = tuple(rng.randrange(3) for _ in handle.schema.attrs)
            amount = rng.randint(1, 2)
        live.update(handle, row, amount)

    def test_matches_from_scratch_oracles(self):
        rng = random.Random(20210620)
        live, handles = planted_live(self.SCHEMAS, seed=7, n_tuples=3)
        for _ in range(60):
            self._random_update(rng, live, handles)
            bags = [h.bag() for h in handles]
            for i in range(len(handles)):
                for j in range(i + 1, len(handles)):
                    assert live.are_consistent(
                        handles[i], handles[j]
                    ) == are_consistent(bags[i], bags[j])
            assert live.globally_consistent() == decide_global_consistency(
                bags
            )

    @settings(deadline=None, max_examples=25)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.tuples(st.integers(0, 1), st.integers(0, 1)),
                st.integers(1, 2),
            ),
            max_size=10,
        )
    )
    def test_hypothesis_stream_matches_oracle(self, updates):
        live = LiveEngine([Bag.empty(AB), Bag.empty(BC), Bag.empty(EF)])
        handles = live.handles
        for index, row, amount in updates:
            live.update(handles[index], row, amount)
            bags = [h.bag() for h in handles]
            for i in range(3):
                for j in range(i + 1, 3):
                    assert live.are_consistent(
                        handles[i], handles[j]
                    ) == are_consistent(bags[i], bags[j])
