"""The maintained Theorem 6 witness of ``LiveEngine.global_check``.

Every maintained witness is cross-checked the way the acceptance
criteria demand: it must pass :func:`is_witness` and agree with the
reference fold (:func:`acyclic_global_witness`) on the exact marginal
of every bag — both must equal the bag itself — while obeying the
Theorem 6 support bound.
"""

import functools
import random

import pytest

from repro.consistency.global_ import (
    acyclic_global_witness,
    decide_global_consistency,
)
from repro.consistency.witness import is_witness, witness_marginal_residuals
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine import live as live_module
from repro.engine.live import LiveEngine
from repro.engine.live_global import repair_fold_witness
from repro.engine.session import Engine, VerdictStore, global_key
from repro.workloads.generators import planted_collection, planted_stream


def path_schemas(m):
    return [Schema([f"X{i}", f"X{i + 1}"]) for i in range(m)]


def star_schemas(leaves):
    return [Schema(["Hub", f"L{i}"]) for i in range(leaves)]


def schemas_of(*names):
    """One schema per name, one attribute per letter: ``"AB"`` -> A, B."""
    return [Schema(list(name)) for name in names]


# The acyclic shapes the stream test replays: deep and wide join trees,
# a schema set with several connected components, nested schemas, two
# handles over one schema, and a caterpillar (a path with legs).
STREAM_SHAPES = {
    "path": path_schemas(5),
    "star": star_schemas(4),
    "disconnected": schemas_of("AB", "CD", "DE"),
    "nested": schemas_of("A", "AB", "ABC"),
    "shared-schema": schemas_of("AB", "BC", "BC", "CD"),
    "caterpillar": schemas_of("AB", "BC", "CD", "BE", "CF"),
}


def assert_cross_checked(bags, result):
    """The acceptance cross-check for one maintained result."""
    assert result.consistent
    witness = result.witness
    assert is_witness(bags, witness)
    assert all(
        not delta for delta in witness_marginal_residuals(bags, witness).values()
    )
    reference = acyclic_global_witness(bags)
    for bag in bags:
        marginal = witness.marginal(bag.schema)
        assert marginal == bag
        assert marginal == reference.marginal(bag.schema)
    assert witness.support_size <= sum(bag.support_size for bag in bags)


class TestMaintainedWitness:
    @pytest.mark.parametrize(
        "schemas", [path_schemas(4), star_schemas(4)], ids=["path", "star"]
    )
    def test_initial_fold_matches_reference(self, schemas):
        _, bags = planted_collection(schemas, random.Random(0), n_tuples=6)
        live = LiveEngine(bags)
        result = live.global_check()
        assert result.method == "live"
        assert_cross_checked(bags, result)

    def test_result_memoized_until_update(self):
        _, bags = planted_collection(path_schemas(3), random.Random(1))
        live = LiveEngine(bags)
        first = live.global_check()
        assert live.global_check() is first
        hits = live.stats.global_hits
        assert hits >= 1
        live.update(live.handles[0], (9, 9), 1)
        assert live.global_check() is not first

    def test_inconsistent_stream_reports_pairwise(self):
        _, bags = planted_collection(path_schemas(3), random.Random(2))
        live = LiveEngine(bags)
        handle = live.handles[1]
        live.update(handle, (7, 7), 1)  # one-sided: totals disagree
        result = live.global_check()
        assert not result.consistent and result.method == "pairwise"
        live.update(handle, (7, 7), -1)
        assert_cross_checked(
            [h.bag() for h in live.handles], live.global_check()
        )

    def test_small_sets_are_maintained(self):
        """No size floor: a set of a few rows is maintained from its
        first check on, and an update is served by the repair."""
        bags, transactions = planted_stream(
            path_schemas(3), random.Random(3), 1
        )
        assert sum(bag.support_size for bag in bags) < 48
        live = LiveEngine(bags)
        assert live.global_check().method == "live"
        for index, row, amount in transactions[0]:
            live.update(live.handles[index], row, amount)
        result = live.global_check()
        assert result.method == "live"
        assert_cross_checked([h.bag() for h in live.handles], result)
        assert live.live_global_stats() == {"repairs": 1, "refolds": 1}

    def test_subset_handles_maintained_independently(self):
        _, bags = planted_collection(path_schemas(4), random.Random(4))
        live = LiveEngine(bags)
        sub = live.handles[:2]
        result = live.global_check(handles=sub)
        assert_cross_checked([h.bag() for h in sub], result)
        # updating an outside bag keeps the subset's tree clean
        live.update(live.handles[3], (5, 5), 1)
        assert live.global_check(handles=sub) is result

    def test_duplicate_schema_handles_fold_once(self):
        _, bags = planted_collection(path_schemas(3), random.Random(5))
        live = LiveEngine([bags[0]] + bags)  # bags[0] tracked twice
        result = live.global_check()
        assert_cross_checked(bags, result)

    def test_handle_order_shares_one_maintained_witness(self):
        _, bags = planted_collection(path_schemas(3), random.Random(6))
        live = LiveEngine(bags)
        handles = live.handles
        first = live.global_check(handles=handles)
        reordered = live.global_check(handles=handles[::-1])
        assert reordered is first
        assert_cross_checked([h.bag() for h in handles[::-1]], reordered)
        assert live.live_global_stats() == {"repairs": 0, "refolds": 1}

    def test_inconsistent_interlude_keeps_the_held_witness(self):
        """A check in mid-transaction answers from the pairwise phase
        and leaves the held witness alone: once the transaction
        completes, the repair serves from it."""
        bags, transactions = planted_stream(
            path_schemas(3), random.Random(7), 1
        )
        live = LiveEngine(bags)
        handles = live.handles
        live.global_check()
        (first, *rest), = transactions
        index, row, amount = first
        live.update(handles[index], row, amount)
        assert live.global_check().method == "pairwise"
        for index, row, amount in rest:
            live.update(handles[index], row, amount)
        assert_cross_checked([h.bag() for h in handles], live.global_check())
        assert live.live_global_stats() == {"repairs": 1, "refolds": 1}

    def test_added_bag_starts_a_new_handle_set(self):
        _, bags = planted_collection(path_schemas(4), random.Random(8))
        live = LiveEngine(bags[:3])
        first = live.global_check()
        live.add_bag(bags[3])
        assert_cross_checked(bags, live.global_check())
        assert live.live_global_stats() == {"repairs": 0, "refolds": 2}
        # the first three handles are still their own maintained set
        assert live.global_check(handles=live.handles[:3]) is first

    def test_search_method_takes_the_cold_path(self):
        _, bags = planted_collection(path_schemas(3), random.Random(9))
        live = LiveEngine(bags)
        result = live.global_check(method="search")
        assert result.consistent and result.method == "search"
        assert is_witness(bags, result.witness)
        assert live.global_check(method="acyclic").method == "live"
        assert live.live_global_stats() == {"repairs": 0, "refolds": 1}

    def test_cyclic_sets_are_not_maintained(self):
        _, bags = planted_collection(
            schemas_of("AB", "BC", "CA"), random.Random(10)
        )
        live = LiveEngine(bags)
        result = live.global_check()
        assert result.consistent and result.method == "search"
        assert is_witness(bags, result.witness)
        assert live.live_global_stats() == {"repairs": 0, "refolds": 0}


class TestRandomizedStreams:
    @pytest.mark.parametrize("every", [1, 2, 5])
    @pytest.mark.parametrize("shape", sorted(STREAM_SHAPES))
    def test_transaction_stream_cross_checks_every_boundary(
        self, shape, every
    ):
        """A refresh after every ``every`` transactions; after the
        first fold, the repair serves every refresh."""
        rng = random.Random(20210621)
        bags, transactions = planted_stream(
            STREAM_SHAPES[shape], rng, 25, n_tuples=8, max_multiplicity=3
        )
        live = LiveEngine(bags)
        handles = live.handles
        assert_cross_checked(bags, live.global_check())
        for step, transaction in enumerate(transactions, 1):
            for index, row, amount in transaction:
                live.update(handles[index], row, amount)
            if step % every == 0:
                assert_cross_checked(
                    [h.bag() for h in handles], live.global_check()
                )
        assert live.live_global_stats() == {
            "repairs": len(transactions) // every,
            "refolds": 1,
        }

    def test_uncoordinated_stream_matches_decision_oracle(self):
        """Single-bag updates (mostly inconsistent states): the live
        global check must track the from-scratch decision, and every
        consistent boundary must produce a verified witness."""
        rng = random.Random(7)
        schemas = path_schemas(3)
        _, bags = planted_collection(schemas, rng, n_tuples=3)
        live = LiveEngine(bags)
        handles = live.handles
        for _ in range(5):
            for _ in range(8):
                handle = handles[rng.randrange(len(handles))]
                rows = sorted(handle.items(), key=repr)
                if rows and rng.random() < 0.5:
                    row, mult = rows[rng.randrange(len(rows))]
                    amount = -mult if rng.random() < 0.5 else -1
                else:
                    row = tuple(
                        rng.randrange(3) for _ in handle.schema.attrs
                    )
                    amount = rng.randint(1, 2)
                live.update(handle, row, amount)
                current = [h.bag() for h in handles]
                result = live.global_check()
                assert result.consistent == decide_global_consistency(
                    current
                )
                if result.consistent:
                    assert_cross_checked(current, result)
            # drive the session back to a (fresh) planted state and
            # demand a verified witness at the consistent boundary
            plant, _ = planted_collection(schemas, rng, n_tuples=3)
            for index, handle in enumerate(handles):
                target = dict(plant.marginal(schemas[index]).items())
                for row, mult in list(handle.items()):
                    live.update(handle, row, target.get(row, mult) - mult
                                if row in target else -mult)
                for row, mult in target.items():
                    if handle.multiplicity(row) != mult:
                        live.update(
                            handle, row, mult - handle.multiplicity(row)
                        )
            result = live.global_check()
            assert_cross_checked([h.bag() for h in handles], result)

    def test_delete_to_zero_restores_node_snapshot(self):
        """Inserting a row and deleting it again leaves the witness the
        stream started from."""
        schemas = path_schemas(4)
        _, bags = planted_collection(schemas, random.Random(8), n_tuples=6)
        live = LiveEngine(bags)
        handles = live.handles
        before = live.global_check().witness
        before_fp = fingerprint.of_bag(before)
        # insert a fresh row into one bag's schema on both sides so the
        # collection stays consistent, then delete it back to zero
        row = (97, 98)
        live.update(handles[0], row, 1)
        live.update(handles[1], (98, 99), 1)
        live.update(handles[2], (99, 97), 1)
        live.update(handles[3], (97, 96), 1)
        mid = live.global_check()
        assert mid.consistent and mid.witness is not before
        live.update(handles[0], row, -1)
        live.update(handles[1], (98, 99), -1)
        live.update(handles[2], (99, 97), -1)
        live.update(handles[3], (97, 96), -1)
        after = live.global_check().witness
        assert live.live_global_stats() == {"repairs": 2, "refolds": 1}
        assert fingerprint.of_bag(after) == before_fp
        assert after == before

    def test_repair_failure_falls_back_to_node_recompute(self, monkeypatch):
        """A delta wider than the repair limit re-folds the witness
        cold — and still produces a correct witness."""
        monkeypatch.setattr(
            live_module,
            "repair_fold_witness",
            functools.partial(repair_fold_witness, limit=4),
        )
        schemas = path_schemas(4)
        _, bags = planted_collection(schemas, random.Random(9), n_tuples=6)
        live = LiveEngine(bags)
        handles = live.handles
        assert_cross_checked([h.bag() for h in handles], live.global_check())
        assert live.live_global_stats() == {"repairs": 0, "refolds": 1}
        # one wide transaction: replace many rows at once, consistently
        rng = random.Random(10)
        plant, _ = planted_collection(schemas, rng, n_tuples=6)
        for index, handle in enumerate(handles):
            target = plant.marginal(schemas[index])
            for row, mult in list(handle.items()):
                live.update(handle, row, -mult)
            for row, mult in target.items():
                live.update(handle, row, mult)
        assert_cross_checked([h.bag() for h in handles], live.global_check())
        assert live.live_global_stats() == {"repairs": 0, "refolds": 2}

    def test_support_bound_breach_refolds_cold(self):
        """Repairs that pile rows past Theorem 6's support bound (the
        sum of the bags' supports) hand the set back to the cold fold."""
        ab, bc = schemas_of("AB", "BC")
        live = LiveEngine([
            Bag(ab, {(a, 0): 1 for a in range(3)}),
            Bag(bc, {(0, c): 1 for c in range(3)}),
        ])
        left, right = live.handles
        live.global_check()
        for a in range(3):
            for c in range(3):
                live.update(left, (a, 0), 1)
                live.update(right, (0, c), 1)
                result = live.global_check()
                assert_cross_checked([left.bag(), right.bag()], result)
        stats = live.live_global_stats()
        assert stats["repairs"] > 0 and stats["refolds"] > 1


class TestStoreIntegration:
    def test_witnesses_shared_across_engines_over_one_store(self):
        shared = VerdictStore()
        _, bags = planted_collection(path_schemas(4), random.Random(11))
        live = LiveEngine(bags, store=shared)
        handles = live.handles
        live.update(handles[0], (5, 6), 1)
        live.update(handles[1], (6, 5), 1)
        live.update(handles[2], (5, 5), 1)
        live.update(handles[3], (5, 5), 1)
        result = live.global_check()
        assert result.consistent
        # A second engine over the same store sees the maintained
        # result for value-equal (separately constructed) bags.
        rebuilt = [Bag(h.schema, dict(h.items())) for h in handles]
        other = Engine(store=shared)
        served = other.global_check(rebuilt)
        assert served is result
        assert other.stats.global_hits == 1

    def test_two_live_engines_share_maintained_results(self):
        shared = VerdictStore()
        _, bags = planted_collection(path_schemas(3), random.Random(12))
        first = LiveEngine(bags, store=shared)
        second = LiveEngine(bags, store=shared)
        result = first.global_check()
        # the second engine's own live check is independent (its own
        # tree) but the store already holds the shared entry
        fps = fingerprint.of_collection([h.bag() for h in second.handles])
        assert shared.contains(("global", fps, "auto"))
        assert second.global_check().witness == result.witness


class TestStorePush:
    def test_repaired_results_are_pushed_under_the_global_key(self):
        shared = VerdictStore()
        bags, transactions = planted_stream(
            path_schemas(3), random.Random(18), 1
        )
        live = LiveEngine(bags, store=shared)
        handles = live.handles
        live.global_check()
        for index, row, amount in transactions[0]:
            live.update(handles[index], row, amount)
        result = live.global_check()
        assert live.live_global_stats() == {"repairs": 1, "refolds": 1}
        rebuilt = [Bag(h.schema, dict(h.items())) for h in handles]
        key = global_key(fingerprint.of_collection(rebuilt), "auto")
        assert shared.get(key) is result
        assert Engine(store=shared).global_check(rebuilt) is result


class TestAcyclicityCache:
    def test_gyo_runs_once_per_handle_set(self, monkeypatch):
        from repro.hypergraphs import acyclicity

        calls = {"n": 0}
        real = acyclicity.is_acyclic

        def counting(hypergraph):
            calls["n"] += 1
            return real(hypergraph)

        monkeypatch.setattr(acyclicity, "is_acyclic", counting)
        _, bags = planted_collection(path_schemas(3), random.Random(13))
        live = LiveEngine(bags)
        handles = live.handles
        for _ in range(5):
            live.update(handles[0], (3, 3), 1)
            live.update(handles[1], (3, 3), 1)
            live.update(handles[2], (3, 3), 1)
            live.global_check()
        assert calls["n"] == 1  # row updates never re-run GYO
        live.add_bag(Bag(Schema(["X3", "X4"]), {(1, 1): 1}))
        live.global_check()
        assert calls["n"] == 2  # membership changes do


class TestRepairPrimitive:
    """Unit tests for the node-level delta repair."""

    UNION = ("A", "B", "C")
    INPUTS_SCHEMAS = (("A", "B"), ("B", "C"))

    def test_insert_patch_closes_needs_exactly(self):
        mults = {(1, 1, 1): 2}
        inputs = [
            (("A", "B"), {(1, 1): 1, (2, 2): 1}),
            (("B", "C"), {(1, 1): 1, (2, 2): 1}),
        ]
        work = repair_fold_witness(mults, self.UNION, inputs)
        assert work == {(1, 1, 1): 3, (2, 2, 2): 1}

    def test_delete_patch_removes_matching_row(self):
        mults = {(1, 1, 1): 2, (2, 2, 2): 1}
        inputs = [
            (("A", "B"), {(2, 2): -1}),
            (("B", "C"), {(2, 2): -1}),
        ]
        work = repair_fold_witness(mults, self.UNION, inputs)
        assert work == {(1, 1, 1): 2}

    def test_limit_exceeded_returns_none(self):
        mults = {(1, 1, 1): 1}
        wide = {(i, i): 1 for i in range(40)}
        inputs = [(("A", "B"), dict(wide)), (("B", "C"), dict(wide))]
        assert (
            repair_fold_witness(mults, self.UNION, inputs, limit=8) is None
        )

    def test_unmatchable_addition_returns_none(self):
        # input 0 gains mass at B=1 but input 1 gains it at B=2: no
        # single row can close both needs, and removals cannot help.
        mults = {(1, 1, 1): 1}
        inputs = [
            (("A", "B"), {(5, 1): 1}),
            (("B", "C"), {(2, 5): 1}),
        ]
        assert repair_fold_witness(mults, self.UNION, inputs) is None

    def test_empty_deltas_are_a_noop(self):
        mults = {(1, 1, 1): 4}
        inputs = [(("A", "B"), {}), (("B", "C"), {})]
        assert repair_fold_witness(mults, self.UNION, inputs) == mults


class TestRepairDeltas:
    """The repair over mixed, empty and longer-path deltas."""

    UNION = ("A", "B", "C")

    def test_moved_row_patched_without_mutating_the_witness(self):
        mults = {(1, 1, 1): 2, (2, 2, 2): 1}
        held = dict(mults)
        move = {(2, 2): -1, (3, 3): 1}
        inputs = [(("A", "B"), dict(move)), (("B", "C"), dict(move))]
        work = repair_fold_witness(mults, self.UNION, inputs)
        assert mults == held
        assert work == {(1, 1, 1): 2, (3, 3, 3): 1}

    def test_zero_amounts_are_not_needs(self):
        """Zero entries neither count against the limit nor patch: two
        of them fit a limit of one round and one cell."""
        mults = {(1, 1, 1): 1}
        inputs = [(("A", "B"), {(1, 1): 0}), (("B", "C"), {(2, 2): 0})]
        work = repair_fold_witness(mults, self.UNION, inputs, limit=1)
        assert work == mults

    def test_insert_unifies_along_a_longer_path(self):
        mults = {(1, 1, 1, 1): 1}
        inputs = [
            (("A", "B"), {(2, 1): 1}),
            (("B", "C"), {(1, 1): 1}),
            (("C", "D"), {(1, 2): 1}),
        ]
        work = repair_fold_witness(mults, ("A", "B", "C", "D"), inputs)
        assert work == {(1, 1, 1, 1): 1, (2, 1, 1, 2): 1}


class TestResidualDiagnostic:
    def test_residuals_name_the_drifted_cells(self):
        _, bags = planted_collection(path_schemas(2), random.Random(14))
        witness = acyclic_global_witness(bags)
        assert all(
            not delta
            for delta in witness_marginal_residuals(bags, witness).values()
        )
        drifted = bags[0] + Bag(bags[0].schema, {(8, 8): 2})
        residuals = witness_marginal_residuals([drifted, bags[1]], witness)
        assert residuals[drifted.schema] == {(8, 8): 2}
        assert residuals[bags[1].schema] == {}


class TestFoldTreeBound:
    def test_fold_trees_are_lru_bounded(self, monkeypatch):
        monkeypatch.setattr(live_module, "MAX_WITNESS_SETS", 2)
        _, bags = planted_collection(path_schemas(6), random.Random(15))
        live = LiveEngine(bags)
        handles = live.handles
        # sweep more distinct handle subsets than the bound
        for end in range(1, len(handles) + 1):
            result = live.global_check(handles=handles[:end])
            assert_cross_checked([h.bag() for h in handles[:end]], result)
            assert len(live._live_globals) <= 2
        # an evicted set still answers correctly (fresh fold)
        result = live.global_check(handles=handles[:1])
        assert_cross_checked([handles[0].bag()], result)

    def test_recently_checked_sets_survive_eviction(self, monkeypatch):
        monkeypatch.setattr(live_module, "MAX_WITNESS_SETS", 2)
        _, bags = planted_collection(path_schemas(3), random.Random(16))
        live = LiveEngine(bags)
        first, second, third = ([handle] for handle in live.handles)
        live.global_check(handles=first)
        live.global_check(handles=second)
        live.global_check(handles=first)  # a hit: now the most recent
        live.global_check(handles=third)  # evicts second, not first
        assert live.live_global_stats() == {"repairs": 0, "refolds": 3}
        live.global_check(handles=first)
        assert live.live_global_stats()["refolds"] == 3
        assert_cross_checked(
            [second[0].bag()], live.global_check(handles=second)
        )
        assert live.live_global_stats()["refolds"] == 4
