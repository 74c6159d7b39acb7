"""The Engine facade: memoization semantics and batched entry points."""

import random

import pytest

from repro.consistency.global_ import global_witness
from repro.consistency.pairwise import are_consistent, consistency_witness
from repro.consistency.witness import is_witness
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.session import Engine, VerdictStore
from repro.errors import InconsistentError
from repro.workloads.generators import inconsistent_pair, planted_pair
from repro.workloads.suites import run_suites

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def consistent_pair(seed=0, n=6):
    _, r, s = planted_pair(AB, BC, random.Random(seed), n_tuples=n)
    return r, s


class TestPairMemoization:
    def test_are_consistent_matches_direct(self):
        engine = Engine()
        r, s = consistent_pair()
        bad_r, bad_s = inconsistent_pair(AB, BC, random.Random(1))
        assert engine.are_consistent(r, s) is are_consistent(r, s) is True
        assert engine.are_consistent(bad_r, bad_s) is False

    def test_repeat_query_hits_cache(self):
        engine = Engine()
        r, s = consistent_pair()
        engine.are_consistent(r, s)
        assert engine.stats.consistency_hits == 0
        engine.are_consistent(r, s)
        assert engine.stats.consistency_hits == 1

    def test_consistency_cache_is_symmetric(self):
        engine = Engine()
        r, s = consistent_pair()
        engine.are_consistent(r, s)
        engine.are_consistent(s, r)
        assert engine.stats.consistency_hits == 1

    def test_negative_verdicts_are_cached(self):
        engine = Engine()
        r, s = inconsistent_pair(AB, BC, random.Random(2))
        assert engine.are_consistent(r, s) is False
        assert engine.are_consistent(r, s) is False
        assert engine.stats.consistency_hits == 1

    def test_join_matches_bag_join_and_caches(self):
        engine = Engine()
        r, s = consistent_pair()
        joined = engine.join(r, s)
        assert joined == r.bag_join(s)
        assert engine.join(r, s) is joined
        assert engine.stats.join_hits == 1


class TestWitness:
    def test_witness_is_valid_and_cached(self):
        engine = Engine()
        r, s = consistent_pair()
        witness = engine.witness(r, s)
        assert is_witness([r, s], witness)
        assert engine.witness(r, s) is witness
        assert engine.stats.witness_hits == 1

    def test_minimal_witness_obeys_theorem5(self):
        engine = Engine()
        r, s = consistent_pair()
        witness = engine.witness(r, s, minimal=True)
        assert is_witness([r, s], witness)
        assert witness.support_size <= r.support_size + s.support_size

    def test_both_minimal_values_share_the_minimal_key(self):
        """Witnesses are minimal by construction, so both flag values
        hit one entry; an entry an older version stored under False (a
        non-minimal max-flow witness) is never served."""
        engine = Engine()
        r, s = consistent_pair()
        lfp, rfp = fingerprint.of_bag(r), fingerprint.of_bag(s)
        engine.store.put(("witness", lfp, rfp, False), "stale", (lfp, rfp))
        witness = engine.witness(r, s)
        assert is_witness([r, s], witness)
        assert engine.witness(r, s, minimal=True) is witness
        assert engine.stats.witness_hits == 1

    def test_inconsistent_pair_raises_and_caches_the_refusal(self):
        engine = Engine()
        r, s = inconsistent_pair(AB, BC, random.Random(3))
        with pytest.raises(InconsistentError):
            engine.witness(r, s)
        with pytest.raises(InconsistentError):
            engine.witness(r, s)
        assert engine.stats.witness_hits == 1

    def test_witness_matches_direct_pipeline(self):
        engine = Engine()
        r, s = consistent_pair(seed=4)
        assert engine.witness(r, s) == consistency_witness(r, s)


class TestBatchedAPI:
    def test_are_consistent_many(self):
        engine = Engine()
        good = consistent_pair(seed=5)
        bad = inconsistent_pair(AB, BC, random.Random(6))
        assert engine.are_consistent_many([good, bad, good]) == [
            True,
            False,
            True,
        ]

    def test_witness_many_yields_none_for_inconsistent_entries(self):
        engine = Engine()
        good = consistent_pair(seed=7)
        bad = inconsistent_pair(AB, BC, random.Random(8))
        witnesses = engine.witness_many([good, bad, good])
        assert witnesses[1] is None
        assert is_witness(list(good), witnesses[0])
        assert witnesses[2] is witnesses[0]

    def test_global_check_matches_global_witness(self):
        engine = Engine()
        r, s = consistent_pair(seed=9)
        outcome = engine.global_check([r, s])
        direct = global_witness([r, s])
        assert outcome.consistent == direct.consistent
        assert outcome.method == direct.method

    def test_global_check_many_shares_the_pairwise_cache(self):
        engine = Engine()
        r, s = consistent_pair(seed=10)
        results = engine.global_check_many([[r, s], [r, s, s]])
        assert all(result.consistent for result in results)
        # The second collection re-checks (r, s): it must be a hit —
        # counted as an internal probe, not an external query.
        assert engine.stats.internal_consistency_hits >= 1
        assert engine.stats.consistency_queries == 0

    def test_empty_collection_raises(self):
        engine = Engine()
        with pytest.raises(InconsistentError):
            engine.global_check([])


class TestLifecycle:
    def test_clear_resets_cache_and_stats(self):
        engine = Engine()
        r, s = consistent_pair(seed=11)
        engine.are_consistent(r, s)
        assert len(engine) == 1
        engine.clear()
        assert len(engine) == 0
        engine.are_consistent(r, s)
        assert engine.stats.consistency_hits == 0


class TestStatsSeparation:
    """Internal probes (witness / global_check plumbing) must not
    inflate the external consistency counters — the `repro batch`
    truthfulness bugfix."""

    def test_witness_probes_count_as_internal(self):
        engine = Engine()
        r, s = consistent_pair(seed=20)
        engine.witness(r, s)
        assert engine.stats.consistency_queries == 0
        assert engine.stats.internal_consistency_queries == 1
        assert engine.stats.witness_queries == 1

    def test_global_check_probes_count_as_internal(self):
        engine = Engine()
        r, s = consistent_pair(seed=21)
        engine.global_check([r, s])
        assert engine.stats.consistency_queries == 0
        assert engine.stats.internal_consistency_queries >= 1

    def test_external_hit_rate_reflects_served_queries_only(self):
        engine = Engine()
        r, s = consistent_pair(seed=22)
        engine.are_consistent(r, s)
        engine.witness(r, s)  # internal probe hits the shared entry
        engine.are_consistent(r, s)
        assert engine.stats.consistency_queries == 2
        assert engine.stats.consistency_hits == 1
        assert engine.stats.internal_consistency_hits == 1

    def test_stats_dict_has_the_new_counters(self):
        report = Engine().stats.as_dict()
        for field in (
            "internal_consistency_queries",
            "internal_consistency_hits",
            "marginal_queries",
            "marginal_hits",
            "evictions",
            "invalidations",
        ):
            assert field in report


class TestMarginalFacade:
    def test_marginal_matches_bag_and_records_stats(self):
        engine = Engine()
        r, _ = consistent_pair(seed=23)
        target = Schema(["B"])
        marg = engine.marginal(r, target)
        assert marg == r.marginal(target)
        assert engine.stats.marginal_queries == 1
        assert engine.stats.marginal_hits == 0
        assert engine.marginal(r, target) is marg
        assert engine.stats.marginal_hits == 1

    def test_marginal_pins_the_bag_like_other_entry_points(self):
        engine = Engine()
        r, _ = consistent_pair(seed=24)
        engine.marginal(r, Schema(["B"]))
        assert len(engine) == 1
        assert engine.invalidate(r) == 1
        assert len(engine) == 0


class TestBoundedCache:
    def sweep(self, engine, n, start=100):
        pairs = [consistent_pair(seed=start + k) for k in range(n)]
        for r, s in pairs:
            engine.are_consistent(r, s)
            assert len(engine) <= (engine.capacity or n)
        return pairs

    def test_capacity_never_exceeded_under_sweep(self):
        engine = Engine(capacity=4)
        self.sweep(engine, 20)
        assert len(engine) == 4
        assert engine.stats.evictions == 16

    def test_eviction_drops_bookkeeping_of_dead_entries(self):
        engine = Engine(capacity=2)
        self.sweep(engine, 10)
        # two live entries, each touching two fingerprints: the reverse
        # index must not accumulate the history of evicted contents
        assert len(engine.store._fp_keys) <= 4

    def test_lru_order_recent_survives(self):
        engine = Engine(capacity=2)
        (r1, s1), (r2, s2) = self.sweep(engine, 2)
        engine.are_consistent(r1, s1)  # refresh (r1, s1): now most recent
        r3, s3 = consistent_pair(seed=200)
        engine.are_consistent(r3, s3)  # evicts (r2, s2), not (r1, s1)
        hits = engine.stats.consistency_hits
        engine.are_consistent(r1, s1)
        assert engine.stats.consistency_hits == hits + 1

    def test_explicit_pin_exempts_entries_from_eviction(self):
        engine = Engine(capacity=2)
        r, s = consistent_pair(seed=25)
        engine.pin(r)
        engine.are_consistent(r, s)
        self.sweep(engine, 6)
        hits = engine.stats.consistency_hits
        engine.are_consistent(r, s)
        assert engine.stats.consistency_hits == hits + 1

    def test_unpin_makes_entries_evictable_again(self):
        engine = Engine(capacity=2)
        r, s = consistent_pair(seed=26)
        engine.pin(r)
        engine.are_consistent(r, s)
        engine.unpin(r)
        self.sweep(engine, 6)
        hits = engine.stats.consistency_hits
        engine.are_consistent(r, s)
        assert engine.stats.consistency_hits == hits  # recomputed, no hit

    def test_pinned_entries_filling_capacity_do_not_disable_caching(self):
        """When pinned entries occupy the whole capacity, new unpinned
        entries overflow the bound instead of being evicted on insert —
        the cache must keep serving unpinned work."""
        engine = Engine(capacity=2)
        (r1, s1), (r2, s2) = [consistent_pair(seed=80 + k) for k in range(2)]
        for bag in (r1, s1, r2, s2):
            engine.pin(bag)
        engine.are_consistent(r1, s1)
        engine.are_consistent(r2, s2)
        t, u = consistent_pair(seed=90)
        engine.are_consistent(t, u)
        engine.are_consistent(t, u)
        assert engine.stats.consistency_hits == 1
        assert len(engine) == 3  # overflow is documented pinning behaviour

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Engine(capacity=0)


class LRUModel:
    """The store's eviction contract, spelled out over a plain list:
    entries oldest first, and an over-capacity store drops the oldest
    entries that are neither the one being inserted nor touching a
    pinned fingerprint."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # [key, value, fps], least recent first
        self.pinned = set()
        self.evictions = 0

    def find(self, key):
        for i, entry in enumerate(self.entries):
            if entry[0] == key:
                return i
        return None

    def evict(self, protect=None):
        evicted = i = 0
        while len(self.entries) > self.capacity and i < len(self.entries):
            key, _, fps = self.entries[i]
            if key == protect or any(fp in self.pinned for fp in fps):
                i += 1
                continue
            del self.entries[i]
            evicted += 1
        self.evictions += evicted
        return evicted

    def put(self, key, value, fps):
        i = self.find(key)
        if i is not None:
            entry = self.entries.pop(i)
            entry[1] = value
            self.entries.append(entry)
            return 0
        self.entries.append([key, value, tuple(fps)])
        return self.evict(protect=key)

    def get(self, key):
        i = self.find(key)
        if i is None:
            return VerdictStore.MISS
        entry = self.entries.pop(i)
        self.entries.append(entry)
        return entry[1]

    def unpin(self, fp):
        self.pinned.discard(fp)
        return self.evict()

    def invalidate(self, fp):
        before = len(self.entries)
        self.entries = [e for e in self.entries if fp not in e[2]]
        self.pinned.discard(fp)
        return before - len(self.entries)


class TestEvictionAgainstModel:
    """A randomized stream of put/get/pin/unpin/invalidate ops keeps the
    store equal to :class:`LRUModel` after every op: same entries in the
    same recency order, same eviction count, same return values, and no
    reverse-index bookkeeping for dead entries."""

    @pytest.mark.parametrize("capacity", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_op_stream_matches_the_model(self, capacity, seed):
        rng = random.Random(7000 + 97 * capacity + seed)
        store = VerdictStore(capacity)
        model = LRUModel(capacity)
        for step in range(600):
            op = rng.random()
            a, b = rng.randrange(12), rng.randrange(12)
            key = ("k", min(a, b), max(a, b))
            fps = (key[1], key[2])
            if op < 0.45:
                assert store.put(key, step, fps) == model.put(key, step, fps)
            elif op < 0.75:
                assert store.get(key) == model.get(key)
            elif op < 0.83:
                store.pin_fp(a)
                model.pinned.add(a)
            elif op < 0.93:
                assert store.unpin_fp(a) == model.unpin(a)
            else:
                assert store.invalidate_fp(a) == model.invalidate(a)
            assert list(store._cache.items()) == [
                (k, v) for k, v, _ in model.entries
            ]
            assert store.evictions == model.evictions
            assert store._pinned_fps == model.pinned
            live_fps = {fp for _, _, fps in model.entries for fp in fps}
            assert set(store._fp_keys) == live_fps
            assert set(store._participants) == set(store._cache)


class TestInvalidation:
    def test_invalidate_drops_only_entries_touching_the_bag(self):
        engine = Engine()
        r, s = consistent_pair(seed=27)
        t, u = consistent_pair(seed=28)
        engine.are_consistent(r, s)
        engine.witness(r, s)
        engine.are_consistent(t, u)
        assert len(engine) == 3
        dropped = engine.invalidate(r)
        assert dropped == 2  # the (r, s) verdict and witness
        assert engine.stats.invalidations == 2
        hits = engine.stats.consistency_hits
        engine.are_consistent(t, u)  # untouched pair still cached
        assert engine.stats.consistency_hits == hits + 1

    def test_invalidate_reaches_global_results(self):
        engine = Engine()
        r, s = consistent_pair(seed=29)
        engine.global_check([r, s])
        assert engine.invalidate(r) >= 1
        assert len(engine) == 0

    def test_invalidate_unknown_bag_is_a_noop(self):
        engine = Engine()
        r, _ = consistent_pair(seed=30)
        assert engine.invalidate(r) == 0


class TestParallelBatches:
    def test_are_consistent_many_parallel_matches_serial(self):
        pairs = [consistent_pair(seed=40 + k) for k in range(6)]
        pairs.append(inconsistent_pair(AB, BC, random.Random(46)))
        serial = Engine().are_consistent_many(pairs)
        parallel = Engine().are_consistent_many(pairs, parallelism=4)
        assert parallel == serial

    def test_witness_many_parallel_matches_serial(self):
        pairs = [consistent_pair(seed=50 + k) for k in range(4)]
        pairs.insert(2, inconsistent_pair(AB, BC, random.Random(55)))
        serial = Engine().witness_many(pairs)
        parallel = Engine().witness_many(pairs, parallelism=3)
        assert parallel == serial
        assert parallel[2] is None

    def test_global_check_many_parallel_matches_serial(self):
        collections = [list(consistent_pair(seed=60 + k)) for k in range(4)]
        serial = Engine().global_check_many(collections)
        parallel = Engine().global_check_many(collections, parallelism=4)
        assert [r.consistent for r in parallel] == [
            r.consistent for r in serial
        ]

    def test_parallel_workers_share_one_cache(self):
        engine = Engine()
        pair = consistent_pair(seed=70)
        engine.are_consistent_many([pair] * 8, parallelism=4)
        assert len(engine) == 1

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError):
            Engine().are_consistent_many([], parallelism=0)


class TestSuiteWiring:
    def test_run_suites_through_one_engine(self):
        engine = Engine()
        results = run_suites(
            [
                ("planted-path", 3, 0),
                ("perturbed-path", 3, 0),
                ("planted-path", 3, 0),
            ],
            engine=engine,
        )
        assert [result.ok for result in results] == [True, True, True]
        assert results[0].consistent and not results[1].consistent
        # The duplicate spec reuses the built bags and hits the cache.
        assert engine.stats.global_hits >= 1

    def test_run_suites_default_engine(self):
        results = run_suites([("tseitin-cycle", 3, 0)])
        assert results[0].consistent is False
        assert results[0].ok is True
