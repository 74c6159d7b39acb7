"""The Engine facade: memoization semantics and batched entry points."""

import dataclasses
import random

import pytest

from repro.consistency.global_ import global_witness
from repro.consistency.pairwise import are_consistent, consistency_witness
from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.session import (
    BUILT_CAPACITY,
    Engine,
    VerdictStore,
    consistent_key,
    global_key,
    witness_key,
)
from repro.errors import InconsistentError
from repro.store import PersistentVerdictStore, shard_of_key
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


class TestWitness:
    def test_witness_is_valid_and_cached(self):
        """Cached under the key earlier versions wrote, so their
        persistent stores keep hitting; an entry they stored under False
        (a non-minimal max-flow witness) is never served."""
        engine = Engine()
        r, s = consistent_pair()
        lfp, rfp = fingerprint.of_bag(r), fingerprint.of_bag(s)
        engine.store.put(("witness", lfp, rfp, False), "stale")
        witness = engine.witness(r, s)
        assert is_witness([r, s], witness)
        assert engine.witness(r, s) is witness
        assert engine.stats.witness_hits == 1
        assert engine.store.get(("witness", lfp, rfp, True)) is witness

    def test_minimal_witness_obeys_theorem5(self):
        engine = Engine()
        r, s = consistent_pair()
        witness = engine.witness(r, s)
        assert is_witness([r, s], witness)
        assert witness.support_size <= r.support_size + s.support_size

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


def query_and_key(engine, kind, r, s):
    """Ask ``engine`` one ``kind`` of query over ``r`` and ``s``; return
    the answer and the store key it must land under."""
    lfp, rfp = fingerprint.of_bag(r), fingerprint.of_bag(s)
    if kind == "consistent":
        return engine.are_consistent(s, r), consistent_key(lfp, rfp)
    if kind == "witness":
        return engine.witness(r, s), witness_key(lfp, rfp)
    return engine.global_check([r, s]), global_key((lfp, rfp), "auto")


class TestStoreKeys:
    """The one constructor per key shape that the session, the process
    pre-filter and the live engine all build their keys with.  The key
    values are pinned: persistent stores written by earlier versions
    must keep hitting."""

    def test_consistent_key_is_unordered(self):
        assert consistent_key(7, 3) == consistent_key(3, 7)
        assert consistent_key(7, 3) == ("consistent", 3, 7)

    def test_witness_key_is_ordered_and_keeps_the_minimal_flag(self):
        assert witness_key(7, 3) == ("witness", 7, 3, True)
        assert witness_key(3, 7) != witness_key(7, 3)

    def test_global_key_keeps_collection_order_and_method(self):
        assert global_key((5, 1, 5), "auto") == ("global", (5, 1, 5), "auto")
        assert global_key((1, 5, 5), "auto") != global_key((5, 1, 5), "auto")
        assert global_key((5, 1), "search") != global_key((5, 1), "auto")

    @pytest.mark.parametrize("kind", ["consistent", "witness", "global"])
    def test_answers_land_under_the_constructed_key(self, kind):
        engine = Engine()
        r, s = consistent_pair(seed=5)
        answer, key = query_and_key(engine, kind, r, s)
        assert engine.store.get(key) is answer

    @pytest.mark.parametrize("kind", ["consistent", "witness", "global"])
    def test_entries_under_the_key_are_served(self, kind):
        """Whatever the store holds under the key is the answer: the
        engine computes nothing when a store already has it."""
        r, s = consistent_pair(seed=6)
        _, key = query_and_key(Engine(), kind, r, s)
        engine = Engine()
        engine.store.put(key, "stored")
        assert query_and_key(engine, kind, r, s)[0] == "stored"
        assert len(engine) == 1  # nothing computed, nothing added


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
            "evictions",
            "invalidations",
        ):
            assert field in report


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

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Engine(capacity=0)


class LRUModel:
    """The store's eviction contract, spelled out over a plain list:
    entries oldest first, and an over-capacity store drops the oldest
    entries."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # [key, value, fps], least recent first
        self.evictions = 0

    def find(self, key):
        for i, entry in enumerate(self.entries):
            if entry[0] == key:
                return i
        return None

    def put(self, key, value, fps):
        i = self.find(key)
        if i is not None:
            entry = self.entries.pop(i)
            entry[1] = value
            self.entries.append(entry)
            return 0
        self.entries.append([key, value, tuple(fps)])
        evicted = max(0, len(self.entries) - self.capacity)
        del self.entries[:evicted]
        self.evictions += evicted
        return evicted

    def get(self, key):
        i = self.find(key)
        if i is None:
            return VerdictStore.MISS
        entry = self.entries.pop(i)
        self.entries.append(entry)
        return entry[1]

    def invalidate(self, fp):
        before = len(self.entries)
        self.entries = [e for e in self.entries if fp not in e[2]]
        return before - len(self.entries)


def op_stream(rng, fps, steps=600):
    """A randomized stream of ``(op, key, fps, fp)`` store operations
    over pair keys of ``fps``: 45 % put, 40 % get, 15 % invalidate."""
    for _ in range(steps):
        op = rng.random()
        a, b = rng.choice(fps), rng.choice(fps)
        key = ("consistent", min(a, b), max(a, b))
        kind = "put" if op < 0.45 else "get" if op < 0.85 else "invalidate"
        yield kind, key, (key[1], key[2]), a


class TestEvictionAgainstModel:
    """A randomized stream of put/get/invalidate ops keeps the store's
    hot tier equal to :class:`LRUModel` after every op: same entries in
    the same recency order, same eviction count, same return values,
    and no reverse-index bookkeeping for dead entries."""

    @pytest.mark.parametrize("capacity", [1, 3, 8])
    @pytest.mark.parametrize("seed", range(4))
    def test_op_stream_matches_the_model(self, capacity, seed):
        rng = random.Random(7000 + 97 * capacity + seed)
        store = VerdictStore(capacity)
        model = LRUModel(capacity)
        for step, (op, key, fps, fp) in enumerate(op_stream(rng, range(12))):
            if op == "put":
                assert store.put(key, step) == model.put(key, step, fps)
            elif op == "get":
                assert store.get(key) == model.get(key)
            else:
                assert store.invalidate_fp(fp) == model.invalidate(fp)
            assert list(store._cache.items()) == [
                (k, v) for k, v, _ in model.entries
            ]
            assert store.evictions == model.evictions
            inverse = {}
            for k, _, key_fps in model.entries:
                for held_fp in key_fps:
                    inverse.setdefault(held_fp, set()).add(k)
            assert {
                held_fp: held if isinstance(held, set) else {held}
                for held_fp, held in store._fp_keys.items()
            } == inverse

    @pytest.mark.parametrize("capacity", [1, 3, 8, 20])
    @pytest.mark.parametrize("seed", range(2))
    def test_persistent_hot_tier_is_one_lru(self, tmp_path, capacity, seed):
        """Over eight shards, the hot tier is still one LRU of exactly
        ``capacity`` entries, and neither eviction nor invalidation
        loses a value: a get the model misses on a key that was put
        reads through from disk and is promoted like a put."""
        rng = random.Random(9000 + 97 * capacity + seed)
        # random top bytes, two per shard residue, so keys reach every
        # shard
        fps = [
            (rng.randrange(32) * 8 + i % 8) << 120 | rng.getrandbits(120)
            for i in range(16)
        ]
        store = PersistentVerdictStore(tmp_path / "s", shards=8,
                                       capacity=capacity)
        model = LRUModel(capacity)
        stored = {}  # key -> value, for every key put
        routed = set()  # every key put

        def value_of(key):  # entries are functions of their key
            return key[1] % 1000 + key[2] % 7

        for op, key, key_fps, fp in op_stream(rng, fps):
            if op == "put":
                value = value_of(key)
                stored[key] = value
                routed.add(key)
                assert store.put(key, value) == model.put(
                    key, value, key_fps
                )
            elif op == "get":
                expected = model.get(key)
                if expected is VerdictStore.MISS and key in stored:
                    expected = stored[key]  # read through, then promoted
                    model.put(key, expected, key_fps)
                assert store.get(key) == expected
            else:
                # the disk keeps what the hot tier drops
                assert store.invalidate_fp(fp) == model.invalidate(fp)
            assert store.stats_dict()["entries"] == len(model.entries)
            assert list(store._hot._cache.items()) == [
                (k, v) for k, v, _ in model.entries
            ]
            assert store.evictions == model.evictions
        assert {shard_of_key(key, 8) for key in routed} == set(range(8))
        store.close()


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
    def test_global_check_many_parallel_matches_serial(self):
        collections = [list(consistent_pair(seed=60 + k)) for k in range(4)]
        serial = Engine().global_check_many(collections)
        parallel = Engine().global_check_many(collections, parallelism=4)
        assert [r.consistent for r in parallel] == [
            r.consistent for r in serial
        ]

    def test_copies_of_one_pair_share_one_entry(self):
        engine = Engine()
        pair = consistent_pair(seed=70)
        assert engine.are_consistent_many([pair] * 8) == [True] * 8
        assert len(engine) == 1

    def test_invalid_parallelism_rejected(self):
        with pytest.raises(ValueError):
            Engine().global_check_many([], parallelism=0)


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

    def test_replayed_specs_are_not_rebuilt(self, monkeypatch):
        from repro.workloads import suites

        suite = suites.get_suite("planted-path")
        builds = []

        def counting_builder(size, seed):
            builds.append((size, seed))
            return suite.builder(size, seed)

        monkeypatch.setitem(
            suites._SUITES, "planted-path",
            dataclasses.replace(suite, builder=counting_builder),
        )
        specs = [("planted-path", 3, 0), ("planted-path", 3, 1)]
        engine = Engine()
        first = run_suites(specs, engine=engine)
        second = run_suites(specs, engine=engine)
        assert builds == [(3, 0), (3, 1)]
        assert first == second
        assert engine.stats.global_hits == 2
        # a fresh engine starts cold: the memo is per engine
        run_suites(specs, engine=Engine())
        assert len(builds) == 4

    def test_instance_memo_is_bounded_lru_and_cleared(self):
        engine = Engine()
        built = []

        def instance(seed):
            def build():
                built.append(seed)
                return [Bag.from_pairs(Schema(["A"]), [((seed,), 1)])]
            return engine.instance(("one-bag", 1, seed), build)

        first = instance(0)
        assert instance(0) is first
        for seed in range(1, BUILT_CAPACITY):
            instance(seed)
        instance(0)  # refresh: seed 1 is now the oldest
        instance(BUILT_CAPACITY)
        assert built.count(0) == 1
        instance(1)
        assert built.count(1) == 2  # evicted, rebuilt
        engine.clear()
        instance(0)
        assert built.count(0) == 2
