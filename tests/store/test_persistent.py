"""PersistentVerdictStore: tiers, routing, restarts, engine contract."""

import json

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.session import Engine, VerdictStore
from repro.store import (
    PersistentVerdictStore,
    StoreFormatError,
    shard_of_fp,
    shard_of_key,
)
from repro.store import shard as shard_module
from repro.workloads.suites import get_suite

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def pair(mult=2):
    r = Bag.from_pairs(AB, [((1, 2), mult), ((2, 2), 1)])
    s = Bag.from_pairs(BC, [((2, 3), mult + 1)])
    return r, s


class TestRouting:
    def test_prefix_routing_is_stable_and_in_range(self):
        for fp in [0, 1, 2**128 - 1, 0xDEAD << 112, 12345]:
            for n in (1, 2, 8, 13):
                i = shard_of_fp(fp, n)
                assert 0 <= i < n
                assert i == shard_of_fp(fp, n)

    def test_key_routing_uses_the_primary_fingerprint(self):
        fp = 42 << 120
        assert shard_of_key(("consistent", fp, 7), 8) == shard_of_fp(fp, 8)
        assert shard_of_key(("global", (fp, 9, 9), "auto"), 8) == \
            shard_of_fp(fp, 8)
        assert shard_of_key(("global", (), "auto"), 8) == 0

    def test_pair_verdict_and_witness_land_in_one_shard(self):
        n = 8
        a, b = 7 << 120, 9
        verdict = shard_of_key(("consistent", min(a, b), max(a, b)), n)
        # both witness orientations co-locate with the verdict, so a
        # future per-shard ownership split keeps a pair's records whole
        assert shard_of_key(("witness", a, b, False), n) == verdict
        assert shard_of_key(("witness", b, a, False), n) == verdict
        assert shard_of_key(("witness", b, a, True), n) == verdict


class TestMeta:
    def test_shard_count_is_sticky(self, tmp_path):
        PersistentVerdictStore(tmp_path / "s", shards=3).close()
        reopened = PersistentVerdictStore(tmp_path / "s")
        assert reopened.n_shards == 3
        reopened.close()
        with pytest.raises(StoreFormatError, match="3 shards"):
            PersistentVerdictStore(tmp_path / "s", shards=5)

    def test_newer_meta_version_is_refused_cleanly(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "META.json").write_text('{"version": 99, "shards": 2}')
        with pytest.raises(StoreFormatError, match="version 99"):
            PersistentVerdictStore(root)

    def test_meta_records_the_fingerprint_encoding(self, tmp_path):
        PersistentVerdictStore(tmp_path / "s", shards=2).close()
        meta = json.loads((tmp_path / "s" / "META.json").read_text())
        assert meta["fingerprint"] == fingerprint.ENCODING_VERSION == 3

    def test_store_of_another_fingerprint_encoding_is_refused(
        self, tmp_path
    ):
        root = tmp_path / "s"
        PersistentVerdictStore(root, shards=2).close()
        # as a build of encoding 1 wrote it: no "fingerprint" key
        (root / "META.json").write_text('{"version": 1, "shards": 2}\n')
        with pytest.raises(StoreFormatError, match="encoding 1.*encoding 3"):
            PersistentVerdictStore(root)
        # encoding 2 summed row terms, which chosen rows can collide
        (root / "META.json").write_text(
            '{"version": 1, "fingerprint": 2, "shards": 2}\n'
        )
        with pytest.raises(StoreFormatError, match="fresh directory"):
            PersistentVerdictStore(root)

    def test_alien_meta_is_refused_cleanly(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "META.json").write_text('{"hello": "world"}')
        with pytest.raises(StoreFormatError, match="not a verdict-store"):
            PersistentVerdictStore(root)

    @pytest.mark.parametrize("meta", [
        '{"version": 1, "fingerprint": 3, "shards": 0}',
        '{"version": 1, "fingerprint": 3, "shards": -2}',
        '{"version": "1", "fingerprint": 3, "shards": 2}',
        '{"version": 1, "fingerprint": 3, "shards": 2.5}',
        '{"version": 1, "fingerprint": 3, "shards": true}',
    ])
    def test_malformed_meta_is_refused_cleanly(self, tmp_path, capsys, meta):
        """A shard count that is not a positive integer would route
        keys by the wrong count or index no shard, and a version that is
        not an integer cannot be compared: every entry point refuses
        them with a typed error, and the CLI with one line."""
        from repro.cli import main
        from repro.store import verify_store

        root = tmp_path / "s"
        PersistentVerdictStore(root, shards=2).close()
        (root / "META.json").write_text(meta)
        with pytest.raises(StoreFormatError, match="integer"):
            PersistentVerdictStore(root)
        with pytest.raises(StoreFormatError, match="integer"):
            verify_store(root)
        capsys.readouterr()
        for action in ("stats", "verify"):
            assert main(["store", action, "--store-dir", str(root)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            (line,) = captured.err.splitlines()
            assert line.startswith("error: ") and "integer" in line


class TestTiers:
    def test_every_put_reaches_disk(self, tmp_path):
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        store.put(("consistent", 1, 2), True)
        store.put(("witness", 1, 2, True), None)
        store.put(("global", (1, 2), "auto"), "result")
        store.flush()
        assert store.stats_dict()["persistent"]["records"] == 3
        store.close()

        reopened = PersistentVerdictStore(tmp_path / "s")
        assert reopened.get(("consistent", 1, 2)) is True
        assert reopened.get(("witness", 1, 2, True)) is None
        assert reopened.get(("global", (1, 2), "auto")) == "result"
        assert reopened.disk_hits == 3
        reopened.close()

    def test_read_through_promotes_into_the_hot_tier(self, tmp_path):
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        store.put(("consistent", 5, 6), False)
        store.close()

        reopened = PersistentVerdictStore(tmp_path / "s")
        assert reopened.get(("consistent", 5, 6)) is False
        assert reopened.disk_hits == 1
        # second read: pure hot hit, disk untouched
        assert reopened.get(("consistent", 5, 6)) is False
        assert reopened.disk_hits == 1
        assert reopened.hits == 2
        reopened.close()

    def test_a_read_from_the_write_behind_buffer_is_no_disk_hit(
        self, tmp_path
    ):
        # fewer writes than FLUSH_EVERY: nothing reaches a segment, so
        # a hot-tier miss reads the shard's buffer, not the disk
        store = PersistentVerdictStore(tmp_path / "s", shards=2, capacity=1)
        keys = [("consistent", i, i + 1) for i in range(3)]
        assert len(keys) < shard_module.FLUSH_EVERY
        for i, key in enumerate(keys):
            store.put(key, i % 2 == 0)
        assert store.stats_dict()["persistent"]["segments"] == 0
        # the 1-entry hot tier holds one key, so each read in turn
        # misses it and promotes its key from the buffer
        assert [store.get(key) for key in keys] == [True, False, True]
        assert store.get(keys[2]) is True  # a hot hit
        stats = store.stats_dict()
        persisted = stats["persistent"]
        assert persisted["disk_hits"] == 0
        assert persisted["buffer_hits"] == 3
        assert persisted["hot_hits"] == 1
        assert stats["hits"] == store.hits == 4  # every tier
        store.flush()
        # flushed: the same miss is a segment read now
        assert store.get(keys[0]) is True
        assert store.disk_hits == 1 and store.buffer_hits == 3
        store.close()

    def test_eviction_from_hot_tier_never_loses_durable_data(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(shard_module, "FLUSH_EVERY", 1)
        store = PersistentVerdictStore(tmp_path / "s", shards=1, capacity=2)
        for i in range(10):
            store.put(("consistent", i, i + 100), i % 2 == 0)
        assert store.evictions > 0
        for i in range(10):  # every verdict still answerable
            assert store.get(("consistent", i, i + 100)) == (i % 2 == 0)
        store.close()

    def test_invalidate_frees_the_hot_tier_only(self, tmp_path):
        """An entry never goes stale, so invalidation only frees memory:
        the disk keeps it, and the next get reads it back through."""
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        store.put(("consistent", 1, 2), True)
        store.put(("witness", 1, 3, False), None)
        store.put(("consistent", 7, 8), True)
        store.flush()
        assert store.invalidate_fp(1) == 2
        assert store.stats_dict()["entries"] == 1
        assert store.get(("consistent", 1, 2)) is True
        assert store.get(("witness", 1, 3, False)) is None
        assert store.disk_hits == 2
        store.close()
        reopened = PersistentVerdictStore(tmp_path / "s")
        assert reopened.get(("consistent", 1, 2)) is True
        assert reopened.get(("witness", 1, 3, False)) is None
        assert reopened.get(("consistent", 7, 8)) is True
        reopened.close()

    def test_clear_wipes_disk_too(self, tmp_path):
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        store.put(("consistent", 1, 2), True)
        store.flush()
        store.clear()
        store.close()
        reopened = PersistentVerdictStore(tmp_path / "s")
        assert len(reopened) == 0
        reopened.close()

    def test_len_counts_distinct_keys_across_tiers(self, tmp_path):
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        store.put(("consistent", 1, 2), True)
        store.put(("marginal", 3, ("A",)), "x")
        store.flush()
        assert len(store) == 2  # hot∪disk, promoted entries not doubled
        store.get(("consistent", 1, 2))
        assert len(store) == 2
        store.close()

    def test_merge_persists_worker_deltas(self, tmp_path):
        plain = VerdictStore()
        plain.put(("consistent", 1, 2), True)
        plain.put(("global", (3, 4), "auto"), "result")
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        assert store.merge(plain.export()) == 2
        store.close()
        reopened = PersistentVerdictStore(tmp_path / "s")
        assert reopened.get(("global", (3, 4), "auto")) == "result"
        reopened.close()


class TestEngineContract:
    def test_engine_over_persistent_store_matches_fresh_engine(self, tmp_path):
        r, s = pair()
        bags = get_suite("planted-path").build(5, seed=3)
        store = PersistentVerdictStore(tmp_path / "s", shards=4)
        engine = Engine(store=store)
        verdict = engine.are_consistent(r, s)
        witness = engine.witness(r, s)
        outcome = engine.global_check(bags)
        store.close()

        fresh = Engine()
        assert fresh.are_consistent(r, s) == verdict
        assert fresh.witness(r, s) == witness
        fresh_outcome = fresh.global_check(bags)
        assert fresh_outcome.consistent == outcome.consistent
        assert fresh_outcome.method == outcome.method

    def test_restarted_engine_answers_without_recompute(self, tmp_path):
        r, s = pair()
        store = PersistentVerdictStore(tmp_path / "s", shards=4)
        Engine(store=store).witness(r, s)
        store.close()

        reopened = PersistentVerdictStore(tmp_path / "s")
        engine = Engine(store=reopened)
        r2, s2 = pair()  # value-equal, separately constructed
        witness = engine.witness(r2, s2)
        assert witness.schema == r.schema | s.schema
        assert engine.stats.witness_hits == 1
        assert reopened.disk_hits >= 1
        reopened.close()

    def test_inconsistency_refusals_are_durable(self, tmp_path):
        from repro.errors import InconsistentError

        r = Bag.from_pairs(AB, [((1, 2), 2)])
        s = Bag.from_pairs(BC, [((2, 3), 5)])
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        with pytest.raises(InconsistentError):
            Engine(store=store).witness(r, s)
        store.close()

        reopened = PersistentVerdictStore(tmp_path / "s")
        engine = Engine(store=reopened)
        with pytest.raises(InconsistentError):
            engine.witness(r, s)
        assert engine.stats.witness_hits == 1  # the refusal was a hit
        reopened.close()

    def test_engine_flush_reaches_the_disk_tier(self, tmp_path):
        r, s = pair()
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        engine = Engine(store=store)
        engine.are_consistent(r, s)
        assert engine.flush() >= 1
        assert store.stats_dict()["persistent"]["pending"] == 0
        store.close()

    def test_plain_engine_flush_is_a_noop(self):
        assert Engine().flush() == 0


class TestStats:
    def test_stats_dict_keeps_the_in_memory_keys(self, tmp_path):
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        plain_keys = set(VerdictStore().stats_dict())
        assert plain_keys <= set(store.stats_dict())
        store.close()

    def test_persistent_substats_track_disk_state(self, tmp_path, monkeypatch):
        """``segments`` and ``disk_bytes`` match a directory scan through
        every write path, and reading them touches no file."""
        import pathlib

        root = tmp_path / "s"

        def scan():
            segments = list(root.glob("shard-*/*.seg"))
            return len(segments), sum(p.stat().st_size for p in segments)

        def no_disk(name):
            def refuse(*args, **kwargs):
                raise AssertionError(f"stats_dict() called Path.{name}")

            return refuse

        def persisted(store):
            with monkeypatch.context() as patched:
                for name in ("glob", "stat"):
                    patched.setattr(pathlib.Path, name, no_disk(name))
                stats = store.stats_dict()["persistent"]
            assert (stats["segments"], stats["disk_bytes"]) == scan()
            return stats

        def put(store, i):
            fp = i << 120  # the top bits pick the shard: i % 3
            store.put(("consistent", fp, i), True)

        monkeypatch.setattr(shard_module, "FLUSH_EVERY", 4)
        store = PersistentVerdictStore(root, shards=3)
        put(store, 1)  # buffered: no segment yet
        stats = persisted(store)
        assert stats["shards"] == 3
        assert stats["records"] == 1 and stats["pending"] == 1
        assert stats["hot_hits"] == 0 and stats["disk_hits"] == 0
        store.flush()
        assert persisted(store)["disk_bytes"] > 0
        for i in range(2, 40):  # write-behind flushes inside appends
            put(store, i)
        assert persisted(store)["flushes"] > 1
        store.flush()
        records = persisted(store)["records"]
        store.invalidate_fp(5 << 120)  # frees the hot tier only
        assert persisted(store)["records"] == records
        store.compact()
        assert persisted(store)["dead_records"] == 0
        store.clear()
        assert persisted(store)["segments"] == 0
        for i in range(50, 60):
            put(store, i)
        store.close()

        # reopen over a torn tail and a foreign segment: the torn bytes
        # are cut, the foreign file is kept and counted
        (tail,) = root.glob("shard-01/*.seg")
        with tail.open("ab") as fh:
            fh.write(b"\x00torn")
        (root / "shard-02" / "00000099.seg").write_bytes(b"not a segment")
        reopened = PersistentVerdictStore(root)
        stats = persisted(reopened)
        assert stats["torn_tails"] == 1 and stats["skipped_segments"] == 1
        assert stats["records"] == 10
        put(reopened, 70)
        reopened.flush()
        persisted(reopened)
        reopened.close()

    def test_capacity_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="capacity"):
            PersistentVerdictStore(tmp_path / "s", capacity=0)
        with pytest.raises(ValueError, match="shards"):
            PersistentVerdictStore(tmp_path / "t", shards=0)
