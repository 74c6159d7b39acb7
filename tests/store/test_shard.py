"""One shard: append/flush/lookup, compaction, recovery, legacy
tombstones."""

from repro.store import PersistentVerdictStore, verify_store
from repro.store import format as fmt
from repro.store import shard as shard_module
from repro.store.shard import Shard
from tests.conftest import legacy_tombstone, segment_bytes


def key_of(i: int) -> tuple:
    return ("consistent", i, i + 1000)


def fps_of(i: int) -> tuple:
    return (i, i + 1000)


class TestWriteReadCycle:
    def test_pending_entries_are_readable_before_flush(self, tmp_path):
        shard = Shard(tmp_path / "s")
        shard.append(key_of(1), True, fps_of(1))
        assert shard.contains(key_of(1))
        assert shard.lookup(key_of(1)) == (True, fps_of(1))
        assert len(shard) == 1
        # nothing on disk yet (write-behind)
        assert shard.stats_dict()["pending"] == 1

    def test_flush_then_reopen_restores_everything(self, tmp_path):
        shard = Shard(tmp_path / "s")
        for i in range(10):
            shard.append(key_of(i), i % 3 == 0, fps_of(i))
        shard.close()

        reopened = Shard(tmp_path / "s")
        assert len(reopened) == 10
        for i in range(10):
            assert reopened.lookup(key_of(i)) == (i % 3 == 0, fps_of(i))
        assert reopened.lookup(("consistent", 777, 778)) is None

    def test_duplicate_appends_write_once(self, tmp_path):
        shard = Shard(tmp_path / "s")
        for _ in range(5):
            shard.append(key_of(1), True, fps_of(1))
        shard.flush()
        assert shard.stats_dict()["records"] == 1
        assert shard.stats_dict()["dead_records"] == 0

    def test_flush_writes_puts_in_append_order(self, tmp_path):
        order = [3, 1, 4, 0, 2]
        shard = Shard(tmp_path / "s")
        for i in order:
            shard.append(key_of(i), True, fps_of(i))
        shard.append(key_of(1), True, fps_of(1))  # held: not moved
        assert shard.flush() == len(order)
        (segment,) = (tmp_path / "s").glob("*.seg")
        with segment.open("rb") as fh:
            keys = [record.key for record in fmt.scan_segment(fh).records]
        assert keys == [key_of(i) for i in order]

    def test_auto_flush_every_n_appends(self, tmp_path, monkeypatch):
        monkeypatch.setattr(shard_module, "FLUSH_EVERY", 4)
        shard = Shard(tmp_path / "s")
        for i in range(4):
            shard.append(key_of(i), True, fps_of(i))
        stats = shard.stats_dict()
        assert stats["pending"] == 0 and stats["flushes"] == 1

    def test_appends_after_reopen_extend_the_same_segment(self, tmp_path):
        shard = Shard(tmp_path / "s")
        shard.append(key_of(1), True, fps_of(1))
        shard.close()
        reopened = Shard(tmp_path / "s")
        reopened.append(key_of(2), False, fps_of(2))
        reopened.close()
        final = Shard(tmp_path / "s")
        assert len(final) == 2
        assert final.stats_dict()["segments"] == 1


class TestLegacyTombstones:
    def test_put_tombstone_put_segment_reopens_unchanged(self, tmp_path):
        """A segment an older build wrote (put, tombstone, put) opens
        with its bytes untouched, and the tombstone drops nothing: the
        key it named answers again with its still-correct value."""
        root = tmp_path / "store"
        PersistentVerdictStore(root, shards=1).close()
        segment = root / "shard-00" / "00000001.seg"
        data = segment_bytes(
            fmt.encode_put(key_of(1), True, fps_of(1)),
            legacy_tombstone(fps_of(1)[0]),
            fmt.encode_put(key_of(2), False, fps_of(2)),
        )
        segment.write_bytes(data)

        report = verify_store(root)
        assert report["ok"] and report["torn_tails"] == 0
        assert report["live_records"] == 2 and report["dead_records"] == 1

        shard = Shard(segment.parent)
        stats = shard.stats_dict()
        assert stats["torn_tails"] == 0 and stats["dead_records"] == 1
        assert segment.read_bytes() == data
        assert shard.lookup(key_of(1)) == (True, fps_of(1))
        assert shard.lookup(key_of(2)) == (False, fps_of(2))
        shard.append(key_of(3), True, fps_of(3))
        shard.close()
        assert segment.read_bytes()[:len(data)] == data

        reopened = Shard(segment.parent)
        assert reopened.stats_dict()["torn_tails"] == 0
        assert reopened.lookup(key_of(3)) == (True, fps_of(3))
        assert reopened.compact() == 3
        (snapshot,) = segment.parent.glob("*.seg")
        with snapshot.open("rb") as fh:
            keys = [record.key for record in fmt.scan_segment(fh).records]
        assert sorted(keys) == sorted(key_of(i) for i in (1, 2, 3))
        assert verify_store(root)["ok"]

    def test_reput_after_tombstone_survives_reopen(self, tmp_path):
        """An older build re-put a key after its tombstone: replay order
        is truth, so the last put wins over the earlier one.  (The two
        values differ only so the test can see which record the index
        holds.)"""
        root = tmp_path / "s"
        root.mkdir()
        (root / "00000001.seg").write_bytes(segment_bytes(
            fmt.encode_put(key_of(1), True, fps_of(1)),
            legacy_tombstone(1),
            fmt.encode_put(key_of(1), False, fps_of(1)),
        ))
        shard = Shard(root)
        assert len(shard) == 1
        assert shard.stats_dict()["dead_records"] == 2
        assert shard.lookup(key_of(1)) == (False, fps_of(1))
        assert shard.compact() == 1
        shard.close()
        reopened = Shard(root)
        assert reopened.lookup(key_of(1)) == (False, fps_of(1))
        assert reopened.stats_dict()["dead_records"] == 0


class TestCompaction:
    def test_compact_collapses_to_one_live_snapshot(self, tmp_path):
        # A compaction cut short between writing its snapshot and
        # unlinking the old segment leaves duplicate puts behind.
        root = tmp_path / "s"
        root.mkdir()
        puts = [fmt.encode_put(key_of(i), True, fps_of(i)) for i in range(20)]
        (root / "00000001.seg").write_bytes(segment_bytes(*puts))
        (root / "00000002.seg").write_bytes(
            segment_bytes(*puts[:15], legacy_tombstone(3))
        )
        shard = Shard(root)
        assert shard.stats_dict()["dead_records"] == 16
        assert shard.compact() == 20
        stats = shard.stats_dict()
        assert stats["records"] == 20
        assert stats["dead_records"] == 0
        assert stats["segments"] == 1
        reopened = Shard(root)
        assert sorted(reopened.keys()) == sorted(key_of(i) for i in range(20))
        assert reopened.stats_dict()["dead_records"] == 0

    def test_compact_of_all_dead_deletes_segments(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        (root / "00000001.seg").write_bytes(segment_bytes())
        (root / "00000002.seg").write_bytes(segment_bytes(legacy_tombstone(1)))
        shard = Shard(root)
        assert len(shard) == 0
        assert shard.compact() == 0
        assert shard.stats_dict()["segments"] == 0
        assert list(root.glob("*.seg")) == []

    def test_lookup_after_compact_reads_the_snapshot(self, tmp_path):
        shard = Shard(tmp_path / "s")
        payload = {"big": list(range(50))}
        shard.append(key_of(1), payload, fps_of(1))
        shard.compact()
        assert shard.lookup(key_of(1)) == (payload, fps_of(1))


class TestRecovery:
    def test_torn_tail_is_truncated_and_appendable(self, tmp_path):
        shard = Shard(tmp_path / "s")
        for i in range(4):
            shard.append(key_of(i), True, fps_of(i))
        shard.close()
        (segment,) = list((tmp_path / "s").glob("*.seg"))
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # cut the last record short

        reopened = Shard(tmp_path / "s")
        assert reopened.stats_dict()["torn_tails"] == 1
        assert len(reopened) == 3  # only the torn record is lost
        reopened.append(key_of(99), True, fps_of(99))
        reopened.close()

        final = Shard(tmp_path / "s")
        assert len(final) == 4
        assert final.lookup(key_of(99)) == (True, fps_of(99))

    def test_segment_cut_inside_its_header_goes_on_open(self, tmp_path):
        """A crash between creating a tail and flushing its header
        leaves a file with no record: the first open counts its torn
        tail and deletes it, so no later open or verify finds it."""
        root = tmp_path / "store"
        PersistentVerdictStore(root, shards=1).close()
        shard = Shard(root / "shard-00")
        shard.append(key_of(1), True, fps_of(1))
        shard.close()
        cut = root / "shard-00" / "99999999.seg"
        cut.write_bytes(b"RVS")
        assert verify_store(root)["torn_tails"] == 1
        torn_tails = []
        for _ in range(3):
            shard = Shard(cut.parent)
            torn_tails.append(shard.stats_dict()["torn_tails"])
            assert shard.lookup(key_of(1)) == (True, fps_of(1))
            shard.close()
            report = verify_store(root)
            assert report["ok"] and report["torn_tails"] == 0, report
        assert torn_tails == [1, 0, 0]
        assert not cut.exists()

    def test_foreign_file_is_preserved_and_skipped(self, tmp_path):
        root = tmp_path / "s"
        root.mkdir()
        foreign = root / "00000009.seg"
        foreign.write_bytes(b"something else entirely")
        shard = Shard(root)
        assert shard.stats_dict()["skipped_segments"] == 1
        shard.append(key_of(1), True, fps_of(1))
        shard.flush()
        shard.compact()
        shard.clear()
        # through every maintenance pass, the alien bytes survive
        assert foreign.read_bytes() == b"something else entirely"

    def test_newer_version_segment_is_skipped_whole(self, tmp_path):
        import io

        root = tmp_path / "s"
        root.mkdir()
        buf = io.BytesIO()
        fmt.write_header(buf, fmt.FORMAT_VERSION + 7)
        buf.write(fmt.encode_put(key_of(5), True, fps_of(5)))
        (root / "00000001.seg").write_bytes(buf.getvalue())
        shard = Shard(root)
        assert len(shard) == 0
        assert shard.stats_dict()["skipped_segments"] == 1
        # appends go to a fresh segment, never into the newer file
        shard.append(key_of(1), True, fps_of(1))
        shard.close()
        assert (root / "00000001.seg").read_bytes() == buf.getvalue()
        assert len(Shard(root)) == 1


class TestCompressedValues:
    def big_witness(self, n=400):
        return {("row", i, i % 5): i % 3 + 1 for i in range(n)}

    def test_large_values_compress_and_round_trip(self, tmp_path):
        shard = Shard(tmp_path / "s")
        value = self.big_witness()
        shard.append(key_of(1), value, fps_of(1))
        shard.append(key_of(2), True, fps_of(2))
        shard.flush()
        with next((tmp_path / "s").glob("*.seg")).open("rb") as fh:
            kinds = {r.key: r.kind for r in fmt.scan_segment(fh).records}
        assert kinds[key_of(1)] == fmt.RECORD_PUT_Z
        assert kinds[key_of(2)] == fmt.RECORD_PUT
        assert shard.lookup(key_of(1)) == (value, fps_of(1))
        shard.close()
        # a reopened shard inflates transparently on read-through
        reopened = Shard(tmp_path / "s")
        assert reopened.lookup(key_of(1)) == (value, fps_of(1))

    def test_compaction_preserves_compressed_values(self, tmp_path):
        shard = Shard(tmp_path / "s")
        keep = self.big_witness()
        shard.append(key_of(1), keep, fps_of(1))
        shard.close()
        (segment,) = (tmp_path / "s").glob("*.seg")
        with segment.open("ab") as fh:  # a dead duplicate put
            fh.write(fmt.encode_put(key_of(1), keep, fps_of(1)))
        shard = Shard(tmp_path / "s")
        assert shard.stats_dict()["dead_records"] == 1
        shard.compact()
        shard.close()
        reopened = Shard(tmp_path / "s")
        assert reopened.lookup(key_of(1)) == (keep, fps_of(1))
        with next((tmp_path / "s").glob("*.seg")).open("rb") as fh:
            (record,) = fmt.scan_segment(fh).records
        assert record.kind == fmt.RECORD_PUT_Z  # re-compressed on rewrite

    def test_compression_shrinks_disk_bytes(self, tmp_path):
        import pickle

        shard = Shard(tmp_path / "s")
        value = self.big_witness()
        shard.append(key_of(1), value, fps_of(1))
        shard.flush()
        raw_size = len(pickle.dumps(value, pickle.HIGHEST_PROTOCOL))
        assert shard.disk_bytes() < raw_size
        shard.close()
