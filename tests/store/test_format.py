"""Record framing: CRC detection, torn tails, version tolerance."""

import io

import pytest

from repro.store import format as fmt
from tests.conftest import legacy_tombstone, segment_bytes


def scan(data: bytes) -> fmt.SegmentScan:
    return fmt.scan_segment(io.BytesIO(data))


KEY = ("consistent", 12, 34)
FPS = (12, 34)


class TestRoundTrip:
    def test_put_record_round_trips(self):
        data = segment_bytes(fmt.encode_put(KEY, True, FPS))
        result = scan(data)
        assert result.usable and result.truncate_at is None
        (record,) = result.records
        assert record.kind == fmt.RECORD_PUT
        assert record.key == KEY and record.fps == FPS
        fh = io.BytesIO(data)
        assert fmt.read_value(fh, record) is True

    def test_value_blob_is_read_lazily_from_offsets(self):
        value = {"verdict": [1, 2, 3], "nested": ("x", 5)}
        data = segment_bytes(
            fmt.encode_put(("witness", 1, 2, False), None, (1, 2)),
            fmt.encode_put(KEY, value, FPS),
        )
        result = scan(data)
        assert [r.key for r in result.records] == [
            ("witness", 1, 2, False), KEY,
        ]
        fh = io.BytesIO(data)
        assert fmt.read_value(fh, result.records[0]) is None
        assert fmt.read_value(fh, result.records[1]) == value

    def test_legacy_tombstone_is_scanned(self):
        """Nothing writes a tombstone now, but a store written by an
        older build may hold one: it must parse, not read as a torn
        tail that the open path would cut off with every record after
        it."""
        after = fmt.encode_put(KEY, True, FPS)
        result = scan(segment_bytes(legacy_tombstone(99), after))
        assert result.usable and result.truncate_at is None
        tombstone, put = result.records
        assert tombstone.kind == fmt.RECORD_TOMBSTONE and tombstone.fp == 99
        assert put.key == KEY

    def test_empty_segment_is_clean(self):
        result = scan(segment_bytes())
        assert result.usable and result.records == []
        assert result.truncate_at is None


class TestTornTails:
    def test_truncated_anywhere_keeps_the_intact_prefix(self):
        frames = [
            fmt.encode_put(("consistent", i, i + 1), bool(i % 2), (i, i + 1))
            for i in range(5)
        ]
        data = segment_bytes(*frames)
        boundaries = [fmt.HEADER.size]
        for frame in frames:
            boundaries.append(boundaries[-1] + len(frame))
        for cut in range(fmt.HEADER.size, len(data)):
            result = scan(data[:cut])
            assert result.usable
            # every fully-contained record survives, nothing else
            n_whole = sum(1 for b in boundaries[1:] if b <= cut)
            assert len(result.records) == n_whole, f"cut at {cut}"
            if cut in boundaries:
                assert result.truncate_at is None
            else:
                assert result.truncate_at == boundaries[n_whole]

    def test_flipped_byte_marks_the_tail(self):
        frame = fmt.encode_put(KEY, True, FPS)
        data = segment_bytes(frame, fmt.encode_put(("x",), 1, (7,)))
        # corrupt one byte inside the first record's body
        pos = fmt.HEADER.size + fmt.FRAME.size + 3
        broken = data[:pos] + bytes([data[pos] ^ 0xFF]) + data[pos + 1:]
        result = scan(broken)
        assert result.usable and result.records == []
        assert result.truncate_at == fmt.HEADER.size

    def test_claimed_length_past_the_file_is_torn_unread(self):
        """A length field with its top bit flipped claims 2 GiB more
        than the record holds: the scan must find the end of the file
        without asking for the claim."""
        frame = bytearray(fmt.encode_put(KEY, True, FPS))
        frame[0] ^= 0x80
        data = segment_bytes(bytes(frame))

        class ReadGuard(io.BytesIO):
            def read(self, n=-1):
                assert n <= len(data), f"read({n}) of a {len(data)}-byte file"
                return super().read(n)

        result = fmt.scan_segment(ReadGuard(data))
        assert result.usable and result.records == []
        assert result.truncate_at == fmt.HEADER.size
        assert result.reason == "torn body"

    def test_header_shorter_than_frame_is_truncated_whole(self):
        result = scan(b"RVS")
        assert result.usable and result.truncate_at == 0


class TestVersionTolerance:
    def test_foreign_magic_is_skipped_not_truncated(self):
        result = scan(b"NOTAMAGIC" + b"\x00" * 64)
        assert not result.usable
        assert "magic" in result.reason

    def test_newer_version_is_skipped_whole(self):
        data = segment_bytes(
            fmt.encode_put(KEY, True, FPS),
            version=fmt.FORMAT_VERSION + 1,
        )
        result = scan(data)
        assert not result.usable
        assert result.version == fmt.FORMAT_VERSION + 1
        assert "newer" in result.reason

    def test_unknown_record_kind_stops_the_scan(self):
        good = fmt.encode_put(KEY, True, FPS)
        body = bytes([250]) + b"\x00\x00\x00\x00"
        import struct
        import zlib

        bogus = struct.pack(">II", len(body), zlib.crc32(body)) + body
        result = scan(segment_bytes(good, bogus))
        assert result.usable
        assert len(result.records) == 1
        assert result.truncate_at == fmt.HEADER.size + len(good)


@pytest.mark.parametrize("value", [
    True,
    False,
    None,
    {"method": "acyclic"},
    [("row", 1), ("row", 2)],
])
def test_assorted_values_round_trip(value):
    data = segment_bytes(fmt.encode_put(KEY, value, FPS))
    (record,) = scan(data).records
    assert fmt.read_value(io.BytesIO(data), record) == value


class TestCompression:
    """Per-record zlib compression for large value blobs (PUT_Z)."""

    def big_value(self):
        # large and redundant: pickles well past COMPRESS_MIN and
        # shrinks under zlib
        return {("row", i, i % 5): i % 3 + 1 for i in range(400)}

    def test_large_value_is_stored_compressed(self):
        value = self.big_value()
        frame = fmt.encode_put(KEY, value, FPS)
        data = segment_bytes(frame)
        (record,) = scan(data).records
        assert record.kind == fmt.RECORD_PUT_Z and record.compressed
        assert fmt.read_value(io.BytesIO(data), record) == value

    def test_small_value_stays_raw(self):
        frame = fmt.encode_put(KEY, True, FPS)
        (record,) = scan(segment_bytes(frame)).records
        assert record.kind == fmt.RECORD_PUT and not record.compressed

    def test_compression_shrinks_the_frame(self):
        value = self.big_value()
        compressed = fmt.encode_put(KEY, value, FPS)
        raw = fmt.encode_put(KEY, value, FPS, compress_min=None)
        assert len(compressed) < len(raw)

    def test_compress_min_none_disables(self):
        (record,) = scan(
            segment_bytes(
                fmt.encode_put(KEY, self.big_value(), FPS, compress_min=None)
            )
        ).records
        assert record.kind == fmt.RECORD_PUT

    def test_incompressible_value_stays_raw(self):
        import os

        value = os.urandom(4096)  # random bytes: zlib cannot shrink
        (record,) = scan(segment_bytes(fmt.encode_put(KEY, value, FPS))).records
        assert record.kind == fmt.RECORD_PUT
        assert fmt.read_value(io.BytesIO(segment_bytes(
            fmt.encode_put(KEY, value, FPS))), record) == value

    def test_version1_segments_still_replay(self):
        """A segment written by the v1 format (raw PUTs, version 1
        header) is replayed unchanged by the v2 reader."""
        frame = fmt.encode_put(KEY, {"old": 1}, FPS, compress_min=None)
        data = segment_bytes(frame, version=1)
        result = scan(data)
        assert result.usable and result.version == 1
        (record,) = result.records
        assert fmt.read_value(io.BytesIO(data), record) == {"old": 1}

    def test_version3_segments_are_skipped_whole(self):
        data = segment_bytes(fmt.encode_put(KEY, True, FPS), version=3)
        result = scan(data)
        assert not result.usable and "newer" in result.reason
