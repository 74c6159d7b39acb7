"""On-disk record framing for the persistent verdict store.

One **segment file** is a fixed header followed by a run of CRC-framed
records.  The format is deliberately boring — append-only, no in-place
mutation, every record independently checksummed — so that the only
crash mode a log can exhibit is a *torn tail*: a prefix of intact
records followed by garbage where the final append was cut short.

Segment header (10 bytes)::

    MAGIC   6 bytes  b"RVSSEG"
    version u16 BE   FORMAT_VERSION

Record frame::

    length  u32 BE   byte length of `body`
    crc32   u32 BE   zlib.crc32 over `body`
    body    length bytes:
        kind     u8          RECORD_PUT | RECORD_PUT_Z | RECORD_TOMBSTONE
        key_len  u32 BE      byte length of the key blob
        key      key_len bytes
        value    the rest

For a ``PUT`` the key blob is ``pickle((key, participant_fps))`` and
the value blob is ``pickle(value)`` — split so that opening a shard can
index every record (key, fingerprints, value location) **without**
unpickling any values; values are read lazily on the first read-through
miss.  A ``PUT_Z`` is the same record with the value blob run through
``zlib.compress`` — the per-record compression flag used for large
witness blobs (:func:`encode_put` compresses when the pickled value
reaches ``compress_min`` bytes *and* compression actually shrinks it;
small bools stay raw, so hot verdict reads never pay an inflate).

A ``TOMBSTONE`` (key blob ``pickle(fp)``, empty value blob) is read,
never written.  A store written by an older build may hold one, and an
unparsed kind reads as a torn tail, so the open path would truncate
every good record after it.  Replay drops nothing for it: every stored
value is a pure function of its key and never goes stale.

Version history (``FORMAT_VERSION``): **1** wrote only ``PUT`` /
``TOMBSTONE``; **2** added ``PUT_Z``.  The bump is *tolerant* in both
directions: this reader replays v1 segments unchanged (they simply
contain no compressed records), while a v1 reader meeting a v2 segment
skips it whole (preserved, never rewritten) by the newer-version rule
below — it must not mis-parse a ``PUT_Z`` body as a torn tail and
truncate good data.

Crash tolerance on open (:func:`scan_segment`):

* a record whose frame runs past end-of-file, whose CRC disagrees, or
  whose body cannot be parsed marks the **torn tail** — everything from
  its offset on is ignored and the caller may physically truncate it.
  A claimed length is checked against the bytes left before it is
  read, so a damaged one never allocates its claim.  A file shorter
  than its header is torn at offset 0 and holds no record, so the open
  path deletes it;
* a file whose magic is not ours, or whose version is newer than this
  code, is **skipped whole** (reported, preserved, never rewritten) —
  a downgraded reader must not destroy a newer store's data.

Pickle is the value codec: the store holds engine results (bools,
``Bag`` witnesses, ``GlobalConsistencyResult``) produced by this
codebase on this machine; the trust boundary is the local filesystem,
exactly as for any on-disk cache.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import dataclass
from typing import BinaryIO

__all__ = [
    "COMPRESS_MIN",
    "FORMAT_VERSION",
    "MAGIC",
    "RECORD_PUT",
    "RECORD_PUT_Z",
    "RECORD_TOMBSTONE",
    "ScannedRecord",
    "SegmentScan",
    "decode_value",
    "encode_put",
    "read_value",
    "scan_segment",
    "write_header",
]

MAGIC = b"RVSSEG"
FORMAT_VERSION = 2
HEADER = struct.Struct(">6sH")
FRAME = struct.Struct(">II")
BODY_HEAD = struct.Struct(">BI")

RECORD_PUT = 1
RECORD_TOMBSTONE = 2
RECORD_PUT_Z = 3

# Pickled values at least this large are candidates for zlib
# compression.  Verdict bools and refusal Nones pickle to a few bytes
# and stay raw; witness bags and global results with non-trivial
# support clear it easily.
COMPRESS_MIN = 512


def write_header(fh: BinaryIO, version: int = FORMAT_VERSION) -> None:
    fh.write(HEADER.pack(MAGIC, version))


def encode_put(
    key: tuple,
    value: object,
    fps: tuple,
    compress_min: int | None = COMPRESS_MIN,
) -> bytes:
    """One framed PUT record (key + fingerprints separate from the
    lazily-read value blob).

    Value blobs of at least ``compress_min`` bytes are stored
    zlib-compressed (kind ``PUT_Z``) when that actually shrinks them;
    ``compress_min=None`` disables compression outright.  The choice is
    flagged per record, so one segment freely mixes raw and compressed
    values and readers never guess.
    """
    key_blob = pickle.dumps((key, tuple(fps)), protocol=pickle.HIGHEST_PROTOCOL)
    value_blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    kind = RECORD_PUT
    if compress_min is not None and len(value_blob) >= compress_min:
        packed = zlib.compress(value_blob)
        if len(packed) < len(value_blob):
            kind = RECORD_PUT_Z
            value_blob = packed
    body = BODY_HEAD.pack(kind, len(key_blob)) + key_blob + value_blob
    return FRAME.pack(len(body), zlib.crc32(body)) + body


@dataclass(frozen=True)
class ScannedRecord:
    """One intact record met during a segment scan.

    ``value_offset``/``value_length`` locate the (possibly compressed,
    see ``compressed``) pickled value inside the segment file for lazy
    reads; legacy tombstones carry ``fp`` instead.
    """

    kind: int
    key: tuple | None
    fps: tuple
    fp: int | None
    value_offset: int
    value_length: int
    compressed: bool = False


@dataclass
class SegmentScan:
    """The outcome of scanning one segment.

    ``usable`` is False for foreign or newer-versioned files (skip,
    preserve).  ``truncate_at`` is the byte offset of the torn tail
    when one was found (``None`` for a clean file): every byte from
    there on failed framing and should be cut before appending.
    """

    usable: bool
    version: int | None
    records: list[ScannedRecord]
    truncate_at: int | None
    reason: str | None = None


def scan_segment(fh: BinaryIO) -> SegmentScan:
    """Scan an opened segment from the start, stopping at the first
    framing violation (the torn tail) — never raising for corruption."""
    size = fh.seek(0, os.SEEK_END)
    fh.seek(0)
    header = fh.read(HEADER.size)
    if len(header) < HEADER.size:
        # shorter than a header: a creation cut short; everything goes
        return SegmentScan(True, None, [], 0, "truncated header")
    magic, version = HEADER.unpack(header)
    if magic != MAGIC:
        return SegmentScan(False, None, [], None, "foreign file (bad magic)")
    if version > FORMAT_VERSION:
        return SegmentScan(
            False, version, [], None, f"format version {version} is newer"
        )
    records: list[ScannedRecord] = []
    offset = HEADER.size
    while True:
        frame = fh.read(FRAME.size)
        if not frame:
            return SegmentScan(True, version, records, None)
        if len(frame) < FRAME.size:
            return SegmentScan(True, version, records, offset, "torn frame")
        length, crc = FRAME.unpack(frame)
        # A claim past the end is torn before it is read: reading it
        # would allocate the whole claim (up to 4 GiB) first.
        if length > size - fh.tell():
            return SegmentScan(True, version, records, offset, "torn body")
        body = fh.read(length)
        if zlib.crc32(body) != crc:
            return SegmentScan(True, version, records, offset, "torn body")
        record = _parse_body(body, record_start=offset)
        if record is None:
            return SegmentScan(True, version, records, offset, "bad body")
        records.append(record)
        offset += FRAME.size + length


def _parse_body(body: bytes, record_start: int) -> ScannedRecord | None:
    """Decode one CRC-verified body; ``None`` on any malformation (a
    CRC collision or a foreign writer — treated like a torn tail)."""
    if len(body) < BODY_HEAD.size:
        return None
    kind, key_len = BODY_HEAD.unpack_from(body)
    key_end = BODY_HEAD.size + key_len
    if key_end > len(body):
        return None
    try:
        key_obj = pickle.loads(body[BODY_HEAD.size:key_end])
    except Exception:
        return None
    value_offset = record_start + FRAME.size + key_end
    value_length = len(body) - key_end
    if kind in (RECORD_PUT, RECORD_PUT_Z):
        if not isinstance(key_obj, tuple) or len(key_obj) != 2:
            return None
        key, fps = key_obj
        if not isinstance(key, tuple) or not isinstance(fps, tuple):
            return None
        return ScannedRecord(
            kind, key, fps, None, value_offset, value_length,
            compressed=kind == RECORD_PUT_Z,
        )
    if kind == RECORD_TOMBSTONE:
        if not isinstance(key_obj, int):
            return None
        return ScannedRecord(kind, None, (), key_obj, value_offset, 0)
    return None  # unknown record kind: stop here, keep the prefix


def decode_value(blob: bytes, compressed: bool) -> object:
    """Unpickle one value blob, inflating it first when the record was
    flagged compressed."""
    if compressed:
        blob = zlib.decompress(blob)
    return pickle.loads(blob)


def read_value(fh: BinaryIO, record: ScannedRecord) -> object:
    """The lazily-read value of a PUT record (read-through path)."""
    fh.seek(record.value_offset)
    blob = fh.read(record.value_length)
    return decode_value(blob, record.compressed)
