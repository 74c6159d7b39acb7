"""One disk shard: an append-only segment log with compaction.

A shard owns one directory (``shard-07/``) holding numbered segment
files (``00000001.seg``, ``00000002.seg``, ...).  All appends go to the
highest-numbered segment; compaction writes a **snapshot** — every live
record, exactly once — into a fresh higher-numbered segment and then
deletes the segments it subsumed.  Records never mutate in place, so
the invariants are:

* **replay order is truth** — scanning segments in numeric order and
  applying records in sequence (the last PUT of a key wins)
  reconstructs exactly the live map.  Nothing is ever deleted: every
  stored value is a pure function of its key, so it never goes stale.
  A tombstone written by an older build drops nothing and counts as
  one dead record, as a superseded PUT does;
* **a crash loses at most the unflushed tail** — appends are buffered
  (write-behind) until :meth:`flush`; a torn final record is detected
  by its CRC frame on the next open and physically truncated away;
* **foreign and newer-versioned segments are preserved, never
  rewritten** — they are skipped on open and left out of compaction's
  delete list, so a downgraded reader cannot destroy data it does not
  understand.

The in-memory side is an index only: ``key -> (segment, value offset,
length, compressed)``.  Values stay on disk until a read-through asks
for one (:meth:`lookup`), so reopening a large store is one sequential
scan per segment with **zero** value unpickling.

Thread safety: every public method takes the shard's own lock, so
read-throughs and appends on disjoint shards never serialize on one
store-wide disk lock.
"""

from __future__ import annotations

import os
import threading
import time
from pathlib import Path

from ..analysis.registry import requires_lock, shared_state
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import format as fmt

__all__ = ["FLUSH_EVERY", "Shard"]

_SEGMENT_SUFFIX = ".seg"

# Write-behind batch: buffered puts are written once this many
# accumulate (and on every explicit flush or close).
FLUSH_EVERY = 64

# Disk-touching latency only: the in-memory index probe records
# nothing.  The obs tier is last in the lock order, so recording while
# holding the shard lock is legal (RL05).
_READ_HISTOGRAM = obs_metrics.REGISTRY.histogram("repro_store_read_seconds")
_FLUSH_HISTOGRAM = obs_metrics.REGISTRY.histogram("repro_store_flush_seconds")


def _put_entry(segment: Path, offset: int, frame: bytes) -> tuple:
    """The index entry of a PUT ``frame`` written at byte ``offset`` of
    ``segment``: where its value blob lies, and whether it is
    compressed."""
    kind, key_len = fmt.BODY_HEAD.unpack_from(frame, fmt.FRAME.size)
    value_offset = offset + fmt.FRAME.size + fmt.BODY_HEAD.size + key_len
    return (
        segment,
        value_offset,
        offset + len(frame) - value_offset,
        kind == fmt.RECORD_PUT_Z,
    )


@shared_state(
    "_lock",
    "_index", "_pending", "_dead",
    "_tail", "_tail_fh", "_skipped", "_no_append", "_sizes",
    "_appends", "_flushes", "_compactions", "_torn_tails",
    tier="store",
)
class Shard:
    """One fingerprint-prefix shard of the persistent verdict store."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.RLock()
        # key -> (segment Path, value_offset, value_length,
        # value_compressed)
        self._index: dict[tuple, tuple[Path, int, int, bool]] = {}
        # write-behind buffer, in append order: key -> value
        self._pending: dict[tuple, object] = {}
        self._dead = 0  # superseded puts and legacy tombstones on disk
        self._tail: Path | None = None
        self._tail_fh = None
        self._skipped: list[Path] = []
        # readable but older-versioned segments: replayed and compacted
        # away, never appended to (appends always carry FORMAT_VERSION)
        self._no_append: set[Path] = set()
        # segment -> its byte size, for every segment in the directory
        # (skipped ones included), kept as the shard writes so the
        # stats never scan the disk
        self._sizes: dict[Path, int] = {}
        self._appends = 0
        self._flushes = 0
        self._compactions = 0
        self._torn_tails = 0
        with self._lock:
            self._open()

    # -- open / recovery -------------------------------------------------

    def _segments(self) -> list[Path]:
        return sorted(self.path.glob(f"*{_SEGMENT_SUFFIX}"))

    def _segment_number(self, segment: Path) -> int:
        try:
            return int(segment.stem)
        except ValueError:
            return 0

    @requires_lock("_lock")
    def _open(self) -> None:
        self.path.mkdir(parents=True, exist_ok=True)
        for segment in self._segments():
            self._replay_segment(segment)
        self._tail = None  # appends open (or create) a tail lazily

    @requires_lock("_lock")
    def _replay_segment(self, segment: Path) -> None:
        with segment.open("rb") as fh:
            scan = fmt.scan_segment(fh)
        self._sizes[segment] = segment.stat().st_size
        if not scan.usable:
            self._skipped.append(segment)
            return
        if scan.truncate_at is not None:
            # Torn tail: drop the garbage physically so the next append
            # starts on a clean frame boundary.  A segment cut inside
            # its header holds no record and goes whole, or every later
            # open would find it torn again.
            self._torn_tails += 1
            if scan.truncate_at == 0:
                self._unlink(segment)
                return
            with segment.open("r+b") as fh:
                fh.truncate(scan.truncate_at)
            self._sizes[segment] = scan.truncate_at
        if scan.version is not None and scan.version != fmt.FORMAT_VERSION:
            self._no_append.add(segment)
        for record in scan.records:
            if record.kind == fmt.RECORD_TOMBSTONE:
                # Written by older builds, which deleted entries.  An
                # entry never goes stale, so the keys it named answer
                # again with their stored values.
                self._dead += 1
                continue
            if record.key in self._index:
                self._dead += 1  # superseded: the old record is garbage now
            self._index[record.key] = (
                segment,
                record.value_offset,
                record.value_length,
                record.compressed,
            )

    # -- the read path ---------------------------------------------------

    def contains(self, key: tuple) -> bool:
        with self._lock:
            return key in self._pending or key in self._index

    def lookup(self, key: tuple):
        """``(value, buffered)`` for a stored key, or ``None`` — the
        read-through miss path.  A key still in the write-behind buffer
        answers from memory (``buffered`` is True); any other costs one
        seek and one value unpickle."""
        with self._lock:
            if key in self._pending:
                return self._pending[key], True
            entry = self._index.get(key)
            if entry is None:
                return None
            segment, offset, length, compressed = entry
            start = time.perf_counter()
            with segment.open("rb") as fh:
                fh.seek(offset)
                blob = fh.read(length)
            value = fmt.decode_value(blob, compressed)
            elapsed = time.perf_counter() - start
            _READ_HISTOGRAM.record(elapsed)
            tr = obs_trace.current()
            if tr is not None:
                tr.add_span("store.read", start, elapsed, bytes=length)
            return value, False

    # -- the write path --------------------------------------------------

    def append(self, key: tuple, value) -> None:
        """Buffer one PUT (write-behind); flushes automatically every
        :data:`FLUSH_EVERY` buffered puts."""
        with self._lock:
            if key in self._pending or key in self._index:
                # Results are deterministic functions of the key; a
                # second append would only write a byte-identical dead
                # record.
                return
            self._pending[key] = value
            self._appends += 1
            if len(self._pending) >= FLUSH_EVERY:
                self._flush_locked()

    def flush(self) -> int:
        """Write every buffered put to the tail segment; returns the
        number of puts written."""
        with self._lock:
            return self._flush_locked()

    @requires_lock("_lock")
    def _tail_handle(self):
        if self._tail_fh is None:
            if self._tail is None:
                segments = [
                    s for s in self._segments()
                    if s not in self._skipped and s not in self._no_append
                ]
                self._tail = segments[-1] if segments else None
            if self._tail is None:
                self._tail = self._next_segment_path()
                self._tail_fh = self._tail.open("ab")
                fmt.write_header(self._tail_fh)
            else:
                self._tail_fh = self._tail.open("ab")
                if self._tail_fh.tell() < fmt.HEADER.size:
                    self._tail_fh.truncate(0)
                    fmt.write_header(self._tail_fh)
            self._sizes[self._tail] = self._tail_fh.tell()
        return self._tail_fh

    def _next_segment_path(self) -> Path:
        highest = max(
            (self._segment_number(s) for s in self._segments()), default=0
        )
        return self.path / f"{highest + 1:08d}{_SEGMENT_SUFFIX}"

    @requires_lock("_lock")
    def _flush_locked(self) -> int:
        if not self._pending:
            return 0
        flush_start = time.perf_counter()
        fh = self._tail_handle()
        for key, value in self._pending.items():
            offset = fh.tell()
            frame = fmt.encode_put(key, value)
            fh.write(frame)
            self._index[key] = _put_entry(self._tail, offset, frame)
        fh.flush()
        written = len(self._pending)
        self._sizes[self._tail] = fh.tell()
        self._pending.clear()
        self._flushes += 1
        elapsed = time.perf_counter() - flush_start
        _FLUSH_HISTOGRAM.record(elapsed)
        tr = obs_trace.current()
        if tr is not None:
            tr.add_span("store.flush", flush_start, elapsed, ops=written)
        return written

    # -- maintenance -----------------------------------------------------

    def compact(self) -> int:
        """Rewrite every live record into one fresh snapshot segment and
        delete the segments it subsumes; returns live record count."""
        with self._lock:
            self._flush_locked()
            return self._compact_locked()

    @requires_lock("_lock")
    def _compact_locked(self) -> int:
        old_segments = [s for s in self._segments() if s not in self._skipped]
        if not old_segments:
            return 0  # nothing on disk, nothing to rewrite
        self._close_tail()
        if not self._index:
            # No live record (header-only or tombstone-only segments):
            # reclaim the segments, skip the empty snapshot.
            for segment in old_segments:
                self._unlink(segment)
            self._dead = 0
            self._compactions += 1
            return 0
        snapshot = self._next_segment_path()
        live = sorted(self._index.items(), key=lambda item: repr(item[0]))
        new_index: dict[tuple, tuple[Path, int, int, bool]] = {}
        with snapshot.open("wb") as fh:
            fmt.write_header(fh)
            for key, (segment, offset, length, compressed) in live:
                with segment.open("rb") as src:
                    src.seek(offset)
                    blob = src.read(length)
                value = fmt.decode_value(blob, compressed)
                record_offset = fh.tell()
                frame = fmt.encode_put(key, value)
                fh.write(frame)
                new_index[key] = _put_entry(snapshot, record_offset, frame)
            fh.flush()
            os.fsync(fh.fileno())
            self._sizes[snapshot] = fh.tell()
        self._index = new_index
        for segment in old_segments:
            if segment != snapshot:
                self._unlink(segment)
        self._dead = 0
        self._tail = snapshot
        self._compactions += 1
        return len(new_index)

    def clear(self) -> None:
        """Drop everything this shard understands (skipped foreign /
        newer-versioned segments are preserved)."""
        with self._lock:
            self._close_tail()
            for segment in self._segments():
                if segment not in self._skipped:
                    self._unlink(segment)
            self._index.clear()
            self._pending.clear()
            self._dead = 0
            self._tail = None

    @requires_lock("_lock")
    def _unlink(self, segment: Path) -> None:
        segment.unlink(missing_ok=True)
        self._no_append.discard(segment)
        self._sizes.pop(segment, None)

    @requires_lock("_lock")
    def _close_tail(self) -> None:
        if self._tail_fh is not None:
            self._tail_fh.close()
            self._tail_fh = None
        self._tail = None

    def close(self) -> None:
        with self._lock:
            self._flush_locked()
            self._close_tail()

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._index) + len(self._pending)

    def disk_bytes(self) -> int:
        with self._lock:
            return sum(self._sizes.values())

    def stats_dict(self) -> dict:
        with self._lock:
            return {
                "records": len(self._index) + len(self._pending),
                "dead_records": self._dead,
                "pending": len(self._pending),
                "segments": len(self._sizes),
                "skipped_segments": len(self._skipped),
                "disk_bytes": self.disk_bytes(),
                "appends": self._appends,
                "flushes": self._flushes,
                "compactions": self._compactions,
                "torn_tails": self._torn_tails,
            }
