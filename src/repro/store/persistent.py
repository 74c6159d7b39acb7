"""The persistent verdict store: durable warmth across restarts.

:class:`PersistentVerdictStore` is a drop-in replacement for the
in-memory :class:`repro.engine.session.VerdictStore` — everything that
accepts ``store=`` (``Engine``, ``LiveEngine``, ``ReproServer``, the
executors' merge path) takes one unchanged — that adds a **disk tier**
under the hot tier:

* the hot tier is one in-memory ``VerdictStore`` holding at most
  ``capacity`` entries in exact LRU order, the same bound as without a
  disk tier;
* keys are routed to one of N :class:`~repro.store.shard.Shard`
  directories by the **top bits of their primary content fingerprint**
  (:func:`shard_of_fp`), so disk reads and appends take only their
  shard's lock, and a multi-process deployment could split shards
  between daemons;
* **read-through**: a hot-tier miss makes one shard call
  (:meth:`~repro.store.shard.Shard.lookup`), which answers from the
  write-behind buffer or the segment index; either hit promotes the
  entry into the hot tier.  Segment reads are counted as ``disk_hits``
  (so warmth is observable) and buffer reads apart, as
  ``buffer_hits``;
* **write-behind**: every put lands in the hot tier immediately and is
  buffered in its shard, flushed every
  :data:`~repro.store.shard.FLUSH_EVERY` operations and on explicit
  :meth:`flush` / :meth:`close` — a crash loses at most the unflushed
  tail, never corrupts what was flushed (CRC framing, torn-tail
  truncation on reopen).

The engine stores only pair verdicts, pair witnesses (refusals
included) and global results, so every entry is durable.  Each is a
pure function of its key and never goes stale, so the disk tier never
deletes one: :meth:`invalidate_fp` frees hot-tier memory only, and
the next :meth:`get` reads the entry back through.

Durability contract: :meth:`flush` makes everything buffered readable
by a future open; :meth:`close` flushes and releases file handles.
Eviction from the bounded hot tier never loses data — the entry was
appended to its shard's log at put time, so a later query pays one
read-through, not a recompute.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable

from ..analysis.registry import shared_state
from ..errors import ReproError
from ..engine.fingerprint import ENCODING_VERSION
from ..engine.session import VerdictStore
from .shard import Shard

__all__ = [
    "DEFAULT_SHARDS",
    "PersistentVerdictStore",
    "StoreFormatError",
    "shard_of_fp",
    "shard_of_key",
]

DEFAULT_SHARDS = 8
META_NAME = "META.json"
META_VERSION = 1


class StoreFormatError(ReproError):
    """A store directory this build cannot safely use (newer metadata
    version, metadata that is not ours, or keys from another
    fingerprint encoding)."""


def read_meta(root: Path) -> dict | None:
    """The store directory's ``META.json``, or ``None`` if it has none.

    Raises :class:`StoreFormatError` for metadata this build cannot
    use: a version that is not an integer, a shard count that is not a
    positive integer (keys would route by the wrong count), or a store
    written under another fingerprint encoding (its keys are
    fingerprints, so none of its records would ever be found, and
    ``verify`` would misreport every witness).  A ``META.json``
    without a ``"fingerprint"`` key predates the field and means
    encoding 1.
    """
    meta_path = root / META_NAME
    if not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError) as exc:
        raise StoreFormatError(
            f"unreadable store metadata at {meta_path}: {exc}"
        ) from exc
    if not isinstance(meta, dict) or "shards" not in meta:
        raise StoreFormatError(
            f"{meta_path} is not a verdict-store metadata file"
        )
    version, shards = meta.get("version", 0), meta["shards"]
    if type(version) is not int or type(shards) is not int or shards < 1:
        raise StoreFormatError(
            f"{meta_path} needs an integer version and a positive "
            f"integer shard count, got {version!r} and {shards!r}"
        )
    if version > META_VERSION:
        raise StoreFormatError(
            f"store at {root} has metadata version {version}; "
            f"this build reads up to {META_VERSION} (upgrade, or point "
            f"at a fresh --store-dir)"
        )
    encoding = meta.get("fingerprint", 1)
    if encoding != ENCODING_VERSION:
        raise StoreFormatError(
            f"store at {root} keys its records by fingerprint encoding "
            f"{encoding}; this build computes encoding {ENCODING_VERSION}, "
            f"so none of them would match (point --store-dir at a fresh "
            f"directory, or delete this one and let it refill)"
        )
    return meta


def shard_of_fp(fp: int, n_shards: int) -> int:
    """The shard owning a fingerprint: its top byte, folded mod N —
    "prefix" routing, so lexicographically close fingerprints spread
    uniformly (BLAKE2b top bits are uniform)."""
    return (fp >> 120) % n_shards


def shard_of_key(key: tuple, n_shards: int) -> int:
    """The shard owning a store key.

    Every engine key is ``(tag, fp-or-fp-tuple, ...)``; the *primary*
    fingerprint picks the shard.  Consistency keys are already
    fingerprint-sorted (the verdict is symmetric) but witness keys keep
    caller order, so for a witness the primary is the *smaller* of the
    pair — a pair's verdict and both witness orientations land in one
    shard, which is what lets a future multi-process split hand a
    pair's whole record set to one owner.
    """
    if len(key) < 2:
        return 0
    primary = key[1]
    if (
        key[0] == "witness"
        and len(key) > 2
        and isinstance(primary, int)
        and isinstance(key[2], int)
    ):
        primary = min(primary, key[2])
    if isinstance(primary, tuple):
        primary = primary[0] if primary else 0
    if not isinstance(primary, int):
        primary = 0
    return shard_of_fp(primary, n_shards)


@shared_state(
    "_lock", "disk_hits", "buffer_hits", "misses", "merged", tier="store"
)
class PersistentVerdictStore:
    """A sharded disk tier under one in-memory LRU hot tier.

    ``root`` is the store directory (created on first use; its
    ``META.json`` records the shard count, which later opens reuse —
    passing a different ``shards`` to an existing store is an error
    because keys would route to the wrong shard directories).
    """

    MISS = VerdictStore.MISS

    def __init__(
        self,
        root: str | Path,
        shards: int | None = None,
        capacity: int | None = None,
    ) -> None:
        self.root = Path(root)
        self.capacity = capacity
        self._hot = VerdictStore(capacity)
        self.n_shards = self._load_or_create_meta(shards)
        self._shards = [
            Shard(self.root / f"shard-{i:02d}") for i in range(self.n_shards)
        ]
        self._lock = threading.Lock()  # store-level counters only
        self.disk_hits = 0  # read-throughs served by a segment
        self.buffer_hits = 0  # ... by a write-behind buffer
        self.misses = 0  # lookups neither tier could answer
        self.merged = 0

    def _load_or_create_meta(self, shards: int | None) -> int:
        meta = read_meta(self.root)
        if meta is not None:
            existing = meta["shards"]
            if shards is not None and shards != existing:
                raise StoreFormatError(
                    f"store at {self.root} was created with {existing} "
                    f"shards; cannot reopen with shards={shards}"
                )
            return existing
        n = shards if shards is not None else DEFAULT_SHARDS
        if n < 1:
            raise ValueError(f"shards must be positive, got {n}")
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / META_NAME).write_text(json.dumps({
            "version": META_VERSION,
            "fingerprint": ENCODING_VERSION,
            "shards": n,
        }) + "\n")
        return n

    # -- the VerdictStore interface --------------------------------------

    def _shard(self, key: tuple) -> Shard:
        return self._shards[shard_of_key(key, self.n_shards)]

    def get(self, key: tuple):
        value = self._hot.get(key)
        if value is not self.MISS:
            return value
        found = self._shard(key).lookup(key)
        if found is None:
            with self._lock:
                self.misses += 1
            return self.MISS
        value, buffered = found
        # Promote without re-appending: the record is already in the
        # shard's log.
        self._hot.put(key, value)
        with self._lock:
            if buffered:
                self.buffer_hits += 1
            else:
                self.disk_hits += 1
        return value

    def contains(self, key: tuple) -> bool:
        return self._hot.contains(key) or self._shard(key).contains(key)

    def put(self, key: tuple, value) -> int:
        evicted = self._hot.put(key, value)
        self._shard(key).append(key, value)
        return evicted

    def invalidate_fp(self, fp: int) -> int:
        """Drop every hot-tier entry touching ``fp``; returns the number
        dropped.  The disk tier keeps them, so this only frees memory."""
        return self._hot.invalidate_fp(fp)

    def clear(self) -> None:
        self._hot.clear()
        for shard in self._shards:
            shard.clear()

    def __len__(self) -> int:
        """Distinct stored keys: the shards' lengths summed.  Every
        hot entry is also in its shard (a put appends it, a promotion
        read it from there)."""
        return sum(len(shard) for shard in self._shards)

    # -- bulk transfer (process-executor merge path) ---------------------

    def export(self) -> list[tuple[tuple, object]]:
        return self._hot.export()

    def merge(self, entries: Iterable[tuple[tuple, object]]) -> int:
        count = 0
        for key, value in entries:
            self.put(key, value)
            count += 1
        with self._lock:
            self.merged += count
        return count

    # -- durability ------------------------------------------------------

    def flush(self) -> int:
        """Write every buffered put in every shard; returns the number
        of puts written."""
        return sum(shard.flush() for shard in self._shards)

    def compact(self) -> int:
        """Flush, then rewrite each shard down to one live snapshot
        segment; returns the total live record count."""
        return sum(shard.compact() for shard in self._shards)

    def close(self) -> None:
        """Flush and release every shard's file handles (the store can
        still be used afterwards; appends reopen their tails)."""
        for shard in self._shards:
            shard.close()

    def __enter__(self) -> "PersistentVerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------

    @property
    def hits(self) -> int:
        """Served-from-store lookups, every tier (the serve tests and
        stats read this like the in-memory store's counter)."""
        return self._hot.hits + self.disk_hits + self.buffer_hits

    @property
    def evictions(self) -> int:
        return self._hot.evictions

    @property
    def invalidations(self) -> int:
        return self._hot.invalidations

    def stats_dict(self) -> dict:
        """The hot tier's stats keys (``hits`` including read-throughs,
        ``misses`` only lookups no tier answered) plus a
        ``persistent`` sub-dict describing the disk tier: the shards'
        stats summed, read from their in-memory state (no directory
        scan)."""
        hot = self._hot.stats_dict()
        with self._lock:
            disk_hits, buffer_hits = self.disk_hits, self.buffer_hits
            misses, merged = self.misses, self.merged
        hits = hot["hits"] + disk_hits + buffer_hits
        shards = self.shard_stats()
        disk = {key: sum(s[key] for s in shards) for key in shards[0]}
        return {
            **hot,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "merged": merged,
            "persistent": {
                "root": str(self.root),
                "shards": self.n_shards,
                "hot_hits": hot["hits"],
                "disk_hits": disk_hits,
                "buffer_hits": buffer_hits,
                **disk,
            },
        }

    def shard_stats(self) -> list[dict]:
        """Per-shard disk stats (the ``repro store stats`` payload)."""
        return [shard.stats_dict() for shard in self._shards]
