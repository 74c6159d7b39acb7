"""The persistent verdict store: durable warmth across restarts.

:class:`PersistentVerdictStore` is a drop-in replacement for the
in-memory :class:`repro.engine.session.VerdictStore` — everything that
accepts ``store=`` (``Engine``, ``LiveEngine``, ``ReproServer``, the
executors' merge path) takes one unchanged — that adds a **disk tier**
under the hot tier:

* keys are routed to one of N :class:`~repro.store.shard.Shard`
  directories by the **top bits of their primary content fingerprint**
  (:func:`shard_of_fp`), so a multi-process deployment can in principle
  split shards between daemons and, today, concurrent connections touch
  disjoint shard locks instead of one global lock;
* the hot tier is one in-memory ``VerdictStore`` *per shard* (the
  configured ``capacity`` is split across them), so reads that hit
  memory also never serialize store-wide;
* **read-through**: a hot-tier miss consults the shard's segment index;
  a disk hit promotes the entry into the hot tier and is counted
  separately (``disk_hits``) so warmth is observable;
* **write-behind**: puts land in the hot tier immediately and are
  buffered per shard, flushed every ``flush_every`` operations and on
  explicit :meth:`flush` / :meth:`close` — a crash loses at most the
  unflushed tail, never corrupts what was flushed (CRC framing,
  torn-tail truncation on reopen);
* only **durable tags** persist (pair verdicts, witnesses — refusals
  included — and global results).  Marginals and joins stay hot-only:
  they are cheap to rebuild from the bag indexes and would bloat the
  log with large value blobs.

Durability contract: :meth:`flush` makes everything buffered readable
by a future open; :meth:`close` flushes and releases file handles.
Eviction from the bounded hot tier never loses data — the entry was
appended to its shard's log at put time, so a later query pays one
read-through, not a recompute.

Pins are deliberately **ephemeral** (hot-tier only): a pin is an
eviction exemption, and eviction does not exist on disk.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path
from typing import Iterable, Sequence

from ..analysis.registry import shared_state
from ..errors import ReproError
from ..engine.fingerprint import ENCODING_VERSION
from ..engine.session import VerdictStore
from .shard import Shard

__all__ = [
    "DEFAULT_SHARDS",
    "DURABLE_TAGS",
    "PersistentVerdictStore",
    "StoreFormatError",
    "shard_of_fp",
    "shard_of_key",
]

DEFAULT_SHARDS = 8
DURABLE_TAGS = frozenset({"consistent", "witness", "global"})
META_NAME = "META.json"
META_VERSION = 1


class StoreFormatError(ReproError):
    """A store directory this build cannot safely use (newer metadata
    version, metadata that is not ours, or keys from another
    fingerprint encoding)."""


def read_meta(root: Path) -> dict | None:
    """The store directory's ``META.json``, or ``None`` if it has none.

    Raises :class:`StoreFormatError` for metadata this build cannot
    use.  That includes a store written under another fingerprint
    encoding: its keys are fingerprints, so none of its records would
    ever be found, and ``verify`` would misreport every witness.  A
    ``META.json`` without a ``"fingerprint"`` key predates the field
    and means encoding 1.
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
    if meta.get("version", 0) > META_VERSION:
        raise StoreFormatError(
            f"store at {root} has metadata version {meta['version']}; "
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


# `_closed` is deliberately unregistered: it is a close()-time latch
# written by the owning thread only, and reads never need freshness.
@shared_state("_lock", "disk_hits", "misses", "merged", tier="store")
class PersistentVerdictStore:
    """A sharded disk tier under per-shard in-memory hot tiers.

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
        flush_every: int = 64,
        auto_compact: bool = True,
    ) -> None:
        self.root = Path(root)
        self.capacity = capacity
        self.n_shards = self._load_or_create_meta(shards)
        per_shard = None
        if capacity is not None:
            if capacity < 1:
                raise ValueError(f"capacity must be positive, got {capacity}")
            per_shard = max(1, -(-capacity // self.n_shards))  # ceil div
        self._hot = [VerdictStore(per_shard) for _ in range(self.n_shards)]
        self._shards = [
            Shard(
                self.root / f"shard-{i:02d}",
                flush_every=flush_every,
                auto_compact=auto_compact,
            )
            for i in range(self.n_shards)
        ]
        self._lock = threading.Lock()  # store-level counters only
        self.disk_hits = 0
        self.misses = 0  # lookups neither tier could answer
        self.merged = 0
        self._closed = False

    def _load_or_create_meta(self, shards: int | None) -> int:
        meta = read_meta(self.root)
        if meta is not None:
            existing = int(meta["shards"])
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

    # -- routing ---------------------------------------------------------

    def _route(self, key: tuple) -> int:
        return shard_of_key(key, self.n_shards)

    def _durable(self, key: tuple) -> bool:
        return bool(key) and key[0] in DURABLE_TAGS

    # -- the VerdictStore interface --------------------------------------

    def get(self, key: tuple):
        i = self._route(key)
        value = self._hot[i].get(key)
        if value is not self.MISS:
            return value
        found = self._shards[i].lookup(key) if self._durable(key) else None
        if found is None:
            with self._lock:
                self.misses += 1
            return self.MISS
        value, fps = found
        # Promote without re-appending: the record is already on disk.
        self._hot[i].put(key, value, fps)
        with self._lock:
            self.disk_hits += 1
        return value

    def contains(self, key: tuple) -> bool:
        i = self._route(key)
        if self._hot[i].contains(key):
            return True
        return self._durable(key) and self._shards[i].contains(key)

    def put(self, key: tuple, value, fps: Sequence[int]) -> int:
        i = self._route(key)
        evicted = self._hot[i].put(key, value, fps)
        if self._durable(key):
            self._shards[i].append(key, value, tuple(fps))
        return evicted

    def pin_fp(self, fp: int) -> None:
        # A pin exempts entries touching the fingerprint from hot-tier
        # eviction; participants can live in any shard, so pin all.
        for hot in self._hot:
            hot.pin_fp(fp)

    def unpin_fp(self, fp: int) -> int:
        return sum(hot.unpin_fp(fp) for hot in self._hot)

    def invalidate_fp(self, fp: int) -> int:
        """Drop every entry touching ``fp`` from both tiers (disk drops
        are tombstoned and reclaimed by compaction); returns the number
        of distinct keys dropped."""
        hot_total = sum(hot.invalidate_fp(fp) for hot in self._hot)
        disk_total = sum(shard.tombstone(fp) for shard in self._shards)
        # Disk and hot overlap (read-through promotions); report the
        # larger tier so the count is a lower bound on distinct keys.
        return max(hot_total, disk_total)

    def clear(self) -> None:
        for hot in self._hot:
            hot.clear()
        for shard in self._shards:
            shard.clear()

    def __len__(self) -> int:
        """Distinct stored keys across both tiers (hot entries that are
        also on disk count once)."""
        keys: set[tuple] = set()
        for hot in self._hot:
            with hot._lock:
                keys.update(hot._cache)
        for shard in self._shards:
            keys.update(shard.keys())
        return len(keys)

    # -- bulk transfer (process-executor merge path) ---------------------

    def export(self) -> list[tuple[tuple, object, tuple[int, ...]]]:
        entries = []
        for hot in self._hot:
            entries.extend(hot.export())
        return entries

    def merge(
        self, entries: Iterable[tuple[tuple, object, tuple[int, ...]]]
    ) -> int:
        count = 0
        for key, value, fps in entries:
            self.put(key, value, fps)
            count += 1
        with self._lock:
            self.merged += count
        return count

    # -- durability ------------------------------------------------------

    def flush(self) -> int:
        """Write every buffered operation in every shard; returns the
        number of operations written."""
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
        self._closed = True

    def __enter__(self) -> "PersistentVerdictStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- introspection ---------------------------------------------------

    @property
    def hits(self) -> int:
        """Served-from-store lookups, either tier (the serve tests and
        stats read this like the in-memory store's counter)."""
        return sum(hot.hits for hot in self._hot) + self.disk_hits

    @property
    def evictions(self) -> int:
        return sum(hot.evictions for hot in self._hot)

    @property
    def invalidations(self) -> int:
        return sum(hot.invalidations for hot in self._hot)

    def stats_dict(self) -> dict:
        """The in-memory store's stats keys (summed over the hot tiers,
        with ``hits`` including read-throughs) plus a ``persistent``
        sub-dict describing the disk tier: the shards' stats summed,
        read from their in-memory state (no directory scan)."""
        hot_hits = sum(hot.hits for hot in self._hot)
        with self._lock:
            disk_hits, misses, merged = self.disk_hits, self.misses, self.merged
        hits = hot_hits + disk_hits
        shards = self.shard_stats()
        disk = {key: sum(s[key] for s in shards) for key in shards[0]}
        return {
            "entries": sum(len(hot) for hot in self._hot),
            "capacity": self.capacity,
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "merged": merged,
            "pinned": sum(len(hot._pinned_fps) for hot in self._hot),
            "persistent": {
                "root": str(self.root),
                "shards": self.n_shards,
                "hot_hits": hot_hits,
                "disk_hits": disk_hits,
                **disk,
            },
        }

    def shard_stats(self) -> list[dict]:
        """Per-shard disk stats (the ``repro store stats`` payload)."""
        return [shard.stats_dict() for shard in self._shards]
