"""Durable, sharded persistence for the content-addressed verdict store.

Layers (disk up):

* :mod:`repro.store.format` — CRC-framed record encoding, segment
  headers, torn-tail/foreign-file tolerant scanning;
* :mod:`repro.store.shard` — one append-only segment log per
  fingerprint-prefix shard, with write-behind buffering and snapshot
  compaction (the last put of a key wins; nothing is deleted, since
  no stored result goes stale);
* :mod:`repro.store.persistent` — :class:`PersistentVerdictStore`, the
  drop-in ``store=`` for :class:`repro.engine.Engine`, ``repro batch
  --store-dir`` and ``repro serve --store-dir``.

Import-light on purpose: pulling in :mod:`repro.store` must not drag
the engine session module until a store is actually constructed.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

__all__ = [
    "DEFAULT_SHARDS",
    "PersistentVerdictStore",
    "Shard",
    "StoreFormatError",
    "shard_of_fp",
    "shard_of_key",
    "verify_store",
]

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .persistent import (
        DEFAULT_SHARDS,
        PersistentVerdictStore,
        StoreFormatError,
        shard_of_fp,
        shard_of_key,
    )
    from .shard import Shard
    from .verify import verify_store


def __getattr__(name: str):
    if name in {
        "DEFAULT_SHARDS",
        "PersistentVerdictStore",
        "StoreFormatError",
        "shard_of_fp",
        "shard_of_key",
    }:
        from . import persistent

        return getattr(persistent, name)
    if name == "Shard":
        from .shard import Shard

        return Shard
    if name == "verify_store":
        from .verify import verify_store

        return verify_store
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
