"""The bag-execution engine.

Layering (lowest first):

* :mod:`repro.engine.kernels` — plan-compiled projection / marginal /
  hash-join / semi-join / northwest-corner primitives over raw value
  tuples, the one kernel of each operation;
* :mod:`repro.engine.index` — per-instance lazy bucket/marginal caches
  (:class:`BagIndex`, :class:`RelationIndex`);
* :mod:`repro.engine.fingerprint` — content fingerprints and the
  registry that lets value-equal bags share one index;
* :mod:`repro.engine.session` — the :class:`Engine` facade: memoized
  consistency, witness and global queries (bounded LRU store, per-bag
  invalidation) plus the batched entry points
  (``are_consistent_many``, ``witness_many``, ``global_check_many``;
  only the last takes ``parallelism=``);
* :mod:`repro.engine.live` — :class:`LiveEngine`, the one incremental
  checker: mutable :class:`LiveBag` handles whose updates move one
  common-marginal cell of each queried pair (Lemma 2(2) in O(1)) and
  invalidate only the cache entries they touch, and a
  maintained Theorem 6 witness per acyclic handle set, patched by the
  delta repair of :mod:`repro.engine.live_global`;
* :mod:`repro.engine.jobs`, :mod:`repro.engine.executors` and
  :mod:`repro.engine.wire` — batch payloads, the process pool that
  runs their Theorem 4 search misses, and the v2 frame codec of
  ``repro serve``;
* :mod:`repro.engine.reference` — the seed's pre-engine loops, kept as
  the oracle for cross-check tests and speedup benchmarks.

The core storage classes (:class:`repro.core.bags.Bag`,
:class:`repro.core.relations.Relation`) import the kernels, and the
session imports the core classes, so this package initializer must stay
import-light: the facade names are exported lazily (PEP 562).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .index import BagIndex, RelationIndex
    from .live import LiveBag, LiveEngine
    from .session import Engine, EngineStats, VerdictStore

__all__ = [
    "Engine",
    "EngineStats",
    "VerdictStore",
    "LiveEngine",
    "LiveBag",
    "BagIndex",
    "RelationIndex",
    "kernels",
]

_LAZY = {
    "Engine": ("repro.engine.session", "Engine"),
    "EngineStats": ("repro.engine.session", "EngineStats"),
    "VerdictStore": ("repro.engine.session", "VerdictStore"),
    "LiveEngine": ("repro.engine.live", "LiveEngine"),
    "LiveBag": ("repro.engine.live", "LiveBag"),
    "BagIndex": ("repro.engine.index", "BagIndex"),
    "RelationIndex": ("repro.engine.index", "RelationIndex"),
}

_MODULES = (
    "kernels",
    "index",
    "fingerprint",
    "session",
    "executors",
    "jobs",
    "live",
    "live_global",
    "reference",
)


def __getattr__(name: str):
    import importlib

    if name in _MODULES:
        return importlib.import_module(f"repro.engine.{name}")
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    return getattr(importlib.import_module(module_name), attr)
