"""Content fingerprints: canonical hashes for schemas and bags.

The PR-1/PR-2 engine keyed every cached result on *object identity*
(``id()``), so two value-equal bags — the same ledger parsed by two
requests, the same suite built twice, a bag rebuilt after an undo —
never shared a verdict.  This module gives every schema and bag a
deterministic **content fingerprint** so caches can be keyed on *what a
bag is* rather than *which object holds it*:

* fingerprints are pure functions of the value: schema attributes, and
  the (row, multiplicity) multiset for bags, so insertion order, dict
  order, and construction route (``from_pairs``, ``KRelation`` round
  trips, kernel outputs) cannot matter, and bags with equal supports
  but different counts never share a fingerprint;
* they are **process-independent** — BLAKE2b over canonical bytes,
  never the salted builtin ``hash``, so fingerprints computed in a
  worker process or another daemon match the parent's (the process
  executor and ``repro serve`` depend on this);
* they are **collision-resistant** — a bag's fingerprint is one
  BLAKE2b call over its schema fingerprint and its entries' *sorted*
  records.  Records are self-delimiting, so two unequal bags share a
  fingerprint only if BLAKE2b collides.

Each ``(row, multiplicity)`` entry has one record:

* a row whose values are all exact ``str``, ``int``, ``float``,
  ``bool`` or ``None`` (everything JSON decodes to), with an exact
  ``int`` multiplicity, is ``marshal.dumps((row, mult), 2)``.  Version
  2 is pinned: it writes no back-references and no interned-string
  markers (version 3 and up do), so equal values give equal bytes
  whatever their object identity.  It keeps ``1``, ``True``, ``1.0``,
  ``0.0``, ``-0.0``, ``"1"`` and ``None`` apart, and it has no digit
  limit on integers.  A whole bag's types are checked in one bulk
  scan, after which it is marshalled without a Python frame per row.
* every other row (``IntEnum`` members, ``str`` subclasses, nested
  tuples, ...) is the marshal of the text
  ``row|<type>:<repr>|...|#<mult>`` — a string record, which cannot
  equal a tuple record.

:class:`~repro.engine.index.BagIndex` computes the records, in one
pass per content that also fixes the content's canonical row order:
the sorted records *are* that order (:mod:`repro.engine.index`).

:data:`ENCODING_VERSION` names this scheme; persistent stores record it
in their ``META.json`` because their keys are fingerprints.  Encoding 2
summed 128-bit row terms mod 2**128, which a client choosing rows can
collide (Wagner's generalized birthday attack); encoding 1 hashed every
row's text.

:func:`of_bag` publishes the index's digest once per content object as
its fingerprint.  A peer may also *claim* one (:func:`claim`, the v2
frame's ``fp``): a claim keys store reads only (:func:`read_key`), so a
liar misleads only itself, and every store write keys on
:func:`of_bag`.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING, Sequence

from ..analysis.registry import register_lock
from .index import BagIndex, schema_digest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bags import Bag
    from ..core.schema import Schema

__all__ = [
    "ENCODING_VERSION",
    "claim",
    "derived",
    "of_bag",
    "of_collection",
    "of_schema",
    "read_key",
]

# The bag encoding (see the module docstring): 1 hashed row text, 2
# summed row terms.
ENCODING_VERSION = 3

# fingerprint -> the index already serving a bag with that content;
# value-equal bags adopt it so marginals, buckets, and sorted orders
# are computed once per *value*, not once per object.
_BAG_INDEXES: "weakref.WeakValueDictionary[int, BagIndex]"
_BAG_INDEXES = weakref.WeakValueDictionary()
_REGISTRY_LOCK = register_lock(
    "_REGISTRY_LOCK", threading.Lock(), tier="engine",
    slots=("_fingerprint",),
    containers=("_BAG_INDEXES",),
)


def of_schema(schema: "Schema") -> int:
    """The schema's content fingerprint (canonical attribute order, so
    ``Schema(["A","B"])`` and ``Schema(["B","A"])`` agree)."""
    return schema_digest(schema.attrs)


def of_bag(bag: "Bag") -> int:
    """The bag's content fingerprint — its index's
    :meth:`~repro.engine.index.BagIndex.content_digest`, published once
    per index — the only fingerprint a store write may use.

    Publication also consults the shared-index registry: if a
    value-equal bag already owns an index, this bag **adopts** it (after
    an equality check), so the two share cached marginals, buckets, and
    row orders from then on.
    """
    index = BagIndex.of(bag)
    fp = index._fingerprint
    if fp is not None:
        return fp
    fp = index.content_digest()
    with _REGISTRY_LOCK:
        index._fingerprint = fp
        shared = _BAG_INDEXES.get(fp)
        if shared is not None and shared is not index:
            if shared._schema == bag._schema and shared._mults == bag._mults:
                bag._index = shared
            return fp
        _BAG_INDEXES[fp] = index
    return fp


def of_collection(bags: Sequence["Bag"]) -> tuple[int, ...]:
    """Fingerprints of a bag sequence, in order (collection-level cache
    keys preserve order, exactly as the identity-keyed keys did)."""
    return tuple(of_bag(bag) for bag in bags)


def derived(bag: "Bag") -> int | None:
    """The bag's fingerprint if :func:`of_bag` already derived it (for
    this object or an equal one whose index it adopted), else None."""
    index = bag._index
    return None if index is None else index._fingerprint


def read_key(bag: "Bag") -> int:
    """The fingerprint a store *read* may use: the derived one once
    known, else a peer's :func:`claim`, else :func:`of_bag`."""
    index = BagIndex.of(bag)
    fp = index._fingerprint
    if fp is None:
        fp = index._claim
        if fp is None:
            return of_bag(bag)
    return fp


def claim(bag: "Bag", fp: int) -> "Bag":
    """Record a peer's fingerprint for ``bag`` (the wire decoder's v2
    ``fp``), so a repeat request reads the store without a content
    scan.  A claim keys reads only and never enters the index registry;
    returns the bag for chaining."""
    BagIndex.of(bag)._claim = fp
    return bag
