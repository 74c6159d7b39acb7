"""Content fingerprints: canonical hashes for schemas and bags.

The PR-1/PR-2 engine keyed every cached result on *object identity*
(``id()``), so two value-equal bags — the same ledger parsed by two
requests, the same suite built twice, a bag rebuilt after an undo —
never shared a verdict.  This module gives every schema and bag a
deterministic **content fingerprint** so caches can be keyed on *what a
bag is* rather than *which object holds it*:

* fingerprints are pure functions of the value: schema attributes, and
  the (row, multiplicity) multiset for bags;
* they are **order-insensitive over rows** — the per-row digests are
  combined with a commutative modular sum, so insertion order, dict
  order, and construction route (``from_pairs``, ``KRelation`` round
  trips, kernel outputs) cannot matter;
* they are **multiplicity-aware** — the multiplicity is hashed into
  each row's term, so bags with equal supports but different counts
  never share a fingerprint;
* they are **process-independent** — digests are BLAKE2b over a
  canonical byte encoding of each ``(row, multiplicity)`` entry, never
  the salted builtin ``hash``, so fingerprints computed in a worker
  process or another daemon match the parent's (the process executor
  and ``repro serve`` depend on this);
* they support **O(1) incremental maintenance** — changing one row's
  multiplicity shifts the commutative sum by a two-term delta
  (:func:`shift_content`), which is how :class:`repro.engine.live.LiveBag`
  keeps its fingerprint current across update streams without rescans.

A row has one of two encodings, chosen per row:

* **marshal** — a row whose values are all exact ``str``, ``int``,
  ``float``, ``bool`` or ``None`` (everything JSON decodes to) and
  whose multiplicity is an exact ``int`` hashes
  ``marshal.dumps((row, mult), 2)``.  Version 2 is pinned: it writes
  no back-references and no interned-string markers (version 3 and
  up do), so equal values give equal bytes whatever their object
  identity.  It keeps ``1``, ``True``, ``1.0``, ``0.0``, ``-0.0``,
  ``"1"`` and ``None`` apart, and it has no digit limit on integers.
  :func:`content_sum` checks a whole bag's types in one bulk scan and
  then hashes it without running a Python frame per row.
* **qualified** — every other row (``IntEnum`` members, ``str``
  subclasses, nested tuples, ...) hashes the text
  ``row|<type>:<repr>|...|#<mult>``.

The two cannot coincide: marshal output for a tuple starts with
``(``, the qualified text with ``row|``.  One digest LRU caches the
terms of both.  :data:`ENCODING_VERSION` names this scheme; persistent
stores record it in their ``META.json`` because their keys are
fingerprints.

Fingerprints are 128-bit integers.  A collision requires two unequal
values whose digest sums agree mod 2**128; we treat that as impossible
in practice, but the index-sharing path (:func:`of_bag`) still verifies
value equality before letting two bags share one :class:`BagIndex`.

The computed fingerprint is cached on the instance's index (one content
scan per object lifetime); :func:`seed` installs an externally-known
fingerprint — the live engine seeds snapshots from its incrementally
maintained sum, and the process executor seeds shipped payloads so
workers never rescan.
"""

from __future__ import annotations

import marshal
import threading
import weakref
from functools import lru_cache
from hashlib import blake2b
from itertools import chain, repeat, starmap
from typing import TYPE_CHECKING, Mapping, Sequence

from ..analysis.registry import register_lock
from .index import BagIndex

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bags import Bag
    from ..core.schema import Schema

__all__ = [
    "ENCODING_VERSION",
    "MASK",
    "content_sum",
    "of_bag",
    "of_collection",
    "of_schema",
    "row_term",
    "seed",
    "shift_content",
]

MASK = (1 << 128) - 1

# The row-encoding scheme (see the module docstring); version 1 was
# the qualified text for every row.
ENCODING_VERSION = 2

_MARSHAL_VERSION = 2  # pinned: later formats depend on object identity
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_INT_TYPE = frozenset({int})

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


def _digest(payload: bytes) -> int:
    return int.from_bytes(blake2b(payload, digest_size=16).digest(), "big")


def _encode_value(value: object) -> str:
    """A stable, type-qualified encoding of one attribute value.

    ``repr`` distinguishes ``1`` from ``"1"`` already; prefixing the
    type name also separates values whose reprs collide across types
    (e.g. ``True`` vs a hypothetical class repr).  Deterministic across
    processes for every built-in scalar and for any type with a
    value-based ``repr``.
    """
    return f"{type(value).__qualname__}:{value!r}"


@lru_cache(maxsize=65536)
def _attrs_fingerprint(attrs: tuple) -> int:
    payload = "schema|" + "|".join(_encode_value(a) for a in attrs)
    return _digest(payload.encode("utf-8", "surrogatepass"))


def of_schema(schema: "Schema") -> int:
    """The schema's content fingerprint (canonical attribute order, so
    ``Schema(["A","B"])`` and ``Schema(["B","A"])`` agree)."""
    return _attrs_fingerprint(schema.attrs)


@lru_cache(maxsize=262144)
def _term(key: str) -> int:
    """One LRU of row terms for both encodings, keyed on a ``str``:
    ``lru_cache`` keeps a lone ``str`` argument as the key itself but
    wraps ``bytes`` in a 48-byte args tuple per entry.  Marshal output
    arrives decoded as latin-1 (one char per byte, so it round-trips)
    and starts with ``(``; the qualified text starts with ``row|``."""
    if key[0] == "(":
        return _digest(key.encode("latin-1"))
    return _digest(key.encode("utf-8", "surrogatepass"))


def row_term(row: tuple, mult: int) -> int:
    """The commutative-sum term for one ``(row, multiplicity)`` entry,
    in the row's encoding (marshal for exact JSON scalars and an exact
    ``int`` multiplicity, the qualified text otherwise).

    Only defined for positive multiplicities — a stored bag never holds
    a zero row, and the incremental shift skips the zero side.
    """
    if (
        type(mult) is int
        and type(row) is tuple
        and _SCALAR_TYPES.issuperset(map(type, row))
    ):
        return _term(
            marshal.dumps((row, mult), _MARSHAL_VERSION).decode("latin-1")
        )
    return _term(
        "row|" + "|".join([_encode_value(v) for v in row]) + f"|#{mult}"
    )


def content_sum(mults: Mapping[tuple, int]) -> int:
    """The order-insensitive combination of every row term (mod 2**128).

    When every value and multiplicity has an exact scalar type (one
    bulk type scan), the terms are looked up straight from marshal
    bytes without a Python frame per row; otherwise each row picks its
    own encoding through :func:`row_term`.
    """
    if _SCALAR_TYPES.issuperset(
        map(type, chain.from_iterable(mults))
    ) and _INT_TYPE.issuperset(map(type, mults.values())):
        try:
            payloads = map(
                marshal.dumps, mults.items(), repeat(_MARSHAL_VERSION)
            )
            keys = map(bytes.decode, payloads, repeat("latin-1"))
            return sum(map(_term, keys)) & MASK
        except ValueError:
            pass  # a tuple-subclass row: marshal refuses it
    return sum(starmap(row_term, mults.items())) & MASK


def shift_content(content: int, row: tuple, old: int, new: int) -> int:
    """The O(1) incremental update: move ``row`` from multiplicity
    ``old`` to ``new`` (either side may be zero = absent)."""
    if old > 0:
        content -= row_term(row, old)
    if new > 0:
        content += row_term(row, new)
    return content & MASK


def bag_fingerprint(schema_fp: int, content: int, support_size: int) -> int:
    """Combine the maintained parts into the final bag fingerprint."""
    return _digest(b"bag|%d|%d|%d" % (schema_fp, support_size, content))


def of_bag(bag: "Bag") -> int:
    """The bag's content fingerprint, computed once and cached on its
    :class:`BagIndex`.

    First computation also consults the shared-index registry: if a
    value-equal bag already owns an index, this bag **adopts** it (after
    an equality check guarding against fingerprint collisions), so the
    two share cached marginals, buckets, and row orders from then on.
    """
    index = BagIndex.of(bag)
    fp = index._fingerprint
    if fp is not None:
        return fp
    fp = bag_fingerprint(
        of_schema(bag._schema),
        content_sum(bag._mults),
        len(bag._mults),
    )
    with _REGISTRY_LOCK:
        index._fingerprint = fp
        shared = _BAG_INDEXES.get(fp)
        if shared is not None and shared is not index:
            if shared._bag == bag:
                bag._index = shared
            return fp
        _BAG_INDEXES[fp] = index
    return fp


def of_collection(bags: Sequence["Bag"]) -> tuple[int, ...]:
    """Fingerprints of a bag sequence, in order (collection-level cache
    keys preserve order, exactly as the identity-keyed keys did)."""
    return tuple(of_bag(bag) for bag in bags)


def seed(bag: "Bag", fp: int) -> "Bag":
    """Install a fingerprint known from elsewhere — the live engine's
    incrementally maintained sum, or a process payload's precomputed
    value — so the bag's first engine query skips the content scan.
    Registers the bag's index for sharing like :func:`of_bag`; returns
    the bag for chaining."""
    index = BagIndex.of(bag)
    if index._fingerprint is None:
        with _REGISTRY_LOCK:
            index._fingerprint = fp
            shared = _BAG_INDEXES.get(fp)
            if shared is not None and shared is not index:
                if shared._bag == bag:
                    bag._index = shared
                return bag
            _BAG_INDEXES[fp] = index
    return bag
