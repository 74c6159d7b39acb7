"""Per-instance index caches for bags and relations, and the canonical
row order of a bag's content.

The seed rebuilt the same bucket dictionaries over and over: every
``bag_join``, every ``build_network``, every semijoin of a full-reducer
pass re-grouped an unchanged bag's rows by the same projection key.
Bags and relations are immutable, so that work is cacheable — a
:class:`BagIndex` (resp. :class:`RelationIndex`) lazily groups an
instance's rows per target schema and memoizes the result *on the
instance itself* (a dedicated slot), so the cache lives and dies with
the object and never needs invalidation.

Invariants:

* an index lives as long as some bag holds it, and an instance has at
  most one index (:meth:`BagIndex.of` is the only constructor call
  site);
* everything cached here is a pure function of the instance's content —
  marginals, buckets, key sets, the canonical row order, the wire
  export — never of the order its rows arrived in;
* cached marginal bags are themselves ordinary immutable bags, so index
  chains (marginal-of-marginal) memoize transparently.

**The canonical row order** of a bag is the byte order of its entries'
fingerprint records (encoding 3, documented in
:mod:`repro.engine.fingerprint`).  One pass per content computes the
records once and serves both that order and the fingerprint's digest.
The buckets, and through them every northwest-corner witness and
Theorem 6 fold step, walk that order, as do :func:`repro.io.bag_to_dict`
and the wire export, so a served witness is a function of content;
:func:`row_key` orders bare rows by the same encoding.

The classes touch ``_mults`` / ``_rows`` directly: they are the storage
layer's companion module, not external consumers.
"""

from __future__ import annotations

import marshal
import threading
from functools import lru_cache
from hashlib import blake2b
from itertools import chain, islice, repeat, starmap
from operator import le
from typing import TYPE_CHECKING, Mapping

from ..analysis.registry import register_lock
from ..core.schema import Schema, projection_plan
from . import kernels

# Guards first-use index creation: two engine worker threads touching
# the same instance must end up sharing one index, not build two and
# discard one's memos.  The per-target memo dicts inside an index stay
# unguarded — racing fills compute equal values and dict stores are
# atomic, so the worst case is one duplicated computation.
_CREATE_LOCK = register_lock(
    "_CREATE_LOCK", threading.Lock(), tier="engine"
)

_MARSHAL_VERSION = 2  # pinned: later formats depend on object identity
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
_INT_TYPE = frozenset({int})

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.bags import Bag
    from ..core.relations import Relation


def _blake2b_128(payload: bytes) -> int:
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
def schema_digest(attrs: tuple) -> int:
    """The digest of a canonical attribute tuple (the schema
    fingerprint)."""
    payload = "schema|" + "|".join(_encode_value(a) for a in attrs)
    return _blake2b_128(payload.encode("utf-8", "surrogatepass"))


def _record(row: tuple, mult: int) -> bytes:
    """One entry's record: the marshal of ``(row, mult)`` for exact
    JSON scalars and an exact ``int`` multiplicity, else the marshal of
    the qualified text."""
    if (
        type(mult) is int
        and type(row) is tuple
        and _SCALAR_TYPES.issuperset(map(type, row))
    ):
        return marshal.dumps((row, mult), _MARSHAL_VERSION)
    text = "row|" + "|".join([_encode_value(v) for v in row]) + f"|#{mult}"
    return marshal.dumps(text, _MARSHAL_VERSION)


def _records(mults: Mapping[tuple, int]) -> list[bytes]:
    """Every entry's record, in ``mults`` order.  When every value and
    multiplicity has an exact scalar type (one bulk type scan), marshal
    runs without a Python frame per row."""
    if _SCALAR_TYPES.issuperset(
        map(type, chain.from_iterable(mults))
    ) and _INT_TYPE.issuperset(map(type, mults.values())):
        try:
            return list(
                map(marshal.dumps, mults.items(), repeat(_MARSHAL_VERSION))
            )
        except ValueError:
            pass  # a tuple-subclass row: marshal refuses it
    return list(starmap(_record, mults.items()))


def row_key(row: tuple) -> bytes:
    """A bare row's sort key in the canonical encoding: its record at
    multiplicity 1.  Records are self-delimiting, so rows of JSON
    scalars sort by this key exactly as a bag holding them orders its
    rows, whatever their multiplicities."""
    return _record(row, 1)


class BagIndex:
    """Lazy, memoized access structures for one immutable :class:`Bag`.

    It holds the bag's schema and multiplicity table, never the bag, so
    a bag and its index form no reference cycle: reference counting
    frees both (a dropped witness need not wait for the cyclic
    collector).

    Also the home of the bag's canonical row order and content digest
    (``_sorted`` and ``_digest``, filled together by one pass), and of
    its content fingerprint (:mod:`repro.engine.fingerprint`):
    ``_fingerprint`` is set only once :func:`~repro.engine.fingerprint.of_bag`
    has published the digest in the index registry, which lets
    value-equal bags *adopt* each other's index — so an index is
    potentially shared by every bag with the same content (hence the
    ``__weakref__`` slot: the registry holds indexes weakly).
    ``_claim`` holds a peer's claimed fingerprint, which keys store
    reads only.

    The ``_export`` slot caches the bag's v2 wire export
    (:mod:`repro.engine.wire`) under the same sharing regime, so a bag
    sent in many frames builds its per-column dictionaries once.
    """

    __slots__ = (
        "_schema",
        "_mults",
        "_bag_type",
        "_marginals",
        "_buckets",
        "_key_sets",
        "_sorted",
        "_digest",
        "_fingerprint",
        "_claim",
        "_export",
        "__weakref__",
    )

    def __init__(self, bag: "Bag") -> None:
        self._schema = bag._schema
        self._mults = bag._mults
        self._bag_type = type(bag)
        self._marginals: dict[tuple, "Bag"] = {}
        self._buckets: dict[tuple, dict] = {}
        self._key_sets: dict[tuple, set] = {}
        self._sorted: list[tuple] | None = None
        self._digest: int | None = None
        self._fingerprint: int | None = None
        self._claim: int | None = None
        self._export = None

    @staticmethod
    def of(bag: "Bag") -> "BagIndex":
        """The bag's index, created on first use and cached on the bag."""
        index = bag._index
        if index is None:
            with _CREATE_LOCK:
                index = bag._index
                if index is None:
                    index = bag._index = BagIndex(bag)
        return index

    def marginal(self, target: Schema) -> "Bag":
        """The cached marginal R[Z] (Equation 2) onto a schema other
        than the bag's own (:meth:`Bag.marginal` answers ``R[X] is
        R``)."""
        key = target.attrs
        cached = self._marginals.get(key)
        if cached is None:
            table = kernels.marginal_table(
                self._mults.items(), self._schema.attrs, key
            )
            cached = self._bag_type._from_clean(target, table)
            self._marginals[key] = cached
        return cached

    def buckets(self, target: Schema) -> dict[tuple, list[tuple[tuple, int]]]:
        """Support rows with multiplicities, grouped by their projection
        onto ``target`` — the build side of joins and networks — each
        bucket, and the buckets themselves, in canonical row order."""
        key = target.attrs
        cached = self._buckets.get(key)
        if cached is None:
            plan = projection_plan(self._schema.attrs, key)
            rows = self.sorted_rows()
            mults = self._mults
            cached = kernels.group_items(
                zip(rows, map(mults.__getitem__, rows)), plan
            )
            self._buckets[key] = cached
        return cached

    def key_set(self, target: Schema) -> set:
        """The projection of the support onto ``target`` as a set of raw
        keys — the probe side of semijoins."""
        key = target.attrs
        cached = self._key_sets.get(key)
        if cached is None:
            plan = projection_plan(self._schema.attrs, key)
            cached = kernels.project_key_set(self._mults, plan)
            self._key_sets[key] = cached
        return cached

    def sorted_rows(self) -> list[tuple]:
        """The support rows in canonical order (the byte order of their
        records), computed once per content."""
        if self._sorted is None:
            self._canonicalize()
        return self._sorted

    def content_digest(self) -> int:
        """The encoding-3 digest: BLAKE2b-128 over the schema
        fingerprint's 16 bytes and the sorted records — the value
        :func:`~repro.engine.fingerprint.of_bag` publishes."""
        if self._digest is None:
            self._canonicalize()
        return self._digest

    def _canonicalize(self) -> None:
        """The one pass: marshal every entry once, sort the records
        once, keep the rows in that order and the digest of the sorted
        records (not the records themselves).  Rows that arrive in
        canonical order — every bag this program encodes — skip the
        sort.  The sort compares records only, never rows, and is
        stable: entries whose records coincide (distinct NaN objects,
        values with equal qualified text) keep their relative order.  A
        racing fill computes equal values, like every other memo
        here."""
        mults = self._mults
        records = _records(mults)
        rows = list(mults)
        if not all(map(le, records, islice(records, 1, None))):
            order = sorted(range(len(rows)), key=records.__getitem__)
            records = list(map(records.__getitem__, order))
            rows = list(map(rows.__getitem__, order))
        head = schema_digest(self._schema.attrs).to_bytes(16, "big")
        self._digest = _blake2b_128(head + b"".join(records))
        self._sorted = rows


class RelationIndex:
    """Lazy, memoized access structures for one immutable
    :class:`Relation` — the set-semantics sibling of :class:`BagIndex`,
    shared by the full-reducer and Yannakakis passes."""

    __slots__ = (
        "_relation",
        "_projections",
        "_buckets",
        "_key_sets",
    )

    def __init__(self, relation: "Relation") -> None:
        self._relation = relation
        self._projections: dict[tuple, "Relation"] = {}
        self._buckets: dict[tuple, dict] = {}
        self._key_sets: dict[tuple, frozenset] = {}

    @staticmethod
    def of(relation: "Relation") -> "RelationIndex":
        index = relation._index
        if index is None:
            with _CREATE_LOCK:
                index = relation._index
                if index is None:
                    index = relation._index = RelationIndex(relation)
        return index

    def project(self, target: Schema) -> "Relation":
        """The cached projection R[Z]; ``R[X] is R``."""
        relation = self._relation
        if target == relation._schema:
            return relation
        key = target.attrs
        cached = self._projections.get(key)
        if cached is None:
            cached = type(relation)._from_clean(
                target, frozenset(self.key_set(target))
            )
            self._projections[key] = cached
        return cached

    def buckets(self, target: Schema) -> dict[tuple, list[tuple]]:
        key = target.attrs
        cached = self._buckets.get(key)
        if cached is None:
            plan = projection_plan(self._relation._schema.attrs, key)
            cached = kernels.group_rows(self._relation._rows, plan)
            self._buckets[key] = cached
        return cached

    def key_set(self, target: Schema) -> frozenset:
        key = target.attrs
        cached = self._key_sets.get(key)
        if cached is None:
            plan = projection_plan(self._relation._schema.attrs, key)
            cached = frozenset(
                kernels.project_key_set(self._relation._rows, plan)
            )
            self._key_sets[key] = cached
        return cached
