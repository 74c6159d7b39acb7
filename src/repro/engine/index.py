"""Per-instance index caches for bags and relations.

The seed rebuilt the same bucket dictionaries over and over: every
``bag_join``, every ``build_network``, every semijoin of a full-reducer
pass re-grouped an unchanged bag's rows by the same projection key.
Bags and relations are immutable, so that work is cacheable — a
:class:`BagIndex` (resp. :class:`RelationIndex`) lazily groups an
instance's rows per target schema and memoizes the result *on the
instance itself* (a dedicated slot), so the cache lives and dies with
the object and never needs invalidation.

Invariants:

* an index never outlives its instance, and an instance has at most one
  index (:meth:`BagIndex.of` is the only constructor call site);
* everything cached here is a pure function of the instance's rows —
  marginals, buckets, key sets, the deterministic row order, the wire
  export;
* cached marginal bags are themselves ordinary immutable bags, so index
  chains (marginal-of-marginal) memoize transparently.

The classes touch ``_mults`` / ``_rows`` directly: they are the storage
layer's companion module, not external consumers.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING

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

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..core.bags import Bag
    from ..core.relations import Relation


class BagIndex:
    """Lazy, memoized access structures for one immutable :class:`Bag`.

    Also the home of the bag's content fingerprint
    (:mod:`repro.engine.fingerprint`): derived once, cached in the
    ``_fingerprint`` slot, and — because the fingerprint registry lets
    value-equal bags *adopt* each other's index — potentially shared by
    every bag with the same content (hence the ``__weakref__`` slot:
    the registry holds indexes weakly).  ``_claim`` holds a peer's
    claimed fingerprint, which keys store reads only.

    The ``_export`` slot caches the bag's v2 wire export
    (:mod:`repro.engine.wire`) under the same sharing regime, so a bag
    sent in many frames builds its per-column dictionaries once.
    """

    __slots__ = (
        "_bag",
        "_marginals",
        "_buckets",
        "_key_sets",
        "_sorted",
        "_fingerprint",
        "_claim",
        "_export",
        "__weakref__",
    )

    def __init__(self, bag: "Bag") -> None:
        self._bag = bag
        self._marginals: dict[tuple, "Bag"] = {}
        self._buckets: dict[tuple, dict] = {}
        self._key_sets: dict[tuple, set] = {}
        self._sorted: list[tuple] | None = None
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

    @property
    def bag(self) -> "Bag":
        return self._bag

    def marginal(self, target: Schema) -> "Bag":
        """The cached marginal R[Z] (Equation 2); ``R[X] is R``."""
        bag = self._bag
        if target == bag._schema:
            return bag
        key = target.attrs
        cached = self._marginals.get(key)
        if cached is None:
            table = kernels.marginal_table(
                bag._mults.items(), bag._schema.attrs, key
            )
            cached = type(bag)._from_clean(target, table)
            self._marginals[key] = cached
        return cached

    def buckets(self, target: Schema) -> dict[tuple, list[tuple[tuple, int]]]:
        """Support rows with multiplicities, grouped by their projection
        onto ``target`` — the build side of joins and networks."""
        key = target.attrs
        cached = self._buckets.get(key)
        if cached is None:
            plan = projection_plan(self._bag._schema.attrs, key)
            cached = kernels.group_items(self._bag._mults.items(), plan)
            self._buckets[key] = cached
        return cached

    def key_set(self, target: Schema) -> set:
        """The projection of the support onto ``target`` as a set of raw
        keys — the probe side of semijoins."""
        key = target.attrs
        cached = self._key_sets.get(key)
        if cached is None:
            plan = projection_plan(self._bag._schema.attrs, key)
            cached = kernels.project_key_set(self._bag._mults, plan)
            self._key_sets[key] = cached
        return cached

    def sorted_rows(self) -> list[tuple]:
        """The support rows in the deterministic ``repr`` order, computed
        once (the seed re-sorted on every ``Bag.tuples()`` call)."""
        if self._sorted is None:
            self._sorted = sorted(self._bag._mults, key=repr)
        return self._sorted


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
