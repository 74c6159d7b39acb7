"""Live engine sessions: mutable bags with incremental invalidation.

The PR-1 :class:`~repro.engine.session.Engine` assumes immutable bags,
so a streamed update forces a cold recompute of everything the bag
touched.  The paper says better is possible: Lemma 2(2) reduces
two-bag consistency to *marginal equality on the common attributes*,
which the sparse difference of the two common marginals maintains in
O(1) per tuple update (the pair is consistent exactly when no cell of
it is left), and Theorem 2 upgrades those pairwise answers to global
consistency whenever the schema hypergraph is acyclic.  A
:class:`LiveEngine`, the package's one incremental checker, wires both
into the engine cache:

* each tracked bag is a mutable :class:`LiveBag` handle, the only copy
  of its rows, and :meth:`LiveEngine.update` validates each row once;
* ``update(handle, row, amount)`` bumps the O(1) pair deltas touching
  the handle and invalidates exactly the inner-engine entries (pair
  verdicts, witnesses, global results) in which the handle's current
  snapshot participates — untouched pairs keep their memoized answers;
* heavyweight queries (witnesses, joins, marginals, global checks) run
  against an immutable *snapshot* of the handle, reused until the next
  update, so the inner engine's content-keyed memoization (and the
  snapshot's own marginal memo) applies unchanged between updates; a
  snapshot is digested only when a store key needs its fingerprint;
* over an acyclic schema, :meth:`LiveEngine.global_check` keeps one
  Theorem 6 *witness* per handle set and, after updates, patches it
  with one delta repair over all the bags
  (:func:`repro.engine.live_global.repair_fold_witness`) instead of
  re-folding, and pushes each maintained result into a shared verdict
  store so serve/batch clients sharing it get it for free.

The consistency-checking-as-serving loop this enables —
``update(...); globally_consistent()`` — is the streaming workload of
``benchmarks/bench_live.py``; the witness-maintaining variant is gated
by ``benchmarks/bench_live_global.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations
from typing import Callable, Iterable, Mapping

from ..consistency.global_ import (
    GlobalConsistencyResult,
    acyclic_global_witness,
)
from ..core.bags import Bag
from ..core.schema import Schema, projection_plan
from ..errors import MultiplicityError, SchemaError
from . import fingerprint
from .live_global import repair_fold_witness
from .session import Engine, EngineStats, VerdictStore, global_key

__all__ = ["LiveBag", "LiveEngine"]

# Handle sets whose global witness one LiveEngine maintains (LRU): each
# pins one snapshot per schema plus its witness, so a session sweeping
# many distinct subsets must not accumulate them (an evicted set pays
# one cold fold on its next check).
MAX_WITNESS_SETS = 8


class _PairDelta:
    """Lemma 2(2), maintained for one pair of handles.

    ``delta[z] = R[Z](z) - S[Z](z)`` over the common schema Z, stored
    sparsely: the pair is consistent exactly when no cell is left.  An
    update moves one cell through a projection plan compiled once.  The
    engine validates every row first and never passes a zero amount.
    """

    __slots__ = ("_left_key", "_right_key", "_delta")

    def __init__(self, left: Bag, right: Bag) -> None:
        common = (left.schema & right.schema).attrs
        self._left_key = projection_plan(left.schema.attrs, common)
        self._right_key = projection_plan(right.schema.attrs, common)
        self._delta: dict[tuple, int] = {}
        for row, mult in left.items():
            self.update_left(row, mult)
        for row, mult in right.items():
            self.update_right(row, mult)

    def _bump(self, cell: tuple, amount: int) -> None:
        new = self._delta.get(cell, 0) + amount
        if new:
            self._delta[cell] = new
        else:
            del self._delta[cell]

    def update_left(self, row: tuple, amount: int) -> None:
        self._bump(self._left_key(row), amount)

    def update_right(self, row: tuple, amount: int) -> None:
        self._bump(self._right_key(row), -amount)

    @property
    def consistent(self) -> bool:
        return not self._delta

    def disagreeing_cells(self) -> dict[tuple, int]:
        """Cell -> left-side minus right-side, for each cell where the
        common marginals disagree."""
        return dict(self._delta)


def _diff_mults(new: dict, old: dict) -> dict:
    """Sparse signed difference ``new - old`` of two multiplicity maps."""
    diff = {}
    for row, mult in new.items():
        delta = mult - old.get(row, 0)
        if delta:
            diff[row] = delta
    for row, mult in old.items():
        if row not in new:
            diff[row] = -mult
    return diff


class LiveBag:
    """A mutable bag handle owned by one :class:`LiveEngine`.

    Holds the current multiplicities and a lazily-built immutable
    snapshot :class:`Bag`.  The snapshot object is reused until the next
    update, so the content-keyed store sees an unchanged fingerprint
    exactly while the handle is untouched, and the snapshot's
    fingerprint is derived at most once.  All mutation goes through
    :meth:`LiveEngine.update` (which also maintains the pair checkers
    and the store); the handle itself is read-only.
    """

    __slots__ = ("schema", "name", "_mults", "_snapshot")

    def __init__(
        self, schema: Schema, mults: Mapping[tuple, int], name: str
    ) -> None:
        self.schema = schema
        self.name = name
        self._mults: dict[tuple, int] = dict(mults)
        self._snapshot: Bag | None = None

    def fingerprint(self) -> int:
        """The current content fingerprint: the snapshot's, derived
        once per snapshot."""
        return fingerprint.of_bag(self.bag())

    def bag(self) -> Bag:
        """The current contents as an immutable snapshot."""
        if self._snapshot is None:
            # _mults holds only validated rows with positive counts, so
            # the validation-free constructor applies.
            self._snapshot = Bag._from_clean(self.schema, dict(self._mults))
        return self._snapshot

    def multiplicity(self, row) -> int:
        return self._mults.get(tuple(row), 0)

    def items(self) -> Iterable[tuple[tuple, int]]:
        return self._mults.items()

    @property
    def support_size(self) -> int:
        return len(self._mults)

    def __len__(self) -> int:
        return len(self._mults)

    def __bool__(self) -> bool:
        return bool(self._mults)

    def __repr__(self) -> str:
        return (
            f"LiveBag({self.name!r}, {list(self.schema.attrs)!r}, "
            f"{len(self._mults)} tuples)"
        )


class LiveEngine:
    """An :class:`Engine` over mutable bags.

    ``capacity`` and ``store`` are forwarded to the inner engine;
    queries between handles are answered from incrementally-maintained
    pair checkers (created on the first query of each pair, O(1)
    afterwards), acyclic global checks from the witness the session
    maintains per handle set, everything else from the inner engine's
    snapshot-keyed cache.
    """

    def __init__(
        self,
        bags: Iterable[Bag] = (),
        *,
        capacity: int | None = None,
        store: VerdictStore | None = None,
    ) -> None:
        self._engine = Engine(capacity=capacity, store=store)
        # Content-addressed entries never go stale, so invalidating on
        # update is purely a memory lever.  Over a private store we keep
        # it (a streaming session would otherwise accumulate an entry
        # per historical content); over a *shared* store we must not —
        # the entries this handle leaves behind may be serving other
        # engines, and the shared store's own capacity bounds memory.
        # Only a shared store is worth pushing maintained results into:
        # nothing else reads a private one.
        self._shared_store = store is not None
        self._handles: list[LiveBag] = []
        self._slots: dict[LiveBag, int] = {}
        # (slot i, slot j) with i < j -> the maintained checker; lazy,
        # so an m-bag session only pays for the pairs actually queried.
        self._checkers: dict[tuple[int, int], _PairDelta] = {}
        # slot -> the checker sides an update to that slot must bump,
        # so the hot path touches O(m) checkers, not all m(m-1)/2.
        self._by_slot: dict[int, list[Callable[[tuple, int], None]]] = {}
        # handle-set fingerprint (frozenset of schema fps) -> acyclic?
        # Row updates never alter schemas, so entries only need to be
        # dropped when membership changes (add_bag) — the PR-5 bugfix
        # for global_check re-running GYO on every post-update call.
        self._acyclic_sets: dict[frozenset[int], bool] = {}
        # the key of the whole handle set, kept current by add_bag
        self._schema_key: frozenset[int] = frozenset()
        # slot set -> (one snapshot per schema, the result they were
        # last checked at): the maintained Theorem 6 witness of those
        # handles, LRU-bounded at MAX_WITNESS_SETS.
        self._live_globals: OrderedDict[
            frozenset[int], tuple[list[Bag], GlobalConsistencyResult]
        ] = OrderedDict()
        self._live_global_counts = {"repairs": 0, "refolds": 0}
        self.updates = 0
        for bag in bags:
            self.add_bag(bag)

    # -- session surface -------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The inner snapshot cache (stats, store, eviction bound)."""
        return self._engine

    @property
    def stats(self) -> EngineStats:
        return self._engine.stats

    @property
    def handles(self) -> list[LiveBag]:
        return list(self._handles)

    def __len__(self) -> int:
        """Number of cached results in the inner engine."""
        return len(self._engine)

    def add_bag(self, bag: Bag, name: str | None = None) -> LiveBag:
        """Track a bag; returns its mutable handle."""
        handle = LiveBag(
            bag.schema, dict(bag.items()), name or f"bag{len(self._handles)}"
        )
        handle._snapshot = bag  # the given bag IS the initial snapshot
        self._slots[handle] = len(self._handles)
        self._handles.append(handle)
        self._acyclic_sets.clear()  # membership changed, row updates don't
        self._schema_key |= {fingerprint.of_schema(bag.schema)}
        return handle

    def _resolve(self, handle) -> LiveBag:
        if isinstance(handle, LiveBag):
            if handle not in self._slots:
                raise KeyError(f"{handle!r} belongs to another LiveEngine")
            return handle
        return self._handles[handle]  # IndexError speaks for itself

    # -- updates ---------------------------------------------------------

    def update(self, handle, row: tuple, amount: int) -> None:
        """Add ``amount`` (possibly negative) copies of ``row`` to the
        handle's bag.

        O(1) per maintained pair checker touching the handle, plus, over
        a private store, one invalidation sweep over the entries the
        handle's snapshot participates in — only if something derived
        the snapshot's fingerprint, since nothing else keys an entry on
        it.  Entries touching only other handles survive.
        """
        handle = self._resolve(handle)
        row = tuple(row)
        if len(row) != len(handle.schema):
            raise SchemaError(
                f"row {row!r} has arity {len(row)}, schema "
                f"{handle.schema!r} has arity {len(handle.schema)}"
            )
        new = handle._mults.get(row, 0) + amount
        if new < 0:
            raise MultiplicityError(
                f"update would make multiplicity of {row!r} negative"
            )
        if amount == 0:
            return
        slot = self._slots[handle]
        for bump in self._by_slot.get(slot, ()):
            bump(row, amount)
        if new == 0:
            del handle._mults[row]
        else:
            handle._mults[row] = new
        old = handle._snapshot
        if old is not None:
            if not self._shared_store and fingerprint.derived(old) is not None:
                self._engine.invalidate(old)
            handle._snapshot = None
        self.updates += 1

    # -- queries ---------------------------------------------------------

    def _checker(self, a: int, b: int) -> _PairDelta:
        key = (a, b) if a < b else (b, a)
        checker = self._checkers.get(key)
        if checker is None:
            i, j = key
            checker = _PairDelta(
                self._handles[i].bag(), self._handles[j].bag()
            )
            self._checkers[key] = checker
            self._by_slot.setdefault(i, []).append(checker.update_left)
            self._by_slot.setdefault(j, []).append(checker.update_right)
        return checker

    def are_consistent(self, left, right) -> bool:
        """Lemma 2(2) between two handles, answered from the maintained
        marginal-difference counter: O(n) on the first query of the
        pair, O(1) on every later query regardless of updates."""
        a = self._slots[self._resolve(left)]
        b = self._slots[self._resolve(right)]
        if a == b:
            return True  # a bag is consistent with itself
        return self._checker(a, b).consistent

    def disagreeing_cells(self, left, right) -> dict[tuple, int]:
        """The common-marginal cells where two handles disagree."""
        a = self._slots[self._resolve(left)]
        b = self._slots[self._resolve(right)]
        if a == b:
            return {}
        cells = self._checker(a, b).disagreeing_cells()
        if a > b:  # checker stores left-minus-right for the lower slot
            cells = {cell: -diff for cell, diff in cells.items()}
        return cells

    def inconsistent_pairs(self) -> list[tuple[int, int]]:
        """Slot pairs currently violating Lemma 2(2) (materializes every
        pair checker on first call; O(m^2) flag reads afterwards)."""
        m = len(self._handles)
        return [
            (i, j)
            for i, j in combinations(range(m), 2)
            if not self._checker(i, j).consistent
        ]

    def pairwise_consistent(self, handles=None) -> bool:
        """Every two tracked bags (or every two of ``handles``) are
        consistent (Section 4) — O(pairs) maintained flag reads."""
        if handles is None:
            m = len(self._handles)
            if len(self._checkers) == m * (m - 1) // 2:  # all built
                return all(
                    checker.consistent for checker in self._checkers.values()
                )
            slots = range(m)
        else:
            slots = sorted(
                {self._slots[self._resolve(handle)] for handle in handles}
            )
        return all(
            self._checker(i, j).consistent
            for i, j in combinations(slots, 2)
        )

    def schema_acyclic(self, handles=None) -> bool:
        """Whether the given handles' schemas (default: all tracked)
        form an acyclic hypergraph.

        Cached per handle-set schema fingerprint: row updates never
        alter schemas, so entries are dropped only when
        :meth:`add_bag` changes membership — repeated post-update
        global checks stop re-running the GYO reduction.
        """
        if handles is None:
            resolved = self._handles
            key = self._schema_key
        else:
            resolved = [self._resolve(handle) for handle in handles]
            key = frozenset(
                fingerprint.of_schema(handle.schema) for handle in resolved
            )
        acyclic = self._acyclic_sets.get(key)
        if acyclic is None:
            from ..hypergraphs.acyclicity import is_acyclic
            from ..hypergraphs.hypergraph import Hypergraph

            acyclic = is_acyclic(
                Hypergraph.from_schemas([h.schema for h in resolved])
            )
            if len(self._acyclic_sets) >= 4096:
                self._acyclic_sets.clear()  # subset-sweeping sessions
            self._acyclic_sets[key] = acyclic
        return acyclic

    def globally_consistent(self, method: str = "auto") -> bool:
        """Global consistency of the whole session.

        Over an acyclic schema this is Theorem 2: the maintained
        pairwise verdicts decide it in O(m^2) flag reads, no recompute
        (and no witness construction — ask :meth:`global_check` when
        the witness itself is wanted).  Cyclic schemas fall through to
        the exact (cached) solver.
        """
        if method != "search" and self.schema_acyclic():
            return self.pairwise_consistent()
        return self.global_check(method=method).consistent

    def marginal(self, handle, target: Schema) -> Bag:
        """R[Z] of the current snapshot, memoized on its index."""
        return self._resolve(handle).bag().marginal(target)

    def join(self, left, right) -> Bag:
        """The bag join of the two current snapshots."""
        return self._resolve(left).bag().bag_join(self._resolve(right).bag())

    def witness(self, left, right) -> Bag:
        """A pairwise witness against the current snapshots, memoized in
        the inner engine until either side is updated."""
        return self._engine.witness(
            self._resolve(left).bag(), self._resolve(right).bag()
        )

    def _pair_checker(self, handles, bags):
        """A Lemma 2(2) checker answering from the maintained O(1)
        checkers for ``bags``, the snapshots of ``handles``; any other
        pair goes through the inner engine's cached test."""
        by_id = {id(bag): handle for bag, handle in zip(bags, handles)}

        def pair_checker(left: Bag, right: Bag) -> bool:
            left_handle = by_id.get(id(left))
            right_handle = by_id.get(id(right))
            if left_handle is not None and right_handle is not None:
                return self.are_consistent(left_handle, right_handle)
            return self._engine._internal_pair_checker(left, right)

        return pair_checker

    def global_check(self, handles=None, method: str = "auto"):
        """The GCPB decision + witness over the current snapshots.

        Whenever the handles' schema hypergraph is acyclic (and
        ``method`` is ``"auto"`` or ``"acyclic"``), the Theorem 6
        witness is maintained per handle set: after updates a single
        delta repair patches it, and the maintained result is pushed
        into a shared verdict store so engines sharing it hit without
        folding.  Cyclic schemas and ``method="search"`` take
        the memoized cold path; there the pairwise phase is still
        served from the maintained O(1) checkers, and the cached
        per-handle-set acyclicity is forwarded so a post-update miss
        re-pays only witness construction — neither the pairwise scan
        nor the GYO reduction.
        """
        resolved = (
            self._handles
            if handles is None
            else [self._resolve(handle) for handle in handles]
        )
        acyclic = self.schema_acyclic(resolved) if resolved else False
        if acyclic and method in ("auto", "acyclic"):
            return self._live_global_check(resolved, method)
        bags = [handle.bag() for handle in resolved]
        return self._engine.global_check(
            bags,
            method=method,
            _pair_checker=self._pair_checker(resolved, bags),
            _acyclic_hint=acyclic if resolved else None,
        )

    def _live_global_check(self, resolved, method: str):
        """Serve a global check from the handle set's maintained witness.

        The held snapshots are diffed against the current ones and
        :func:`~repro.engine.live_global.repair_fold_witness` patches
        the held witness over all the bags at once.  The set re-folds
        cold (``acyclic_global_witness``) on its first check, when the
        repair gives up, or when the patched witness exceeds Theorem 6's
        support bound.  Counts as an external global query on the
        engine stats (unchanged snapshots are a hit); over a shared
        verdict store, successful results land under the same key the
        cold path uses, so value-equal collections served elsewhere
        reuse the maintained witness.
        """
        stats = self._engine.stats
        with self._engine._lock:
            stats.global_queries += 1
        if not self.pairwise_consistent(resolved):
            return GlobalConsistencyResult(False, None, "pairwise")
        key = frozenset(self._slots[handle] for handle in resolved)
        # Pairwise consistency forces equal-schema bags to be equal, so
        # the lowest slot's snapshot stands for its schema (the cold
        # fold dedupes the same way).
        representatives: dict[Schema, LiveBag] = {}
        for slot in sorted(key):
            handle = self._handles[slot]
            representatives.setdefault(handle.schema, handle)
        handles = list(representatives.values())
        bags = [handle.bag() for handle in handles]
        held = self._live_globals.pop(key, None)
        result = None
        if held is not None:
            old_bags, result = held
            deltas = [
                {} if new is old else _diff_mults(new._mults, old._mults)
                for new, old in zip(bags, old_bags)
            ]
            if not any(deltas):
                with self._engine._lock:
                    stats.global_hits += 1
            else:
                result = self._repaired(result.witness, bags, deltas)
        if result is None:
            witness = acyclic_global_witness(
                bags, pair_checker=self._pair_checker(handles, bags)
            )
            result = GlobalConsistencyResult(True, witness, "live")
            self._live_global_counts["refolds"] += 1
        self._live_globals[key] = (bags, result)
        while len(self._live_globals) > MAX_WITNESS_SETS:
            self._live_globals.popitem(last=False)
        if self._shared_store:
            store = self._engine.store
            fps = fingerprint.of_collection(
                [handle.bag() for handle in resolved]
            )
            store_key = global_key(fps, method)
            if not store.contains(store_key):
                store.put(store_key, result, fps)
        return result

    def _repaired(self, witness: Bag, bags: list[Bag], deltas: list[dict]):
        """The witness patched to the new ``bags``, or None when the
        repair gives up or its support breaks Theorem 6's bound (the
        delta invalidated minimality), so the caller re-folds cold."""
        patched = repair_fold_witness(
            witness._mults,
            witness.schema.attrs,
            [(bag.schema.attrs, delta) for bag, delta in zip(bags, deltas)],
        )
        if patched is None or len(patched[0]) > sum(
            bag.support_size for bag in bags
        ):
            return None
        self._live_global_counts["repairs"] += 1
        return GlobalConsistencyResult(
            True, Bag._from_clean(witness.schema, patched[0]), "live"
        )

    def live_global_stats(self) -> dict:
        """How this session's maintained global checks were served: by
        a delta repair (``repairs``) or by a cold fold (``refolds``)."""
        return dict(self._live_global_counts)
