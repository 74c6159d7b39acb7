"""Live engine sessions: mutable bags with incremental invalidation.

The PR-1 :class:`~repro.engine.session.Engine` assumes immutable bags,
so a streamed update forces a cold recompute of everything the bag
touched.  The paper says better is possible: Lemma 2(2) reduces
two-bag consistency to *marginal equality on the common attributes*,
which an :class:`~repro.consistency.incremental.IncrementalPairChecker`
maintains in O(1) per tuple update, and Theorem 2 upgrades those
pairwise answers to global consistency whenever the schema hypergraph
is acyclic.  A :class:`LiveEngine` wires both into the engine cache:

* each tracked bag is a mutable :class:`LiveBag` handle;
* ``update(handle, row, amount)`` bumps the O(1) pair checkers touching
  the handle and invalidates exactly the inner-engine entries (pair
  verdicts, witnesses, joins, marginals, global results) in which the
  handle's current snapshot participates — untouched pairs keep their
  memoized answers;
* heavyweight queries (witnesses, joins, global checks) run against an
  immutable *snapshot* of the handle, reused until the next update, so
  the inner engine's content-keyed memoization applies unchanged
  between updates — and because each handle maintains its fingerprint
  incrementally, snapshots are born pre-fingerprinted and invalidation
  never rescans a bag;
* over an acyclic schema of :data:`FOLD_TREE_MIN_ROWS` rows or more,
  :meth:`LiveEngine.global_check` maintains the Theorem 6 *witness* in
  a persistent fold tree (:mod:`repro.engine.live_global`) instead of
  re-folding it after every update, and pushes each maintained result
  into the engine's verdict store so serve/batch clients sharing the
  store get it for free.

The consistency-checking-as-serving loop this enables —
``update(...); globally_consistent()`` — is the streaming workload of
``benchmarks/bench_live.py``; the witness-maintaining variant is gated
by ``benchmarks/bench_live_global.py``.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import combinations
from typing import Iterable, Mapping

from ..consistency.global_ import GlobalConsistencyResult
from ..consistency.incremental import IncrementalPairChecker, validate_update
from ..core.bags import Bag
from ..core.schema import Schema
from ..lp.integer_feasibility import DEFAULT_NODE_BUDGET
from . import columnar, fingerprint
from .columnar import ColumnarDelta
from .index import BagIndex
from .live_global import LiveGlobalWitness
from .session import Engine, EngineStats, VerdictStore

__all__ = ["FOLD_TREE_MIN_ROWS", "LiveBag", "LiveEngine"]

# Support rows in a handle set from which global_check keeps a fold
# tree by default: below it the tree's repair bookkeeping costs more
# than the linear re-fold it saves (measured crossover and the bench
# streams on each side: docs/ARCHITECTURE.md, "Live global witnesses").
FOLD_TREE_MIN_ROWS = 48


class LiveBag:
    """A mutable bag handle owned by one :class:`LiveEngine`.

    Holds the current multiplicities and a lazily-built immutable
    snapshot :class:`Bag`.  The snapshot object is reused until the next
    update, so the content-keyed store sees an unchanged fingerprint
    exactly while the handle is untouched.  The handle also maintains
    its **content fingerprint incrementally**: every update shifts the
    commutative row-term sum by a two-term delta
    (:func:`repro.engine.fingerprint.shift_content`), so snapshots are
    born with a seeded fingerprint and invalidation never rescans the
    bag.  All mutation goes through :meth:`LiveEngine.update` (which
    also maintains the pair checkers and the store); the handle itself
    is read-only.

    The handle also maintains a **columnar delta**
    (:class:`~repro.engine.columnar.ColumnarDelta`): row updates adjust
    the encoded mult vector in place (inserts stage and append in
    batch, deletes-to-zero mask out with periodic compaction), so each
    snapshot is born with a ready columnar encoding instead of paying a
    fresh dictionary-encoding pass per update.
    """

    __slots__ = (
        "schema", "name", "_mults", "_snapshot", "_content", "_columnar"
    )

    def __init__(
        self, schema: Schema, mults: Mapping[tuple, int], name: str
    ) -> None:
        self.schema = schema
        self.name = name
        self._mults: dict[tuple, int] = dict(mults)
        self._snapshot: Bag | None = None
        self._content = fingerprint.content_sum(self._mults.items())
        self._columnar = ColumnarDelta(schema.attrs, self._mults)

    def fingerprint(self) -> int:
        """The current content fingerprint, from the incrementally
        maintained parts — O(1) regardless of bag size."""
        return fingerprint.bag_fingerprint(
            fingerprint.of_schema(self.schema),
            self._content,
            len(self._mults),
        )

    def bag(self) -> Bag:
        """The current contents as an immutable snapshot (fingerprint
        pre-seeded from the maintained sum, so engine queries on the
        snapshot never pay a content scan)."""
        if self._snapshot is None:
            # _mults holds only validated rows with positive counts, so
            # the validation-free constructor applies.
            snapshot = Bag._from_clean(self.schema, dict(self._mults))
            self._snapshot = fingerprint.seed(snapshot, self.fingerprint())
            encoded = self._columnar.snapshot()
            # hand the maintained encoding to the snapshot's index
            # (possibly adopted via the registry — then it either
            # has one already or decides eligibility on its own)
            columnar.adopt_encoding(BagIndex.of(self._snapshot), encoded)
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

    ``capacity`` and ``node_budget`` are forwarded to the inner engine;
    queries between handles are answered from incrementally-maintained
    pair checkers (created on the first query of each pair, O(1)
    afterwards), everything else from the inner engine's snapshot-keyed
    cache.
    """

    def __init__(
        self,
        bags: Iterable[Bag] = (),
        node_budget: int | None = DEFAULT_NODE_BUDGET,
        capacity: int | None = None,
        store: VerdictStore | None = None,
        max_fold_trees: int = 8,
    ) -> None:
        if max_fold_trees < 1:
            raise ValueError(
                f"max_fold_trees must be positive, got {max_fold_trees}"
            )
        self._engine = Engine(
            node_budget=node_budget, capacity=capacity, store=store
        )
        # Content-addressed entries never go stale, so invalidating on
        # update is purely a memory lever.  Over a private store we keep
        # it (a streaming session would otherwise accumulate an entry
        # per historical content); over a *shared* store we must not —
        # the entries this handle leaves behind may be serving other
        # engines, and the shared store's own capacity bounds memory.
        self._invalidate_on_update = store is None
        self._handles: list[LiveBag] = []
        self._slots: dict[LiveBag, int] = {}
        # (slot i, slot j) with i < j -> the maintained checker; lazy,
        # so an m-bag session only pays for the pairs actually queried.
        self._checkers: dict[tuple[int, int], IncrementalPairChecker] = {}
        # slot -> [(checker, is_left_side)]: the checkers an update to
        # that slot must bump, so the hot path touches O(m) checkers,
        # not all m(m-1)/2.
        self._by_slot: dict[
            int, list[tuple[IncrementalPairChecker, bool]]
        ] = {}
        # handle-set fingerprint (frozenset of schema fps) -> acyclic?
        # Row updates never alter schemas, so entries only need to be
        # dropped when membership changes (add_bag) — the PR-5 bugfix
        # for global_check re-running GYO on every post-update call.
        self._acyclic_sets: dict[frozenset[int], bool] = {}
        # slot set -> the maintained Theorem 6 fold tree for those
        # handles (created on the first global check served live).
        # LRU-bounded at max_fold_trees: trees pin bag snapshots and
        # per-node witness histories, and every update notifies every
        # retained tree, so a session sweeping many distinct subsets
        # must not accumulate one forever (an evicted set just pays
        # one fresh fold on its next live check).
        self.max_fold_trees = max_fold_trees
        self._live_globals: "OrderedDict[frozenset[int], LiveGlobalWitness]"
        self._live_globals = OrderedDict()
        self.updates = 0
        for bag in bags:
            self.add_bag(bag)

    # -- session surface -------------------------------------------------

    @property
    def engine(self) -> Engine:
        """The inner snapshot cache (stats, pinning, eviction knobs)."""
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
        # The given bag IS the initial snapshot; its fingerprint is the
        # handle's maintained one, so seed it rather than rescanning.
        handle._snapshot = fingerprint.seed(bag, handle.fingerprint())
        self._slots[handle] = len(self._handles)
        self._handles.append(handle)
        self._acyclic_sets.clear()  # membership changed, row updates don't
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

        O(1) per maintained pair checker touching the handle, plus one
        cache invalidation sweep over the entries the handle's snapshot
        participates in.  Entries touching only other handles survive.
        """
        handle = self._resolve(handle)
        row, new = validate_update(handle.schema, handle._mults, row, amount)
        if amount == 0:
            return
        slot = self._slots[handle]
        for checker, is_left in self._by_slot.get(slot, ()):
            if is_left:
                checker.update_left(row, amount)
            else:
                checker.update_right(row, amount)
        handle._content = fingerprint.shift_content(
            handle._content, row, new - amount, new
        )
        handle._columnar.update(row, new)
        if new == 0:
            handle._mults.pop(row, None)
        else:
            handle._mults[row] = new
        old = handle._snapshot
        if old is not None:
            if self._invalidate_on_update:
                self._engine.invalidate(old)
            handle._snapshot = None
        for live_global in self._live_globals.values():
            live_global.notify(slot)  # O(1) dirty mark, work deferred
        self.updates += 1

    # -- queries ---------------------------------------------------------

    def _checker(self, a: int, b: int) -> IncrementalPairChecker:
        key = (a, b) if a < b else (b, a)
        checker = self._checkers.get(key)
        if checker is None:
            i, j = key
            # Delta-only mode: the handles hold the authoritative
            # multiplicities and update() pre-validates every row, so
            # the checker need not duplicate either bag.
            checker = IncrementalPairChecker(
                self._handles[i].bag(),
                self._handles[j].bag(),
                track_bags=False,
            )
            self._checkers[key] = checker
            self._by_slot.setdefault(i, []).append((checker, True))
            self._by_slot.setdefault(j, []).append((checker, False))
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
            slots = range(len(self._handles))
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
        resolved = (
            self._handles
            if handles is None
            else [self._resolve(handle) for handle in handles]
        )
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
        return self._engine.marginal(self._resolve(handle).bag(), target)

    def join(self, left, right) -> Bag:
        return self._engine.join(
            self._resolve(left).bag(), self._resolve(right).bag()
        )

    def witness(self, left, right, minimal: bool = False) -> Bag:
        """A pairwise witness against the current snapshots, memoized in
        the inner engine until either side is updated."""
        return self._engine.witness(
            self._resolve(left).bag(),
            self._resolve(right).bag(),
            minimal=minimal,
        )

    def global_check(self, handles=None, method: str = "auto",
                     mode: str | None = None):
        """The GCPB decision + witness over the current snapshots.

        ``mode="live"`` maintains the Theorem 6 witness incrementally
        whenever the handles' schema hypergraph is acyclic: a fold tree
        (:class:`~repro.engine.live_global.LiveGlobalWitness`) repairs
        only the nodes on the updated bags' leaf-to-root paths, and the
        maintained result is pushed into the engine's verdict store so
        engines sharing it hit without folding.  The default picks it
        from :data:`FOLD_TREE_MIN_ROWS` rows on.  Cyclic schemas,
        ``method="search"``, and ``mode="cold"`` take the memoized cold
        path; there the pairwise phase is still served from the
        maintained O(1) checkers, and the cached per-handle-set
        acyclicity is forwarded so a post-update miss re-pays only
        witness construction — neither the pairwise scan nor the GYO
        reduction.
        """
        if mode not in (None, "live", "cold"):
            raise ValueError(f"unknown mode {mode!r}; use 'live' or 'cold'")
        resolved = (
            self._handles
            if handles is None
            else [self._resolve(handle) for handle in handles]
        )
        if mode is None:
            rows = sum(handle.support_size for handle in resolved)
            mode = "live" if rows >= FOLD_TREE_MIN_ROWS else "cold"
        acyclic = self.schema_acyclic(resolved) if resolved else False
        if (
            mode == "live"
            and method in ("auto", "acyclic")
            and resolved
            and acyclic
        ):
            return self._live_global_check(resolved, method)
        bags = [handle.bag() for handle in resolved]
        by_id = {id(bag): handle for bag, handle in zip(bags, resolved)}

        def pair_checker(left: Bag, right: Bag) -> bool:
            left_handle = by_id.get(id(left))
            right_handle = by_id.get(id(right))
            if left_handle is not None and right_handle is not None:
                return self.are_consistent(left_handle, right_handle)
            return self._engine._internal_pair_checker(left, right)

        return self._engine.global_check(
            bags,
            method=method,
            _pair_checker=pair_checker,
            _acyclic_hint=acyclic if resolved else None,
        )

    def _live_global_check(self, resolved, method: str):
        """Serve a global check from the maintained fold tree.

        Counts as an external global query on the engine stats (a clean
        tree is a hit); successful results land in the shared verdict
        store under the same key the cold path uses, so value-equal
        collections served elsewhere reuse the maintained witness.
        """
        stats = self._engine.stats
        with self._engine._lock:
            stats.global_queries += 1
        if not self.pairwise_consistent(resolved):
            return GlobalConsistencyResult(False, None, "pairwise")
        key = frozenset(self._slots[handle] for handle in resolved)
        live_global = self._live_globals.get(key)
        if live_global is None:
            live_global = LiveGlobalWitness(self, resolved)
            self._live_globals[key] = live_global
            while len(self._live_globals) > self.max_fold_trees:
                self._live_globals.popitem(last=False)
        else:
            self._live_globals.move_to_end(key)
        clean = not live_global._dirty and live_global._result is not None
        result = live_global.refresh()
        if clean:
            with self._engine._lock:
                stats.global_hits += 1
        store = self._engine.store
        fps = fingerprint.of_collection(
            [handle.bag() for handle in resolved]
        )
        store_key = ("global", fps, method)
        if not store.contains(store_key):
            store.put(store_key, result, fps)
        return result

    def live_global_stats(self) -> dict:
        """Fold-tree maintenance counters aggregated over every handle
        set maintained so far (repairs vs recomputes vs restores)."""
        totals: dict[str, int] = {}
        for live_global in self._live_globals.values():
            for name, value in live_global.stats.as_dict().items():
                totals[name] = totals.get(name, 0) + value
        return totals
