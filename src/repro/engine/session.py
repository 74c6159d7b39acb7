"""The :class:`Engine` facade over a content-addressed verdict store.

A production deployment answers many queries against a slowly-changing
population of bags: the same ledger pair is checked after every sync,
the same collection is audited under several methods, a dashboard asks
for witnesses the moment a check passes.  The seed recomputed each
query from scratch; PR 1 memoized per *bag identity*; since the
content-addressing refactor the engine memoizes per *bag value*:

* marginals and join buckets live on the bags themselves (see
  :mod:`repro.engine.index`), shared across value-equal bags through
  the fingerprint registry, so the engine stores none of them;
* pair verdicts (Lemma 2(2)), pair witnesses (Corollary 1) and
  collection-level global checks live in a :class:`VerdictStore`,
  keyed on the **content fingerprints** of the participating bags
  (:mod:`repro.engine.fingerprint`), so two separately-constructed but
  value-equal bags share one entry — across calls, across engines
  handed the same store, and across ``repro serve`` connections.

The store is **bounded**: ``Engine(capacity=N)`` keeps at most N
results, evicting in LRU order; the default ``capacity=None`` is
unbounded.  Pass ``store=`` to share one :class:`VerdictStore` between
several engines — each engine keeps its own :class:`EngineStats`, so
hit rates still describe each served workload.

Every write keys on fingerprints derived from the bags' content
(:func:`repro.engine.fingerprint.of_bag`); a fingerprint a peer claims
in a v2 frame keys reads only, so a forged claim misleads only its
sender.  :meth:`invalidate` drops every cached result touching one
bag's content — the primitive behind
:class:`repro.engine.live.LiveEngine`.

Batched entry points (:meth:`are_consistent_many`,
:meth:`witness_many`, :meth:`global_check_many`) are the unit of the
high-throughput workloads in :mod:`repro.workloads.suites`, the
``repro batch`` / ``repro serve`` surfaces, and the benchmarks.  Each
accepts ``parallelism=N`` (:mod:`repro.engine.executors`), but only
the exponential work moves: pair checks, witnesses and Theorem 6
folds always run as a plain loop in the calling thread, and at N > 1
:meth:`global_check_many` ships its Theorem 4 search misses to an
N-worker process pool whose verdict deltas merge back into the shared
store — what scales the CPU-bound cyclic checks past the GIL.

The memoization contract: plain :class:`repro.core.bags.Bag` objects
are immutable and entries are pure functions of their fingerprints, so
a cached answer is dropped only for memory (eviction, :meth:`clear`,
:meth:`invalidate`) — it can never go stale.  That is also why the
store can outlive the process: ``store=`` accepts a
:class:`repro.store.PersistentVerdictStore`, which spills verdicts,
witnesses, and global results to sharded segment logs and answers
repeat traffic from disk after a restart (:meth:`flush` exposes its
write-behind flush through the engine).
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..analysis.registry import requires_lock, shared_state
from ..core.bags import Bag
from ..errors import InconsistentError
from ..lp.integer_feasibility import DEFAULT_NODE_BUDGET
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import fingerprint

__all__ = ["Engine", "EngineStats", "VerdictStore"]

_MISS = object()

# Suite specs an engine keeps built (LRU): a handful of audits replayed
# round after round fit many times over.
BUILT_CAPACITY = 64

# Compute-latency histograms, recorded only on *miss* branches: the
# warm (all-hit) serve path pays zero telemetry here, which is how the
# bench_serve overhead gate stays within budget.  Cached handles so
# the hot path never touches the registry lock.
_COMPUTE_HISTOGRAMS = {
    op: obs_metrics.REGISTRY.histogram(
        "repro_engine_compute_seconds", {"op": op}
    )
    for op in ("consistent", "witness", "global")
}


def consistent_key(lfp: int, rfp: int) -> tuple:
    """The store key of a pair verdict.  Consistency is symmetric, so
    the key is unordered and both orientations share one entry."""
    return ("consistent", lfp, rfp) if lfp <= rfp else ("consistent", rfp, lfp)


def witness_key(lfp: int, rfp: int) -> tuple:
    """The store key of a pair witness, per ordered content pair.  The
    trailing True keeps the key of stores written when the engine also
    built non-minimal witnesses (stored under False, never read back),
    so those stores keep hitting."""
    return ("witness", lfp, rfp, True)


def global_key(fps: tuple[int, ...], method: str) -> tuple:
    """The store key of a global check: the collection's fingerprints
    in order, and the method asked for."""
    return ("global", fps, method)


def _observe_compute(op: str, start: float) -> None:
    """Record one miss-branch compute into the per-op histogram and,
    when a request trace is in flight, attach the matching span."""
    elapsed = time.perf_counter() - start
    _COMPUTE_HISTOGRAMS[op].record(elapsed)
    tr = obs_trace.current()
    if tr is not None:
        tr.add_span("engine." + op, start, elapsed)


@dataclass
class EngineStats:
    """Query/hit counters per cached operation (diagnostics and tests).

    External queries (what the caller asked) are counted separately
    from internal probes (pairwise checks issued by :meth:`Engine.witness`
    and the pairwise phase of :meth:`Engine.global_check`), so hit-rate
    reports reflect the served workload, not the engine's own plumbing.
    """

    consistency_queries: int = 0
    consistency_hits: int = 0
    internal_consistency_queries: int = 0
    internal_consistency_hits: int = 0
    witness_queries: int = 0
    witness_hits: int = 0
    global_queries: int = 0
    global_hits: int = 0
    evictions: int = 0
    invalidations: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter, in field order."""
        return dict(vars(self))


@shared_state(
    "_lock",
    "_cache", "_participants", "_fp_keys",
    "hits", "misses", "evictions", "invalidations", "merged",
    tier="engine",
)
class VerdictStore:
    """A bounded, content-addressed result store.

    Keys are tuples of an operation tag plus the participating bags'
    content fingerprints; values are whatever the engine cached (bool
    verdicts, witness bags, ``None`` refusals, global results).  The
    store is lock-protected and deliberately engine-agnostic, so one
    store can back many :class:`Engine` instances (``repro serve``
    backs every connection with one) and absorb merged deltas from
    worker processes.

    Bookkeeping: every key records its participant fingerprints and a
    reverse index maps each fingerprint to the keys touching it, making
    per-content invalidation O(entries touched), not O(store).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._cache: OrderedDict[tuple, object] = OrderedDict()
        self._participants: dict[tuple, tuple[int, ...]] = {}
        # fp -> its one key, bare, or a set once it has a second: most
        # fingerprints touch a single key, and a one-element set costs
        # ~200 bytes per entry
        self._fp_keys: dict[int, tuple | set[tuple]] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self.merged = 0

    # -- primitive operations -------------------------------------------

    def get(self, key: tuple):
        """The cached value (refreshing recency) or the ``_MISS``
        sentinel exposed as ``VerdictStore.MISS``."""
        with self._lock:
            value = self._cache.get(key, _MISS)
            if value is _MISS:
                self.misses += 1
            else:
                self.hits += 1
                self._cache.move_to_end(key)
            return value

    MISS = _MISS

    def contains(self, key: tuple) -> bool:
        """Presence test without touching recency or hit counters (the
        process executor's pre-filter)."""
        with self._lock:
            return key in self._cache

    def put(self, key: tuple, value, fps: Sequence[int]) -> int:
        """Insert one result; returns the number of entries evicted to
        respect ``capacity``."""
        with self._lock:
            if key in self._cache:
                # A concurrent worker resolved the same miss first; keep
                # one entry (results are deterministic functions of the
                # fingerprints) and refresh its recency.
                self._cache[key] = value
                self._cache.move_to_end(key)
                return 0
            for fp in fps:
                held = self._fp_keys.get(fp)
                if held is None:
                    self._fp_keys[fp] = key
                elif isinstance(held, set):
                    held.add(key)
                elif held != key:
                    self._fp_keys[fp] = {held, key}
            self._cache[key] = value
            self._participants[key] = tuple(fps)
            return self._evict()

    @requires_lock("_lock")
    def _remove_key(self, key: tuple) -> None:
        self._cache.pop(key, None)
        for fp in self._participants.pop(key, ()):
            held = self._fp_keys.get(fp)
            if isinstance(held, set):
                held.discard(key)
                if not held:
                    del self._fp_keys[fp]
            elif held == key:
                del self._fp_keys[fp]

    @requires_lock("_lock")
    def _evict(self) -> int:
        """Pop the LRU head until the store is within capacity."""
        if self.capacity is None:
            return 0
        evicted = 0
        while len(self._cache) > self.capacity:
            self._remove_key(next(iter(self._cache)))
            evicted += 1
        self.evictions += evicted
        return evicted

    def invalidate_fp(self, fp: int) -> int:
        """Drop every entry whose participants include ``fp``; returns
        the number dropped."""
        with self._lock:
            held = self._fp_keys.get(fp)
            if held is None:
                keys = []
            else:
                keys = list(held) if isinstance(held, set) else [held]
            for key in keys:
                self._remove_key(key)
            self.invalidations += len(keys)
            return len(keys)

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self._participants.clear()
            self._fp_keys.clear()

    def __len__(self) -> int:
        return len(self._cache)

    # -- bulk transfer (the process executor's merge path) ---------------

    def export(self) -> list[tuple[tuple, object, tuple[int, ...]]]:
        """Every entry as ``(key, value, participant_fps)`` — what a
        worker process ships back to the parent."""
        with self._lock:
            return [
                (key, value, self._participants[key])
                for key, value in self._cache.items()
            ]

    def merge(
        self, entries: Iterable[tuple[tuple, object, tuple[int, ...]]]
    ) -> int:
        """Absorb exported entries (idempotent — fingerprint keys are
        process-independent); returns the number merged."""
        count = 0
        for key, value, fps in entries:
            self.put(key, value, fps)
            count += 1
        with self._lock:
            self.merged += count
        return count

    def stats_dict(self) -> dict:
        with self._lock:
            lookups = self.hits + self.misses
            return {
                "entries": len(self._cache),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "hit_rate": (self.hits / lookups) if lookups else 0.0,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "merged": self.merged,
            }


@shared_state("_lock", "stats", "_built", tier="engine")
class Engine:
    """A session facade over a content-addressed :class:`VerdictStore`.

    ``node_budget`` bounds the exact integer search used by cyclic
    global checks (forwarded to the Theorem 4 dispatch).  ``capacity``
    bounds the number of stored results (LRU eviction; ``None`` means
    unbounded).  ``store`` shares an existing :class:`VerdictStore`
    between engines (``capacity`` must then be left unset — the store
    already owns the bound).

    Every query runs in the calling thread, except the Theorem 4
    search misses of a :meth:`global_check_many` batch at
    ``parallelism`` above 1, which run on the process pool
    (:mod:`repro.engine.executors`).
    """

    def __init__(
        self,
        node_budget: int | None = DEFAULT_NODE_BUDGET,
        capacity: int | None = None,
        store: VerdictStore | None = None,
    ) -> None:
        if store is not None and capacity is not None:
            raise ValueError(
                "pass capacity= either to the Engine or to the shared "
                "VerdictStore, not both"
            )
        self.node_budget = node_budget
        self.store = store if store is not None else VerdictStore(capacity)
        self.stats = EngineStats()
        self._lock = threading.RLock()
        self._built: OrderedDict[tuple, tuple[Bag, ...]] = OrderedDict()

    @property
    def capacity(self) -> int | None:
        return self.store.capacity

    # -- lifecycle -------------------------------------------------------

    def invalidate(self, bag: Bag) -> int:
        """Drop every stored result touching ``bag``'s content — pair
        verdicts, witnesses, and global results it participates in.
        Returns the number of entries dropped.  This is the
        :class:`LiveEngine` update primitive; for immutable bags it is
        only ever a memory lever (content-addressed entries cannot go
        stale)."""
        dropped = self.store.invalidate_fp(fingerprint.of_bag(bag))
        with self._lock:
            self.stats.invalidations += dropped
        return dropped

    def clear(self) -> None:
        """Drop every stored result and reset the counters.
        With a shared store this clears it for every engine using it."""
        self.store.clear()
        with self._lock:
            self.stats = EngineStats()
            self._built.clear()

    def flush(self) -> int:
        """Flush a persistent backing store's write-behind buffers to
        disk (:class:`repro.store.PersistentVerdictStore`); a no-op 0
        for the in-memory store.  Returns the operations written."""
        flush = getattr(self.store, "flush", None)
        return flush() if flush is not None else 0

    def __len__(self) -> int:
        """Number of stored results (shared-store entries included)."""
        return len(self.store)

    # -- cache plumbing --------------------------------------------------

    def _get(self, key: tuple):
        return self.store.get(key)

    def _put(self, key: tuple, value, fps: Sequence[int]) -> None:
        """Store one result.  Callers key it on :func:`fingerprint.of_bag`
        — a peer's claimed ``fp`` keys reads only — so a forged claim
        cannot file an answer under another content's key."""
        evicted = self.store.put(key, value, fps)
        if evicted:
            with self._lock:
                self.stats.evictions += evicted

    def instance(
        self, spec: tuple, build: Callable[[], Sequence[Bag]]
    ) -> tuple[Bag, ...]:
        """The collection a suite spec names (``(name, size, seed)``,
        :func:`repro.workloads.suites.run_suites`), calling ``build()``
        only when the spec is not among the ``BUILT_CAPACITY`` most
        recent.  A spec names one deterministic instance, so the memo
        never goes stale, and a replayed spec reuses bags whose
        fingerprints are already computed: its verdict costs a store
        lookup, not a rebuild.  :meth:`clear` drops the memo too."""
        with self._lock:
            bags = self._built.get(spec)
            if bags is not None:
                self._built.move_to_end(spec)
                return bags
        bags = tuple(build())
        with self._lock:
            self._built[spec] = bags
            if len(self._built) > BUILT_CAPACITY:
                self._built.popitem(last=False)
        return bags

    # -- single-query API ------------------------------------------------

    def _consistent(self, left: Bag, right: Bag, internal: bool) -> bool:
        """Lemma 2(2), memoized under :func:`consistent_key`."""
        stats = self.stats
        with self._lock:
            if internal:
                stats.internal_consistency_queries += 1
            else:
                stats.consistency_queries += 1
        # an internal probe serves a computation about to be stored, so
        # it reads under derived keys too
        key_of = fingerprint.of_bag if internal else fingerprint.read_key
        value = self._get(consistent_key(key_of(left), key_of(right)))
        if value is _MISS:
            from ..consistency.pairwise import are_consistent

            start = time.perf_counter()
            value = are_consistent(left, right)
            _observe_compute("consistent", start)
            a, b = fingerprint.of_bag(left), fingerprint.of_bag(right)
            self._put(consistent_key(a, b), value, (a, b))
        else:
            with self._lock:
                if internal:
                    stats.internal_consistency_hits += 1
                else:
                    stats.consistency_hits += 1
        return value

    def are_consistent(self, left: Bag, right: Bag) -> bool:
        """Lemma 2(2), memoized (the external entry point; internal
        probes from :meth:`witness` / :meth:`global_check` share the
        store but are counted separately)."""
        return self._consistent(left, right, internal=False)

    def _internal_pair_checker(self, left: Bag, right: Bag) -> bool:
        return self._consistent(left, right, internal=True)

    def witness(self, left: Bag, right: Bag) -> Bag:
        """A Corollary 1 witness (northwest-corner, so inclusion-minimal
        by construction), memoized per ordered content pair; raises
        :class:`InconsistentError` exactly when the uncached pipeline
        would (the refusal is cached too)."""
        with self._lock:
            self.stats.witness_queries += 1
        key = witness_key(
            fingerprint.read_key(left), fingerprint.read_key(right)
        )
        cached = self._get(key)
        if cached is not _MISS:
            with self._lock:
                self.stats.witness_hits += 1
        else:
            from ..consistency.pairwise import consistency_witness

            start = time.perf_counter()
            if not self._consistent(left, right, internal=True):
                cached = None
            else:
                cached = consistency_witness(left, right)
            _observe_compute("witness", start)
            lfp, rfp = fingerprint.of_bag(left), fingerprint.of_bag(right)
            self._put(witness_key(lfp, rfp), cached, (lfp, rfp))
        if cached is None:
            raise InconsistentError(
                "bags are not consistent (no saturated flow in N(R, S))"
            )
        return cached

    def global_check(
        self,
        bags: Sequence[Bag],
        method: str = "auto",
        *,
        _pair_checker: Callable[[Bag, Bag], bool] | None = None,
        _acyclic_hint: bool | None = None,
    ):
        """The GCPB decision + witness for one collection, memoized on
        the tuple of bag fingerprints; the pairwise phase routes through
        the engine's cached consistency test (counted as internal
        probes), so shared pairs across collections are checked once per
        store.

        ``_pair_checker`` overrides that routing and is deliberately
        private: it is NOT part of the cache key, so a caller must only
        pass a checker that agrees with the exact Lemma 2(2) test on
        these exact bag contents (the :class:`LiveEngine` passes its
        incrementally-maintained verdicts, which do).  ``_acyclic_hint``
        forwards a caller's already-validated schema acyclicity (the
        live engine caches it per handle set) so a miss does not re-run
        the GYO reduction; like the pair checker it must agree with the
        exact test on these bags' schemas."""
        with self._lock:
            self.stats.global_queries += 1
        bags = list(bags)
        cached = self._get(
            global_key(tuple(map(fingerprint.read_key, bags)), method)
        )
        if cached is _MISS:
            from ..consistency.global_ import global_witness

            start = time.perf_counter()
            cached = global_witness(
                bags,
                method=method,  # type: ignore[arg-type]
                node_budget=self.node_budget,
                pair_checker=_pair_checker or self._internal_pair_checker,
                acyclic=_acyclic_hint,
            )
            _observe_compute("global", start)
            fps = fingerprint.of_collection(bags)
            self._put(global_key(fps, method), cached, fps)
        else:
            with self._lock:
                self.stats.global_hits += 1
        return cached

    # -- batched API -----------------------------------------------------

    def are_consistent_many(
        self,
        pairs: Iterable[tuple[Bag, Bag]],
        parallelism: int | None = None,
    ) -> list[bool]:
        """Lemma 2(2) over a batch of pairs; one verdict per pair.
        Runs in the calling thread whatever ``parallelism`` says (it is
        still validated): a pair check costs less than shipping it."""
        from .executors import run_batch

        return run_batch(self, "consistent", list(pairs), parallelism)

    def witness_many(
        self,
        pairs: Iterable[tuple[Bag, Bag]],
        parallelism: int | None = None,
    ) -> list[Bag | None]:
        """Witnesses for a batch of pairs: a witness bag per consistent
        pair, ``None`` per inconsistent one (a batch must not abort on
        the first inconsistent entry).  Runs in the calling thread
        whatever ``parallelism`` says, like :meth:`are_consistent_many`."""
        from .executors import run_batch

        return run_batch(self, "witness", list(pairs), parallelism)

    def global_check_many(
        self,
        collections: Iterable[Sequence[Bag]],
        method: str = "auto",
        parallelism: int | None = None,
    ) -> list:
        """GCPB over a batch of collections, sharing the pairwise store
        (ledger audits re-use the same reference bags across many
        collections).  ``parallelism > 1`` is the CPU-bound scaling
        path for the exponential part only: misses that take the
        Theorem 4 search (``method="search"``, or ``"auto"`` over a
        cyclic schema) fan out over worker processes and their verdict
        deltas merge back; the local replay then answers those from the
        store and folds the acyclic misses (Theorem 6) in this
        thread."""
        from .executors import run_batch

        collections = [list(collection) for collection in collections]
        return run_batch(self, "global", collections, parallelism, method)
