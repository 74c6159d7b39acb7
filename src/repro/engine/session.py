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
is a plain loop in the calling thread.  Only the exponential work
moves: at ``parallelism=N`` above 1, :meth:`global_check_many` first
ships its Theorem 4 search misses to an N-worker process pool
(:mod:`repro.engine.executors`) whose verdict deltas merge back into
the shared store — what scales the CPU-bound cyclic checks past the
GIL — and its loop then reads them back as hits.

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
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import fingerprint

__all__ = ["Engine", "EngineStats", "VerdictStore", "participants"]

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


def participants(key: tuple) -> tuple[int, ...]:
    """The content fingerprints a stored result depends on, read off
    its key: the collection's for a global key, the pair's for a
    verdict or a witness key."""
    return key[1] if key[0] == "global" else key[1:3]


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

    @property
    def hits(self) -> int:
        """Every query the store answered, internal probes included."""
        return (
            self.consistency_hits + self.internal_consistency_hits
            + self.witness_hits + self.global_hits
        )


@shared_state(
    "_lock",
    "_cache", "_fp_keys",
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

    Bookkeeping: a reverse index maps each participant fingerprint
    (:func:`participants`, read off the key) to the keys touching it,
    making per-content invalidation O(entries touched), not O(store).
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._lock = threading.RLock()
        self._cache: OrderedDict[tuple, object] = OrderedDict()
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

    def put(self, key: tuple, value) -> int:
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
            for fp in participants(key):
                held = self._fp_keys.get(fp)
                if held is None:
                    self._fp_keys[fp] = key
                elif isinstance(held, set):
                    held.add(key)
                elif held != key:
                    self._fp_keys[fp] = {held, key}
            self._cache[key] = value
            return self._evict()

    @requires_lock("_lock")
    def _remove_key(self, key: tuple) -> None:
        self._cache.pop(key, None)
        for fp in participants(key):
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
            self._fp_keys.clear()

    def __len__(self) -> int:
        return len(self._cache)

    # -- bulk transfer (the process executor's merge path) ---------------

    def export(self) -> list[tuple[tuple, object]]:
        """Every entry as ``(key, value)`` — what a worker process
        ships back to the parent."""
        with self._lock:
            return list(self._cache.items())

    def merge(self, entries: Iterable[tuple[tuple, object]]) -> int:
        """Absorb exported entries (idempotent — fingerprint keys are
        process-independent); returns the number merged."""
        count = 0
        for key, value in entries:
            self.put(key, value)
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

    ``capacity`` bounds the number of stored results (LRU eviction;
    ``None`` means unbounded).  ``store`` shares an existing
    :class:`VerdictStore` between engines (``capacity`` must then be
    left unset — the store already owns the bound).  Cyclic global
    checks search under the library's default node budget
    (:data:`repro.lp.integer_feasibility.DEFAULT_NODE_BUDGET`).

    Every query runs in the calling thread, except the Theorem 4
    search misses of a :meth:`global_check_many` batch at
    ``parallelism`` above 1, which run on the process pool
    (:mod:`repro.engine.executors`).
    """

    def __init__(
        self,
        *,
        capacity: int | None = None,
        store: VerdictStore | None = None,
    ) -> None:
        if store is not None and capacity is not None:
            raise ValueError(
                "pass capacity= either to the Engine or to the shared "
                "VerdictStore, not both"
            )
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
        stale).  Over a :class:`repro.store.PersistentVerdictStore` it
        drops the hot tier only: the disk keeps every entry, and the
        next query reads it back through."""
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

    def _put(self, key: tuple, value) -> None:
        """Store one result.  Callers key it on :func:`fingerprint.of_bag`
        — a peer's claimed ``fp`` keys reads only — so a forged claim
        cannot file an answer under another content's key."""
        evicted = self.store.put(key, value)
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
            self._put(consistent_key(a, b), value)
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
            self._put(witness_key(lfp, rfp), cached)
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
                pair_checker=_pair_checker or self._internal_pair_checker,
                acyclic=_acyclic_hint,
            )
            _observe_compute("global", start)
            fps = fingerprint.of_collection(bags)
            self._put(global_key(fps, method), cached)
        else:
            with self._lock:
                self.stats.global_hits += 1
        return cached

    # -- batched API -----------------------------------------------------

    def are_consistent_many(
        self, pairs: Iterable[tuple[Bag, Bag]]
    ) -> list[bool]:
        """Lemma 2(2) over a batch of pairs; one verdict per pair, in
        the calling thread: a pair check costs less than shipping it."""
        return [self.are_consistent(left, right) for left, right in pairs]

    def witness_many(
        self, pairs: Iterable[tuple[Bag, Bag]]
    ) -> list[Bag | None]:
        """Witnesses for a batch of pairs: a witness bag per consistent
        pair, ``None`` per inconsistent one (a batch must not abort on
        the first inconsistent entry)."""
        results: list[Bag | None] = []
        for left, right in pairs:
            try:
                results.append(self.witness(left, right))
            except InconsistentError:
                results.append(None)
        return results

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
        cyclic schema) first fan out over worker processes and their
        verdict deltas merge back; the loop then answers those from the
        store and folds the acyclic misses (Theorem 6) in this
        thread."""
        if parallelism is not None and parallelism < 1:
            raise ValueError(f"parallelism must be positive, got {parallelism}")
        collections = [list(collection) for collection in collections]
        if parallelism is not None and parallelism > 1:
            # through the module: the name is looked up at call time
            from . import executors

            executors.run_process_batch(self, collections, parallelism, method)
        return [
            self.global_check(collection, method=method)
            for collection in collections
        ]
