"""Pluggable execution backends for the batched engine entry points.

Three backends, selected by name (``backend=`` on the ``*_many``
methods, ``--backend`` on ``repro batch`` / ``repro serve``):

* ``serial`` — plain loop, no pools.  The default when no parallelism
  is requested.
* ``thread`` — a :class:`~concurrent.futures.ThreadPoolExecutor` over
  the pure kernels.  Workers share the engine's verdict store, so this
  backend shines on cache-heavy workloads (overlapping pairs, repeated
  suites) but cannot speed up CPU-bound misses: the interpreter lock
  serializes them.
* ``process`` — one long-lived
  :class:`~concurrent.futures.ProcessPoolExecutor` per worker count,
  created by the first process batch and kept until
  :func:`shutdown_pools` (``ReproServer.shutdown()`` and interpreter
  exit call it).  The engine pre-filters the batch against its store
  and ships the *misses* as fingerprint-ref jobs; each chunk carries a
  table of its distinct bags as plain pickles (fingerprints are seeded
  on arrival, so workers never rescan), and each worker runs its chunk
  through a private engine.  Workers return their store's **verdict
  deltas** — every ``(key, value, participant_fps)`` they computed —
  which the parent merges back into the shared store; fingerprint keys
  are process-independent, so a final local replay of the whole batch
  is pure hits.  A worker that dies breaks its pool: the pool is
  dropped, the replay computes the lost chunks in-process, and the next
  batch starts a fresh pool.  A pool is also replaced once a worker's
  columnar interners outgrow ``MAX_INTERNED`` values, and its workers
  exit when their parent dies.  This is the only
  backend that scales the CPU-bound global checks (Theorem 4 search
  instances) across cores.

``backend=None`` preserves the PR-2 contract: serial unless
``parallelism > 1``, which selects threads.
"""

from __future__ import annotations

import atexit
import gc
import os
import threading
import time
from typing import TYPE_CHECKING

from ..analysis.registry import register_lock
from ..errors import InconsistentError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

# Process fan-out latency: the whole ship-misses/merge-deltas phase
# (zero-sample when every job is a hit — the pre-filter skipped it).
_PROCESS_HISTOGRAM = obs_metrics.REGISTRY.histogram(
    "repro_executor_process_seconds"
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bags import Bag
    from .session import Engine

__all__ = [
    "BACKENDS",
    "SerialExecutor",
    "ThreadExecutor",
    "is_process_backend",
    "resolve_executor",
    "run_process_batch",
    "shutdown_pools",
]

BACKENDS = ("serial", "thread", "process")


def _default_workers(parallelism: int | None) -> int:
    if parallelism is not None:
        if parallelism < 1:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}"
            )
        return parallelism
    return os.cpu_count() or 1


class SerialExecutor:
    """The no-pool baseline: apply ``fn`` in submission order."""

    name = "serial"

    def run(self, fn, items: list) -> list:
        return [fn(item) for item in items]


class ThreadExecutor:
    """A bounded thread pool.  The kernels are pure and the verdict
    store is lock-protected, so workers share hits; two workers racing
    on the same miss at worst compute it twice (deterministic results —
    one entry survives)."""

    name = "thread"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError(f"parallelism must be positive, got {workers}")
        self.workers = workers

    def run(self, fn, items: list) -> list:
        if self.workers == 1 or len(items) <= 1:
            return [fn(item) for item in items]
        from concurrent.futures import ThreadPoolExecutor

        trace = obs_trace.current()
        if trace is not None:
            # Propagate the request trace into pool threads: contexts
            # cannot run concurrently, so each call re-sets the var
            # around the shared (lock-protected) trace object.
            inner = fn

            def fn(item):
                with obs_trace.activate(trace):
                    return inner(item)

        with ThreadPoolExecutor(
            max_workers=min(self.workers, len(items))
        ) as pool:
            return list(pool.map(fn, items))


def is_process_backend(backend: str | None) -> bool:
    if backend is not None and backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choose one of {BACKENDS}"
        )
    return backend == "process"


def resolve_executor(
    backend: str | None, parallelism: int | None, n_items: int
):
    """The in-process executor for a batch (``process`` is handled by
    :func:`run_process_batch` before this is consulted)."""
    if backend is None:
        # Legacy contract: parallelism alone selects threads.
        if parallelism is not None and parallelism < 1:
            raise ValueError(
                f"parallelism must be positive, got {parallelism}"
            )
        if parallelism is None or parallelism == 1:
            return SerialExecutor()
        return ThreadExecutor(parallelism)
    if backend == "serial":
        return SerialExecutor()
    if backend == "thread":
        return ThreadExecutor(_default_workers(parallelism))
    raise ValueError(
        f"unknown backend {backend!r}; choose one of {BACKENDS}"
    )


# -- the process pool ---------------------------------------------------
#
# One pool per worker count, shared by every engine and thread of the
# process, so concurrent batches queue on the same ``workers`` children
# instead of each forking its own.  A pool is replaced only when broken
# or worn: the batch that finds it so drops it, and the next batch forks
# a fresh one.  Dropping lets submitted work finish; a concurrent batch
# still submitting to the dropped pool loses those chunks to its local
# replay.  Wear bounds worker memory: a worker's columnar interners keep
# every distinct value it has encoded, so a pool is worn once a worker
# has interned more than ``MAX_INTERNED`` values since its fork.  Only a
# stream of ever-new values gets there.  Retiring pools sooner costs
# memory instead: a pool forked from a grown daemon shares more pages,
# and the daemon's later writes copy them.

MAX_INTERNED = 1 << 18

_POOLS: dict = {}
_POOL_LOCK = register_lock(
    "_POOL_LOCK", threading.Lock(), tier="store", containers=("_POOLS",),
)

# In a worker: the interned values it inherited at fork.
_FORK_INTERNED = 0


def _init_worker(parent_pid: int) -> None:
    """Pool initializer: note the inherited interner size, and end this
    worker as soon as its parent dies.  An idle worker blocks on the
    call queue and would never notice, so a killed daemon would leave
    its pool behind holding memory and inherited sockets.  The parent
    sentinel reaches EOF when the parent exits; the ``getppid`` poll
    covers a pipe end that another forked process keeps open."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    from . import columnar

    global _FORK_INTERNED
    _FORK_INTERNED = columnar.interned_values()
    sentinel = parent_process().sentinel

    def watch() -> None:
        while not wait([sentinel], timeout=1.0):
            if os.getppid() != parent_pid:
                break
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


def _pool(workers: int):
    """The live pool for ``workers``, created on first use."""
    from concurrent.futures import ProcessPoolExecutor

    with _POOL_LOCK:
        pool = _POOLS.get(workers)
        if pool is None:
            # CPython's pre-fork recipe: the pool forks on its first
            # submit, right after this.  Frozen objects sit in the
            # permanent generation, so the long-lived children's
            # collections never write to (and so copy) the pages they
            # inherit.  The cost, paid again by every pool created
            # (worker deaths included): what is alive now is never
            # traversed by the cyclic collector while a pool lives.
            gc.freeze()
            pool = _POOLS[workers] = ProcessPoolExecutor(
                max_workers=workers,
                initializer=_init_worker,
                initargs=(os.getpid(),),
            )
        return pool


def _thaw_if_idle() -> None:
    """Once no pool is left, hand the objects frozen for the reaped
    ones back to the cyclic collector (this also thaws anything the
    embedding program froze itself)."""
    with _POOL_LOCK:
        if not _POOLS:
            gc.unfreeze()


def _drop_pool(workers: int, pool) -> None:
    """Forget a broken or worn pool (unless a fresh one already
    replaced it) and reap its children once their queued work is
    done."""
    with _POOL_LOCK:
        if _POOLS.get(workers) is pool:
            del _POOLS[workers]
    pool.shutdown(wait=True)
    _thaw_if_idle()


def shutdown_pools() -> None:
    """Stop every worker pool and reap its children; the next process
    batch starts a fresh pool.  Batches already submitted finish
    first."""
    with _POOL_LOCK:
        pools = list(_POOLS.values())
        _POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)
    _thaw_if_idle()


# Shut down while the interpreter is intact: a pool left for module
# teardown to collect prints an "Exception ignored" traceback.
atexit.register(shutdown_pools)


# -- the process backend ------------------------------------------------
#
# Jobs travel as fingerprint references next to a pickled table of the
# distinct bags their chunk references.  Workers seed every fingerprint
# on arrival, so they never rescan.
# Job shapes: "consistent"/"witness" -> (left_fp, right_fp);
#             "global"               -> (fps...).


def _consistent_key(lfp: int, rfp: int) -> tuple:
    return (
        ("consistent", lfp, rfp) if lfp <= rfp else ("consistent", rfp, lfp)
    )


def _job_keys(kind: str, frozen, method: str) -> list[tuple]:
    """The store keys a local replay of this job will probe — the
    pre-filter that keeps already-answered jobs off the wire."""
    if kind == "consistent":
        lfp, rfp = frozen
        return [_consistent_key(lfp, rfp)]
    if kind == "witness":
        lfp, rfp = frozen
        return [("witness", lfp, rfp, True)]  # Engine.witness's key
    return [("global", frozen, method)]


def _worker_run(
    kind: str,
    jobs: list,
    table: dict,
    node_budget: int | None,
    minimal: bool,
    method: str,
    trace_id: str | None = None,
):
    """Top-level (picklable) worker body: seed the bag table, run the
    fingerprint-ref jobs through a private engine, and return the
    engine's verdict deltas, the worker's span deltas (``trace_id``
    rides in with the payload; spans ride back and merge like
    verdicts) and how many values the worker has interned since its
    fork."""
    from . import columnar, fingerprint
    from .session import Engine

    with obs_trace.worker_trace(trace_id) as worker_span_sink:
        table = {fp: fingerprint.seed(bag, fp) for fp, bag in table.items()}
        engine = Engine(node_budget=node_budget)
        start = time.perf_counter()
        if kind == "global":
            engine.global_check_many(
                [[table[fp] for fp in fps] for fps in jobs], method=method
            )
        else:
            pairs = [(table[lfp], table[rfp]) for lfp, rfp in jobs]
            if kind == "consistent":
                engine.are_consistent_many(pairs)
            else:
                engine.witness_many(pairs, minimal=minimal)
        if worker_span_sink is not None:
            worker_span_sink.add_span(
                "worker.chunk", start, time.perf_counter() - start,
                kind=kind, jobs=len(jobs),
            )
    spans = (
        worker_span_sink.export_spans()
        if worker_span_sink is not None else []
    )
    interned = columnar.interned_values() - _FORK_INTERNED
    return engine.store.export(), spans, interned


def run_process_batch(
    engine: "Engine",
    kind: str,
    items: list,
    parallelism: int | None,
    minimal: bool = False,
    method: str = "auto",
) -> list:
    """Fan a batch's cache misses over the worker pool, merge their
    verdict deltas into ``engine``'s store, then replay the whole batch
    locally (hits all the way down, preserving order, ``None``
    refusals, and exception behaviour; chunks lost to a dead worker are
    computed here)."""
    from concurrent.futures.process import BrokenProcessPool

    from . import fingerprint

    workers = _default_workers(parallelism)
    bags_by_fp: "dict[int, Bag]" = {}

    def note(bag: "Bag") -> int:
        fp = fingerprint.of_bag(bag)
        bags_by_fp.setdefault(fp, bag)
        return fp

    if kind == "global":
        frozen = [tuple(note(bag) for bag in item) for item in items]
    else:
        frozen = [(note(left), note(right)) for left, right in items]
    missing: list = []
    seen_keys: set[tuple] = set()
    for entry in frozen:
        keys = _job_keys(kind, entry, method)
        if any(engine.store.contains(key) for key in keys):
            continue
        key = keys[0]
        if key in seen_keys:
            continue  # duplicate job in one batch: ship it once
        seen_keys.add(key)
        missing.append(entry)
    if missing and workers > 1:
        trace = obs_trace.current()
        trace_id = trace.trace_id if trace is not None else None
        batch_start = time.perf_counter()
        n_chunks = min(workers, len(missing))
        payloads = []
        for chunk in (missing[i::n_chunks] for i in range(n_chunks)):
            table = {}
            for entry in chunk:
                for fp in entry:
                    table[fp] = bags_by_fp[fp]
            payloads.append((chunk, table))
        pool = _pool(workers)
        futures = []
        try:
            for chunk, table in payloads:
                futures.append(pool.submit(
                    _worker_run, kind, chunk, table, engine.node_budget,
                    minimal, method, trace_id,
                ))
        except RuntimeError:
            # broken (a worker died since the last batch) or shut down
            # under us: the unsubmitted chunks are lost, not failed
            _drop_pool(workers, pool)
        worn = False
        for index, future in enumerate(futures):
            try:
                deltas, worker_spans, interned = future.result()
            except BrokenProcessPool:
                _drop_pool(workers, pool)
                continue
            engine.store.merge(deltas)
            if trace is not None and worker_spans:
                trace.merge_remote(worker_spans, worker=index)
            worn = worn or interned > MAX_INTERNED
        if worn:
            _drop_pool(workers, pool)
        elapsed = time.perf_counter() - batch_start
        _PROCESS_HISTOGRAM.record(elapsed)
        if trace is not None:
            trace.add_span(
                "executor.process_batch", batch_start, elapsed,
                kind=kind, misses=len(missing), workers=n_chunks,
            )
        # A persistent store makes merged worker deltas durable at the
        # batch boundary (no-op 0 for the in-memory store): a daemon
        # killed right after a process batch keeps those verdicts.
        engine.flush()
    # Replay locally: merged misses are hits; anything left (workers
    # disabled, a dead worker's chunk, or a racing invalidation) is
    # computed here.
    if kind == "consistent":
        return [engine.are_consistent(left, right) for left, right in items]
    if kind == "witness":
        results = []
        for left, right in items:
            try:
                results.append(engine.witness(left, right, minimal=minimal))
            except InconsistentError:
                results.append(None)
        return results
    return [
        engine.global_check(collection, method=method)
        for collection in items
    ]
