"""How the batched engine entry points run a batch.

The paper's dichotomy decides where the work goes.  Pair verdicts
(Lemma 2), Corollary 1 witnesses and Theorem 6 folds are polynomial
and close to linear in their input, so shipping one costs more CPU
than running it (the parent fingerprints and pickles each bag, the
worker unpickles it and derives its fingerprint again); only the
exponential Theorem 4 search over a cyclic schema is worth a core of
its own.  So ``parallelism`` (``parallelism=`` on the ``*_many``
methods, ``--parallelism`` on ``repro batch`` / ``repro serve``) only
ever moves search work:

* pair checks and witnesses, and every batch at ``parallelism``
  ``None`` or 1, run as a plain loop in the calling thread;
* a global batch at N > 1 ships the misses that take the search route
  (``method="search"``, or ``"auto"`` over a cyclic schema) to the
  N-worker process pool and runs every other miss (Theorem 6 folds,
  ``method="acyclic"``) in its local replay.

The pool is one long-lived
:class:`~concurrent.futures.ProcessPoolExecutor` per worker count,
created by the first batch that ships and kept until
:func:`shutdown_pools` (``ReproServer.shutdown()`` and interpreter
exit call it).  The engine pre-filters the batch against its store and
ships the search misses as fingerprint-ref jobs; each chunk carries a
table of its distinct bags as plain pickles, and each worker runs its
chunk through a private engine, which derives every fingerprint it
writes from the content it received.  Workers return their store's
**verdict deltas** — every ``(key, value, participant_fps)`` they
computed — which the parent merges back into the shared store;
fingerprint keys are process-independent, so the final local replay
of the whole batch answers the shipped misses from the store.  A
worker that dies breaks its pool: the pool is dropped, the replay
computes the lost chunks in-process, and the next batch that ships
starts a fresh pool.  Workers exit when their parent dies.

``benchmarks/bench_dispatch.py`` measures the rule (serial against
``parallelism=2`` per kind, batch size and row count;
``BENCH_dispatch.json``).  Batches never run on a thread pool: under
the interpreter lock one was slower than the plain loop on every batch
measured, cache-heavy ones included.
"""

from __future__ import annotations

import atexit
import gc
import os
import threading
import time
from typing import TYPE_CHECKING

from ..analysis.registry import register_lock
from ..consistency.global_ import takes_search
from ..errors import InconsistentError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from .session import global_key

# Process fan-out latency: the whole ship-misses/merge-deltas phase
# (zero-sample when no job is a search miss — nothing shipped).
_PROCESS_HISTOGRAM = obs_metrics.REGISTRY.histogram(
    "repro_executor_process_seconds"
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.bags import Bag
    from .session import Engine

__all__ = ["run_batch", "run_process_batch", "shutdown_pools"]


def run_batch(
    engine: "Engine",
    kind: str,
    items: list,
    parallelism: int | None,
    method: str = "auto",
) -> list:
    """Run one batch of ``kind`` jobs (``"consistent"``, ``"witness"``
    or ``"global"``).  Only a global batch at ``parallelism`` above 1
    reaches the pool (:func:`run_process_batch`, which ships its search
    misses); every other batch is the plain loop in this thread."""
    if parallelism is not None and parallelism < 1:
        raise ValueError(f"parallelism must be positive, got {parallelism}")
    if kind != "global" or parallelism is None or parallelism == 1:
        return _run_here(engine, kind, items, method)
    return run_process_batch(engine, items, parallelism, method)


def _run_here(engine: "Engine", kind: str, items: list, method: str) -> list:
    """The plain loop: one result per item, in order, with ``None`` for
    a witness refused by an inconsistent pair (a batch must not abort on
    its first inconsistent entry)."""
    if kind == "consistent":
        return [engine.are_consistent(left, right) for left, right in items]
    if kind == "witness":
        results = []
        for left, right in items:
            try:
                results.append(engine.witness(left, right))
            except InconsistentError:
                results.append(None)
        return results
    return [
        engine.global_check(collection, method=method)
        for collection in items
    ]


# -- the process pool ---------------------------------------------------
#
# One pool per worker count, shared by every engine and thread of the
# process, so concurrent batches queue on the same ``workers`` children
# instead of each forking its own.  A pool is replaced only when broken:
# the batch that finds it so drops it, and the next batch forks a fresh
# one.  Dropping lets submitted work finish; a concurrent batch still
# submitting to the dropped pool loses those chunks to its local replay.

_POOLS: dict = {}
_POOL_LOCK = register_lock(
    "_POOL_LOCK", threading.Lock(), tier="store", containers=("_POOLS",),
)


def _init_worker(parent_pid: int) -> None:
    """Pool initializer: end this worker as soon as its parent dies.
    An idle worker blocks on the call queue and would never notice, so
    a killed daemon would leave its pool behind holding memory and
    inherited sockets.  The parent sentinel reaches EOF when the parent
    exits; the ``getppid`` poll covers a pipe end that another forked
    process keeps open."""
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

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
    """Forget a broken pool (unless a fresh one already
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


# -- the process batch --------------------------------------------------
#
# Jobs travel as fingerprint references (the parent's read keys, one
# tuple per collection) next to a pickled table of the distinct bags
# their chunk references.


def _worker_run(
    jobs: list,
    table: dict,
    node_budget: int | None,
    method: str,
    trace_id: str | None = None,
):
    """Top-level (picklable) worker body: run the fingerprint-ref
    global checks over the bag table through a private engine, and
    return the engine's verdict deltas and the worker's span deltas
    (``trace_id`` rides in with the payload; spans ride back and merge
    like verdicts)."""
    from .session import Engine

    with obs_trace.worker_trace(trace_id) as worker_span_sink:
        engine = Engine(node_budget=node_budget)
        start = time.perf_counter()
        for fps in jobs:
            engine.global_check([table[fp] for fp in fps], method=method)
        if worker_span_sink is not None:
            worker_span_sink.add_span(
                "worker.chunk", start, time.perf_counter() - start,
                jobs=len(jobs),
            )
    spans = (
        worker_span_sink.export_spans()
        if worker_span_sink is not None else []
    )
    return engine.store.export(), spans


def run_process_batch(
    engine: "Engine",
    collections: list,
    workers: int,
    method: str = "auto",
) -> list:
    """Fan a global batch's search misses over the ``workers``-worker
    pool, merge their verdict deltas into ``engine``'s store, then
    replay the whole batch locally: the shipped misses are hits, and
    every other miss (a Theorem 6 fold, or a chunk lost to a dead
    worker) is computed here, preserving order and exception
    behaviour."""
    from concurrent.futures.process import BrokenProcessPool

    from . import fingerprint

    bags_by_fp: "dict[int, Bag]" = {}
    missing: list = []
    seen_keys: set[tuple] = set()
    for collection in collections:
        fps = tuple(map(fingerprint.read_key, collection))
        key = global_key(fps, method)
        if key in seen_keys or engine.store.contains(key):
            continue  # answered already, or a duplicate: ship it once
        seen_keys.add(key)
        if takes_search(collection, method):  # type: ignore[arg-type]
            missing.append(fps)
            for fp, bag in zip(fps, collection):
                bags_by_fp.setdefault(fp, bag)
    if missing:
        trace = obs_trace.current()
        trace_id = trace.trace_id if trace is not None else None
        batch_start = time.perf_counter()
        n_chunks = min(workers, len(missing))
        payloads = []
        for chunk in (missing[i::n_chunks] for i in range(n_chunks)):
            table = {}
            for fps in chunk:
                for fp in fps:
                    table[fp] = bags_by_fp[fp]
            payloads.append((chunk, table))
        pool = _pool(workers)
        futures = []
        try:
            for chunk, table in payloads:
                futures.append(pool.submit(
                    _worker_run, chunk, table, engine.node_budget, method,
                    trace_id,
                ))
        except RuntimeError:
            # broken (a worker died since the last batch) or shut down
            # under us: the unsubmitted chunks are lost, not failed
            _drop_pool(workers, pool)
        for index, future in enumerate(futures):
            try:
                deltas, worker_spans = future.result()
            except BrokenProcessPool:
                _drop_pool(workers, pool)
                continue
            engine.store.merge(deltas)
            if trace is not None and worker_spans:
                trace.merge_remote(worker_spans, worker=index)
        elapsed = time.perf_counter() - batch_start
        _PROCESS_HISTOGRAM.record(elapsed)
        if trace is not None:
            trace.add_span(
                "executor.process_batch", batch_start, elapsed,
                misses=len(missing), workers=n_chunks,
            )
        # A persistent store makes merged worker deltas durable at the
        # batch boundary (no-op 0 for the in-memory store): a daemon
        # killed right after a process batch keeps those verdicts.
        engine.flush()
    # Replay locally: merged misses are hits; anything left (an acyclic
    # miss, a dead worker's chunk, or a racing invalidation) is
    # computed here.
    return _run_here(engine, "global", collections, method)
