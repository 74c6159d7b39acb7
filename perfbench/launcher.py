"""Run ``repro serve`` with a span recorded around each layer's public
entry points, for the benchmark's traced run.

    PERFBENCH_SPANS=spans.json python perfbench/launcher.py serve ARGS...

Each wrapped name is patched where its caller looks it up (for example
``repro.server.parse_jobs`` as well as ``repro.engine.jobs.parse_jobs``).
Spans record name, start, end, parent and request; they stay in memory
per thread and are written to ``PERFBENCH_SPANS`` when the daemon has
shut down.  ``gc.callbacks`` adds a span per collection, and every
stdlib process start is recorded as a zero-length span.
"""

from __future__ import annotations

import functools
import gc
import itertools
import json
import multiprocessing.process
import os
import resource
import sys
import threading
import time

clock = time.perf_counter


class _ThreadLog:
    def __init__(self) -> None:
        # [name, start, end, parent index, request id, value]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: int | None = None
        self.gc_start = 0.0


_LOGS: list[_ThreadLog] = []
_LOGS_LOCK = threading.Lock()
_LOCAL = threading.local()
_REQUEST_IDS = itertools.count()


def _log() -> _ThreadLog:
    log = getattr(_LOCAL, "log", None)
    if log is None:
        log = _LOCAL.log = _ThreadLog()
        with _LOGS_LOCK:
            _LOGS.append(log)
    return log


def _open(name: str) -> tuple[_ThreadLog, list]:
    log = _log()
    parent = log.stack[-1] if log.stack else -1
    span = [name, clock(), 0.0, parent, log.request, None]
    log.stack.append(len(log.spans))
    log.spans.append(span)
    return log, span


def _close(log: _ThreadLog, span: list) -> None:
    span[2] = clock()
    log.stack.pop()


def _wrap(owner, attr: str, name: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        log, span = _open(name)
        try:
            return original(*args, **kwargs)
        finally:
            _close(log, span)

    setattr(owner, attr, traced)


def _wrap_request(owner, attr: str) -> None:
    """One call handles one message: it is the request's root span."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        _log().request = next(_REQUEST_IDS)
        log, span = _open("request")
        try:
            return original(*args, **kwargs)
        finally:
            _close(log, span)
            log.request = None

    setattr(owner, attr, traced)


def _wrap_global(owner) -> None:
    """``global_witness``, named by the method that decided it."""
    original = owner.global_witness

    @functools.wraps(original)
    def traced(*args, **kwargs):
        log, span = _open("global.search")
        try:
            result = original(*args, **kwargs)
            if result.method == "acyclic":
                span[0] = "global.acyclic"
            return result
        finally:
            _close(log, span)

    owner.global_witness = traced


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _wrap_process_batch(owner) -> None:
    """``run_process_batch``, with the CPU of the workers it reaped."""
    original = owner.run_process_batch

    @functools.wraps(original)
    def traced(*args, **kwargs):
        before = _children_cpu()
        log, span = _open("executors.batch")
        try:
            return original(*args, **kwargs)
        finally:
            _close(log, span)
            span[5] = _children_cpu() - before

    owner.run_process_batch = traced


def _wrap_process_start() -> None:
    original = multiprocessing.process.BaseProcess.start

    @functools.wraps(original)
    def traced(self):
        log, span = _open("executors.worker_start")
        _close(log, span)
        return original(self)

    multiprocessing.process.BaseProcess.start = traced


def _on_gc(phase: str, info: dict) -> None:
    log = _log()
    if phase == "start":
        log.gc_start = clock()
        return
    parent = log.stack[-1] if log.stack else -1
    log.spans.append(["runtime.gc", log.gc_start, clock(), parent, log.request, None])


def install() -> None:
    from repro import io, server
    from repro.consistency import global_, pairwise
    from repro.engine import executors, fingerprint, jobs, session, wire
    from repro.store import persistent, shard

    _wrap_request(server._Handler, "_handle_line")
    _wrap_request(server._Handler, "_handle_frame")
    _wrap(server.ReproServer, "handle_payload", "server.handle_payload")
    for name in ("read_frame", "decode_jobs_frame"):
        _wrap(wire, name, "wire.decode")
    _wrap(wire, "encode_response_frame", "wire.encode")
    _wrap(io, "bag_from_dict", "io.bag_from_dict")
    _wrap(io, "bag_to_dict", "io.bag_to_dict")
    for owner in (server, jobs):
        _wrap(owner, "parse_jobs", "jobs.parse")
        _wrap(owner, "run_jobs", "jobs.run")
    _wrap(fingerprint, "of_bag", "fingerprint")
    for owner in (session.VerdictStore, persistent.PersistentVerdictStore):
        _wrap(owner, "get", "session.get")
        _wrap(owner, "put", "session.put")
    for owner in (pairwise, global_):
        _wrap(owner, "are_consistent", "pairwise.consistent")
        _wrap(owner, "consistency_witness", "pairwise.witness")
    _wrap_global(global_)
    _wrap_process_batch(executors)
    _wrap_process_start()
    _wrap(persistent.PersistentVerdictStore, "__init__", "store.open")
    _wrap(shard.Shard, "lookup", "store.read")
    # Write-behind flushes run inside appends, through the private
    # helper that the public ``flush`` also calls.
    _wrap(shard.Shard, "_flush_locked", "store.flush")
    gc.callbacks.append(_on_gc)


def dump(path: str) -> None:
    with _LOGS_LOCK:
        logs = list(_LOGS)
    with open(path, "w") as fh:
        json.dump(
            {"threads": [{"spans": log.spans} for log in logs]},
            fh,
        )


def main(argv: list[str]) -> int:
    path = os.environ["PERFBENCH_SPANS"]
    install()
    from repro.cli import main as repro_main

    try:
        return repro_main(argv)
    finally:
        gc.callbacks.remove(_on_gc)
        dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
