"""``repro serve``: a long-running consistency-checking daemon.

The serve daemon keeps **one content-addressed verdict store** alive
across connections and speaks the existing batch JSON protocol over a
Unix or TCP socket, so a fleet of clients re-checking overlapping
ledgers pays each verdict once, process-wide — and, with
``--store-dir``, once *ever*: the store spills to sharded segment logs
on disk and a restarted daemon reopens them warm.

* every connection multiplexes requests in order, in either of two
  self-describing formats: **newline-delimited JSON** (one request
  object per line in, one response object per line out — the v1
  protocol, always accepted) or **v2 binary frames**
  (:mod:`repro.engine.wire`: length-prefixed dictionary-coded columnar
  payloads; framed requests get framed responses).  The server sniffs
  the first byte of each message, so one connection may mix both;
* a client discovers frame support through the handshake:
  ``{"op": "ping", "wire": 2}`` is answered with ``"wire": 2``; a
  daemon that predates frames answers a ping without the key, and
  :class:`ServeClient` then stays on JSON lines;
* a request is either an ``op`` request (``{"op": "stats"}``,
  ``{"op": "ping"}``, ``{"op": "shutdown"}``) or a **batch payload** —
  exactly the object ``repro batch`` reads from a file (``pairs`` /
  ``collections`` / ``suites``; an explicit ``{"op": "batch", ...}``
  wrapper is also accepted with the job keys inline);
* responses always carry ``"ok"``; successful batch responses put the
  usual report under ``"report"``, failures put a one-line message
  under ``"error"`` (malformed jobs never tear down the connection,
  let alone the daemon);
* ``stats`` exposes the engine counters summed over every batch, the
  verdict store's hit rate and size — including the persistent tier
  (shard count, disk bytes, hot hits vs read-throughs from segments
  and from write-behind buffers) when one is attached — and
  daemon-level request totals;
* ``shutdown`` answers ``{"bye": true}``; the daemon stops accepting
  once that reply is written and flushed.

Concurrency model (the multi-client upgrade):

* **an engine per connection over the shared store** — each handler
  thread runs its own :class:`~repro.engine.session.Engine`, so
  connections never serialize on another connection's stats lock, and
  per-connection reports still describe that client's workload; the
  verdicts themselves flow through the one shared store (per-shard
  locks when it is persistent, one lock when in-memory);
* **one ingest memo over the shared connections** — an
  :class:`~repro.engine.jobs.IngestMemo` (one lock, held only to look
  up or admit bags) maps the raw bytes of each bag span of a JSON line
  to the bag the daemon built and fingerprinted from them, so repeat
  traffic neither decodes, builds nor digests its bags: the line is
  read by its bytes, and only what the memo does not hold is decoded.
  A connection hands it its lines only once its engine has read a
  result back from the store: traffic that never hits the store pays
  nothing for it.  A line it cannot read exactly takes the plain path
  (counted as ``repro_ingest_line_fallbacks``), so every answer and
  error is what that path gives.  v2 frames carry decoded bags and
  never reach it;
* **batch admission cap** — at most ``max_inflight`` batches execute
  at once; further batches wait up to ``admission_timeout`` seconds
  and are then refused with a one-line error instead of queueing
  unboundedly (``ping``/``stats``/``shutdown`` are never gated).

A worked session (one line per message)::

    $ repro serve --socket /tmp/repro.sock --store-dir /var/lib/repro &
    $ python - <<'PY'
    from repro.server import ServeClient
    client = ServeClient("/tmp/repro.sock")
    print(client.request({"pairs": [[{"schema": ["A"], "tuples": [[[1], 2]]},
                                     {"schema": ["A"], "tuples": [[[1], 2]]}]]}))
    print(client.request({"op": "stats"})["store"]["hit_rate"])
    client.request({"op": "shutdown"})
    PY
"""

from __future__ import annotations

import json
import os
import socket
import socketserver
import threading
import time
import weakref
from typing import Iterable

from .analysis.registry import shared_state
from .engine import executors, wire
from .engine.jobs import IngestMemo, JobError, parse_jobs, run_jobs
from .engine.session import Engine, EngineStats
from .errors import ReproError
from .obs import expo as obs_expo
from .obs import metrics as obs_metrics
from .obs import trace as obs_trace

__all__ = ["ReproServer", "ServeClient"]

_OPS = ("batch", "ping", "stats", "metrics", "shutdown")

# The daemon's level readings in ``stats()``: exported as gauges.
_LEVELS = (
    "active_connections", "inflight_batches", "peak_inflight",
    "uptime_seconds",
)

# Keys of a store's ``stats_dict()`` (and of its ``persistent``
# section) that only ever grow: exported as counters.
_STORE_COUNTERS = frozenset({
    "hits", "misses", "evictions", "invalidations", "merged",
    "hot_hits", "disk_hits", "buffer_hits", "skipped_segments", "appends",
    "flushes", "compactions", "torn_tails",
})


def _default_inflight() -> int:
    return max(2, min(8, os.cpu_count() or 2))


def _typed_family(prefix: str, stats: dict) -> dict:
    """A dict-shaped stats section as snapshot entries: monotone keys
    as counters, every other numeric key as a gauge."""
    family: dict = {"counters": {}, "gauges": {}}
    for key, value in stats.items():
        if isinstance(value, (int, float)):
            section = "counters" if key in _STORE_COUNTERS else "gauges"
            family[section][f"{prefix}_{key}"] = value
    return family


# Every bound daemon's listening socket.  A forked child (a process-
# pool worker) closes its copies at once: a worker that outlived a
# killed daemon would otherwise keep the address in LISTEN and block
# the restart.
_LISTENERS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()


def _close_listeners() -> None:
    for listener in list(_LISTENERS):
        listener.close()


os.register_at_fork(after_in_child=_close_listeners)


# `_thread`/`_server`/`address`/`started` are setup-phase plumbing
# written before any connection exists, so they stay unregistered.
# The daemon totals are registry counters, locked on their own.
@shared_state(
    "_stats_lock", "_active", "_inflight", "peak_inflight", tier="engine"
)
class ReproServer:
    """The daemon: one shared verdict store, an engine per connection.

    ``method`` / ``witnesses`` / ``parallelism`` are the serving
    defaults applied to every batch request (the same knobs
    ``repro batch`` takes per invocation).  The daemon builds its own
    store: in memory, bounded to ``capacity`` results, or with
    ``store_dir`` a :class:`repro.store.PersistentVerdictStore` of
    ``shards`` shards under a ``capacity``-entry hot tier (created on
    first use, reopened warm thereafter, closed on shutdown).
    ``max_inflight`` caps concurrently executing batches
    (``admission_timeout`` seconds of waiting, then a refusal).  Bind
    with :meth:`bind_unix` or :meth:`bind_tcp`, then
    :meth:`serve_forever` (blocking) or :meth:`serve_in_background`
    (tests, embedding).
    """

    def __init__(
        self,
        *,
        capacity: int | None = None,
        method: str = "auto",
        witnesses: bool = False,
        parallelism: int | None = None,
        store_dir: str | None = None,
        shards: int | None = None,
        max_inflight: int | None = None,
        admission_timeout: float = 60.0,
        slow_ms: float | None = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ReproError(
                f"max_inflight must be positive, got {max_inflight}"
            )
        store = None
        if store_dir is not None:
            from .store import PersistentVerdictStore

            store = PersistentVerdictStore(
                store_dir, shards=shards, capacity=capacity
            )
            capacity = None  # the store owns the bound now
        self.engine = Engine(capacity=capacity, store=store)
        self.store = self.engine.store
        self.method = method
        self.witnesses = witnesses
        self.parallelism = parallelism
        self.max_inflight = (
            max_inflight if max_inflight is not None else _default_inflight()
        )
        self.admission_timeout = admission_timeout
        # Per-server telemetry: request-latency histograms per op, the
        # daemon totals, and the engine counters every batch folds in.
        # A private registry (not the process-global one) so a
        # multi-daemon host and the tests see exact per-server counts.
        self.slow_ms = slow_ms
        self.metrics = obs_metrics.MetricsRegistry()
        self._op_histograms = {
            op: self.metrics.histogram(
                "repro_request_seconds", {"op": op}
            )
            for op in _OPS
        }
        counter = self.metrics.counter
        self._requests = counter("repro_server_requests")
        self._batches = counter("repro_server_batches")
        self._errors = counter("repro_server_request_errors")
        self._refusals = counter("repro_server_admission_refusals")
        self._connections = counter("repro_server_connections")
        self._engine_totals = {
            name: counter(f"repro_engine_{name}")
            for name in EngineStats().as_dict()
        }
        # shared by every connection; counts into this registry
        self._ingest_memo = IngestMemo(self.metrics)
        self._admission = threading.BoundedSemaphore(self.max_inflight)
        self.started = time.monotonic()
        # handler threads race on the levels below (a batch moves
        # in-flight and peak together)
        self._stats_lock = threading.Lock()
        # shutdown may be reached twice (wire op's helper thread + the
        # CLI's serve_forever exit); the lock makes the second caller
        # wait for the first one's store flush instead of racing it
        self._shutdown_lock = threading.Lock()
        self._shutdown_done = False
        self._active = 0
        self._inflight = 0
        self.peak_inflight = 0
        self._server: socketserver.BaseServer | None = None
        self._thread: threading.Thread | None = None
        self.address: str | tuple[str, int] | None = None

    # -- binding and lifecycle -------------------------------------------

    def bind_unix(self, path: str) -> str:
        """Listen on a Unix domain socket at ``path``.

        A *stale* socket file (left by a killed daemon — nothing is
        accepting on it) is unlinked and rebound; a *live* one (another
        daemon answers) raises the usual address-in-use error."""
        try:
            self._server = _ThreadingUnixServer(path, _Handler)
        except OSError as exc:
            import errno

            if exc.errno != errno.EADDRINUSE or not _is_stale_socket(path):
                raise
            os.unlink(path)
            self._server = _ThreadingUnixServer(path, _Handler)
        _LISTENERS.add(self._server.socket)
        self._server.owner = self  # type: ignore[attr-defined]
        self.address = path
        return path

    def bind_tcp(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen on TCP ``host:port`` (port 0 picks a free one);
        returns the bound address."""
        self._server = _ThreadingTCPServer((host, port), _Handler)
        _LISTENERS.add(self._server.socket)
        self._server.owner = self  # type: ignore[attr-defined]
        self.address = self._server.server_address[:2]
        return self.address

    def serve_forever(self) -> None:
        if self._server is None:
            raise ReproError("bind_unix() or bind_tcp() before serving")
        self._server.serve_forever(poll_interval=0.1)

    def serve_in_background(self) -> None:
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()

    def shutdown(self) -> None:
        """Stop accepting, reap the process worker pools, then
        make buffered verdicts durable.  Safe to call from several
        threads (the wire ``shutdown`` op's helper and the CLI's
        post-``serve_forever`` cleanup both land here): the first caller
        does the work, later callers block until it is done — so by the
        time *any* ``shutdown()`` returns, the store flush has
        happened."""
        with self._shutdown_lock:
            if self._shutdown_done:
                return
            self._shutdown_done = True
            if self._server is not None:
                self._server.shutdown()
                self._server.server_close()
            if self._thread is not None:
                self._thread.join(timeout=5)
                self._thread = None
            executors.shutdown_pools()
            # Durable on every clean stop: closing a persistent store
            # flushes its write-behind tail.
            close = getattr(self.store, "close", None)
            if close is not None:
                close()

    # -- per-connection engines ------------------------------------------

    def connection_engine(self) -> Engine:
        """A fresh engine over the shared store for one connection (its
        stats describe that client; the verdicts are shared)."""
        self._connections.inc()
        with self._stats_lock:
            self._active += 1
        return Engine(store=self.store)

    def connection_closed(self) -> None:
        with self._stats_lock:
            self._active -= 1

    # -- request handling -------------------------------------------------

    def count_request(self, error: bool = False) -> None:
        self._requests.inc()
        if error:
            self._errors.inc()

    def handle_payload(self, payload: object, engine: Engine | None = None) -> dict:
        """One request object in, one response object out (exceptions
        become ``{"ok": false, "error": one-line}``).  ``engine`` is the
        per-connection engine; embedders may omit it to use the base
        engine.  Each batch folds its engine's counter delta into the
        daemon totals, which stay exact while an engine runs one batch
        at a time, as a connection's engine does."""
        self.count_request()
        if engine is None:
            engine = self.engine
        op = payload.get("op", "batch") if isinstance(payload, dict) else "batch"
        histogram = (
            self._op_histograms.get(op) if isinstance(op, str) else None
        )
        name = f"serve.{op}" if isinstance(op, str) else "serve.invalid"
        start = time.perf_counter()
        with obs_trace.start_trace(name, slow_ms=self.slow_ms):
            response = self._handle_op(payload, op, engine)
        if histogram is not None:
            histogram.record(time.perf_counter() - start)
        return response

    def _handle_op(self, payload: object, op: object, engine: Engine) -> dict:
        try:
            if not isinstance(payload, dict):
                raise JobError("request must be a JSON object")
            if op not in _OPS:
                raise JobError(
                    f"unknown op {op!r}; expected one of {list(_OPS)}"
                )
            if op == "ping":
                # the v2 handshake: clients that sent {"wire": 2} read
                # this advertisement and switch to frames
                return {"ok": True, "op": "ping", "wire": wire.VERSION}
            if op == "stats":
                return {"ok": True, "op": "stats", **self.stats()}
            if op == "metrics":
                return {"ok": True, "op": "metrics", **self.metrics_payload()}
            if op == "shutdown":
                # The socket handler stops the daemon once this reply is
                # written and flushed (_Handler._said_bye).
                return {"ok": True, "op": "shutdown", "bye": True}
            jobs = parse_jobs({k: v for k, v in payload.items() if k != "op"})
            # Admission control: overlapping connections run batches
            # concurrently up to max_inflight; beyond that, callers wait
            # briefly and are then refused with a one-line error rather
            # than queueing without bound.  A batch holds its slot for
            # its whole run: pair checks, witnesses and acyclic folds
            # compute in this handler thread, and only Theorem 4 search
            # misses fan out over worker processes (parallelism > 1).
            if not self._admission.acquire(timeout=self.admission_timeout):
                self._refusals.inc()
                self._errors.inc()
                return {
                    "ok": False,
                    "error": (
                        f"server at capacity: {self.max_inflight} batches "
                        f"in flight (waited {self.admission_timeout:g}s)"
                    ),
                }
            self._batches.inc()
            before = engine.stats.as_dict()
            try:
                with self._stats_lock:
                    self._inflight += 1
                    self.peak_inflight = max(
                        self.peak_inflight, self._inflight
                    )
                report = run_jobs(
                    jobs,
                    engine,
                    method=self.method,
                    witnesses=self.witnesses,
                    parallelism=self.parallelism,
                )
            finally:
                for name, value in engine.stats.as_dict().items():
                    if value > before[name]:
                        self._engine_totals[name].inc(value - before[name])
                with self._stats_lock:
                    self._inflight -= 1
                self._admission.release()
            return {"ok": True, "op": "batch", "report": report}
        except ReproError as exc:
            self._errors.inc()
            return {"ok": False, "error": str(exc)}

    def stats(self) -> dict:
        """The ``stats`` endpoint body, read from the server's registry
        and the store: engine counters summed over every batch, store
        hit rate/size (persistent tier included when attached), daemon
        totals, and admission state."""
        with self._stats_lock:
            active, inflight = self._active, self._inflight
            peak = self.peak_inflight
        return {
            "stats": {
                name: counter.value
                for name, counter in self._engine_totals.items()
            },
            "store": self.store.stats_dict(),
            "kernels": wire.wire_stats(),
            "requests": self._requests.value,
            "batches": self._batches.value,
            "request_errors": self._errors.value,
            "connections": self._connections.value,
            "active_connections": active,
            "max_inflight": self.max_inflight,
            "inflight_batches": inflight,
            "peak_inflight": peak,
            "admission_refusals": self._refusals.value,
            "uptime_seconds": time.monotonic() - self.started,
            # telemetry views (additive: every pre-telemetry key above
            # is unchanged — tests pin that)
            "latency": {
                op: hist.summary()
                for op, hist in self._op_histograms.items()
                if hist.count
            },
            "trace": {
                "enabled": obs_trace.enabled(),
                "slow_ms": self.slow_ms,
                "recent": len(obs_trace.RECENT),
            },
        }

    def metrics_payload(self) -> dict:
        """The ``metrics`` endpoint body: the process-global and
        per-server registries, plus the store's stats and the daemon's
        levels split into counters and gauges, rendered as both a JSON
        snapshot and Prometheus text, plus the recent-trace ring."""
        stats = self.stats()
        store = dict(stats["store"])
        persistent = store.pop("persistent", None) or {}
        snapshot = obs_expo.merge_snapshots(
            obs_metrics.REGISTRY.snapshot(),
            self.metrics.snapshot(),
            _typed_family("repro_server", {key: stats[key] for key in _LEVELS}),
            _typed_family("repro_store", store),
            _typed_family("repro_store_persistent", persistent),
        )
        return {
            "json": snapshot,
            "prometheus": obs_expo.render_prometheus(snapshot),
            "traces": obs_trace.RECENT.snapshot(),
        }


def _is_stale_socket(path: str) -> bool:
    """True when a socket file exists but nothing accepts on it."""
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.settimeout(1.0)
        probe.connect(path)
    except (ConnectionRefusedError, FileNotFoundError):
        return True
    except OSError:
        return False
    else:
        return False
    finally:
        probe.close()


class _Handler(socketserver.StreamRequestHandler):
    """Per-connection loop: sniff each message's first byte — frame
    magic starts a length-prefixed v2 frame, anything else a JSON line
    — and answer in the format the request arrived in."""

    def handle(self) -> None:
        owner: ReproServer = self.server.owner  # type: ignore[attr-defined]
        engine = owner.connection_engine()
        try:
            while True:
                first = self.rfile.read(1)
                if not first:
                    break
                if first in (b"\n", b"\r", b" ", b"\t"):
                    continue
                if first == wire.MAGIC[:1]:
                    stop = self._handle_frame(owner, engine, first)
                else:
                    stop = self._handle_line(owner, engine, first)
                if stop:
                    break
        finally:
            owner.connection_closed()

    def _respond_line(self, response: dict) -> None:
        self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
        self.wfile.flush()

    def _respond_frame(self, response: dict) -> None:
        self.wfile.write(wire.encode_response_frame(response))
        self.wfile.flush()

    def _handle_line(self, owner: ReproServer, engine, first: bytes) -> bool:
        line = first + self.rfile.readline(wire.MAX_LINE)
        if len(line) > wire.MAX_LINE and not line.endswith(b"\n"):
            # an unterminated over-limit line has no cheap resync
            # point: answer once, then drop the connection instead of
            # buffering without bound
            owner.count_request(error=True)
            self._respond_line({
                "ok": False,
                "error": f"request line exceeds {wire.MAX_LINE} bytes",
            })
            return True
        line = line.strip()
        if not line:
            return False
        # Only a connection whose engine has read a result back from the
        # store reads its lines through the memo: on traffic that never
        # hits it, admitting every bag would be pure cost.
        payload = owner._ingest_memo.read(line) if engine.stats.hits else None
        try:
            if payload is None:
                payload = json.loads(line)
        except (ValueError, RecursionError) as exc:
            # JSONDecodeError, invalid UTF-8, an integer past the
            # interpreter's digit limit, or nesting past its recursion
            # limit
            owner.count_request(error=True)
            response = {"ok": False, "error": f"invalid JSON: {exc}"}
        else:
            wire.count_json_request(len(line))
            response = owner.handle_payload(payload, engine=engine)
        self._respond_line(response)
        return self._said_bye(owner, response)

    def _handle_frame(self, owner: ReproServer, engine, first: bytes) -> bool:
        try:
            header, blob = wire.read_frame(self.rfile, first=first)
        except wire.HeaderError as exc:
            # read whole: the stream is still in sync
            owner.count_request(error=True)
            self._respond_frame({"ok": False, "error": str(exc)})
            return False
        except wire.WireError as exc:
            # truncated/oversized: the stream is unsynchronized past
            # this point — answer best-effort and close
            owner.count_request(error=True)
            try:
                self._respond_frame({"ok": False, "error": str(exc)})
            except OSError:
                pass  # truncation usually means the peer is gone
            return True
        try:
            payload = wire.decode_jobs_frame(header, blob)
        except ReproError as exc:
            owner.count_request(error=True)
            self._respond_frame({"ok": False, "error": str(exc)})
            return False
        response = owner.handle_payload(payload, engine=engine)
        self._respond_frame(response)
        return self._said_bye(owner, response)

    @staticmethod
    def _said_bye(owner: ReproServer, response: dict) -> bool:
        """After a written and flushed reply: True for a ``shutdown``
        op's ``bye``, which then stops the daemon from a helper thread.
        Starting it only now keeps ``repro serve`` from exiting before
        the client holds the reply, and shutdown() blocks until
        serve_forever exits, which must not wait on this handler
        thread."""
        if not response.get("bye"):
            return False
        threading.Thread(target=owner.shutdown, daemon=True).start()
        return True


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class _ThreadingUnixServer(socketserver.ThreadingUnixStreamServer):
    daemon_threads = True


class ServeClient:
    """A minimal blocking client for the serve protocol.

    ``address`` is a Unix socket path (``str``) or a ``(host, port)``
    tuple.  One persistent connection; :meth:`request` sends one
    request object and waits for its response.  Usable as a context
    manager.

    ``wire_format`` selects the transport: ``"json"`` always speaks
    newline JSON (the v1 protocol); ``"columnar"`` negotiates v2
    binary frames on the first request (falling back to JSON against a
    v1-only server); ``"auto"`` (the default) negotiates lazily — only
    once a payload actually carries live :class:`~repro.core.bags.Bag`
    objects, the case frames accelerate.  Payloads may mix ``Bag``
    objects and plain JSON bag dicts in either format; on the JSON path
    bags are serialized to their row encodings transparently.  A
    ``Bag`` holding a value JSON cannot carry (a tuple, say) raises
    :class:`~repro.errors.SchemaError` before the request is written,
    and the connection stays usable.
    """

    def __init__(
        self,
        address: str | tuple[str, int],
        timeout: float | None = 30.0,
        wire_format: str = "auto",
    ) -> None:
        if wire_format not in ("auto", "json", "columnar"):
            raise ReproError(
                f"unknown wire_format {wire_format!r}; "
                "choose 'auto', 'json', or 'columnar'"
            )
        if isinstance(address, str):
            self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            address = (address[0], address[1])
            self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(address)
        self._file = self._sock.makefile("rwb")
        self._format = wire_format
        # negotiated protocol: 1 = JSON lines, wire.VERSION = frames,
        # None = not yet negotiated (auto waits for a Bag payload)
        self._wire: int | None = 1 if wire_format == "json" else None

    @property
    def wire_version(self) -> int | None:
        """The negotiated protocol (1 = newline JSON, 2 = binary
        frames); ``None`` until a request has forced negotiation."""
        return self._wire

    def _negotiate(self) -> None:
        response = self._request_json({"op": "ping", "wire": wire.VERSION})
        self._wire = (
            wire.VERSION
            if isinstance(response, dict)
            and response.get("ok")
            and response.get("wire") == wire.VERSION
            else 1
        )

    def request(self, payload: dict) -> dict:
        if self._wire is None and (
            self._format == "columnar"
            or (self._format == "auto" and wire.payload_has_bags(payload))
        ):
            self._negotiate()
        if self._wire == wire.VERSION:
            frame = wire.encode_jobs_frame(payload)
            self._file.write(frame)
            self._file.flush()
            return self._read_response()
        return self._request_json(payload)

    def _request_json(self, payload: dict) -> dict:
        data = json.dumps(wire.jsonify_payload(payload)).encode("utf-8")
        self._file.write(data + b"\n")
        self._file.flush()
        return self._read_response()

    def _read_response(self) -> dict:
        first = self._file.read(1)
        if not first:
            raise ReproError("serve connection closed before responding")
        if first == wire.MAGIC[:1]:
            header, _ = wire.read_frame(self._file, first=first)
            return wire.response_from_frame(header)
        line = first + self._file.readline()
        try:
            return json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ReproError(
                f"malformed response from server: {exc}"
            ) from exc

    def request_many(self, payloads: Iterable[dict]) -> list[dict]:
        return [self.request(payload) for payload in payloads]

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
