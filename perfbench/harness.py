"""Daemon control, the closed-loop client, and /proc accounting.

The daemon is ``python -m repro serve`` (or the tracing launcher) in its
own process on a Unix socket.  Its CPU and memory are read from /proc
for the whole process tree: the daemon, its live workers, and the
workers it has already reaped (``cutime``/``cstime``).
"""

from __future__ import annotations

import json
import os
import socket
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

TICKS = os.sysconf("SC_CLK_TCK")
# The v2 frame prefix as repro.engine.wire writes it: magic, then
# <u8 version, u32 header length, u64 blob length>.  The client only
# splits responses; it decodes none inside the timed window.
FRAME_MAGIC = b"RPWF"
FRAME_PREFIX = struct.Struct("<BIQ")
# A hung daemon must still let a run end well inside three minutes.
READY_TIMEOUT = 30.0
REPLY_TIMEOUT = 30.0
OP_TIMEOUT = 10.0


class DaemonError(RuntimeError):
    """The daemon failed to start, answer, or stop."""


# -- /proc readers ------------------------------------------------------


def _descendants(pid: int) -> list[int]:
    found, todo = [], [pid]
    while todo:
        parent = todo.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as fh:
                    children = [int(c) for c in fh.read().split()]
            except OSError:
                continue
            found.extend(children)
            todo.extend(children)
    return found


def _cpu_ticks(pid: int, reaped: bool) -> int:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0
    # fields[11:15] are utime, stime, cutime, cstime
    used = int(fields[11]) + int(fields[12])
    if reaped:
        used += int(fields[13]) + int(fields[14])
    return used


def tree_cpu_seconds(pid: int) -> float:
    """User+system CPU of ``pid``, its reaped children, and its live
    descendants (with theirs)."""
    ticks = _cpu_ticks(pid, reaped=True)
    for child in _descendants(pid):
        ticks += _cpu_ticks(child, reaped=True)
    return ticks / TICKS


def _pss_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup") as fh:
            for line in fh:
                if line.startswith("Pss:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def tree_pss_mib(pid: int) -> float:
    return sum(_pss_kib(p) for p in [pid, *_descendants(pid)]) / 1024


def cpu_counters() -> list[int]:
    """The aggregate ``cpu`` line of /proc/stat (user ... steal)."""
    with open("/proc/stat") as fh:
        return [int(v) for v in fh.readline().split()[1:9]]


def steal_share(before: list[int], after: list[int]) -> float:
    """Stolen share of all CPU time between two readings."""
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total else 0.0


class Sampler:
    """Every ``interval`` seconds, on a background thread, reads the
    daemon tree's PSS into ``readings`` (MiB)."""

    def __init__(self, pid: int, interval: float = 0.25) -> None:
        self.pid = pid
        self.interval = interval
        self.readings: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        self.readings.append(tree_pss_mib(self.pid))

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "Sampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()


# -- the daemon ---------------------------------------------------------


class Daemon:
    """One daemon process on a Unix socket under ``workdir``.

    ``argv`` is the command up to and including ``serve``; the socket
    and ``flags`` are appended.  :meth:`start` returns the seconds from
    spawn to the first answered ``ping``.
    """

    def __init__(
        self, argv: list[str], flags: list[str], workdir: Path, env: dict
    ) -> None:
        self.socket_path = str(workdir / "serve.sock")
        self.argv = [*argv, "--socket", self.socket_path, *flags]
        self.log_path = workdir / "daemon.log"
        self.env = env
        self.process: subprocess.Popen | None = None

    def start(self) -> float:
        with open(self.log_path, "ab") as log:
            start = time.perf_counter()
            self.process = subprocess.Popen(
                self.argv, stdout=log, stderr=subprocess.STDOUT, env=self.env
            )
        deadline = start + READY_TIMEOUT
        while True:
            try:
                with Connection(
                    self.socket_path, framed=False, timeout=OP_TIMEOUT
                ) as conn:
                    reply = json.loads(conn.roundtrip(b'{"op": "ping"}\n'))
                if reply.get("ok"):
                    return time.perf_counter() - start
            except OSError:
                pass
            if self.process.poll() is not None:
                raise DaemonError(
                    f"daemon exited with {self.process.returncode} before "
                    f"answering ping; see {self.log_path}"
                )
            if time.perf_counter() > deadline:
                raise DaemonError("daemon did not answer ping in time")
            time.sleep(0.002)

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def op(self, name: str) -> dict:
        with Connection(self.socket_path, framed=False, timeout=OP_TIMEOUT) as conn:
            return json.loads(conn.roundtrip(json.dumps({"op": name}).encode() + b"\n"))

    def stop(self) -> None:
        """Ask for a clean shutdown (flushing a persistent store), then
        make sure the process is gone."""
        if self.process is None:
            return
        try:
            if self.process.poll() is None:
                try:
                    self.op("shutdown")
                except (OSError, ValueError):
                    pass
                try:
                    self.process.wait(timeout=OP_TIMEOUT)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait(timeout=OP_TIMEOUT)
        finally:
            self.process = None


def daemon_env(root: Path, extra: dict | None = None) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    env.update(extra or {})
    return env


def serve_argv(traced: bool, launcher: Path) -> list[str]:
    if traced:
        return [sys.executable, str(launcher), "serve"]
    return [sys.executable, "-m", "repro", "serve"]


# -- the client ---------------------------------------------------------


class Connection:
    """A blocking client socket that writes one request and reads one
    whole response (a JSON line or a v2 frame)."""

    def __init__(
        self, path: str, framed: bool, timeout: float = REPLY_TIMEOUT
    ) -> None:
        self.framed = framed
        self.sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self.sock.settimeout(timeout)
        try:
            self.sock.connect(path)
        except OSError:
            self.sock.close()
            raise
        self._buffer = bytearray()

    def _fill(self, n: int) -> None:
        while len(self._buffer) < n:
            chunk = self.sock.recv(max(65536, n - len(self._buffer)))
            if not chunk:
                raise ConnectionError("daemon closed the connection")
            self._buffer += chunk

    def roundtrip(self, data: bytes) -> bytes:
        self.sock.sendall(data)
        if self.framed:
            prefix_len = len(FRAME_MAGIC) + FRAME_PREFIX.size
            self._fill(prefix_len)
            _, header_len, blob_len = FRAME_PREFIX.unpack_from(
                self._buffer, len(FRAME_MAGIC)
            )
            end = prefix_len + header_len + blob_len
            self._fill(end)
        else:
            while True:
                end = self._buffer.find(b"\n") + 1
                if end:
                    break
                self._fill(len(self._buffer) + 1)
        response = bytes(self._buffer[:end])
        del self._buffer[:end]
        return response

    def close(self) -> None:
        self.sock.close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass
class Sample:
    index: int
    sent: float
    received: float  # inf when the request failed in transit
    response: bytes


def replay(daemon: Daemon, requests: list, framed: bool) -> None:
    """Send ``requests`` one after another on one connection (the
    untimed warm-up)."""
    with Connection(daemon.socket_path, framed) as conn:
        for request in requests:
            conn.roundtrip(request.data)


# The host probe: a fixed pure-Python dict workload (tuple keys, string
# members) of about 3 ms, unrelated to the program under test.  How
# long it takes tracks how fast the shared host runs this kind of code.
_PROBE_KEYS = [(i, i * 7 % 1000, str(i)) for i in range(8000)]


def probe() -> int:
    table: dict = {}
    for key in _PROBE_KEYS:
        table[key] = table.get(key[1], 0) + 1
    return sum(1 for key in _PROBE_KEYS if key in table)


CHUNKS = 20
PROBES_PER_CHUNK = 10


def drive(
    daemon: Daemon,
    requests: list,
    framed: bool,
    connections: int,
    deadline: float,
) -> tuple[list[Sample], float, list[float]]:
    """Closed loop: each of ``connections`` clients sends its next
    request only when its previous reply has arrived.  Clients take
    requests from ``requests`` in order until none are left or the
    ``perf_counter`` time ``deadline`` has passed.

    The stream goes out in ``CHUNKS`` equal parts.  After each, with no
    request in flight, :func:`probe` runs ``PROBES_PER_CHUNK`` times, so
    the probe samples the host across the whole phase without sharing
    the generator's interpreter with a waiting client.  Returns the
    samples, the seconds in which requests were in flight, and the
    probe times."""
    samples: list[Sample] = []
    probes: list[float] = []
    busy = 0.0
    lock = threading.Lock()
    try:
        conns = [Connection(daemon.socket_path, framed) for _ in range(connections)]
    except OSError as exc:
        raise DaemonError(f"cannot connect to the daemon: {exc}") from None
    alive = set(range(connections))

    def client(slot: int, cursor) -> None:
        conn = conns[slot]
        while time.perf_counter() < deadline:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            sent = time.perf_counter()
            try:
                response = conn.roundtrip(requests[index].data)
                received = time.perf_counter()
            except OSError:
                response, received = b"", float("inf")
            with lock:
                samples.append(Sample(index, sent, received, response))
            if not response:
                alive.discard(slot)
                return

    try:
        step = -(-len(requests) // CHUNKS)
        for lo in range(0, len(requests), step):
            if not alive or time.perf_counter() >= deadline:
                break
            cursor = iter(range(lo, min(lo + step, len(requests))))
            threads = [
                threading.Thread(target=client, args=(slot, cursor))
                for slot in sorted(alive)
            ]
            began = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            busy += time.perf_counter() - began
            for _ in range(PROBES_PER_CHUNK):
                began = time.perf_counter()
                probe()
                probes.append(time.perf_counter() - began)
    finally:
        for conn in conns:
            conn.close()
    return samples, busy, probes
