"""The persistent process pool: lifecycle, the single pickle
transport, and recovery from killed workers (in-process and through
the serve socket)."""

import json
import multiprocessing
import multiprocessing.process
import os
import random
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.schema import Schema
from repro.engine import executors
from repro.engine.session import Engine
from repro.io import bag_to_dict
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import (
    inconsistent_pair,
    planted_pair,
    wide_planted_pair,
)

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
SRC = Path(__file__).resolve().parents[2] / "src"
WORKERS = 2

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the pool tests stall forked workers through inherited state",
)


def fresh_pairs(seed: int, n: int = 4) -> list:
    """``n`` consistent pairs plus one inconsistent pair, all distinct
    from every other seed's, so each batch ships real misses."""
    rng = random.Random(7_000 + seed)
    pairs = [planted_pair(AB, BC, rng, n_tuples=6)[1:] for _ in range(n)]
    pairs.append(inconsistent_pair(AB, BC, rng))
    return pairs


def serial_verdicts(pairs: list) -> list:
    return Engine().are_consistent_many(pairs)


def process_batch(engine: Engine, pairs: list) -> list:
    return engine.are_consistent_many(pairs, parallelism=WORKERS)


def jobs_payload(pairs: list) -> dict:
    return {"pairs": [[bag_to_dict(r), bag_to_dict(s)] for r, s in pairs]}


def verdicts_of(response: dict) -> list:
    return [entry["consistent"] for entry in response["report"]["pairs"]]


def socket_ready(path: str) -> bool:
    probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        probe.connect(path)
    except OSError:
        return False
    finally:
        probe.close()
    return True


def wait_until(predicate, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("timed out waiting for the pool")
        time.sleep(0.01)


@pytest.fixture
def fresh_pool():
    """Start from no pool, and leave none behind."""
    executors.shutdown_pools()
    yield
    executors.shutdown_pools()
    assert multiprocessing.active_children() == []


@pytest.fixture
def process_starts(monkeypatch):
    """Every stdlib process start, counted where the pool calls it."""
    starts = []
    original = multiprocessing.process.BaseProcess.start

    def counting_start(self):
        starts.append(self.name)
        return original(self)

    monkeypatch.setattr(
        multiprocessing.process.BaseProcess, "start", counting_start
    )
    return starts


# A stalling worker body for the mid-batch kill tests.  The pool forks
# after the test installs it, so the children inherit ``_STALL``.
_STALL: dict = {}


def _stalling_worker_run(*args):
    Path(_STALL["dir"], str(os.getpid())).touch()
    time.sleep(60)
    return executors._worker_run(*args)


@pytest.fixture
def stalled_workers(monkeypatch, tmp_path, fresh_pool):
    """Install the stalling body; yields a function that waits for a
    stalled worker and SIGKILLs it."""
    _STALL["dir"] = str(tmp_path)
    monkeypatch.setattr(executors, "_worker_run", _stalling_worker_run)

    def kill_one() -> None:
        wait_until(lambda: any(tmp_path.iterdir()))
        os.kill(int(next(tmp_path.iterdir()).name), signal.SIGKILL)

    yield kill_one
    _STALL.clear()


def kill_idle_worker() -> None:
    """SIGKILL one live pool worker and wait until the pool has noticed
    (a broken pool terminates the rest of its children)."""
    children = multiprocessing.active_children()
    assert len(children) == WORKERS
    os.kill(children[0].pid, signal.SIGKILL)
    wait_until(lambda: multiprocessing.active_children() == [])


class TestPoolLifecycle:
    def test_ten_batches_start_parallelism_workers(
        self, fresh_pool, process_starts
    ):
        engine = Engine()
        shipped = 0
        for seed in range(10):
            pairs = fresh_pairs(seed)
            assert process_batch(engine, pairs) == serial_verdicts(pairs)
            shipped += len(pairs)
        assert len(process_starts) == WORKERS
        # every batch really ran on the workers
        assert engine.store.merged >= shipped

    def test_parallelism_alone_starts_the_pool(
        self, fresh_pool, process_starts
    ):
        """No backend is named: ``parallelism=2`` forks exactly two
        workers."""
        pairs = fresh_pairs(50)
        verdicts = Engine().are_consistent_many(pairs, parallelism=WORKERS)
        assert verdicts == serial_verdicts(pairs)
        assert len(process_starts) == WORKERS

    def test_serial_flag_starts_no_worker(
        self, fresh_pool, process_starts, tmp_path, capsys
    ):
        """``--backend serial`` runs in-process whatever
        ``--parallelism`` says."""
        pairs = fresh_pairs(60)
        jobs = tmp_path / "jobs.json"
        jobs.write_text(json.dumps(jobs_payload(pairs)))
        out = tmp_path / "report.json"
        assert main([
            "batch", str(jobs), "--backend", "serial", "--parallelism", "4",
            "-o", str(out),
        ]) == 0
        assert process_starts == []
        assert verdicts_of({"report": json.loads(out.read_text())}) == (
            serial_verdicts(pairs)
        )

    def test_concurrent_batches_share_one_pool(
        self, fresh_pool, process_starts
    ):
        barrier = threading.Barrier(2)
        outcomes: list = []

        def client(tid: int) -> None:
            engine = Engine()
            barrier.wait()
            for i in range(4):
                pairs = fresh_pairs(100 + 10 * tid + i)
                outcomes.append(
                    process_batch(engine, pairs) == serial_verdicts(pairs)
                )

        threads = [
            threading.Thread(target=client, args=(tid,)) for tid in range(2)
        ]
        for thread in threads:
            thread.start()
        peak = 0
        while any(thread.is_alive() for thread in threads):
            peak = max(peak, len(multiprocessing.active_children()))
            time.sleep(0.002)
        for thread in threads:
            thread.join()
        assert outcomes == [True] * 8
        assert len(process_starts) == WORKERS
        assert peak <= WORKERS
        assert list(executors._POOLS) == [WORKERS]

    def test_server_shutdown_reaps_workers(self, fresh_pool):
        server = ReproServer(parallelism=WORKERS)
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                response = client.request(jobs_payload(fresh_pairs(200)))
                assert response["ok"], response
            assert len(multiprocessing.active_children()) == WORKERS
        finally:
            server.shutdown()
        assert multiprocessing.active_children() == []

    def test_serve_exits_cleanly_with_a_live_pool(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--socket", path,
                "--backend", "process", "--parallelism", str(WORKERS),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            wait_until(lambda: socket_ready(path) or proc.poll() is not None)
            with ServeClient(path) as client:
                response = client.request(jobs_payload(fresh_pairs(300)))
                assert response["ok"], response
                assert client.request({"op": "shutdown"})["ok"]
            out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0, err
        assert "serve shut down cleanly" in out
        assert "Exception ignored" not in err, err
        assert "Traceback" not in err, err


class TestPickleTransport:
    def test_wide_round_trip_matches_serial(self, fresh_pool):
        pairs = []
        for seed in range(3):
            _, r, s = wide_planted_pair(random.Random(900 + seed), n_rows=64)
            pairs.append((r, s))
        pairs.append((pairs[0][0], pairs[1][1]))  # cross pair: False
        verdicts = process_batch(Engine(), pairs)
        assert verdicts == serial_verdicts(pairs) == [True, True, True, False]

    def test_shared_bag_ships_once_per_chunk(self, monkeypatch, fresh_pool):
        rng = random.Random(950)
        shared = planted_pair(AB, BC, rng, n_tuples=6)[1]
        partners = [planted_pair(AB, BC, rng, n_tuples=6)[2] for _ in range(4)]
        shipped = []
        real_pool = executors._pool

        class Spy:
            def __init__(self, pool):
                self.pool = pool

            def submit(self, fn, kind, chunk, table, *rest):
                shipped.append(len(table))
                return self.pool.submit(fn, kind, chunk, table, *rest)

        monkeypatch.setattr(
            executors, "_pool", lambda workers: Spy(real_pool(workers))
        )
        pairs = [(shared, partner) for partner in partners]
        assert process_batch(Engine(), pairs) == serial_verdicts(pairs)
        # two chunks of two pairs: the shared bag plus two partners each
        assert shipped == [3, 3]


class TestKilledWorker:
    def test_kill_between_batches(self, fresh_pool):
        engine = Engine()
        pairs = fresh_pairs(400)
        assert process_batch(engine, pairs) == serial_verdicts(pairs)
        kill_idle_worker()
        merged = engine.store.merged
        pairs = fresh_pairs(401)
        assert process_batch(engine, pairs) == serial_verdicts(pairs)
        assert engine.store.merged == merged  # replayed locally
        # the next batch builds a fresh pool and ships again
        pairs = fresh_pairs(402)
        assert process_batch(engine, pairs) == serial_verdicts(pairs)
        assert engine.store.merged > merged
        assert len(multiprocessing.active_children()) == WORKERS

    def test_kill_mid_batch(self, stalled_workers):
        pairs = fresh_pairs(500)
        results = []
        batch = threading.Thread(
            target=lambda: results.append(process_batch(Engine(), pairs))
        )
        batch.start()
        stalled_workers()
        batch.join(timeout=30)
        assert not batch.is_alive()
        assert results == [serial_verdicts(pairs)]

    def test_kill_between_batches_over_the_socket(self, fresh_pool):
        server = ReproServer(parallelism=WORKERS)
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                for seed in (600, 601):
                    pairs = fresh_pairs(seed)
                    response = client.request(jobs_payload(pairs))
                    assert response["ok"], response
                    assert verdicts_of(response) == serial_verdicts(pairs)
                    if seed == 600:
                        kill_idle_worker()
        finally:
            server.shutdown()

    def test_kill_mid_batch_over_the_socket(self, stalled_workers):
        server = ReproServer(parallelism=WORKERS)
        address = server.bind_tcp()
        server.serve_in_background()
        pairs = fresh_pairs(700)
        responses = []
        try:
            with ServeClient(address) as client:
                request = threading.Thread(
                    target=lambda: responses.append(
                        client.request(jobs_payload(pairs))
                    )
                )
                request.start()
                stalled_workers()
                request.join(timeout=30)
                assert not request.is_alive()
                (response,) = responses
                assert response["ok"], response
                assert verdicts_of(response) == serial_verdicts(pairs)
        finally:
            server.shutdown()



def child_pids(pid: int) -> list[int]:
    """Live children of ``pid`` (workers fork from handler threads, so
    read every thread's list)."""
    pids = []
    for children in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            pids.extend(int(child) for child in children.read_text().split())
        except FileNotFoundError:
            continue  # the thread exited between the listing and the read
    return pids


def exited(pid: int) -> bool:
    """True once ``pid`` is gone or a zombie nobody has reaped yet."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return True
    return stat.rpartition(")")[2].split()[0] == "Z"


def socket_inodes(pid: int) -> set[int]:
    inodes = set()
    for fd in Path(f"/proc/{pid}/fd").iterdir():
        try:
            target = os.readlink(fd)
        except FileNotFoundError:
            continue  # closed while listing
        if target.startswith("socket:["):
            inodes.add(int(target[len("socket:["):-1]))
    return inodes


def start_daemon(flags: list[str]) -> tuple[subprocess.Popen, str]:
    """A ``repro serve --backend process`` daemon and its first stdout
    line (``serving on ...`` once bound, empty if it failed)."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve", *flags,
            "--backend", "process", "--parallelism", str(WORKERS),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    return proc, proc.stdout.readline()


@pytest.mark.skipif(
    not any(Path("/proc/self/task").glob("*/children")),
    reason="reads worker pids from /proc",
)
class TestKilledDaemon:
    def test_workers_hold_no_listener(self, fresh_pool):
        server = ReproServer(parallelism=WORKERS)
        address = server.bind_tcp()
        server.serve_in_background()
        listener = os.fstat(server._server.socket.fileno()).st_ino
        try:
            with ServeClient(address) as client:
                response = client.request(jobs_payload(fresh_pairs(800)))
                assert response["ok"], response
            workers = multiprocessing.active_children()
            assert len(workers) == WORKERS
            # a child closes its copy in its after-fork hook, which may
            # not have run yet if that worker took no chunk
            wait_until(lambda: not any(
                listener in socket_inodes(worker.pid) for worker in workers
            ))
            assert listener in socket_inodes(os.getpid())
        finally:
            server.shutdown()

    @pytest.mark.parametrize("transport", ["unix", "tcp"])
    def test_sigkilled_daemon_restarts_on_its_address(
        self, tmp_path, transport
    ):
        path = str(tmp_path / "repro.sock")
        flags = ["--socket", path] if transport == "unix" else ["--port", "0"]
        daemon, banner = start_daemon(flags)
        restarted = None
        workers: list[int] = []
        try:
            assert banner.startswith("serving on"), daemon.stderr.read()
            if transport == "tcp":
                host, port = banner.split()[-1].rsplit(":", 1)
                address = (host, int(port))
                flags = ["--port", port]
            else:
                address = path
            pairs = fresh_pairs(900)
            with ServeClient(address) as client:
                response = client.request(jobs_payload(pairs))
                assert response["ok"], response
            # when the handler thread that forked the workers exits they
            # move to another thread's children list, and a read in
            # between can miss them: read until every worker is listed
            def listed() -> bool:
                workers[:] = child_pids(daemon.pid)
                return len(workers) == WORKERS

            wait_until(listed)
            daemon.kill()
            daemon.communicate(timeout=30)
            # at once on the same address: no orphan may still listen
            restarted, banner = start_daemon(flags)
            assert banner.startswith("serving on"), restarted.stderr.read()
            pairs = fresh_pairs(901)
            with ServeClient(address) as client:
                response = client.request(jobs_payload(pairs))
                assert response["ok"], response
                assert verdicts_of(response) == serial_verdicts(pairs)
                assert client.request({"op": "shutdown"})["ok"]
            _, err = restarted.communicate(timeout=30)
            assert restarted.returncode == 0, err
            # the killed daemon's workers followed it
            wait_until(lambda: all(exited(pid) for pid in workers))
        finally:
            for proc in (daemon, restarted):
                if proc is not None and proc.poll() is None:
                    proc.kill()
                    proc.communicate()
            for pid in workers:
                if not exited(pid):
                    os.kill(pid, signal.SIGKILL)
