"""The serve daemon: wire protocol, cross-connection sharing, shutdown."""

import json
import select
import socket
import time

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.io import bag_to_dict
from repro.server import ReproServer, ServeClient

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def pair_jobs(mult=2):
    r = Bag.from_pairs(AB, [((1, 2), mult), ((2, 2), 1)])
    s = Bag.from_pairs(BC, [((2, 3), mult + 1)])
    return {"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}


@pytest.fixture
def tcp_server():
    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    yield server, address
    server.shutdown()


class TestProtocol:
    def test_ping(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            # the default daemon advertises v2 frames in its ping
            assert client.request({"op": "ping"}) == {
                "ok": True, "op": "ping", "wire": 2,
            }

    def test_batch_report_matches_cli_shape(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            response = client.request(pair_jobs())
            assert response["ok"]
            report = response["report"]
            assert report["pairs"] == [{"consistent": True}]
            assert "stats" in report and "store" in report

    def test_explicit_batch_op_accepted(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            response = client.request({"op": "batch", **pair_jobs()})
            assert response["ok"]

    def test_multiple_requests_per_connection(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            responses = client.request_many([pair_jobs(), pair_jobs(5)])
            assert all(r["ok"] for r in responses)

    def test_malformed_jobs_do_not_kill_the_connection(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            bad = client.request({"bogus": []})
            assert bad["ok"] is False
            assert "unknown batch job keys" in bad["error"]
            assert "\n" not in bad["error"]
            assert client.request({"op": "ping"})["ok"]

    def test_invalid_json_line_reported(self, tcp_server):
        import socket as socket_module

        _, address = tcp_server
        lines = (
            b"{this is not json}\n",
            b'{"pairs": [\xc3]}\n',  # invalid UTF-8
            b'{"pairs": [' + b"7" * 5000 + b"]}\n",  # past 4,300 digits
        )
        raw = socket_module.create_connection(address, timeout=10)
        with raw:
            rfile = raw.makefile("rb")
            for line in lines:
                raw.sendall(line)
                response = json.loads(rfile.readline())
                assert response["ok"] is False
                assert "invalid JSON" in response["error"]
            # same connection, still synchronized, every error counted
            raw.sendall(b'{"op": "stats"}\n')
            stats = json.loads(rfile.readline())
        assert stats["ok"] and stats["request_errors"] == len(lines)

    @pytest.mark.parametrize("line, error", [
        # nested past the decoder's recursion limit: 200 KB, far under
        # MAX_LINE
        (b'{"pairs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
         "invalid JSON"),
        (b'{"pairs": 5}', "must be a list"),
    ], ids=["deeply-nested", "pairs-not-a-list"])
    def test_line_that_killed_the_handler_gets_an_error_reply(
        self, tcp_server, line, error
    ):
        """Each line raised past the handler and closed the connection
        without a reply; now it gets ``{"ok": false}``, and the same
        socket still answers a ping."""
        _, address = tcp_server
        with socket.create_connection(address, timeout=10) as raw:
            rfile = raw.makefile("rb")
            raw.sendall(line + b"\n")
            response = json.loads(rfile.readline())
            assert response["ok"] is False
            assert error in response["error"]
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(rfile.readline())["ok"]

    def test_nesting_just_inside_the_decoder_limit_gets_replies(
        self, tcp_server
    ):
        """Values the decoder still accepts but an error message could
        not name without recursing past the limit: every line and every
        frame gets an error reply."""
        from repro.engine import wire

        _, address = tcp_server
        bags = []
        for depth in range(960, 1001, 8):
            deep = "[" * depth + "]" * depth
            bags += [
                '{"schema": ["A"], "tuples": [[[1], %s]]}' % deep,
                '{"schema": %s, "tuples": []}' % deep,
                '{"schema": ["A"], "tuples": [[%s, 1]]}' % deep,
            ]
            with socket.create_connection(address, timeout=10) as raw:
                rfile = raw.makefile("rb")
                raw.sendall(b'{"suites": [%s]}\n' % deep.encode())
                assert json.loads(rfile.readline())["ok"] is False
        for bag in bags:
            header = (
                '{"v": 2, "payload": {"pairs": [[{"$bag": 0}, {"$bag": 0}]]},'
                ' "bags": [{"json": %s}]}' % bag
            ).encode()
            with socket.create_connection(address, timeout=10) as raw:
                rfile = raw.makefile("rb")
                raw.sendall(b'{"pairs": [[%s, %s]]}\n' % (
                    bag.encode(), bag.encode()
                ))
                assert json.loads(rfile.readline())["ok"] is False
                raw.sendall(b"".join((
                    wire.MAGIC,
                    wire._PREFIX.pack(wire.VERSION, len(header), 0),
                    header,
                )))
                reply, _ = wire.read_frame(rfile)
                assert wire.response_from_frame(reply)["ok"] is False

    def test_unknown_op_rejected(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            response = client.request({"op": "fly"})
            assert response["ok"] is False and "unknown op" in response["error"]


class TestSharedEngine:
    def test_second_connection_hits_the_first_connections_verdicts(
        self, tcp_server
    ):
        """The acceptance criterion: two serve connections posting
        value-equal but separately-encoded jobs share the store."""
        server, address = tcp_server
        with ServeClient(address) as first:
            first.request(pair_jobs())
        with ServeClient(address) as second:
            report = second.request(pair_jobs())["report"]
        assert report["stats"]["consistency_hits"] >= 1
        assert server.engine.store.hits >= 1

    def test_stats_endpoint_exposes_hit_rate_and_size(self, tcp_server):
        _, address = tcp_server
        with ServeClient(address) as client:
            client.request(pair_jobs())
            client.request(pair_jobs())
            stats = client.request({"op": "stats"})
        assert stats["ok"]
        assert stats["store"]["entries"] >= 1
        assert 0.0 < stats["store"]["hit_rate"] <= 1.0
        assert stats["requests"] >= 3
        assert stats["batches"] == 2
        assert stats["uptime_seconds"] >= 0.0


class TestValuesAtTheBoundary:
    @pytest.mark.parametrize("wire_format", ["json", "columnar"])
    @pytest.mark.parametrize("twin", [True, 1.0], ids=["true", "1.0"])
    def test_python_equal_bags_keep_their_own_values(self, wire_format, twin):
        """Bags that differ only in ``1`` against ``true`` or ``1.0``
        are equal in Python; in one request each pair's witness still
        holds its own values, as when that pair is sent alone."""
        one = Bag.from_pairs(AB, [((1, "x"), 1)])
        other = Bag.from_pairs(AB, [((twin, "x"), 1)])
        side = Bag.from_pairs(BC, [(("x", 5), 1)])
        answers = []
        for pairs in ([[one, side], [other, side]], [[other, side]]):
            server = ReproServer(witnesses=True)
            address = server.bind_tcp()
            server.serve_in_background()
            try:
                with ServeClient(address, wire_format=wire_format) as client:
                    response = client.request({"pairs": pairs})
            finally:
                server.shutdown()
            assert response["ok"], response
            answers.append([
                json.dumps(entry["witness"])
                for entry in response["report"]["pairs"]
            ])
        both, alone = answers
        assert both[1] == alone[0] == json.dumps({
            "schema": ["A", "B", "C"], "tuples": [[[twin, "x", 5], 1]],
        })

    @pytest.mark.parametrize("value", [[1, 2], {"k": 1}], ids=["array", "object"])
    def test_frame_with_a_nested_value_gets_an_error_reply(
        self, tcp_server, value
    ):
        """An inline frame bag whose row holds a JSON array or object
        gets ``{"ok": false}``, and the connection keeps answering."""
        from repro.engine import wire

        _, address = tcp_server
        bag = {"schema": ["A", "B"], "tuples": [[[1, value], 1]]}
        frame = wire.pack_frame({
            "v": wire.VERSION,
            "payload": {"pairs": [[{"$bag": 0}, {"$bag": 0}]]},
            "bags": [{"json": bag}],
        })
        with socket.create_connection(address, timeout=10) as raw:
            rfile = raw.makefile("rb")
            raw.sendall(frame)
            header, _ = wire.read_frame(rfile)
            response = wire.response_from_frame(header)
            assert response["ok"] is False
            assert "unhashable" in response["error"], response
            raw.sendall(wire.pack_frame({
                "v": wire.VERSION, "payload": pair_jobs(),
            }))
            header, _ = wire.read_frame(rfile)
            assert wire.response_from_frame(header)["ok"]
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(rfile.readline())["ok"]


    @pytest.mark.parametrize("wire_format", ["json", "columnar"])
    @pytest.mark.parametrize("n_rows", [4, 40], ids=["inline", "fallback"])
    def test_client_refuses_a_value_json_cannot_carry(
        self, tcp_server, wire_format, n_rows
    ):
        """A tuple value would travel as an array the daemon must
        refuse, naming a list the caller never sent: the client raises
        :class:`SchemaError` naming the value before the request is
        written.  Under ``MIN_ROWS`` the bag rides inline; at 40 rows
        its columnar export falls back to inline on the tuple."""
        from repro.errors import SchemaError

        _, address = tcp_server
        rows = [((i, "x"), 1) for i in range(n_rows - 1)]
        bad = Bag.from_pairs(AB, rows + [(((1, 2), "x"), 1)])
        with ServeClient(address, wire_format=wire_format) as client:
            with pytest.raises(SchemaError, match=r"\(1, 2\)"):
                client.request({"pairs": [[bad, bad]]})
            assert client.request(pair_jobs())["ok"]
            stats = client.request({"op": "stats"})
        assert stats["request_errors"] == 0
        assert stats["batches"] == 1


class TestLifecycle:
    def test_shutdown_op_stops_the_server(self):
        server = ReproServer()
        address = server.bind_tcp()
        server.serve_in_background()
        with ServeClient(address) as client:
            response = client.request({"op": "shutdown"})
            assert response["ok"] and response["bye"]
        server.shutdown()  # idempotent
        with pytest.raises(OSError):
            ServeClient(address, timeout=0.5).request({"op": "ping"})

    def test_shutdown_starts_only_after_the_reply_is_flushed(
        self, tmp_path, monkeypatch
    ):
        """`repro serve` exits once shutdown() returns, killing the
        daemon's handler threads: the client must already hold the
        `bye` reply when shutdown() begins."""
        path = str(tmp_path / "repro.sock")
        server = ReproServer()
        server.bind_unix(path)
        raw = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        raw.settimeout(30)
        held: list[bool] = []
        real_shutdown = ReproServer.shutdown

        def checked_shutdown(self):
            if not held:  # can the client read its reply right now?
                held.append(bool(select.select([raw], [], [], 0)[0]))
            real_shutdown(self)

        monkeypatch.setattr(ReproServer, "shutdown", checked_shutdown)
        server.serve_in_background()
        try:
            raw.connect(path)
            raw.sendall(b'{"op": "shutdown"}\n')
            # read nothing before shutdown() has looked
            deadline = time.monotonic() + 10
            while not held and time.monotonic() < deadline:
                time.sleep(0.01)
            assert held == [True]
            reply = json.loads(raw.makefile("rb").readline())
            assert reply == {"ok": True, "op": "shutdown", "bye": True}
        finally:
            raw.close()
            server.shutdown()

    def test_unix_socket_round_trip(self, tmp_path):
        path = str(tmp_path / "repro.sock")
        server = ReproServer()
        assert server.bind_unix(path) == path
        server.serve_in_background()
        try:
            with ServeClient(path) as client:
                assert client.request(pair_jobs())["ok"]
                stats = client.request({"op": "stats"})
                assert stats["ok"] and stats["batches"] == 1
        finally:
            server.shutdown()

    def test_stale_socket_file_is_reclaimed(self, tmp_path):
        import socket as socket_module

        path = str(tmp_path / "stale.sock")
        # a killed daemon's leftover: a bound socket file nobody accepts on
        leftover = socket_module.socket(
            socket_module.AF_UNIX, socket_module.SOCK_STREAM
        )
        leftover.bind(path)
        leftover.close()
        server = ReproServer()
        assert server.bind_unix(path) == path
        server.serve_in_background()
        try:
            with ServeClient(path) as client:
                assert client.request({"op": "ping"})["ok"]
        finally:
            server.shutdown()

    def test_live_socket_is_not_stolen(self, tmp_path):
        path = str(tmp_path / "live.sock")
        first = ReproServer()
        first.bind_unix(path)
        first.serve_in_background()
        try:
            with pytest.raises(OSError):
                ReproServer().bind_unix(path)
            with ServeClient(path) as client:  # first daemon untouched
                assert client.request({"op": "ping"})["ok"]
        finally:
            first.shutdown()

    def test_cli_bind_failure_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "held.sock")
        holder = ReproServer()
        holder.bind_unix(path)
        holder.serve_in_background()
        try:
            assert main(["serve", "--socket", path]) == 2
            assert "cannot bind" in capsys.readouterr().err
        finally:
            holder.shutdown()

    def test_concurrent_connections_count_every_request(self):
        import threading

        server = ReproServer()
        address = server.bind_tcp()
        server.serve_in_background()
        per_thread, n_threads = 20, 4
        try:
            def hammer():
                with ServeClient(address) as client:
                    for _ in range(per_thread):
                        assert client.request({"op": "ping"})["ok"]

            threads = [
                threading.Thread(target=hammer) for _ in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(address) as client:
                stats = client.request({"op": "stats"})
        finally:
            server.shutdown()
        assert stats["requests"] == per_thread * n_threads + 1

    def test_serve_defaults_apply_to_every_batch(self):
        server = ReproServer(witnesses=True, method="auto")
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                report = client.request(pair_jobs())["report"]
                assert "witness" in report["pairs"][0]
        finally:
            server.shutdown()


class TestMultiClient:
    def test_overlapping_connections_all_answer(self):
        """True concurrency: N clients hold connections open and fire
        batches at the same time; every batch succeeds and the daemon
        counts every one."""
        import threading

        server = ReproServer()
        address = server.bind_tcp()
        server.serve_in_background()
        n_clients, per_client = 4, 5
        results: list[bool] = []
        lock = threading.Lock()
        try:
            barrier = threading.Barrier(n_clients)

            def hammer(mult):
                with ServeClient(address) as client:
                    barrier.wait()
                    for i in range(per_client):
                        ok = client.request(pair_jobs(mult + i))["ok"]
                        with lock:
                            results.append(ok)

            threads = [
                threading.Thread(target=hammer, args=(3 * k,))
                for k in range(n_clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        finally:
            server.shutdown()
        assert len(results) == n_clients * per_client and all(results)
        assert stats["batches"] == n_clients * per_client
        assert stats["connections"] == n_clients
        # every batch's engine counters were folded in exactly once
        assert stats["stats"]["consistency_queries"] == n_clients * per_client

    def test_connection_stats_fold_into_daemon_totals(self, tcp_server):
        """Each connection runs its own engine; the daemon's stats op
        aggregates live and closed connections."""
        server, address = tcp_server
        with ServeClient(address) as first:
            first.request(pair_jobs())
        with ServeClient(address) as second:
            second.request(pair_jobs())
            stats = second.request({"op": "stats"})
        assert stats["stats"]["consistency_queries"] >= 2
        assert stats["stats"]["consistency_hits"] >= 1  # cross-connection
        assert stats["connections"] >= 2
        # after both connections closed, nothing is lost (the handler
        # notices EOF asynchronously — wait for the fold)
        import time as time_module

        deadline = time_module.monotonic() + 5
        while time_module.monotonic() < deadline:
            final = server.stats()
            if final["active_connections"] == 0:
                break
            time_module.sleep(0.01)
        assert final["stats"]["consistency_queries"] >= 2
        assert final["active_connections"] == 0

    def test_per_connection_reports_describe_that_client(self, tcp_server):
        """The second client's first query is a *store* hit but its own
        engine's first query — hit ratios describe the client."""
        _, address = tcp_server
        with ServeClient(address) as first:
            warm = first.request(pair_jobs())["report"]
        assert warm["stats"]["consistency_hits"] == 0
        with ServeClient(address) as second:
            served = second.request(pair_jobs())["report"]
        assert served["stats"]["consistency_queries"] == 1
        assert served["stats"]["consistency_hits"] == 1

    def test_admission_cap_serializes_but_serves_everyone(self):
        import threading

        server = ReproServer(max_inflight=1)
        address = server.bind_tcp()
        server.serve_in_background()
        results = []
        lock = threading.Lock()
        try:
            def hit(mult):
                with ServeClient(address) as client:
                    ok = client.request(pair_jobs(mult))["ok"]
                    with lock:
                        results.append(ok)

            threads = [
                threading.Thread(target=hit, args=(k,)) for k in range(5)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats = server.stats()
        finally:
            server.shutdown()
        assert all(results) and len(results) == 5
        assert stats["peak_inflight"] == 1
        assert stats["admission_refusals"] == 0

    def test_admission_timeout_refuses_with_one_line_error(self):
        """A batch that cannot be admitted within the timeout gets a
        structured refusal, not an unbounded queue slot."""
        import threading
        import time as time_module

        server = ReproServer(max_inflight=1, admission_timeout=0.05)
        # occupy the only slot directly
        assert server._admission.acquire(timeout=1)
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                start = time_module.monotonic()
                response = client.request(pair_jobs())
                assert time_module.monotonic() - start < 5
            assert response["ok"] is False
            assert "server at capacity" in response["error"]
            assert server.stats()["admission_refusals"] == 1
            server._admission.release()
            with ServeClient(address) as client:
                assert client.request(pair_jobs())["ok"]
        finally:
            server._admission = threading.BoundedSemaphore(1)
            server.shutdown()

    def test_max_inflight_validated(self):
        import pytest as pytest_module

        from repro.errors import ReproError

        with pytest_module.raises(ReproError, match="max_inflight"):
            ReproServer(max_inflight=0)


class TestPersistentServe:
    def test_restarted_daemon_reopens_its_shards_warm(self, tmp_path):
        """The tentpole acceptance path: serve → shutdown → serve with
        the same --store-dir → repeat traffic answered from disk."""
        store_dir = str(tmp_path / "vstore")
        jobs = {"suites": [["planted-path", 4, 0], ["planted-triangle", 3, 1]]}

        first = ReproServer(store_dir=store_dir, shards=4)
        address = first.bind_tcp()
        first.serve_in_background()
        try:
            with ServeClient(address) as client:
                assert client.request(jobs)["ok"]
                cold = client.request({"op": "stats"})
        finally:
            first.shutdown()
        assert cold["store"]["persistent"]["shards"] == 4
        assert cold["store"]["persistent"]["disk_hits"] == 0

        second = ReproServer(store_dir=store_dir)
        address = second.bind_tcp()
        second.serve_in_background()
        try:
            with ServeClient(address) as client:
                report = client.request(jobs)["report"]
                warm = client.request({"op": "stats"})
        finally:
            second.shutdown()
        assert report["stats"]["global_hits"] == 2  # zero recomputes
        assert warm["store"]["persistent"]["disk_hits"] >= 2
        assert warm["store"]["persistent"]["records"] > 0

    def test_stats_op_reports_the_persistent_tier(self, tmp_path):
        server = ReproServer(store_dir=str(tmp_path / "vstore"))
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                client.request(pair_jobs())
                client.request(pair_jobs())
                stats = client.request({"op": "stats"})
        finally:
            server.shutdown()
        persisted = stats["store"]["persistent"]
        assert persisted["shards"] >= 1
        assert persisted["records"] >= 1
        assert persisted["hot_hits"] >= 1  # second batch: hot, not disk
        assert "disk_bytes" in persisted and "disk_hits" in persisted

    def test_shutdown_flushes_the_write_behind_tail(self, tmp_path):
        """Verdicts buffered below FLUSH_EVERY must still be on disk
        after a clean shutdown."""
        from repro.store import PersistentVerdictStore

        store_dir = str(tmp_path / "vstore")
        server = ReproServer(store_dir=store_dir)
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            with ServeClient(address) as client:
                assert client.request(pair_jobs())["ok"]
        finally:
            server.shutdown()
        store = PersistentVerdictStore(store_dir)
        try:
            persisted = store.stats_dict()["persistent"]
            assert persisted["records"] >= 1
            assert persisted["pending"] == 0
        finally:
            store.close()

    def test_cli_serve_announces_the_persistent_store(self, tmp_path, capsys):
        """`repro serve --store-dir` on a fresh dir prints the warm
        record count before binding (cheap smoke of the CLI path
        without running a daemon: bind failure path)."""
        from repro.cli import main

        store_dir = str(tmp_path / "vstore")
        held = ReproServer()
        path = str(tmp_path / "held.sock")
        held.bind_unix(path)
        held.serve_in_background()
        try:
            code = main([
                "serve", "--socket", path, "--store-dir", store_dir,
            ])
        finally:
            held.shutdown()
        captured = capsys.readouterr()
        assert code == 2  # socket already held -> usage error
        assert "persistent store at" in captured.out
        assert "0 records warm" in captured.out
