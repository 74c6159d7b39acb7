"""The v2 wire format: frame codec and serve negotiation."""

import io
import json
import random
import socket
import socketserver
import threading

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import columnar, fingerprint, wire
from repro.engine.index import BagIndex
from repro.engine.jobs import parse_jobs, run_jobs
from repro.engine.session import Engine
from repro.errors import ReproError
from repro.io import bag_to_dict
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import wide_planted_pair

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])

_UNIQ = [0]


def wide_pair(n_rows=64):
    """A fresh consistent wide-schema pair with a disjoint value pool
    (the per-test seed keeps index sharing from hiding decode work)."""
    _UNIQ[0] += 1
    rng = random.Random(900_000 + _UNIQ[0])
    _, r, s = wide_planted_pair(rng, n_rows=n_rows)
    return r, s


def small_pair(mult=2):
    r = Bag.from_pairs(AB, [((1, 2), mult), ((2, 2), 1)])
    s = Bag.from_pairs(BC, [((2, 3), mult + 1)])
    return r, s


def round_trip(payload):
    frame = wire.encode_jobs_frame(payload)
    header, blob = wire.read_frame(io.BytesIO(frame))
    return wire.decode_jobs_frame(header, blob)


@pytest.fixture
def tcp_server():
    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    yield server, address
    server.shutdown()


class TestFrameCodec:
    def test_round_trip_preserves_bags_and_seeds_fingerprints(self):
        r, s = wide_pair()
        decoded = round_trip({"pairs": [[r, s]]})
        l2, r2 = decoded["pairs"][0]
        assert l2 == r and r2 == s
        assert fingerprint.of_bag(l2) == fingerprint.of_bag(r)
        assert fingerprint.of_bag(r2) == fingerprint.of_bag(s)

    @pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
    def test_decode_adopts_encoding_without_reencoding(self):
        r, s = wide_pair()
        # prime the sender-side encodings before measuring
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        before = columnar.kernel_stats()["encodings"]
        decoded = wire.decode_jobs_frame(header, blob)
        assert columnar.kernel_stats()["encodings"] == before
        l2 = decoded["pairs"][0][0]
        encoded = BagIndex.of(l2)._columnar
        assert isinstance(encoded, columnar.ColumnarBag)
        # the adopted encoding answers marginals directly
        assert l2.marginal(Schema([l2.schema.attrs[0]])) == r.marginal(
            Schema([r.schema.attrs[0]])
        )

    def test_shared_bags_ship_once(self):
        r, s = wide_pair()
        frame = wire.encode_jobs_frame(
            {"pairs": [[r, s], [r, s], [r, r]]}
        )
        header, _ = wire.read_frame(io.BytesIO(frame))
        assert len(header["bags"]) == 2
        decoded = wire.decode_jobs_frame(
            *wire.read_frame(io.BytesIO(frame))
        )
        assert decoded["pairs"][0][0] is decoded["pairs"][2][1]

    def test_small_bags_ride_inline_json(self):
        r, s = small_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        assert all("json" in desc for desc in header["bags"])
        decoded = wire.decode_jobs_frame(header, blob)
        l2 = decoded["pairs"][0][0]
        assert l2 == r
        assert fingerprint.of_bag(l2) == fingerprint.of_bag(r)

    def test_dict_payloads_and_ops_pass_through(self):
        r, s = small_pair()
        payload = {
            "op": "batch",
            "pairs": [[bag_to_dict(r), bag_to_dict(s)]],
            "suites": [["planted-path", 4, 0]],
        }
        decoded = round_trip(payload)
        assert decoded["op"] == "batch"
        assert decoded["suites"] == [["planted-path", 4, 0]]
        assert decoded["pairs"][0][0] == r
        assert round_trip({"op": "stats"}) == {"op": "stats"}

    def test_report_identical_across_formats(self):
        r, s = wide_pair()
        framed = run_jobs(parse_jobs(round_trip({"pairs": [[r, s]]})), Engine())
        json_payload = json.loads(
            json.dumps(wire.jsonify_payload({"pairs": [[r, s]]}))
        )
        rowed = run_jobs(parse_jobs(json_payload), Engine())
        assert framed["pairs"] == rowed["pairs"]

    @pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
    def test_pure_python_decode_is_bit_identical(self):
        r, s = wide_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        with columnar.disabled():
            decoded = wire.decode_jobs_frame(header, blob)
        l2, r2 = decoded["pairs"][0]
        assert l2 == r and r2 == s

    @pytest.mark.skipif(not columnar.AVAILABLE, reason="numpy required")
    def test_remap_is_independent_of_sender_dictionary_order(self):
        # simulate a foreign client whose interner disagrees with ours:
        # permute every column's local dictionary and rewrite the codes
        r, _ = wide_pair()
        port = columnar.export_encoding(
            columnar.of_index(BagIndex.of(r))
        )
        np = pytest.importorskip("numpy")
        writer = wire._BlobWriter()
        cols = []
        for codes_bytes, values in port.columns:
            codes = np.frombuffer(codes_bytes, dtype="<i8")
            k = len(values)
            cols.append({
                "codes": writer.add(
                    (k - 1 - codes).astype("<i8").tobytes()
                ),
                "values": list(reversed(values)),
            })
        desc = {
            "schema": list(port.attrs),
            "n": port.n,
            "total": port.total,
            "fp": fingerprint.of_bag(r),
            "mults": writer.add(port.mults),
            "cols": cols,
        }
        frame = wire.pack_frame(
            {"v": wire.VERSION, "payload": {"pairs": [[{"$bag": 0},
             {"$bag": 0}]]}, "bags": [desc]},
            writer,
        )
        decoded = wire.decode_jobs_frame(*wire.read_frame(io.BytesIO(frame)))
        assert decoded["pairs"][0][0] == r

    def test_truncated_frame_raises(self):
        r, s = small_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        for cut in (2, 10, len(frame) - 1):
            with pytest.raises(wire.WireError, match="truncated"):
                wire.read_frame(io.BytesIO(frame[:cut]))

    def test_oversized_lengths_rejected(self, monkeypatch):
        r, s = small_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        monkeypatch.setattr(wire, "MAX_HEADER_BYTES", 8)
        with pytest.raises(wire.WireError, match="exceeds"):
            wire.read_frame(io.BytesIO(frame))

    def test_bad_magic_rejected(self):
        with pytest.raises(wire.WireError, match="magic"):
            wire.read_frame(io.BytesIO(b"NOPE" + b"\x00" * 64))

    @pytest.mark.skipif(
        not columnar.AVAILABLE,
        reason="columnar descriptors require numpy (inline JSON otherwise)",
    )
    def test_malformed_descriptors_rejected(self):
        def tampered(mutate):
            r, _ = wide_pair()
            frame = wire.encode_jobs_frame({"pairs": [[r, r]]})
            header, blob = wire.read_frame(io.BytesIO(frame))
            mutate(header["bags"][0])
            return header, blob

        header, blob = tampered(lambda d: d.update(total=d["total"] + 1))
        with pytest.raises(wire.WireError, match="total mismatch"):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(lambda d: d.update(fp="nope"))
        with pytest.raises(wire.WireError, match="fingerprint"):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(lambda d: d["cols"][0].update(values=[]))
        with pytest.raises(wire.WireError):
            wire.decode_jobs_frame(header, blob)
        header, blob = tampered(lambda d: d.update(mults=[1 << 40, 8]))
        with pytest.raises(wire.WireError, match="blob reference"):
            wire.decode_jobs_frame(header, blob)

    def test_bad_bag_reference_rejected(self):
        frame = wire.pack_frame({
            "v": wire.VERSION,
            "payload": {"pairs": [[{"$bag": 5}, {"$bag": 5}]]},
            "bags": [],
        })
        header, blob = wire.read_frame(io.BytesIO(frame))
        with pytest.raises(wire.WireError, match="bag reference"):
            wire.decode_jobs_frame(header, blob)


class TestServeNegotiation:
    def test_columnar_and_json_clients_agree(self, tcp_server):
        _, address = tcp_server
        r, s = wide_pair()
        with ServeClient(address, wire_format="columnar") as client:
            framed = client.request({"pairs": [[r, s]]})
            assert client.wire_version == wire.VERSION
            stats = client.request({"op": "stats"})
        with ServeClient(address, wire_format="json") as client:
            rowed = client.request({"pairs": [[r, s]]})
            assert client.wire_version == 1
        assert framed["ok"] and rowed["ok"]
        assert framed["report"]["pairs"] == rowed["report"]["pairs"]
        assert stats["wire_format"] == "columnar"
        assert stats["kernels"]["wire_frames_decoded"] >= 1

    def test_auto_negotiates_only_for_bag_payloads(self, tcp_server):
        _, address = tcp_server
        r, s = small_pair()
        with ServeClient(address) as client:
            dict_jobs = {"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}
            assert client.request(dict_jobs)["ok"]
            assert client.wire_version is None  # still pure v1 traffic
            assert client.request({"pairs": [[r, s]]})["ok"]
            assert client.wire_version == wire.VERSION

    def test_v2_client_degrades_against_v1_only_server(self):
        server = ReproServer(wire_format="json")
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            r, s = wide_pair()
            with ServeClient(address, wire_format="columnar") as client:
                report = client.request({"pairs": [[r, s]]})
                assert client.wire_version == 1
                assert report["ok"]
                assert report["report"]["pairs"] == [{"consistent": True}]
                stats = client.request({"op": "stats"})
                assert stats["ok"] and stats["wire_format"] == "json"
                assert client.request({"op": "ping"})["ok"]
                assert client.request({"op": "shutdown"})["ok"]
        finally:
            server.shutdown()

    def test_v1_client_against_v2_server_runs_every_op(self, tcp_server):
        _, address = tcp_server
        r, s = small_pair()
        with ServeClient(address, wire_format="json") as client:
            jobs = {"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}
            assert client.request(jobs)["ok"]
            assert client.request({"op": "ping"})["ok"]
            assert client.request({"op": "stats"})["ok"]

    def test_shutdown_over_frames(self):
        server = ReproServer()
        address = server.bind_tcp()
        server.serve_in_background()
        r, s = wide_pair()
        with ServeClient(address, wire_format="columnar") as client:
            assert client.request({"pairs": [[r, s]]})["ok"]
            bye = client.request({"op": "shutdown"})
            assert bye["ok"] and bye["bye"]
        server.shutdown()


class TestServeFailurePaths:
    def test_truncated_request_frame_leaves_server_alive(self, tcp_server):
        _, address = tcp_server
        raw = socket.create_connection(address, timeout=5)
        try:
            raw.sendall(wire.MAGIC + b"\x02\xff\xff")  # prefix cut short
        finally:
            raw.close()
        with ServeClient(address) as client:
            assert client.request({"op": "ping"})["ok"]

    def test_malformed_frame_gets_error_response(self, tcp_server):
        _, address = tcp_server
        frame = wire.pack_frame({"v": wire.VERSION})  # no payload object
        raw = socket.create_connection(address, timeout=5)
        try:
            raw.sendall(frame)
            rfile = raw.makefile("rb")
            header, _ = wire.read_frame(rfile)
            response = wire.response_from_frame(header)
            assert not response["ok"]
            assert "payload" in response["error"]
            # the stream is still synchronized: JSON lines keep working
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(rfile.readline())["ok"]
        finally:
            raw.close()

    def test_oversized_line_refused_and_connection_closed(
        self, tcp_server, monkeypatch
    ):
        _, address = tcp_server
        monkeypatch.setattr(wire, "MAX_LINE", 1024)
        raw = socket.create_connection(address, timeout=5)
        try:
            raw.sendall(b"[" + b"1," * 2048 + b"1]")  # no newline, > cap
            rfile = raw.makefile("rb")
            response = json.loads(rfile.readline())
            assert not response["ok"]
            assert "exceeds" in response["error"]
            assert rfile.readline() == b""  # server closed the stream
        finally:
            raw.close()
        with ServeClient(address) as client:
            assert client.request({"op": "ping"})["ok"]

    def test_frames_refused_when_wire_format_json(self):
        server = ReproServer(wire_format="json")
        address = server.bind_tcp()
        server.serve_in_background()
        try:
            r, s = small_pair()
            frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
            raw = socket.create_connection(address, timeout=5)
            try:
                raw.sendall(frame)
                rfile = raw.makefile("rb")
                header, _ = wire.read_frame(rfile)
                response = wire.response_from_frame(header)
                assert not response["ok"]
                assert "disabled" in response["error"]
            finally:
                raw.close()
        finally:
            server.shutdown()

    def test_server_closing_before_response_raises(self):
        class _Closer(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(64)
                self.request.close()

        listener = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Closer
        )
        listener.daemon_threads = True
        threading.Thread(
            target=listener.serve_forever, daemon=True
        ).start()
        try:
            client = ServeClient(listener.server_address[:2])
            with pytest.raises(ReproError, match="closed"):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.shutdown()
            listener.server_close()

    def test_truncated_response_frame_raises(self):
        class _Partial(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(4096)
                self.request.sendall(wire.MAGIC + b"\x02\x01")
                self.request.close()

        listener = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Partial
        )
        listener.daemon_threads = True
        threading.Thread(
            target=listener.serve_forever, daemon=True
        ).start()
        try:
            client = ServeClient(listener.server_address[:2])
            with pytest.raises(wire.WireError, match="truncated"):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.shutdown()
            listener.server_close()


class TestObservability:
    def test_kernel_stats_carries_wire_counters(self):
        stats = columnar.kernel_stats()
        for key in (
            "wire_frames_encoded", "wire_frames_decoded",
            "wire_json_requests", "wire_json_bytes",
        ):
            assert key in stats

    def test_batch_report_surfaces_wire_counters(self):
        r, s = small_pair()
        report = run_jobs(
            parse_jobs({"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}),
            Engine(),
        )
        assert "wire_frames_encoded" in report["kernels"]
