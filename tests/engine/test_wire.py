"""The v2 wire format: frame codec and serve negotiation."""

import io
import json
import os
import random
import socket
import socketserver
import subprocess
import sys
import threading
from array import array
from pathlib import Path

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint, wire
from repro.engine.jobs import parse_jobs, run_jobs
from repro.engine.session import Engine
from repro.errors import ReproError
from repro.io import bag_from_dict, bag_to_dict
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import wide_planted_pair

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
SRC = Path(__file__).resolve().parents[2] / "src"

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


def as_json(bag: Bag) -> str:
    """The bag as ``repro.io`` writes it: ``True``, ``1`` and ``1.0``,
    and ``0.0`` and ``-0.0``, compare equal in Python but not here."""
    return json.dumps(bag_to_dict(bag))


def filled(schema, rows):
    """A bag holding ``rows`` plus string-valued filler rows, enough
    to clear ``wire.MIN_ROWS``."""
    width = len(schema.attrs)
    filler = [
        tuple(f"v{i}" for _ in range(width))
        for i in range(wire.MIN_ROWS + 8 - len(rows))
    ]
    return Bag.from_pairs(schema, [(row, 1) for row in rows + filler])


def mixed_numbers():
    """One column mixing ``1``, ``True`` and ``1.0`` in distinct rows."""
    return filled(AB, [(1, 0), (True, 1), (1.0, 2)])


def signed_zeros():
    return filled(AB, [(0.0, 0), (-0.0, 1), (2.5, 2)])


def one_and_true():
    """Two bags of attribute A, one holding ``1`` and one ``True``:
    each column is type-pure, so both ship as dictionaries."""
    return (
        filled(AB, [(1, "x")]),
        filled(Schema(["A", "C"]), [(True, "y")]),
    )


def descriptor_kinds(payload):
    frame = wire.encode_jobs_frame(payload)
    header, _ = wire.read_frame(io.BytesIO(frame))
    return ["json" if "json" in desc else "cols" for desc in header["bags"]]


def patched(blob, ref, ints):
    """``blob`` with the int64 section at ``ref`` overwritten."""
    off, length = ref
    out = bytearray(blob)
    out[off:off + length] = array("q", ints).tobytes()
    return bytes(out)


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
        assert descriptor_kinds({"pairs": [[r, s]]}) == ["cols", "cols"]
        decoded = round_trip({"pairs": [[r, s]]})
        l2, r2 = decoded["pairs"][0]
        assert l2 == r and r2 == s
        assert fingerprint.of_bag(l2) == fingerprint.of_bag(r)
        assert fingerprint.of_bag(r2) == fingerprint.of_bag(s)

    def test_pure_python_decode_is_bit_identical(self):
        r, s = wide_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, s]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        decoded = wire.decode_jobs_frame(header, blob)
        l2, r2 = decoded["pairs"][0]
        assert l2 == r and r2 == s
        # bit-identical to a JSON-lines decode: the same values, types
        # and row order (witnesses follow row order)
        for sent, got in ((r, l2), (s, r2)):
            rowed = bag_from_dict(bag_to_dict(sent))
            assert list(got.items()) == list(rowed.items())
            assert as_json(got) == as_json(sent)

    def test_export_is_cached_on_the_index(self, monkeypatch):
        r, s = wide_pair()
        first = wire.encode_jobs_frame({"pairs": [[r, s]]})

        def refuse(index):
            raise AssertionError("bag encoded twice")

        monkeypatch.setattr(wire, "_encode_bag", refuse)
        assert wire.encode_jobs_frame({"pairs": [[r, s]]}) == first
        # a value-equal copy shares the index through its fingerprint
        copy = Bag(r.schema, dict(r.items()))
        assert wire.encode_jobs_frame({"pairs": [[copy, s]]}) == first

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

    def test_remap_is_independent_of_sender_dictionary_order(self):
        # a foreign sender may order its dictionaries any way it likes:
        # reverse every column's local dictionary and rewrite its codes
        r, _ = wide_pair()
        frame = wire.encode_jobs_frame({"pairs": [[r, r]]})
        header, blob = wire.read_frame(io.BytesIO(frame))
        (desc,) = header["bags"]
        writer = wire._BlobWriter()
        off, length = desc["mults"]
        desc["mults"] = writer.add(blob[off:off + length])
        for col in desc["cols"]:
            off, length = col["codes"]
            codes = array("q")
            codes.frombytes(blob[off:off + length])
            top = len(col["values"]) - 1
            col["codes"] = writer.add(
                array("q", (top - code for code in codes)).tobytes()
            )
            col["values"].reverse()
        decoded = wire.decode_jobs_frame(
            *wire.read_frame(io.BytesIO(wire.pack_frame(header, writer)))
        )
        assert as_json(decoded["pairs"][0][0]) == as_json(r)

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

    def test_undecodable_header_json_rejected(self):
        for header in (
            b'{"v": 2, "payload": {"pairs": [\xc3]}}',  # invalid UTF-8
            b'{"v": 2, "payload": {"n": ' + b"7" * 5000 + b"}}",
            # past the decoder's recursion limit
            b'{"v": 2, "payload": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ):
            frame = b"".join((
                wire.MAGIC,
                wire._PREFIX.pack(wire.VERSION, len(header), 0),
                header,
            ))
            stream = io.BytesIO(frame + b"next")
            with pytest.raises(wire.HeaderError, match="invalid JSON"):
                wire.read_frame(stream)
            assert stream.read() == b"next"  # read whole: still in sync
            with pytest.raises(wire.HeaderError, match="invalid JSON"):
                wire.split_frame(frame)

    def test_bad_magic_rejected(self):
        with pytest.raises(wire.WireError, match="magic"):
            wire.read_frame(io.BytesIO(b"NOPE" + b"\x00" * 64))

    def test_malformed_descriptors_rejected(self):
        def tampered(mutate):
            r, _ = wide_pair()
            frame = wire.encode_jobs_frame({"pairs": [[r, r]]})
            header, blob = wire.read_frame(io.BytesIO(frame))
            mutate(header["bags"][0])
            return header, blob

        def rewritten(refs, value):
            header, blob = tampered(lambda d: None)
            desc = header["bags"][0]
            for ref in refs(desc):
                blob = patched(blob, ref, [value] * desc["n"])
            return header, blob

        def first_codes(desc):
            return [desc["cols"][0]["codes"]]

        def all_codes(desc):
            return [col["codes"] for col in desc["cols"]]

        def mults(desc):
            return [desc["mults"]]

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
        # codes are read unsigned: a negative one is out of range too
        for code in (-1, 1 << 40):
            header, blob = rewritten(first_codes, code)
            with pytest.raises(wire.WireError, match="out of range"):
                wire.decode_jobs_frame(header, blob)
        header, blob = rewritten(all_codes, 0)
        with pytest.raises(wire.WireError, match="duplicate rows"):
            wire.decode_jobs_frame(header, blob)
        for mult in (0, -3):
            header, blob = rewritten(mults, mult)
            with pytest.raises(wire.WireError, match="non-positive"):
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


class TestExactValues:
    """Frames carry exactly the values ``repro.io`` keeps apart."""

    def round_trips(self, *bags):
        decoded = round_trip({"pairs": [list(bags)]})["pairs"][0]
        for bag, got in zip(bags, decoded):
            assert as_json(got) == as_json(bag)
            # the seeded fingerprint is the one its content hashes to
            fresh = Bag(got.schema, dict(got.items()))
            assert fingerprint.of_bag(fresh) == fingerprint.of_bag(bag)

    def test_mixed_numbers_in_one_column(self):
        bag = mixed_numbers()
        assert descriptor_kinds({"pairs": [[bag, bag]]}) == ["json"]
        self.round_trips(bag, bag)

    def test_signed_zeros_in_one_column(self):
        bag = signed_zeros()
        assert descriptor_kinds({"pairs": [[bag, bag]]}) == ["json"]
        self.round_trips(bag, bag)
        # one sign of zero is a plain float column
        positive = filled(AB, [(0.0, 0), (2.5, 1)])
        assert descriptor_kinds({"pairs": [[positive, positive]]}) == ["cols"]
        self.round_trips(positive, positive)

    def test_one_and_true_in_two_bags_of_one_attribute(self):
        ones, trues = one_and_true()
        payload = {"pairs": [[ones, trues]]}
        assert descriptor_kinds(payload) == ["cols", "cols"]
        self.round_trips(ones, trues)
        self.round_trips(trues, ones)

    def test_multiplicities_past_int64_ride_inline(self):
        for top, kind in (((1 << 63) - 1, "cols"), (1 << 63, "json")):
            bag = Bag.from_pairs(AB, [
                ((i, i), top if i == 0 else 1) for i in range(wire.MIN_ROWS)
            ])
            assert descriptor_kinds({"pairs": [[bag, bag]]}) == [kind]
            self.round_trips(bag, bag)

    def test_daemon_reports_match_over_both_formats(self, tmp_path):
        ones, trues = one_and_true()
        mixed, zeros = mixed_numbers(), signed_zeros()
        payload = {"pairs": [
            [mixed, mixed], [zeros, zeros], [ones, trues], [trues, ones],
        ]}
        expected = run_jobs(
            parse_jobs(json.loads(json.dumps(wire.jsonify_payload(payload)))),
            Engine(),
            witnesses=True,
        )["pairs"]
        path = str(tmp_path / "repro.sock")
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--witnesses",
             "--socket", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            assert daemon.stdout.readline().startswith("serving on")
            # frames first, so the JSON-lines request meets the verdicts
            # and witnesses the decoded bags left in the daemon's store
            with ServeClient(path, wire_format="columnar") as client:
                framed = client.request(payload)
                assert client.wire_version == wire.VERSION
            with ServeClient(path, wire_format="json") as client:
                rowed = client.request(payload)
                assert client.request({"op": "shutdown"})["ok"]
            daemon.communicate(timeout=30)
        finally:
            if daemon.poll() is None:
                daemon.kill()
                daemon.communicate()
        assert framed["ok"] and rowed["ok"]
        reports = [
            json.dumps(report, sort_keys=True)
            for report in (framed["report"]["pairs"],
                           rowed["report"]["pairs"], expected)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert all(entry["consistent"] for entry in expected)


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
        """A daemon from before frames: JSON lines only, and a ping
        that carries no ``"wire"`` key."""
        daemon = ReproServer()
        pings = []

        class _V1Only(socketserver.StreamRequestHandler):
            def handle(self):
                for line in self.rfile:
                    response = daemon.handle_payload(json.loads(line))
                    if response.get("op") == "ping":
                        del response["wire"]
                        pings.append(response)
                    self.wfile.write(json.dumps(response).encode() + b"\n")
                    self.wfile.flush()

        listener = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _V1Only
        )
        listener.daemon_threads = True
        threading.Thread(
            target=listener.serve_forever, daemon=True
        ).start()
        try:
            r, s = wide_pair()
            address = listener.server_address[:2]
            with ServeClient(address, wire_format="columnar") as client:
                report = client.request({"pairs": [[r, s]]})
                assert client.wire_version == 1
                assert report["ok"]
                assert report["report"]["pairs"] == [{"consistent": True}]
                assert client.request({"op": "stats"})["ok"]
                assert client.request({"op": "ping"})["ok"]
                assert client.request({"op": "shutdown"})["ok"]
            assert len(pings) == 2  # the handshake, then the plain ping
        finally:
            listener.shutdown()
            listener.server_close()
            daemon.shutdown()

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

    def test_deeply_nested_header_gets_error_reply(self, tcp_server):
        """A frame header nested past the decoder's recursion limit gets
        an error frame, not a dead handler thread; the frame was read
        whole before its header was decoded, so the same connection
        then answers a ping."""
        _, address = tcp_server
        header = b'{"v": 2, "payload": {"pairs": ' + b"[" * 100_000 \
            + b"]" * 100_000 + b"}}"
        frame = b"".join((
            wire.MAGIC,
            wire._PREFIX.pack(wire.VERSION, len(header), 4),
            header,
            b"blob",
        ))
        with socket.create_connection(address, timeout=10) as raw:
            replies = raw.makefile("rb")
            raw.sendall(frame)
            reply, _ = wire.read_frame(replies)
            response = wire.response_from_frame(reply)
            assert response["ok"] is False
            assert "invalid JSON in frame header" in response["error"]
            raw.sendall(b'{"op": "ping"}\n')
            assert json.loads(replies.readline())["ok"]

    def test_deeply_nested_response_line_raises(self):
        class _Deep(socketserver.BaseRequestHandler):
            def handle(self):
                self.request.recv(4096)
                self.request.sendall(b"[" * 100_000 + b"\n")

        listener = socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), _Deep
        )
        listener.daemon_threads = True
        threading.Thread(
            target=listener.serve_forever, daemon=True
        ).start()
        try:
            client = ServeClient(listener.server_address[:2])
            with pytest.raises(ReproError, match="malformed response"):
                client.request({"op": "ping"})
            client.close()
        finally:
            listener.shutdown()
            listener.server_close()

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


WIRE_KEYS = {
    "wire_frames_encoded", "wire_frames_decoded",
    "wire_frame_bytes_encoded", "wire_frame_bytes_decoded",
    "wire_json_requests", "wire_json_bytes",
}


class TestObservability:
    def test_kernel_stats_carries_wire_counters(self):
        assert set(wire.wire_stats()) == WIRE_KEYS

    def test_batch_report_surfaces_wire_counters(self):
        r, s = small_pair()
        report = run_jobs(
            parse_jobs({"pairs": [[bag_to_dict(r), bag_to_dict(s)]]}),
            Engine(),
        )
        assert set(report["kernels"]) == WIRE_KEYS
