"""The daemon derives every store key it writes from bag content.

Two ways a client once made another client read a wrong verdict: a v2
frame whose ``fp`` claims another bag's fingerprint, and two bags whose
additive (encoding 2) fingerprints collide.  Each test replays one
against a daemon and then asks an honest question over JSON lines.
"""

import socket

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint, wire
from repro.engine.session import Engine
from repro.io import bag_to_dict
from repro.server import ReproServer, ServeClient
from tests.conftest import collision_bags

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])

LEFT = Bag.from_pairs(AB, [((1, 2), 1), ((2, 2), 1)])
HONEST = Bag.from_pairs(BC, [((2, 3), 2)])  # consistent with LEFT
FORGED = Bag.from_pairs(BC, [((5, 3), 2)])  # inconsistent with LEFT


def forged_frame() -> bytes:
    """A jobs frame asking about (LEFT, FORGED), whose FORGED
    descriptor claims HONEST's fingerprint."""
    header = {
        "v": wire.VERSION,
        "payload": {"pairs": [[{"$bag": 0}, {"$bag": 1}]]},
        "bags": [
            {"json": bag_to_dict(LEFT), "fp": fingerprint.of_bag(LEFT)},
            {"json": bag_to_dict(FORGED), "fp": fingerprint.of_bag(HONEST)},
        ],
    }
    return wire.pack_frame(header)


def send_frame(address, frame: bytes) -> dict:
    with socket.create_connection(address, timeout=30) as raw:
        raw.sendall(frame)
        header, _ = wire.read_frame(raw.makefile("rb"))
    return wire.response_from_frame(header)


def ask(address, left: Bag, right: Bag) -> bool:
    with ServeClient(address, wire_format="json") as client:
        response = client.request(
            {"pairs": [[bag_to_dict(left), bag_to_dict(right)]]}
        )
    assert response["ok"], response
    return response["report"]["pairs"][0]["consistent"]


def serving(**options):
    server = ReproServer(**options)
    address = server.bind_tcp()
    server.serve_in_background()
    return server, address


class TestForgedClaim:
    def test_a_forged_fp_misleads_only_its_sender(self):
        server, address = serving()
        try:
            # the liar gets the verdict of the content it sent
            response = send_frame(address, forged_frame())
            assert response["report"]["pairs"] == [{"consistent": False}]
            assert ask(address, LEFT, HONEST) is True
        finally:
            server.shutdown()

    def test_a_forged_fp_is_not_persisted_under_the_claim(self, tmp_path):
        store_dir = str(tmp_path / "vstore")
        server, address = serving(store_dir=store_dir)
        try:
            send_frame(address, forged_frame())
        finally:
            server.shutdown()
        server, address = serving(store_dir=store_dir)
        try:
            assert ask(address, LEFT, HONEST) is True
        finally:
            server.shutdown()

    def test_an_honest_claim_still_keys_reads(self):
        server, address = serving()
        try:
            assert ask(address, LEFT, HONEST) is True
            frame = wire.encode_jobs_frame({"pairs": [[LEFT, HONEST]]})
            response = send_frame(address, frame)
            assert response["report"]["pairs"] == [{"consistent": True}]
            assert response["report"]["stats"]["consistency_hits"] == 1
        finally:
            server.shutdown()


class TestEncoding2Collision:
    def test_colliding_bags_get_their_own_verdicts(self):
        a, b = collision_bags()
        q_of_a = {}
        for (_, q), mult in a.items():
            q_of_a[(q, 0)] = q_of_a.get((q, 0), 0) + mult
        c = Bag.from_pairs(Schema(["Q", "X"]), list(q_of_a.items()))
        assert Engine().are_consistent(a, c) is True
        assert Engine().are_consistent(b, c) is False
        server, address = serving()
        try:
            assert ask(address, a, c) is True
            assert ask(address, b, c) is False
        finally:
            server.shutdown()
