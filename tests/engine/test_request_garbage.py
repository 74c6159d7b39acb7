"""Serving makes no cyclic garbage: every object a request creates is
freed by reference counting, so the cyclic collector finds nothing to
collect after a corpus of requests covering both wire formats, every
job kind, the ingest memo's byte path (hits, misses and fallbacks),
error replies and the telemetry ops — served in memory, through a
restarted persistent store, with Theorem 4 searches shipped to the
process pool, and up to the ``shutdown`` op."""

import gc
import json
import random
import socket
from collections import Counter

from repro.core.schema import Schema
from repro.engine import executors, wire
from repro.io import bag_to_dict
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import (
    inconsistent_pair,
    planted_collection,
    planted_pair,
)

AB, BC, CD, AC = (Schema(pair) for pair in (["A", "B"], ["B", "C"],
                                             ["C", "D"], ["A", "C"]))
DEEP = b"[" * 100_000 + b"]" * 100_000


def jobs(seed: int) -> tuple[list, list]:
    """Fresh content per seed: two pairs (one consistent) and two
    collections, one over a path (the Theorem 6 fold) and one over a
    triangle (the Theorem 4 search)."""
    rng = random.Random(seed)
    _, r, s = planted_pair(AB, BC, rng, n_tuples=40)
    pairs = [[r, s], list(inconsistent_pair(AB, BC, rng, n_tuples=6))]
    collections = [
        planted_collection([AB, BC, CD], rng, n_tuples=8)[1],
        planted_collection([AB, BC, AC], rng, domain_size=2, n_tuples=4)[1],
    ]
    return pairs, collections


def as_json(pairs, collections) -> dict:
    return {
        "pairs": [[bag_to_dict(bag) for bag in pair] for pair in pairs],
        "collections": [
            {"bags": [bag_to_dict(bag) for bag in bags]}
            for bags in collections
        ],
    }


ERROR_LINES = [
    b'{"pairs": [[',  # not JSON
    b'{"pairs": ' + DEEP + b"}",  # nested past the recursion limit
    b'{"pairs": [[{"schema": ["A"], "tuples": [[[1], -1]]}, '
    b'{"schema": ["A"], "tuples": []}]]}',  # a bad multiplicity
    b'{"pairs": [[{"schema": ["A", "B"], "tuples": [[[1, [2]], 1]]}, '
    b'{"schema": ["A"], "tuples": []}]]}',  # a row holding an array
    b'{"pairs": 5}',  # a job key that is not a list
]


def serve_corpus(address, seed: int) -> None:
    pairs, collections = jobs(seed)
    line = json.dumps(as_json(pairs, collections)).encode() + b"\n"
    odd = json.dumps({"pairs": [[
        {"schema": ["A"], "tuples": [[["\x00 x]}"], 1]]},
        {"tuples": [[["x"], 1]], "schema": ["A"]},
    ]]}).encode() + b"\n"  # always falls back
    with socket.create_connection(address, timeout=30) as raw:
        replies = raw.makefile("rb")

        def send(data: bytes) -> dict:
            raw.sendall(data)
            return json.loads(replies.readline())

        # the plain path, then (once a store hit opened the memo) the
        # byte path: misses, hits, fallbacks and its error replies
        for data in ERROR_LINES:
            assert not send(data + b"\n")["ok"]
        for _ in range(3):
            assert send(line)["ok"]
            assert send(odd)["ok"]
        for data in ERROR_LINES:
            assert not send(data + b"\n")["ok"]
        assert send(b'{"suites": [["planted-path", 3, %d]]}\n' % seed)["ok"]
        assert send(b'{"op": "stats"}\n')["ok"]
        assert send(b'{"op": "metrics"}\n')["ok"]
    with ServeClient(address, wire_format="columnar") as client:
        for _ in range(2):
            answer = client.request({
                "pairs": pairs,
                "collections": [{"bags": bags} for bags in collections],
            })
            assert answer["ok"], answer
        bad = client.request({"pairs": [[  # an inline bag that does not build
            pairs[0][0], {"schema": ["A"], "tuples": [[[1], -1]]},
        ]]})
        assert not bad["ok"]
    header = b'{"v": 2, "payload": ' + DEEP + b"}"
    with socket.create_connection(address, timeout=30) as raw:
        replies = raw.makefile("rb")
        raw.sendall(wire.MAGIC + wire._PREFIX.pack(
            wire.VERSION, len(header), 0) + header)
        reply, _ = wire.read_frame(replies)
        assert not wire.response_from_frame(reply)["ok"]
        # a frame without a payload object
        raw.sendall(wire.pack_frame({"v": wire.VERSION}))
        reply, _ = wire.read_frame(replies)
        assert not wire.response_from_frame(reply)["ok"]


def garbage_of(serve) -> Counter:
    """What the cyclic collector finds after ``serve()``, by type."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        serve()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def started(**options) -> tuple[ReproServer, tuple]:
    server = ReproServer(witnesses=True, **options)
    address = server.bind_tcp()
    server.serve_in_background()
    return server, address


def test_serving_leaves_no_cyclic_garbage():
    server, address = started()
    try:
        serve_corpus(address, 1)  # first-use work: imports, caches
        garbage = garbage_of(lambda: serve_corpus(address, 2))
    finally:
        server.shutdown()
    assert garbage == Counter()


def test_a_restarted_store_daemon_leaves_no_cyclic_garbage(tmp_path):
    """Read-throughs from segments and from write-behind buffers, and
    flushes: the restarted daemon's hot tier holds 2 entries, so the
    corpus it served before comes back from disk, new content cycles
    through the buffers, and its stop flushes them."""
    store_dir = str(tmp_path / "store")
    server, address = started(store_dir=store_dir)
    try:
        serve_corpus(address, 1)
    finally:
        server.shutdown()
    server, address = started(store_dir=store_dir, capacity=2)

    def serve_and_stop() -> None:
        serve_corpus(address, 1)
        serve_corpus(address, 2)
        server.shutdown()

    try:
        garbage = garbage_of(serve_and_stop)
    finally:
        server.shutdown()
    assert garbage == Counter()
    disk = server.store.stats_dict()["persistent"]
    assert disk["disk_hits"] and disk["buffer_hits"] and disk["flushes"]


def test_a_process_batch_leaves_no_cyclic_garbage():
    executors.shutdown_pools()
    server, address = started(parallelism=2)
    try:
        serve_corpus(address, 1)  # forks the pool
        merged = server.store.merged
        garbage = garbage_of(lambda: serve_corpus(address, 2))
        shipped = server.store.merged - merged
    finally:
        server.shutdown()
    assert garbage == Counter()
    assert shipped  # the new triangle's search ran on a worker


def test_the_shutdown_op_leaves_no_cyclic_garbage():
    server, address = started()

    def serve_and_stop() -> None:
        serve_corpus(address, 2)
        with ServeClient(address) as client:
            assert client.request({"op": "shutdown"})["bye"]
        server.shutdown()  # returns once the op's stop has finished

    try:
        serve_corpus(address, 1)
        garbage = garbage_of(serve_and_stop)
    finally:
        server.shutdown()
    assert garbage == Counter()
