"""The ingest memo: one bag per exact JSON encoding, bounded, and read
only by connections that repeat themselves."""

import gc
import json
import random
import socket
import sys
import threading
import weakref

import pytest

from repro import io as repro_io
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine import jobs
from repro.engine.index import BagIndex
from repro.engine.jobs import IngestMemo, parse_jobs
from repro.errors import MultiplicityError, SchemaError
from repro.io import bag_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.server import ReproServer

AB = Schema(["A", "B"])


def encoding(values, schema=("A",)):
    return {"schema": list(schema), "tuples": [[[v], 1] for v in values]}


def new_memo() -> IngestMemo:
    return IngestMemo(MetricsRegistry())


@pytest.fixture
def budget(monkeypatch):
    """Shrink the memo's row and byte budgets for one test."""
    def shrink(rows=jobs.MEMO_ROWS, nbytes=jobs.MEMO_BYTES):
        monkeypatch.setattr(jobs, "MEMO_ROWS", rows)
        monkeypatch.setattr(jobs, "MEMO_BYTES", nbytes)
    return shrink


@pytest.fixture
def calls(monkeypatch):
    """Counts of the two layers a memo hit skips."""
    counts = {"bag_from_dict": 0, "of_bag": 0}
    build, digest = repro_io.bag_from_dict, fingerprint.of_bag

    def counted_build(data):
        counts["bag_from_dict"] += 1
        return build(data)

    def counted_digest(bag):
        counts["of_bag"] += 1
        return digest(bag)

    monkeypatch.setattr(repro_io, "bag_from_dict", counted_build)
    monkeypatch.setattr(fingerprint, "of_bag", counted_digest)
    return counts


class TestLoad:
    def test_a_repeat_is_the_held_bag_with_no_decode_or_digest(self, calls):
        memo = new_memo()
        first = memo.load(encoding([1, 2, 3]))
        assert calls == {"bag_from_dict": 1, "of_bag": 1}
        assert fingerprint.derived(first) == fingerprint.of_bag(first)
        calls.update(bag_from_dict=0, of_bag=0)
        assert memo.load(encoding([1, 2, 3])) is first
        assert calls == {"bag_from_dict": 0, "of_bag": 0}
        assert (memo.hits.value, memo.misses.value) == (1, 1)

    def test_json_types_stay_apart(self):
        """``1``, ``true``, ``1.0``, ``0.0``, ``-0.0`` and ``"1"``:
        Python finds some of them equal, the memo none."""
        memo = new_memo()
        values = [1, True, 1.0, 0.0, -0.0, "1"]
        loaded = [memo.load(json.loads(json.dumps(encoding([v]))))
                  for v in values]
        again = [memo.load(json.loads(json.dumps(encoding([v]))))
                 for v in values]
        assert len(memo._bags) == len(values)
        assert [a is b for a, b in zip(loaded, again)] == [True] * 6
        for value, bag in zip(values, loaded):
            (row,) = bag._mults
            assert repr(row[0]) == repr(value)

    def test_a_repeated_slot_is_built_and_digested_once(self, calls):
        r = bag_to_dict(Bag.from_pairs(AB, [((1, 2), 1), ((2, 2), 3)]))
        s = bag_to_dict(Bag.from_pairs(AB, [((2, 2), 4)]))
        jobs = parse_jobs(
            {"pairs": [[r, s], [r, s]], "collections": [{"bags": [r, s]}]},
            new_memo(),
        )
        assert calls == {"bag_from_dict": 2, "of_bag": 2}
        assert jobs.pairs[0][0] is jobs.pairs[1][0] is jobs.collections[0][0]

    @pytest.mark.parametrize("bad, error", [
        ({"schema": ["A"]}, SchemaError),
        ({"schema": ["A"], "tuples": [[[1], True]]}, MultiplicityError),
        ({"schema": ["A", "B"], "tuples": [[[1, [2]], 1]]}, SchemaError),
        ({"schema": ["A"], "tuples": [[[1, 2], 1]]}, SchemaError),
    ])
    def test_errors_are_never_held(self, bad, error):
        memo = new_memo()
        messages = []
        for _ in range(2):
            with pytest.raises(error) as excinfo:
                memo.load(bad)
            messages.append(str(excinfo.value))
        with pytest.raises(error) as excinfo:
            repro_io.bag_from_dict(bad)
        assert messages == [str(excinfo.value)] * 2
        assert len(memo._bags) == 0 and memo.held_rows.value == 0
        assert memo.misses.value == 2

    def test_values_marshal_cannot_write_are_built_plainly(self):
        class Odd(str):
            pass

        memo = new_memo()
        bag = memo.load({"schema": ["A"], "tuples": [[[Odd("x")], 1]]})
        assert type(next(iter(bag._mults))[0]) is Odd
        assert len(memo._bags) == 0


class TestBudget:
    def test_held_rows_never_exceed_the_budget(self, budget):
        budget(rows=20)
        memo = new_memo()
        for n in [3, 7, 5, 9, 1, 12, 20, 4, 6, 2] * 3:
            memo.load(encoding(range(n)))
            assert memo._rows <= 20
            assert memo.held_rows.value == memo._rows == sum(
                len(bag._mults) for bag in memo._bags.values()
            )

    def test_least_recently_used_goes_first(self, budget):
        budget(rows=6)
        memo = new_memo()
        a = memo.load(encoding([1, 2]))
        memo.load(encoding([3, 4]))
        memo.load(encoding([1, 2]))  # a is now the most recent
        memo.load(encoding([5, 6, 7]))  # 7 rows: evicts [3, 4]
        assert memo.load(encoding([1, 2])) is a
        hits = memo.hits.value
        memo.load(encoding([3, 4]))
        assert memo.hits.value == hits

    @pytest.mark.parametrize("limit", [{"rows": 4}, {"nbytes": 100}])
    def test_a_bag_over_a_budget_is_not_admitted(self, budget, limit):
        budget(**limit)
        memo = new_memo()
        small = memo.load(encoding([1]))
        big = encoding(range(5)) if "rows" in limit else encoding(["x" * 80])
        first = memo.load(big)
        assert memo.load(big) is not first
        assert memo.misses.value == 3 and memo.hits.value == 0
        assert memo.load(encoding([1])) is small  # nothing was evicted

    def test_an_evicted_bag_is_freed_without_the_collector(self, budget):
        budget(rows=4)
        memo = new_memo()
        bag = memo.load(encoding([1, 2, 3]))
        bag.marginal(Schema([]))
        index = weakref.ref(BagIndex.of(bag))
        gc.disable()
        try:
            del bag
            memo.load(encoding([4, 5, 6]))  # evicts the first
            assert index() is None
        finally:
            gc.enable()


class TestThreads:
    def test_racing_loads_keep_the_books(self, budget):
        """More threads than cores load overlapping encodings through
        one memo, switching every microsecond: each bag holds its own
        encoding's values, and the held rows, bytes, gauge, hits and
        misses all add up."""
        budget(rows=40)
        memo = new_memo()
        encodings = [encoding(range(k, k + 1 + k % 7)) for k in range(24)]
        expected = [repro_io.bag_from_dict(e)._mults for e in encodings]
        failures = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(300):
                    k = rng.randrange(len(encodings))
                    if memo.load(encodings[k])._mults != expected[k]:
                        failures.append(k)
            except Exception as exc:  # reported below, not lost
                failures.append(exc)

        threads = [
            threading.Thread(target=worker, args=(seed,)) for seed in range(6)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert memo.hits.value + memo.misses.value == 6 * 300
        assert memo._rows == sum(
            len(bag._mults) for bag in memo._bags.values()
        )
        assert memo._rows == memo.held_rows.value <= 40
        assert memo._bytes == sum(map(len, memo._bags))


def lines(server, payloads):
    """Send each payload as one JSON line on one connection."""
    answers = []
    with socket.create_connection(server.address, timeout=10) as raw:
        rfile = raw.makefile("rb")
        for payload in payloads:
            raw.sendall(json.dumps(payload).encode() + b"\n")
            answers.append(json.loads(rfile.readline()))
    return answers


def memo_counts(server):
    """Hits, misses and rows held, as the ``metrics`` op reports them."""
    snapshot = server.metrics_payload()["json"]
    return (
        snapshot["counters"]["repro_ingest_memo_hits"],
        snapshot["counters"]["repro_ingest_memo_misses"],
        snapshot["gauges"]["repro_ingest_memo_rows"],
    )


@pytest.fixture(params=[True], ids=["witnesses"])
def server(request):
    server = ReproServer(witnesses=request.param)
    server.bind_tcp()
    server.serve_in_background()
    yield server
    server.shutdown()


# Without witnesses a pair check makes no internal probe, so only a
# repeated pair hits the store.
verdicts_only = pytest.mark.parametrize(
    "server", [False], ids=["verdicts"], indirect=True
)


A = {"schema": ["A", "B"], "tuples": [[[1, "x"], 1]]}
B = {"schema": ["A", "B"], "tuples": [[[True, "x"], 1]]}
S = {"schema": ["B", "C"], "tuples": [[["x", 5], 1]]}


class TestServe:
    @verdicts_only
    def test_the_memo_opens_after_the_connections_first_hit(self, server):
        lines(server, [{"pairs": [[A, S]]}] * 2)
        # the second request hit the store only after it was parsed
        assert memo_counts(server) == (0, 0, 0)
        # a new connection starts closed: its first request hits, so
        # the second admits A and S and the third finds them
        lines(server, [{"pairs": [[A, S]]}] * 3)
        assert memo_counts(server) == (2, 2, 2)

    def test_an_internal_probe_hit_opens_it_too(self, server):
        # a witness miss probes the verdict its own request just stored
        lines(server, [{"pairs": [[A, S]]}] * 3)
        assert memo_counts(server) == (2, 2, 2)

    @verdicts_only
    def test_a_connection_that_never_hits_never_reads_it(self, server):
        distinct = [
            {"pairs": [[encoding([i]), encoding([i, i + 1])]]}
            for i in range(6)
        ]
        answers = lines(server, distinct)
        assert all(answer["ok"] for answer in answers)
        assert memo_counts(server) == (0, 0, 0)

    def test_one_and_true_keep_their_witnesses(self, server):
        """A and B differ only in ``1`` against ``true``: once the memo
        is open, B's witness still holds ``true``, and a repeated pair
        is served exactly as before."""
        answers = lines(server, [
            {"pairs": [[A, S]]},
            {"pairs": [[A, S]]},
            {"pairs": [[A, S], [B, S]]},
            {"pairs": [[B, S]]},
        ])
        pairs = [json.dumps(answer["report"]["pairs"]) for answer in answers]
        first = json.dumps(answers[0]["report"]["pairs"][0])
        assert pairs[0] == pairs[1]
        assert json.dumps(answers[2]["report"]["pairs"][0]) == first
        # compared as JSON text: Python finds True == 1
        expected = json.dumps({"consistent": True, "witness": {
            "schema": ["A", "B", "C"], "tuples": [[[True, "x", 5], 1]],
        }})
        assert json.dumps(answers[2]["report"]["pairs"][1]) == expected
        assert json.dumps(answers[3]["report"]["pairs"][0]) == expected
        # open from the second request on: A and S miss once, B once
        assert memo_counts(server) == (5, 3, 3)

    def test_a_repeated_line_is_served_as_at_first(self, server):
        r = bag_to_dict(Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)]))
        s = bag_to_dict(Bag.from_pairs(
            Schema(["B", "C"]), [((2, 3), 2), ((2, 4), 1)]
        ))
        payload = {"pairs": [[r, s], [s, s]],
                   "collections": [{"bags": [r, s]}]}
        answers = lines(server, [payload] * 4)
        sections = [
            json.dumps([answer["report"][key] for key in ("pairs", "collections")])
            for answer in answers
        ]
        assert sections == [sections[0]] * 4
        assert memo_counts(server)[0] > 0

    def test_memo_counters_stay_out_of_batch_reports(self, server):
        (answer,) = lines(server, [{"pairs": [[A, S]]}])
        assert "ingest" not in json.dumps(answer["report"])
        assert "ingest" not in json.dumps(server.stats())
