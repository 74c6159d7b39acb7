"""The ingest memo: one bag per exact bag span of a JSON line, bounded,
read only by connections that repeat themselves, and a plain-path
fallback for every line it cannot read exactly."""

import gc
import json
import random
import socket
import sys
import threading
import types
import weakref

import pytest

from repro import io as repro_io
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine import jobs
from repro.engine.index import BagIndex
from repro.engine.jobs import IngestMemo
from repro.io import bag_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.server import ReproServer

AB = Schema(["A", "B"])


def encoding(values, schema=("A",)):
    return {"schema": list(schema), "tuples": [[[v], 1] for v in values]}


def as_line(payload) -> bytes:
    return json.dumps(payload).encode()


def new_memo() -> IngestMemo:
    return IngestMemo(MetricsRegistry())


def load(memo, encoded) -> Bag:
    """The bag a one-bag line reads to through ``memo``."""
    payload = memo.read(as_line({"collections": [{"bags": [encoded]}]}))
    return payload["collections"][0]["bags"][0]


def counts(memo) -> tuple:
    return memo.hits.value, memo.misses.value, memo.fallbacks.value


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


@pytest.fixture
def decoded(monkeypatch):
    """Every text the memo hands ``json.loads``."""
    texts = []

    def loads(text):
        texts.append(text)
        return json.loads(text)

    monkeypatch.setattr(jobs, "json", types.SimpleNamespace(loads=loads))
    return texts


R = encoding([1, 2, 3])
S = encoding([4])


class TestRead:
    def test_a_repeat_is_the_held_bag_with_no_decode_or_digest(
        self, calls, decoded
    ):
        memo = new_memo()
        line = as_line({"pairs": [[R, S]]})
        first = memo.read(line)["pairs"][0]
        assert calls == {"bag_from_dict": 2, "of_bag": 2}
        assert [fingerprint.derived(bag) for bag in first] == [
            fingerprint.of_bag(repro_io.bag_from_dict(e)) for e in (R, S)
        ]
        calls.update(bag_from_dict=0, of_bag=0)
        decoded.clear()
        again = memo.read(line)
        assert again == {"pairs": [first]}
        assert [a is b for a, b in zip(again["pairs"][0], first)] == [True] * 2
        assert calls == {"bag_from_dict": 0, "of_bag": 0}
        # a hit decodes no span: only what is left of the line
        assert decoded == [b'{"pairs": [["\\u00000", "\\u00001"]]}'.decode()]
        assert counts(memo) == (2, 2, 0)

    def test_json_types_stay_apart(self):
        """``1``, ``true``, ``1.0``, ``0.0``, ``-0.0`` and ``"1"``:
        Python finds some of them equal, the memo none."""
        memo = new_memo()
        values = [1, True, 1.0, 0.0, -0.0, "1"]
        line = as_line({"collections": [
            {"bags": [encoding([v]) for v in values]},
        ]})
        loaded = memo.read(line)["collections"][0]["bags"]
        again = memo.read(line)["collections"][0]["bags"]
        assert len(memo._bags) == len(values)
        assert [a is b for a, b in zip(loaded, again)] == [True] * 6
        for value, bag in zip(values, loaded):
            (row,) = bag._mults
            assert repr(row[0]) == repr(value)

    def test_a_repeated_slot_is_built_and_digested_once(self, calls):
        r = bag_to_dict(Bag.from_pairs(AB, [((1, 2), 1), ((2, 2), 3)]))
        s = bag_to_dict(Bag.from_pairs(AB, [((2, 2), 4)]))
        memo = new_memo()
        payload = memo.read(as_line(
            {"pairs": [[r, s], [r, s]], "collections": [{"bags": [r, s]}]}
        ))
        assert calls == {"bag_from_dict": 2, "of_bag": 2}
        pairs, (bags,) = payload["pairs"], payload["collections"]
        assert pairs[0][0] is pairs[1][0] is bags["bags"][0]
        assert counts(memo) == (4, 2, 0)

    @pytest.mark.parametrize("bad", [
        {"schema": ["A"]},
        {"schema": ["A"], "tuples": [[[1], True]]},
        {"schema": ["A", "B"], "tuples": [[[1, [2]], 1]]},
        {"schema": ["A"], "tuples": [[[1, 2], 1]]},
    ], ids=["no-tuples", "bool-count", "nested-row", "arity"])
    def test_errors_are_never_held(self, bad):
        """A span that does not build sends its line down the plain
        path, which names the error; nothing of that line is held."""
        memo = new_memo()
        line = as_line({"pairs": [[S, bad]]})
        assert memo.read(line) is None
        assert memo.read(line) is None
        assert len(memo._bags) == 0 and memo.held_rows.value == 0
        assert counts(memo) == (0, 0, 2)

    @pytest.mark.parametrize("line", [
        # a line holding \u0000 of its own: a string could equal a
        # placeholder
        as_line({"pairs": [[S, encoding(["\x00"])]]}),
        # a span cut at a ]} inside a string
        as_line({"pairs": [[S, encoding(["x]}"])]]}),
        # a span that runs past its bag, and one cut before it closes
        b'{"pairs": [[{"schema": ["A"], "tuples": [], "k": 1}, {}]]}',
        b'{"pairs": [[{"schema": ["A"], "tuples": [], "k": [{"a": []}]}, {}]]}',
        # not JSON, yet a placeholder in its place would decode: an
        # object key, and a string an invalid escape opened
        b'{"pairs": [], {"schema": ["A"], "tuples": []}: 1}',
        b'{"suites": [["x\\{"schema": ["A"], "tuples": []}, 1, 2]]}',
        # a placeholder that no bag slot takes
        as_line({"suites": [["planted-path", S, 0]]}),
        as_line({"pairs": [[S, S, S]]}),
        as_line({"collections": [{"bags": [S], "k": S}]}),
        as_line({"pairs": [[encoding([1]), {"schema": ["A"], "tuples": [[[S], 1]]}]]}),
        as_line({"pairs": [], "bogus": S}),
        as_line(S),
        b'{"pairs": [[%s, %s]], "pairs": []}' % (as_line(S), as_line(S)),
        # the skeleton is not a JSON object, or not JSON
        as_line([{"pairs": [[S, S]]}]),
        b'{"pairs": [[%s, %s]]' % (as_line(S), as_line(S)),
    ], ids=[
        "u0000", "cut-in-string", "past-its-bag", "cut-short", "key",
        "escape", "suite", "pair-of-three", "beside-bags", "in-a-row",
        "unknown-key", "top-level", "duplicate-key", "array", "truncated",
    ])
    def test_lines_it_cannot_read_exactly_fall_back(self, line):
        memo = new_memo()
        load(memo, S)  # held, so the line's S spans are hits
        assert memo.read(line) is None
        assert counts(memo) == (0, 1, 1)

    @pytest.mark.parametrize("line", [
        b'{"op": "stats"}',
        b'{"pairs": [[{"tuples": [[[1], 1]], "schema": ["A"]}, '
        b'{ "schema": ["A"], "tuples": []}]]}',
        b'{"suites": [["planted-path", 3, 0]]}',
    ], ids=["op", "unmarked-bags", "suites"])
    def test_a_line_with_no_span_is_decoded_whole(self, line):
        memo = new_memo()
        assert memo.read(line) == json.loads(line)
        assert counts(memo) == (0, 0, 0)

    def test_the_fixed_joined_decode_example_falls_back(self):
        """Decoded as one array, the line's two spans read as two
        valid bags; each decoded on its own fails, and the plain path
        names the middle entry."""
        line = (
            b'{"collections": [{"bags": [{"schema":["A"],"tuples":[],'
            b'"junk":[{"a":[]}]}, {"bags": [{"schema":0}],"k":1},'
            b'{"schema":["B"],"tuples":[]}]}]}'
        )
        memo = new_memo()
        assert memo.read(line) is None
        with pytest.raises(jobs.JobError) as excinfo:
            jobs.parse_jobs_text(line)
        assert str(excinfo.value) == (
            "bad collection entry: #0: malformed bag encoding: 'schema'"
        )


class TestBudget:
    def test_held_rows_never_exceed_the_budget(self, budget):
        budget(rows=20)
        memo = new_memo()
        for n in [3, 7, 5, 9, 1, 12, 20, 4, 6, 2] * 3:
            load(memo, encoding(range(n)))
            assert memo._rows <= 20
            assert memo.held_rows.value == memo._rows == sum(
                len(bag._mults) for bag in memo._bags.values()
            )

    def test_least_recently_used_goes_first(self, budget):
        budget(rows=6)
        memo = new_memo()
        a = load(memo, encoding([1, 2]))
        load(memo, encoding([3, 4]))
        load(memo, encoding([1, 2]))  # a is now the most recent
        load(memo, encoding([5, 6, 7]))  # 7 rows: evicts [3, 4]
        assert load(memo, encoding([1, 2])) is a
        hits = memo.hits.value
        load(memo, encoding([3, 4]))
        assert memo.hits.value == hits

    @pytest.mark.parametrize("limit", [{"rows": 4}, {"nbytes": 100}])
    def test_a_bag_over_a_budget_is_not_admitted(self, budget, limit):
        budget(**limit)
        memo = new_memo()
        small = load(memo, encoding([1]))
        big = encoding(range(5)) if "rows" in limit else encoding(["x" * 80])
        first = load(memo, big)
        assert load(memo, big) is not first
        assert memo.misses.value == 3 and memo.hits.value == 0
        assert load(memo, encoding([1])) is small  # nothing was evicted

    def test_key_bytes_are_the_span_bytes(self):
        memo = new_memo()
        line = b'{"pairs": [[%s, %s]]}' % (as_line(R), as_line(S))
        memo.read(line)
        assert set(memo._bags) == {as_line(R), as_line(S)}
        assert memo._bytes == len(as_line(R)) + len(as_line(S))

    def test_an_evicted_bag_is_freed_without_the_collector(self, budget):
        budget(rows=4)
        memo = new_memo()
        bag = load(memo, encoding([1, 2, 3]))
        bag.marginal(Schema([]))
        index = weakref.ref(BagIndex.of(bag))
        gc.disable()
        try:
            del bag
            load(memo, encoding([4, 5, 6]))  # evicts the first
            assert index() is None
        finally:
            gc.enable()


class TestThreads:
    def test_racing_reads_keep_the_books(self, budget):
        """More threads than cores read lines of overlapping encodings
        through one memo, switching every microsecond: each bag holds
        its own encoding's values, and the held rows, bytes, gauge,
        hits and misses all add up."""
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
                    if load(memo, encodings[k])._mults != expected[k]:
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
        assert memo.fallbacks.value == 0
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

    def test_a_line_that_falls_back_is_served_as_the_plain_path(self, server):
        """Lines the memo cannot read exactly, once it is open: an
        error, and a line of marker strings, each served as the plain
        path serves it on a connection that never opened the memo."""
        marked = {"schema": ["A"], "tuples": [[['{"schema" x]} \x00'], 1]]}
        payloads = [
            {"pairs": [[A, S]]},
            {"pairs": [[A, S]]},
            {"pairs": [[marked, marked]]},
            {"pairs": [[marked, marked]]},
            {"pairs": [[{"schema": ["A"], "tuples": [[[1], -1]]}, A]]},
        ]
        opened = lines(server, payloads)
        fallbacks = server.metrics_payload()["json"]["counters"][
            "repro_ingest_line_fallbacks"]
        assert fallbacks == 3
        plain = [lines(server, [payload])[0] for payload in payloads[2:]]
        served = [
            answer.get("error") or json.dumps(answer["report"]["pairs"])
            for answer in opened[2:]
        ]
        assert served == [
            answer.get("error") or json.dumps(answer["report"]["pairs"])
            for answer in plain
        ]
        assert served[0] == served[1]
        assert served[2].startswith("bad pair entry: #0: multiplicity")

    def test_memo_counters_stay_out_of_batch_reports(self, server):
        (answer,) = lines(server, [{"pairs": [[A, S]]}])
        assert "ingest" not in json.dumps(answer["report"])
        assert "ingest" not in json.dumps(server.stats())
