"""The serve workloads: inputs, the answers the generator knows, and
the check that holds every response to them.

Every input comes from the seed and is encoded before the clock
starts, so the daemon receives only request bytes.  Planted pairs and
collections are consistent by construction; perturbed pairs (one
multiplicity bumped) are inconsistent.  Each :class:`Request` carries
those expectations, and :func:`check_response` compares a response
against them after the timed window.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

from repro import Bag, Schema, is_witness
from repro.engine import wire
from repro.engine.session import Engine
from repro.io import bag_from_dict, bag_to_dict
from repro.store import PersistentVerdictStore
from repro.workloads import generators

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
PATH = [AB, BC, Schema(["C", "D"])]
TRIANGLE = [AB, BC, Schema(["A", "C"])]
# Two three-attribute windows sharing one attribute: the wider shape
# the frame codec and columnar kernels are built for.
WIDE = generators.wide_window_schemas(2, width=3, overlap=1)

PERTURBED_SHARE = 0.25


@dataclass(frozen=True)
class PairJob:
    """One pair and its known verdict; a consistent pair's witness is
    checked against ``left`` and ``right``."""

    left: Bag
    right: Bag
    consistent: bool


@dataclass(frozen=True)
class CollectionJob:
    """One collection's known verdict and the method that must decide
    it (``acyclic`` for the Theorem 6 fold, ``search`` for Theorem 4)."""

    consistent: bool
    method: str


@dataclass
class Request:
    data: bytes
    pairs: list[PairJob]
    collections: list[CollectionJob] = field(default_factory=list)


@dataclass
class Workload:
    """A named traffic mix: the daemon's flags, an untimed warm-up, and
    the measured stream (consumed in order by ``connections`` closed
    loops)."""

    name: str
    connections: int
    framed: bool
    witnesses: bool
    daemon_flags: list[str]
    warmup: list[Request]
    stream: list[Request]
    stored_pairs: list[PairJob] = field(default_factory=list)


class Mix:
    """Pair sizes, log-uniform in ``[low, high]``, and perturbed flags,
    drawn in blocks of 16: each block holds one size from each of 16
    equal-probability strata and exactly a quarter perturbed pairs, in
    a seed-shuffled order.  A seed then changes contents and order but
    not the mix, which keeps runs at different seeds comparable."""

    BLOCK = 16

    def __init__(self, rng: random.Random, low: int, high: int) -> None:
        self.rng = rng
        self.low = low
        self.ratio = high / low
        self._queue: list[tuple[int, bool]] = []

    def next(self) -> tuple[int, bool]:
        if not self._queue:
            n = self.BLOCK
            sizes = [
                round(self.low * self.ratio ** ((i + self.rng.random()) / n))
                for i in range(n)
            ]
            perturbed = [i < n * PERTURBED_SHARE for i in range(n)]
            self.rng.shuffle(sizes)
            self.rng.shuffle(perturbed)
            self._queue = list(zip(sizes, perturbed))
        return self._queue.pop()

    def pair(self, schemas=(AB, BC)) -> PairJob:
        rows, perturbed = self.next()
        # 2*sqrt(rows) values per attribute keep supports near ``rows``
        # while the join attribute still fans out.
        domain = max(3, round(2 * math.sqrt(rows)))
        _, left, right = generators.planted_pair(
            schemas[0], schemas[1], self.rng, domain_size=domain, n_tuples=rows
        )
        if perturbed:
            return PairJob(left, generators.perturb_bag(right, self.rng), False)
        return PairJob(left, right, True)


def _collection(
    rng: random.Random, schemas, rows: int, domain: int
) -> tuple[list[Bag], CollectionJob]:
    _, bags = generators.planted_collection(
        schemas, rng, domain_size=domain, n_tuples=rows, max_multiplicity=3
    )
    method = "search" if schemas is TRIANGLE else "acyclic"
    return bags, CollectionJob(True, method)


def _pair_json(job: PairJob) -> str:
    return json.dumps([bag_to_dict(job.left), bag_to_dict(job.right)])


def _line(pair_texts: list[str], collection_texts: list[str]) -> bytes:
    body = '{"pairs": [' + ", ".join(pair_texts) + "]"
    if collection_texts:
        body += ', "collections": [' + ", ".join(collection_texts) + "]"
    return (body + "}\n").encode("utf-8")


# -- warm-hits ----------------------------------------------------------

WARM_PAIRS = 64
WARM_COLLECTIONS = 16
WARM_BATCH = 4


def warm_hits(seed: int, n_requests: int) -> Workload:
    """Repeat-check traffic over a working set that fits in the store:
    each request is four pairs and one acyclic collection drawn from
    64 pairs (16-128 rows a side) and 16 three-bag path collections
    (6-40 rows a bag).  The warm-up stores every unit once, so every
    measured job is a store hit."""
    rng = random.Random(seed)
    mix = Mix(rng, 16, 128)
    pairs = [mix.pair() for _ in range(WARM_PAIRS)]
    sizes = Mix(rng, 6, 40)
    collections = [
        _collection(rng, PATH, sizes.next()[0], 16)
        for _ in range(WARM_COLLECTIONS)
    ]
    pair_texts = [_pair_json(job) for job in pairs]
    collection_texts = [
        json.dumps({"bags": [bag_to_dict(bag) for bag in bags]})
        for bags, _ in collections
    ]

    def request(pair_ids: list[int], collection_id: int) -> Request:
        return Request(
            _line(
                [pair_texts[i] for i in pair_ids],
                [collection_texts[collection_id]],
            ),
            [pairs[i] for i in pair_ids],
            [collections[collection_id][1]],
        )

    warmup = [
        request(
            list(range(start, start + WARM_BATCH)),
            (start // WARM_BATCH) % WARM_COLLECTIONS,
        )
        for start in range(0, WARM_PAIRS, WARM_BATCH)
    ]
    stream = [
        request(
            rng.sample(range(WARM_PAIRS), WARM_BATCH),
            rng.randrange(WARM_COLLECTIONS),
        )
        for _ in range(n_requests)
    ]
    return Workload("warm-hits", 2, False, False, [], warmup, stream)


# -- cold-misses --------------------------------------------------------

COLD_CAPACITY = 256


def _cold_request(rng: random.Random, mix: Mix) -> Request:
    pair = mix.pair(WIDE)
    acyclic, acyclic_job = _collection(rng, PATH, 8, 8)
    cyclic, cyclic_job = _collection(rng, TRIANGLE, 4, 2)
    data = wire.encode_jobs_frame({
        "pairs": [[pair.left, pair.right]],
        "collections": [{"bags": acyclic}, {"bags": cyclic}],
    })
    return Request(data, [pair], [acyclic_job, cyclic_job])


def cold_misses(seed: int, n_requests: int, n_warmup: int) -> Workload:
    """First-touch traffic on both sides of the dichotomy: every
    request is a v2 frame of fresh content -- one pair over three-
    attribute windows with 16-1024 rows a side (so on both sides of
    ``MIN_ROWS``; a quarter perturbed), one three-bag path collection,
    and one planted triangle that needs the exact search.
    ``--capacity`` is below the results one run stores, so the store
    evicts and memory levels off."""
    rng = random.Random(seed)
    mix = Mix(rng, 16, 1024)
    warmup = [_cold_request(rng, mix) for _ in range(n_warmup)]
    stream = [_cold_request(rng, mix) for _ in range(n_requests)]
    return Workload(
        "cold-misses", 1, True, True,
        ["--witnesses", "--capacity", str(COLD_CAPACITY)],
        warmup, stream,
    )


# -- process-fanout -----------------------------------------------------

FANOUT_BATCH = 8


def _fanout_request(mix: Mix) -> Request:
    jobs = [mix.pair() for _ in range(FANOUT_BATCH)]
    return Request(_line([_pair_json(job) for job in jobs], []), jobs)


def process_fanout(seed: int, n_requests: int, n_warmup: int) -> Workload:
    """Eight small, distinct pair misses per request on the process
    backend: per-batch pool spawn, pickling and delta merge.  Without
    ``--witnesses`` a request spawns one pool, not two, so 1000
    requests fit in a run (about 14 ms a request against 37 ms)."""
    mix = Mix(random.Random(seed), 12, 32)
    warmup = [_fanout_request(mix) for _ in range(n_warmup)]
    stream = [_fanout_request(mix) for _ in range(n_requests)]
    return Workload(
        "process-fanout", 1, False, False,
        ["--backend", "process", "--parallelism", "2"],
        warmup, stream,
    )


# -- restart-replay -----------------------------------------------------

REPLAY_BATCH = 4
REPLAY_FRESH_SHARE = 0.125
ZIPF_EXPONENT = 1.0


def restart_replay(
    seed: int, n_requests: int, n_warmup: int, n_stored: int
) -> Workload:
    """Restart over a persistent store of ``n_stored`` pairs whose hot
    tier holds a quarter of the records: pairs are drawn with Zipf-
    skewed popularity, and one pair slot in eight carries new content
    (a store write).  The store itself is built by :func:`build_store`."""
    rng = random.Random(seed)
    # Pair i has popularity rank i; stratified sizes give every run of
    # sixteen ranks the same spread of sizes, the most popular included.
    mix = Mix(rng, 16, 64)
    stored = [mix.pair() for _ in range(n_stored)]
    stored_texts = [_pair_json(job) for job in stored]
    cumulative = []
    total = 0.0
    for rank in range(1, n_stored + 1):
        total += rank ** -ZIPF_EXPONENT
        cumulative.append(total)
    ranks = range(n_stored)
    fresh = Mix(rng, 16, 64)

    def request() -> Request:
        jobs, texts = [], []
        for slot in rng.choices(ranks, cum_weights=cumulative, k=REPLAY_BATCH):
            if rng.random() < REPLAY_FRESH_SHARE:
                job = fresh.pair()
                jobs.append(job)
                texts.append(_pair_json(job))
            else:
                jobs.append(stored[slot])
                texts.append(stored_texts[slot])
        return Request(_line(texts, []), jobs)

    warmup = [request() for _ in range(n_warmup)]
    stream = [request() for _ in range(n_requests)]
    # Each stored pair is two records (its verdict and its witness).
    hot = max(1, n_stored // 2)
    return Workload(
        "restart-replay", 1, False, True,
        ["--witnesses", "--capacity", str(hot)],
        warmup, stream, stored_pairs=stored,
    )


def build_store(path: Path, pairs: list[PairJob]) -> None:
    """Populate a persistent store through the public API, as an
    earlier daemon would have: one verdict and one witness per pair."""
    with PersistentVerdictStore(path) as store:
        Engine(store=store).witness_many([(job.left, job.right) for job in pairs])


# -- the correctness gate -----------------------------------------------


def decode_response(data: bytes) -> dict:
    """A raw response (JSON line or v2 frame) as its response object."""
    if data[:1] == wire.MAGIC[:1]:
        header, _ = wire.split_frame(data)
        return wire.response_from_frame(header)
    return json.loads(data)


def check_response(
    request: Request, data: bytes, witnesses: bool, verified: dict
) -> str | None:
    """``None`` when ``data`` answers ``request`` correctly, else a
    one-line reason.  ``verified`` memoizes witness checks by (pair,
    witness text), since stored pairs repeat across requests."""
    try:
        response = decode_response(data)
    except (ValueError, wire.WireError) as exc:
        return f"undecodable response: {exc}"
    if not response.get("ok"):
        return f"refused: {response.get('error')}"
    report = response.get("report", {})
    got_pairs = report.get("pairs", [])
    if len(got_pairs) != len(request.pairs):
        return f"expected {len(request.pairs)} pair results, got {len(got_pairs)}"
    for i, (job, got) in enumerate(zip(request.pairs, got_pairs)):
        if got.get("consistent") is not job.consistent:
            return f"pair {i}: expected consistent={job.consistent}"
        if not witnesses:
            continue
        encoded = got.get("witness")
        if (encoded is not None) != job.consistent:
            return f"pair {i}: witness present={encoded is not None}"
        if encoded is None:
            continue
        key = (id(job), json.dumps(encoded, sort_keys=True))
        if key not in verified:
            verified[key] = is_witness([job.left, job.right], bag_from_dict(encoded))
        if not verified[key]:
            return f"pair {i}: returned witness fails is_witness"
    got_collections = report.get("collections", [])
    if len(got_collections) != len(request.collections):
        return (
            f"expected {len(request.collections)} collection results, "
            f"got {len(got_collections)}"
        )
    for i, (job, got) in enumerate(zip(request.collections, got_collections)):
        if got.get("consistent") is not job.consistent:
            return f"collection {i}: expected consistent={job.consistent}"
        if got.get("method") != job.method:
            return f"collection {i}: expected method {job.method}, got {got.get('method')}"
    return None
