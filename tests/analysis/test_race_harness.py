"""The seeded multi-thread stress harness.

Engines, live bags, and the persistent store are hammered from 4-8
threads with the sanitizer armed; every verdict is cross-checked
against the serial seed decider
(:func:`repro.consistency.pairwise.are_consistent`), so a lost update,
torn publication, or stale cache shows up as a wrong verdict — the
exact defect class of the PR 6 bugs — and any lock-contract violation
raises :class:`SanitizerError` inside the offending thread.

Ownership contracts are respected by construction: ``VerdictStore`` /
``PersistentVerdictStore`` are shared across threads (that is their
documented job), while each thread owns its ``Engine`` facade and
``LiveEngine`` privately (single-owner by contract) — the shared
surfaces under those are the fingerprint registry and the bag indexes
it lets value-equal bags share.
"""

import random
import threading

import pytest

from repro.analysis import sanitizer
from repro.consistency.pairwise import are_consistent as oracle_consistent
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine.live import LiveEngine
from repro.engine.session import Engine, VerdictStore
from repro.store.persistent import PersistentVerdictStore

N_THREADS = 6
SEED = 0xBA6C0DE


@pytest.fixture
def sanitize():
    was = sanitizer.enabled()
    sanitizer.enable()
    try:
        yield
    finally:
        if not was:
            sanitizer.disable()


def run_threads(worker, n=N_THREADS):
    """Run ``worker(thread_index)`` on n threads; re-raise the first
    failure (sanitizer trips included) in the main thread."""
    errors = []

    def wrapped(i):
        try:
            worker(i)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,)) for i in range(n)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


def make_pairs():
    """Deterministic (r, s, consistent?) pool of 40-60-row bags."""
    ab, bc = Schema(("A", "B")), Schema(("B", "C"))
    pairs = []
    rng = random.Random(SEED)
    for case in range(6):
        n = 40 + 4 * case
        left = {(i, i % 5): 1 + (i + case) % 3 for i in range(n)}
        r = Bag.from_pairs(ab, left.items())
        # a consistent partner: mirror the B-marginal exactly
        marg = {}
        for (_, b), m in left.items():
            marg[b] = marg.get(b, 0) + m
        right = {}
        for b, m in sorted(marg.items()):
            for j in range(2):
                half = m // 2 if j else m - m // 2
                if half:
                    right[(b, 1000 + 10 * b + j)] = half
        s = Bag.from_pairs(bc, right.items())
        if case % 2:
            # skew one multiplicity: inconsistent on purpose
            row = next(iter(right))
            right[row] += 1 + rng.randrange(3)
            s = Bag.from_pairs(bc, right.items())
        pairs.append((r, s))
    return [(r, s, oracle_consistent(r, s)) for r, s in pairs]


def test_engines_share_store_verdicts_match_oracle(sanitize):
    pairs = make_pairs()
    store = VerdictStore(capacity=64)

    def worker(tid):
        rng = random.Random(SEED + tid)
        engine = Engine(store=store)
        for step in range(40):
            r, s, expected = pairs[rng.randrange(len(pairs))]
            assert engine.are_consistent(r, s) is expected, (
                f"thread {tid} step {step}: wrong verdict"
            )
            roll = rng.random()
            if roll < 0.25:
                engine.invalidate(s)
            elif roll < 0.35 and expected:
                w = engine.witness(r, s)
                assert w.marginal(r.schema) == r
                assert w.marginal(s.schema) == s

    run_threads(worker)
    # the shared store must still satisfy every verdict correctly
    serial = Engine(store=store)
    for r, s, expected in pairs:
        assert serial.are_consistent(r, s) is expected


def test_live_engines_under_shared_registries(sanitize):
    """Private live engines, shared fingerprint registry and bag
    indexes: every thread's stream must match its own serial replay."""
    ab, bc = Schema(("A", "B")), Schema(("B", "C"))

    def script(tid):
        rng = random.Random(SEED * 31 + tid)
        return [
            ((rng.randrange(50), rng.randrange(5)), rng.choice([1, 1, 2, -1]))
            for _ in range(60)
        ]

    def replay(tid, updates):
        live = LiveEngine()
        h1 = live.add_bag(
            Bag.from_pairs(ab, {(i, i % 5): 1 for i in range(40)}.items())
        )
        h2 = live.add_bag(
            Bag.from_pairs(bc, {(i % 5, i): 1 for i in range(40)}.items())
        )
        verdicts = []
        for step, (row, delta) in enumerate(updates):
            if h1.multiplicity(row) + delta >= 0:
                live.update(h1, row, delta)
            if step % 10 == 9:
                verdicts.append(
                    (live.are_consistent(h1, h2), h1.fingerprint(),
                     len(h1.bag()))
                )
        return verdicts

    serial = {tid: replay(tid, script(tid)) for tid in range(N_THREADS)}
    results = {}
    lock = threading.Lock()

    def worker(tid):
        out = replay(tid, script(tid))
        with lock:
            results[tid] = out

    run_threads(worker)
    assert results == serial


def test_persistent_store_hammer(sanitize, tmp_path):
    """put/get/invalidate/flush from every thread against one
    sharded persistent store; values are deterministic functions of the
    key, so any cross-thread corruption is a visible wrong value."""
    store = PersistentVerdictStore(tmp_path / "store", shards=4,
                                   capacity=128)
    fps = [(0x9E3779B97F4A7C15 * (i + 1)) % (1 << 128)
           for i in range(24)]

    def value_of(key):
        return ("v", key[1] % 7, key[2] % 5)

    def worker(tid):
        rng = random.Random(SEED ^ tid)
        for _ in range(150):
            a, b = rng.sample(range(len(fps)), 2)
            key = ("consistent", fps[a], fps[b])
            roll = rng.random()
            if roll < 0.45:
                store.put(key, value_of(key))
            elif roll < 0.80:
                value = store.get(key)
                assert value is store.MISS or value == value_of(key)
            elif roll < 0.92:
                store.invalidate_fp(fps[a])
            elif roll < 0.97:
                store.flush()
            else:
                assert store.contains(key) in (True, False)

    run_threads(worker)
    store.flush()
    # everything still stored must read back exactly
    for entry_key, value in store.export():
        assert value == value_of(entry_key)
    store.close()

    # reopen: the durable tier must replay to the same values
    warm = PersistentVerdictStore(tmp_path / "store")
    for entry_key, value in warm.export():
        assert value == value_of(entry_key)
    warm.close()
