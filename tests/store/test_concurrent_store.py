"""Concurrency hammer for the verdict stores.

Two halves, matching the repro-lint contract:

* invariant hammers — many threads drive put/get/invalidate/flush
  against one shared store; values are deterministic functions of
  the key and the internal indexes are cross-checked afterwards, so a
  lost update or torn index shows up as a hard failure;
* mutation-style checks — with the sanitizer armed, swapping any
  store lock for a never-held stand-in must raise
  :class:`SanitizerError` on the first mutation.  That is the proof
  that this file fails if someone deletes a ``with self._lock:`` —
  the exact regression class ``repro lint`` RL01 guards statically.
"""

import random
import threading

import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import SanitizerError
from repro.engine.session import VerdictStore, participants
from repro.store.persistent import PersistentVerdictStore

N_THREADS = 6
SEED = 0x5709E


@pytest.fixture
def sanitize():
    was = sanitizer.enabled()
    sanitizer.enable()
    try:
        yield
    finally:
        if not was:
            sanitizer.disable()


class _NeverHeld:
    """A lock-alike that reports itself unheld — the stand-in for a
    deleted ``with self._lock:`` block."""

    def locked(self):
        return False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def run_threads(worker, n=N_THREADS):
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


def make_fps(n=24):
    return [(0x9E3779B97F4A7C15 * (i + 1)) % (1 << 128)
            for i in range(n)]


def value_of(key):
    return ("v", key[1] % 7, key[2] % 5)


def test_verdict_store_hammer(sanitize):
    store = VerdictStore(capacity=48)
    fps = make_fps()

    def worker(tid):
        rng = random.Random(SEED + tid)
        for _ in range(200):
            a, b = rng.sample(range(len(fps)), 2)
            key = ("consistent", fps[a], fps[b])
            roll = rng.random()
            if roll < 0.40:
                store.put(key, value_of(key))
            elif roll < 0.75:
                value = store.get(key)
                assert value is store.MISS or value == value_of(key)
            elif roll < 0.91:
                store.invalidate_fp(fps[a])
            elif roll < 0.96:
                assert store.contains(key) in (True, False)
            else:
                for entry_key, value in store.export():
                    assert value == value_of(entry_key)

    run_threads(worker)

    # internal indexes must agree exactly after the dust settles
    with store._lock:
        inverse = {}
        for key in store._cache:
            for fp in participants(key):
                inverse.setdefault(fp, set()).add(key)
        # the reverse index keeps a fingerprint's only key bare
        index = {
            fp: held if isinstance(held, set) else {held}
            for fp, held in store._fp_keys.items()
        }
        assert inverse == index
    for entry_key, value in store.export():
        assert value == value_of(entry_key)


def test_verdict_store_hammer_catches_lock_removal(sanitize):
    """Mutation check: remove the lock (simulated by a never-held
    stand-in) and the very first cache write trips the sanitizer."""
    store = VerdictStore(capacity=8)
    fps = make_fps(4)
    object.__setattr__(store, "_lock", _NeverHeld())
    with pytest.raises(SanitizerError):
        store.put(("consistent", fps[0], fps[1]),
                  value_of(("consistent", fps[0], fps[1])))
    with pytest.raises(SanitizerError):
        store.invalidate_fp(fps[0])


def test_persistent_store_flush_hammer(sanitize, tmp_path):
    store = PersistentVerdictStore(tmp_path / "store", shards=4,
                                   capacity=96)
    fps = make_fps()

    def worker(tid):
        rng = random.Random(SEED ^ (tid * 7919))
        for _ in range(120):
            a, b = rng.sample(range(len(fps)), 2)
            key = ("consistent", fps[a], fps[b])
            roll = rng.random()
            if roll < 0.45:
                store.put(key, value_of(key))
            elif roll < 0.75:
                value = store.get(key)
                assert value is store.MISS or value == value_of(key)
            elif roll < 0.90:
                store.invalidate_fp(fps[a])
            else:
                store.flush()

    run_threads(worker)
    store.flush()
    for entry_key, value in store.export():
        assert value == value_of(entry_key)
    store.close()

    warm = PersistentVerdictStore(tmp_path / "store")
    for entry_key, value in warm.export():
        assert value == value_of(entry_key)
    warm.close()


def test_persistent_store_catches_shard_lock_removal(sanitize, tmp_path):
    """Mutation check for the durable tier: a shard whose lock is
    never held refuses to append."""
    store = PersistentVerdictStore(tmp_path / "store", shards=2,
                                   capacity=32)
    fps = make_fps(4)
    key = ("consistent", fps[0], fps[1])
    try:
        for shard in store._shards:
            object.__setattr__(shard, "_lock", _NeverHeld())
        with pytest.raises(SanitizerError):
            store.put(key, value_of(key))
            store.flush()
    finally:
        for shard in store._shards:
            object.__setattr__(shard, "_lock", threading.RLock())
        store.close()
