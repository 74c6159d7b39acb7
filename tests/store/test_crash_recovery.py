"""Randomized kill-mid-write: a store truncated at an arbitrary byte
must reopen cleanly, lose only the torn tail, and every verdict it
still serves must agree with a fresh engine on the same workload."""

import random

import pytest

from repro.engine.jobs import parse_jobs, run_jobs
from repro.engine.session import Engine
from repro.store import PersistentVerdictStore
from repro.store import shard as shard_module
from repro.workloads.suites import get_suite, repeated_stream


@pytest.fixture(autouse=True)
def flush_every_op(monkeypatch):
    """Write each record as it is put, so a cut can land anywhere."""
    monkeypatch.setattr(shard_module, "FLUSH_EVERY", 1)


def workload() -> dict:
    """A mixed repeat-heavy payload: pair checks, an acyclic and a
    cyclic global decision, replayed twice (repeats make surviving
    verdicts actually serve)."""
    from repro.io import bag_to_dict

    path = get_suite("planted-path").build(4, seed=11)
    pairs = [
        [bag_to_dict(path[0]), bag_to_dict(path[1])],
        [bag_to_dict(path[1]), bag_to_dict(path[2])],
    ]
    return {
        "pairs": pairs * 2,
        "suites": repeated_stream(
            [("planted-path", 4, 11), ("planted-triangle", 3, 2)], rounds=2
        ),
    }


def canonical(report: dict) -> dict:
    """The workload's *answers* (verdicts/witnesses), stripped of cache
    statistics, which legitimately differ between runs."""
    return {k: report[k] for k in ("pairs", "suites") if k in report}


def run(engine: Engine) -> dict:
    # witnesses=True so restored witness *bags* (not just boolean
    # verdicts) are value-compared against fresh construction
    return canonical(
        run_jobs(parse_jobs(workload()), engine, witnesses=True)
    )


def populate(root) -> dict:
    store = PersistentVerdictStore(root, shards=4)
    report = run(Engine(store=store))
    store.close()
    return report


@pytest.fixture(scope="module")
def fresh_answers():
    return run(Engine())


def test_truncation_at_every_tail_offset_of_one_shard(tmp_path, fresh_answers):
    """Deterministic sweep over one segment's final record: every cut
    inside it must reopen to exactly the prefix records."""
    root = tmp_path / "store"
    populate(root)
    segments = sorted(root.glob("shard-*/*.seg"))
    assert segments, "workload must persist at least one segment"
    victim = max(segments, key=lambda s: s.stat().st_size)
    data = victim.read_bytes()

    for cut in range(max(0, len(data) - 200), len(data)):
        victim.write_bytes(data[:cut])
        store = PersistentVerdictStore(root)
        report = run(Engine(store=store))
        assert report == fresh_answers, f"divergence after cut at {cut}"
        store.close()
        # restore the full segment for the next iteration (the reopened
        # store may itself have truncated + re-appended; rewrite whole)
        victim.write_bytes(data)


@pytest.mark.parametrize("seed", range(6))
def test_randomized_kill_mid_write(tmp_path, seed, fresh_answers):
    """The acceptance test: truncate a random segment at a random byte
    (a crash mid-append), reopen, and cross-check every answer against
    a fresh engine."""
    rng = random.Random(seed)
    root = tmp_path / "store"
    populate(root)

    segments = sorted(root.glob("shard-*/*.seg"))
    victim = rng.choice(segments)
    original_size = victim.stat().st_size
    cut = rng.randrange(original_size)
    victim.write_bytes(victim.read_bytes()[:cut])

    store = PersistentVerdictStore(root)
    persisted = store.stats_dict()["persistent"]
    # reopen is clean: either the cut hit a record boundary or exactly
    # one torn tail was dropped; foreign-file skipping never triggers
    assert persisted["skipped_segments"] == 0
    assert persisted["torn_tails"] <= 1

    report = run(Engine(store=store))
    assert report == fresh_answers
    store.close()

    # and the re-run repaired the store: a second restart is fully warm
    store2 = PersistentVerdictStore(root)
    report2 = run(Engine(store=store2))
    assert report2 == fresh_answers
    assert store2.hits > 0
    store2.close()


def test_truncated_meta_is_refused_not_misread(tmp_path):
    from repro.store import StoreFormatError

    root = tmp_path / "store"
    populate(root)
    meta = root / "META.json"
    meta.write_text(meta.read_text()[:5])  # torn metadata write
    with pytest.raises(StoreFormatError, match="unreadable store metadata"):
        PersistentVerdictStore(root)
