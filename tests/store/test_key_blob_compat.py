"""PUT key blobs across builds.

Every PUT key blob is ``pickle((key, fps))``.  This build reads a
result's participants off its key (:func:`participants`) and writes
the blob as ``(key, participants(key))``; older builds wrote ``fps``
in caller order and index the blob's copy.  So a store written by an
older build must still work here, and every PUT written here must
carry the same participants as a set.
"""

import importlib.util
import pickle
import random
import shutil
from pathlib import Path

import pytest

from repro.consistency.witness import is_witness
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.session import Engine, participants
from repro.errors import InconsistentError
from repro.store import PersistentVerdictStore, verify_store
from repro.store import format as fmt
from repro.workloads.generators import inconsistent_pair, planted_pair

FIXTURES = Path(__file__).parent.parent / "fixtures"


def fixture_inputs() -> dict:
    """The bags ``write_caller_order_store.py`` stored, by role."""
    path = FIXTURES / "write_caller_order_store.py"
    spec = importlib.util.spec_from_file_location("caller_order_store", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.bags()


def put_blobs(root: Path) -> list[tuple[int, tuple, tuple]]:
    """``(kind, key, fps)`` of every PUT in every segment under
    ``root``, unpickled off the raw frames."""
    out = []
    for segment in sorted(root.glob("shard-*/*.seg")):
        data = segment.read_bytes()
        offset = fmt.HEADER.size
        while offset < len(data):
            length, _ = fmt.FRAME.unpack_from(data, offset)
            kind, key_len = fmt.BODY_HEAD.unpack_from(
                data, offset + fmt.FRAME.size
            )
            if kind in (fmt.RECORD_PUT, fmt.RECORD_PUT_Z):
                start = offset + fmt.FRAME.size + fmt.BODY_HEAD.size
                key, fps = pickle.loads(data[start:start + key_len])
                out.append((kind, key, fps))
            offset += fmt.FRAME.size + length
    return out


def assert_blobs_carry_participants(root: Path) -> int:
    blobs = put_blobs(root)
    for _, key, fps in blobs:
        assert isinstance(fps, tuple)
        assert set(fps) == set(participants(key)), key
    return len(blobs)


@pytest.fixture
def old_store(tmp_path) -> Path:
    root = tmp_path / "store"
    shutil.copytree(FIXTURES / "caller_order_store", root)
    return root


class TestStoreWrittenByAnOlderBuild:
    def test_fixture_holds_what_it_claims(self, old_store):
        blobs = put_blobs(old_store)
        kinds = {key[0] for _, key, _ in blobs}
        assert kinds == {"consistent", "witness", "global"}
        assert any(kind == fmt.RECORD_PUT_Z for kind, _, _ in blobs)
        inputs = fixture_inputs()
        left, right = inputs["verdict"]
        lfp, rfp = fingerprint.of_bag(left), fingerprint.of_bag(right)
        assert lfp > rfp
        # the pair verdict's participants lie on disk in caller order,
        # the reverse of its key's
        by_key = {key: fps for _, key, fps in blobs}
        key = ("consistent", rfp, lfp)
        assert by_key[key] == (lfp, rfp) != participants(key)

    def test_every_entry_answers_without_a_recompute(self, old_store):
        inputs = fixture_inputs()
        store = PersistentVerdictStore(old_store)
        engine = Engine(store=store)
        assert engine.are_consistent(*inputs["verdict"]) is True
        for role in ("witness", "big_witness"):
            pair = inputs[role]
            assert is_witness(list(pair), engine.witness(*pair))
        with pytest.raises(InconsistentError):
            engine.witness(*inputs["refusal"])
        result = engine.global_check(list(inputs["global"]))
        assert result.consistent
        assert is_witness(list(inputs["global"]), result.witness)
        stats = engine.stats
        assert stats.consistency_hits == 1 and stats.witness_hits == 3
        assert stats.global_hits == 1
        assert store.stats_dict()["persistent"]["appends"] == 0
        store.close()

    def test_invalidation_drops_exactly_the_entries_holding_the_fp(
        self, old_store
    ):
        blobs = {key: fps for _, key, fps in put_blobs(old_store)}
        store = PersistentVerdictStore(old_store)
        for key in blobs:  # promote every entry into the hot tier
            assert store.get(key) is not store.MISS
        assert set(store._hot._cache) == set(blobs)
        _, shared = fixture_inputs()["verdict"]
        fp = fingerprint.of_bag(shared)
        # what the older build said each entry depends on
        dropped = {key for key, fps in blobs.items() if fp in fps}
        assert 1 < len(dropped) < len(blobs)
        assert store.invalidate_fp(fp) == len(dropped)
        assert set(store._hot._cache) == set(blobs) - dropped
        assert store.invalidate_fp(fp) == 0
        # the disk keeps them
        assert all(store.get(key) is not store.MISS for key in dropped)
        store.close()

    def test_compaction_rewrites_and_answers_the_same(self, old_store):
        assert verify_store(old_store)["ok"]
        keys = [key for _, key, _ in put_blobs(old_store)]
        store = PersistentVerdictStore(old_store)
        before = {key: store.get(key) for key in keys}
        assert store.compact() == len(keys)
        store.close()
        assert assert_blobs_carry_participants(old_store) == len(keys)
        reopened = PersistentVerdictStore(old_store)
        assert {key: reopened.get(key) for key in keys} == before
        assert reopened.disk_hits == len(keys)
        reopened.close()
        report = verify_store(old_store)
        assert report["ok"] and report["live_records"] == len(keys)


class TestThisBuildsBlobs:
    def test_flush_and_compaction_write_the_participants(self, tmp_path):
        """Every PUT carries ``(key, fps)`` with the key's participants,
        whatever order the caller asked in."""
        ab, bc = Schema(["A", "B"]), Schema(["B", "C"])
        root = tmp_path / "store"
        store = PersistentVerdictStore(root, shards=2)
        engine = Engine(store=store)
        for seed in range(4):
            _, r, s = planted_pair(ab, bc, random.Random(seed), n_tuples=8)
            engine.are_consistent(r, s)
            engine.are_consistent(s, r)
            engine.witness(r, s)
            engine.global_check([r, s])
        bad_r, bad_s = inconsistent_pair(ab, bc, random.Random(99))
        with pytest.raises(InconsistentError):
            engine.witness(bad_r, bad_s)
        store.flush()
        flushed = assert_blobs_carry_participants(root)
        assert flushed == len(store) > 0
        store.compact()
        store.close()
        assert assert_blobs_carry_participants(root) == flushed
