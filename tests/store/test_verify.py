"""`repro store verify`: CRC scan + recompute cross-checks."""

import json
import random

import pytest

from repro.consistency.witness import is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.session import Engine, witness_key
from repro.store import PersistentVerdictStore, verify_store
from repro.store import format as fmt
from repro.workloads.generators import inconsistent_pair, planted_pair

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


def build_store(root, pairs=4, n_tuples=12):
    """A store holding verdicts, witnesses (incl. one refusal), and a
    global result."""
    store = PersistentVerdictStore(root, shards=2)
    engine = Engine(store=store)
    for seed in range(pairs):
        _, r, s = planted_pair(
            AB, BC, random.Random(seed), n_tuples=n_tuples
        )
        engine.are_consistent(r, s)
        engine.witness(r, s)
        engine.global_check([r, s])
    bad_r, bad_s = inconsistent_pair(AB, BC, random.Random(99))
    engine.are_consistent(bad_r, bad_s)
    from repro.errors import InconsistentError

    with pytest.raises(InconsistentError):
        engine.witness(bad_r, bad_s)  # caches the None refusal
    store.close()
    return store


class TestVerifyStore:
    def test_clean_store_verifies_ok(self, tmp_path):
        build_store(tmp_path / "s")
        report = verify_store(tmp_path / "s", sample=64)
        assert report["ok"]
        assert report["mismatches"] == 0 and report["torn_tails"] == 0
        assert report["checked"] >= 8  # witnesses + globals + verdicts
        assert report["live_records"] == report["scanned_records"]

    def test_sample_zero_is_crc_scan_only(self, tmp_path):
        build_store(tmp_path / "s")
        report = verify_store(tmp_path / "s", sample=0)
        assert report["ok"] and report["sampled"] == 0
        assert report["scanned_records"] > 0

    def test_torn_tail_reported_not_truncated(self, tmp_path):
        build_store(tmp_path / "s")
        segment = max(
            (tmp_path / "s").glob("shard-*/*.seg"),
            key=lambda p: p.stat().st_size,
        )
        size = segment.stat().st_size
        with segment.open("ab") as fh:
            fh.write(b"\x00\x01garbage-tail")
        report = verify_store(tmp_path / "s", sample=0)
        assert not report["ok"] and report["torn_tails"] == 1
        # read-only: verify must not have truncated the tail
        assert segment.stat().st_size > size

    def test_corrupted_witness_value_is_a_mismatch(self, tmp_path):
        """Flip bytes inside a stored witness *value* while keeping its
        frame CRC consistent: the recompute cross-check must catch the
        key/value disagreement that CRC alone cannot."""
        build_store(tmp_path / "s")
        # find a witness record and rewrite its value as a PUT of a
        # different (wrong) bag under the same key
        target = None
        for segment in (tmp_path / "s").glob("shard-*/*.seg"):
            with segment.open("rb") as fh:
                scan = fmt.scan_segment(fh)
            for record in scan.records:
                if record.key and record.key[0] == "witness":
                    value = fmt.read_value(segment.open("rb"), record)
                    if value is not None:
                        target = (segment, record, value)
                        break
            if target:
                break
        assert target is not None
        segment, record, witness = target
        wrong = witness + witness  # doubled multiplicities: fps break
        with segment.open("ab") as fh:
            fh.write(fmt.encode_put(record.key, wrong))
        report = verify_store(tmp_path / "s", sample=256)
        assert report["mismatches"] >= 1 and not report["ok"]

    def test_verdict_contradicting_witness_is_a_mismatch(self, tmp_path):
        build_store(tmp_path / "s")
        # append a False verdict over a pair that has a real witness
        target = None
        for segment in (tmp_path / "s").glob("shard-*/*.seg"):
            with segment.open("rb") as fh:
                scan = fmt.scan_segment(fh)
            for record in scan.records:
                if record.key and record.key[0] == "witness":
                    if fmt.read_value(segment.open("rb"), record) is not None:
                        target = record
                        break
            if target:
                break
        assert target is not None
        a, b = target.key[1], target.key[2]
        key = ("consistent", min(a, b), max(a, b))
        from repro.store.persistent import shard_of_key

        shard = shard_of_key(key, 2)
        segment = sorted((tmp_path / "s" / f"shard-{shard:02d}").glob("*.seg"))[-1]
        with segment.open("ab") as fh:
            fh.write(fmt.encode_put(key, False))
        report = verify_store(tmp_path / "s", sample=256)
        assert report["mismatches"] >= 1 and not report["ok"]

    def test_witness_over_the_theorem5_bound_is_a_mismatch(self, tmp_path):
        """A valid witness whose support exceeds |R| + |S| is not one
        the engine built: every engine witness is minimal."""
        r = Bag.from_pairs(AB, [((a, 1), 3) for a in range(3)])
        s = Bag.from_pairs(BC, [((1, c), 3) for c in range(3)])
        product = Bag.from_pairs(
            Schema(["A", "B", "C"]),
            [((a, 1, c), 1) for a in range(3) for c in range(3)],
        )
        assert is_witness([r, s], product)
        store = PersistentVerdictStore(tmp_path / "s", shards=2)
        lfp, rfp = fingerprint.of_bag(r), fingerprint.of_bag(s)
        store.put(witness_key(lfp, rfp), product)
        store.close()
        report = verify_store(tmp_path / "s")
        assert report["mismatches"] == 1 and not report["ok"]


class TestVerifyCli:
    def test_cli_verify_ok_and_one_line_json(self, tmp_path, capsys):
        from repro.cli import main

        build_store(tmp_path / "s")
        code = main(
            ["store", "verify", "--store-dir", str(tmp_path / "s")]
        )
        out = capsys.readouterr().out.strip()
        report = json.loads(out)
        assert code == 0 and report["ok"] and "\n" not in out

    def test_cli_verify_nonzero_on_damage(self, tmp_path, capsys):
        from repro.cli import main

        build_store(tmp_path / "s")
        segment = next((tmp_path / "s").glob("shard-*/*.seg"))
        with segment.open("ab") as fh:
            fh.write(b"torn")
        code = main(
            ["store", "verify", "--store-dir", str(tmp_path / "s")]
        )
        report = json.loads(capsys.readouterr().out.strip())
        assert code == 1 and not report["ok"]

    def test_verify_refuses_another_fingerprint_encoding(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.store import StoreFormatError

        build_store(tmp_path / "s")
        # META.json as a build of encoding 2 wrote it: its witnesses'
        # keys cannot match a recompute, so no sample is reported
        (tmp_path / "s" / "META.json").write_text(
            '{"version": 1, "fingerprint": 2, "shards": 2}\n'
        )
        with pytest.raises(StoreFormatError, match="encoding 2"):
            verify_store(tmp_path / "s")
        code = main(["store", "verify", "--store-dir", str(tmp_path / "s")])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert "fingerprint encoding 2" in captured.err

    def test_cli_verify_missing_store_is_usage_error(self, tmp_path):
        from repro.cli import main

        assert main(
            ["store", "verify", "--store-dir", str(tmp_path / "nope")]
        ) == 2
