"""Offline store verification: CRC scan + recompute cross-checks.

``repro store verify`` answers two questions about a persistent
verdict store without mutating it:

1. **Is every byte intact?**  Every segment of every shard is scanned
   through the same CRC framing the open path uses — but read-only: a
   torn tail is *reported*, never truncated, and foreign or
   newer-versioned segments are counted as skipped, exactly as an open
   would treat them.

2. **Do stored results still mean what their keys claim?**  A random
   sample of live records is decoded and cross-checked against fresh
   recomputation.  Keys hold only fingerprints, not bags — but a
   witness *contains* its inputs: ``W`` was built so that its marginal
   on each input schema IS the input bag.  So for a sampled witness the
   verifier searches the sub-schemas of ``W.schema`` for marginals
   whose fingerprints equal the key's; finding them recovers the
   original bags, and the verdict is recomputed from scratch
   (``are_consistent`` + ``is_witness`` + Theorem 5's support bound,
   which every engine witness meets).  Global results recover every
   participant the same way; pair verdicts are cross-referenced
   against the stored witness for the same fingerprint pair.  A
   corrupted or mislabelled value cannot survive: its marginal
   fingerprints no longer match its key.

Records whose schemas are too wide to enumerate (``max_attrs``) or
that carry nothing recomputable (e.g. a lone ``consistent`` bool with
no witness to cross-reference) are counted ``skipped`` — reported, not
silently dropped from the denominator.
"""

from __future__ import annotations

import random
from itertools import chain, combinations
from pathlib import Path

from ..engine.session import consistent_key, participants, witness_key
from . import format as fmt
from .persistent import read_meta

__all__ = ["verify_store"]

DEFAULT_SAMPLE = 32
DEFAULT_MAX_ATTRS = 10


def _scan_shard(shard_dir: Path, report: dict) -> dict:
    """Replay one shard directory read-only into its live record map
    ``key -> (segment, offset, length, compressed)``, as an open does:
    the last put of a key wins, and a legacy tombstone drops
    nothing."""
    live: dict[tuple, tuple] = {}
    for segment in sorted(shard_dir.glob("*.seg")):
        report["segments"] += 1
        with segment.open("rb") as fh:
            scan = fmt.scan_segment(fh)
        if not scan.usable:
            report["skipped_segments"] += 1
            continue
        if scan.truncate_at is not None:
            report["torn_tails"] += 1
        report["scanned_records"] += len(scan.records)
        for record in scan.records:
            if record.kind == fmt.RECORD_TOMBSTONE:
                report["dead_records"] += 1
                continue
            if record.key in live:
                report["dead_records"] += 1
            live[record.key] = (
                segment,
                record.value_offset,
                record.value_length,
                record.compressed,
            )
    return live


def _load_value(entry: tuple):
    segment, offset, length, compressed = entry
    with segment.open("rb") as fh:
        fh.seek(offset)
        blob = fh.read(length)
    return fmt.decode_value(blob, compressed)


def _marginal_fingerprints(witness, max_attrs: int):
    """``fingerprint -> sub-schema`` over every sub-schema of the
    witness (``None`` when the schema is too wide to enumerate)."""
    from ..core.schema import Schema
    from ..engine import fingerprint

    attrs = witness.schema.attrs
    if len(attrs) > max_attrs:
        return None
    by_fp = {}
    for subset in chain.from_iterable(
        combinations(attrs, size) for size in range(len(attrs) + 1)
    ):
        schema = Schema(subset)
        by_fp[fingerprint.of_bag(witness.marginal(schema))] = schema
    return by_fp


def _check_witness_value(key: tuple, witness, max_attrs: int) -> str:
    """Recompute a stored witness record from its own content."""
    from ..consistency.pairwise import are_consistent
    from ..consistency.witness import is_witness

    lfp, rfp = participants(key)
    by_fp = _marginal_fingerprints(witness, max_attrs)
    if by_fp is None:
        return "skipped"
    left_schema = by_fp.get(lfp)
    right_schema = by_fp.get(rfp)
    if left_schema is None or right_schema is None:
        return "mismatch"  # the value no longer contains its inputs
    if (left_schema | right_schema) != witness.schema:
        return "mismatch"
    left = witness.marginal(left_schema)
    right = witness.marginal(right_schema)
    if not are_consistent(left, right):
        return "mismatch"
    if not is_witness([left, right], witness):
        return "mismatch"
    if witness.support_size > left.support_size + right.support_size:
        return "mismatch"  # Theorem 5: the engine builds minimal witnesses
    return "checked"


def _check_global_value(key: tuple, result, max_attrs: int) -> str:
    from ..consistency.witness import is_witness

    consistent = getattr(result, "consistent", None)
    witness = getattr(result, "witness", None)
    if consistent is None:
        return "mismatch"  # not a GlobalConsistencyResult at all
    if not consistent:
        return "checked" if witness is None else "mismatch"
    if witness is None:
        return "mismatch"
    by_fp = _marginal_fingerprints(witness, max_attrs)
    if by_fp is None:
        return "skipped"
    bags = []
    for fp in participants(key):
        schema = by_fp.get(fp)
        if schema is None:
            return "mismatch"
        bags.append(witness.marginal(schema))
    return "checked" if is_witness(bags, witness) else "mismatch"


def _check_consistent_value(key: tuple, verdict, live: dict) -> str:
    """Cross-reference a pair verdict against the stored witness for
    the same fingerprint pair (either orientation)."""
    if not isinstance(verdict, bool):
        return "mismatch"
    a, b = participants(key)
    for lfp, rfp in ((a, b), (b, a)):
        entry = live.get(witness_key(lfp, rfp))
        if entry is None:
            continue
        witness = _load_value(entry)
        if verdict != (witness is not None):
            return "mismatch"
        return "checked"
    return "skipped"  # no recomputable companion record


def _check_witness_refusal(key: tuple, live: dict) -> str:
    """A stored ``None`` witness claims the pair is inconsistent; the
    stored pair verdict (symmetric key: sorted fingerprints) must
    agree."""
    a, b = participants(key)
    entry = live.get(consistent_key(a, b))
    if entry is None:
        return "skipped"  # refusal with no companion verdict
    verdict = _load_value(entry)
    if verdict is False:
        return "checked"
    return "mismatch"


def verify_store(
    store_dir: str | Path,
    sample: int = DEFAULT_SAMPLE,
    seed: int = 0,
    max_attrs: int = DEFAULT_MAX_ATTRS,
) -> dict:
    """CRC-scan a store directory and cross-check a sample of records.

    Read-only: unlike opening the store, a torn tail is reported
    instead of truncated.  Returns the one-line-JSON-able report;
    ``ok`` is False when any framing damage or recompute mismatch was
    found (the CLI turns that into a nonzero exit).  Metadata the open
    path would refuse (another fingerprint encoding among it) raises
    :class:`~repro.store.persistent.StoreFormatError` instead: its
    witnesses' keys could not match a recompute.
    """
    root = Path(store_dir)
    meta = read_meta(root)
    report = {
        "action": "verify",
        "store_dir": str(root),
        "shards": 0,
        "segments": 0,
        "skipped_segments": 0,
        "torn_tails": 0,
        "scanned_records": 0,
        "live_records": 0,
        "dead_records": 0,
        "sampled": 0,
        "checked": 0,
        "skipped": 0,
        "mismatches": 0,
    }
    live: dict[tuple, tuple] = {}
    for shard_dir in sorted(root.glob("shard-*")):
        if not shard_dir.is_dir():
            continue
        report["shards"] += 1
        live.update(_scan_shard(shard_dir, report))
    report["live_records"] = len(live)
    rng = random.Random(seed)
    keys = sorted(live, key=repr)
    if not sample:
        keys = []  # CRC scan only
    elif len(keys) > sample:
        keys = rng.sample(keys, sample)
    for key in keys:
        report["sampled"] += 1
        try:
            value = _load_value(live[key])
            if key[0] == "witness":
                outcome = (
                    _check_witness_value(key, value, max_attrs)
                    if value is not None
                    else _check_witness_refusal(key, live)
                )
            elif key[0] == "global":
                outcome = _check_global_value(key, value, max_attrs)
            elif key[0] == "consistent":
                outcome = _check_consistent_value(key, value, live)
            else:
                outcome = "skipped"
        except Exception:
            outcome = "mismatch"  # undecodable value = corruption
        report[
            "mismatches" if outcome == "mismatch"
            else "checked" if outcome == "checked"
            else "skipped"
        ] += 1
    report["ok"] = (
        report["mismatches"] == 0
        and report["torn_tails"] == 0
        and meta is not None
    )
    return report
