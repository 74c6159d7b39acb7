"""Fixed-seed fuzz of segment scanning and replay.

Each case writes a random run of raw and compressed puts and legacy
tombstones into a one-shard store, then damages it: a bit flip in a
frame's length, CRC or body, an unknown kind byte under a valid CRC, a
cut, or trailing garbage.  Scanning, opening and verifying never
raise; the open keeps exactly the records before the first damaged
frame (a segment cut inside its header holds none and is deleted), and
every key it answers carries the value of its last intact put.
``verify_store``, run first, reports a torn tail exactly when the open
then repairs one, and a second open finds none.
"""

import io
import random
import zlib

from repro.store import PersistentVerdictStore, verify_store
from repro.store import format as fmt
from repro.store.shard import Shard
from tests.conftest import legacy_tombstone

SEED = 0x5E6F
N_CASES = 300
N_KEYS = 5
DAMAGES = ("length", "crc", "body", "kind")


def key_of(i: int) -> tuple:
    return ("fuzz", i)


def fps_of(i: int) -> tuple:
    return ((0x9E3779B97F4A7C15 * (i + 1)) % (1 << 128),)


def random_frames(rng: random.Random) -> list[tuple]:
    """``(frame, key, value)`` triples; a tombstone has key ``None``.
    Values differ per put, so the last put of a key is observable."""
    frames = []
    for n in range(rng.randint(1, 10)):
        roll = rng.random()
        if roll < 0.2:
            fp = fps_of(rng.randrange(N_KEYS))[0]
            frames.append((legacy_tombstone(fp), None, None))
            continue
        i = rng.randrange(N_KEYS)
        if roll < 0.5:  # pickles well past COMPRESS_MIN and shrinks
            value = ("z", n, [j % 5 for j in range(400)])
        else:
            value = ("v", n)
        frame = fmt.encode_put(key_of(i), value)
        frames.append((frame, key_of(i), value))
    return frames


def damage(rng: random.Random, frames: list[tuple]) -> tuple[bytes, int, bool]:
    """The damaged segment bytes, the number of intact leading frames,
    and whether the scan must report a torn tail."""
    starts = [fmt.HEADER.size]
    for frame, _, _ in frames:
        starts.append(starts[-1] + len(frame))
    data = bytearray(fmt.HEADER.pack(fmt.MAGIC, fmt.FORMAT_VERSION))
    for frame, _, _ in frames:
        data += frame
    intact = len(frames)
    # one or two in-place damages, each to a distinct frame
    n_damaged = rng.randint(0, min(2, len(frames)))
    for k in rng.sample(range(len(frames)), n_damaged):
        start = starts[k]
        kind = rng.choice(DAMAGES)
        if kind == "kind":
            body_at = start + fmt.FRAME.size
            data[body_at] = rng.choice((0, 4, 250))
            body = bytes(data[body_at:starts[k + 1]])
            fmt.FRAME.pack_into(data, start, len(body), zlib.crc32(body))
        else:
            lo, hi = {
                "length": (start, start + 4),
                "crc": (start + 4, start + 8),
                "body": (start + 8, starts[k + 1]),
            }[kind]
            data[rng.randrange(lo, hi)] ^= 1 << rng.randrange(8)
        intact = min(intact, k)
    torn = intact < len(frames)
    tail = rng.random()
    if tail < 0.4:  # a cut anywhere, header and frame boundaries included
        cut = rng.randrange(len(data) + 1)
        del data[cut:]
        if cut < fmt.HEADER.size:
            return bytes(data), 0, True
        whole = sum(1 for end in starts[1:] if end <= cut)
        if whole <= intact:  # the cut comes first, or removes the damage
            intact, torn = whole, cut != starts[whole]
    elif tail < 0.6:
        data += rng.randbytes(rng.randint(1, 24))
        torn = True
    return bytes(data), intact, torn


def expected_live(frames: list[tuple]) -> dict:
    live = {}
    for _, key, value in frames:
        if key is not None:
            live[key] = value
    return live


def test_damaged_segments_keep_their_intact_prefix(tmp_path):
    rng = random.Random(SEED)
    torn_cases = compressed = 0
    for case in range(N_CASES):
        frames = random_frames(rng)
        data, intact, torn = damage(rng, frames)
        kept = frames[:intact]
        end = fmt.HEADER.size + sum(len(frame) for frame, _, _ in kept)
        if len(data) < fmt.HEADER.size:
            end = 0
        live = expected_live(kept)
        where = f"case {case}"

        scan = fmt.scan_segment(io.BytesIO(data))
        assert scan.usable, where
        assert [r.key for r in scan.records] == [k for _, k, _ in kept], where
        compressed += sum(r.compressed for r in scan.records)
        assert scan.truncate_at == (end if torn else None), where

        root = tmp_path / f"case{case}"
        PersistentVerdictStore(root, shards=1).close()
        segment = root / "shard-00" / "00000001.seg"
        segment.write_bytes(data)
        report = verify_store(root)
        assert report["torn_tails"] == int(torn), where
        assert report["live_records"] == len(live), where

        shard = Shard(segment.parent)
        stats = shard.stats_dict()
        assert stats["torn_tails"] == report["torn_tails"], where
        assert stats["dead_records"] == report["dead_records"], where
        if len(data) < fmt.HEADER.size:
            assert not segment.exists(), where
        else:
            assert segment.read_bytes() == (data[:end] if torn else data), where
        assert len(shard) == len(live), where
        for key, value in live.items():
            assert shard.lookup(key) == (value, False), where
        shard.close()

        reopened = Shard(segment.parent)
        assert reopened.stats_dict()["torn_tails"] == 0, where
        assert len(reopened) == len(live), where
        assert all(reopened.contains(key) for key in live), where
        reopened.close()
        torn_cases += torn
    # the stream exercises both outcomes, and compressed values
    assert 0 < torn_cases < N_CASES
    assert compressed > 0
