"""Find two bags with equal fingerprint-encoding-2 ``of_bag`` values.

Encoding 2 fingerprinted a bag by summing one 128-bit BLAKE2b term per
``(row, multiplicity)`` entry mod 2**128.  Wagner's k-tree algorithm
for the generalized birthday problem ("A Generalized Birthday
Problem", CRYPTO 2002) finds rows whose terms cancel:

* list k (k = 0..127) holds the rows ``(k, j)``, j < LIST_ROWS, each
  with multiplicity 1; the terms of lists 64..127 are negated;
* the lists merge pairwise up a binary tree; level l keeps the sums
  that are 0 on their low 16*l bits (l = 1..6), at most CAP a list;
* the root keeps the sums that are 0 on all 128 bits.

A root sum picks one row per list with
``sum(terms of lists 0..63) == sum(terms of lists 64..127)``, so bag A
(the first 64 rows) and bag B (the last 64) are distinct 64-row bags
over ``(P, Q)`` whose encoding-2 fingerprints agree: both share the
schema, the support size and the term sum.

Needs numpy.  Run ``python tests/fixtures/find_encoding2_collision.py
OUT.json``; it writes ``{"A": [[row, 1], ...], "B": [...]}`` and
holds about 140 MiB of index arrays at its peak.
"""

from __future__ import annotations

import json
import marshal
import sys
from hashlib import blake2b

import numpy as np

LISTS = 128
LIST_ROWS = 98_304
CAP = 1 << 17
BITS = 16
MASK64 = (1 << 64) - 1


def term(row: tuple) -> int:
    """Encoding 2's term of ``(row, 1)``: BLAKE2b-128 of its marshal."""
    payload = marshal.dumps((row, 1), 2)
    return int.from_bytes(blake2b(payload, digest_size=16).digest(), "big")


def leaf(k: int) -> tuple[np.ndarray, np.ndarray]:
    """List k's terms as (low, high) uint64 halves, negated from list 64
    on."""
    raw = b"".join(
        blake2b(marshal.dumps(((k, j), 1), 2), digest_size=16).digest()
        for j in range(LIST_ROWS)
    )
    words = np.frombuffer(raw, dtype=">u8").reshape(-1, 2)
    hi, lo = words[:, 0].astype(np.uint64), words[:, 1].astype(np.uint64)
    if k >= LISTS // 2:  # two's complement negation mod 2**128
        lo, hi = ~lo + np.uint64(1), ~hi + (lo == 0).astype(np.uint64)
    return lo, hi


def field(lo, hi, start: int, width: int) -> np.ndarray:
    """Bits [start, start + width) of each 128-bit value."""
    word, shift = (lo, start) if start < 64 else (hi, start - 64)
    return (word >> np.uint64(shift)) & np.uint64((1 << width) - 1)


def merge(left, right, start: int, width: int):
    """The pairs whose sum is 0 on bits [start, start + width) (both
    sides are already 0 below ``start``), at most CAP of them."""
    (llo, lhi), (rlo, rhi) = left, right
    want = (-field(llo, lhi, start, width).astype(np.int64)) & (
        (1 << width) - 1
    )
    have = field(rlo, rhi, start, width).astype(np.int64)
    order = np.argsort(have, kind="stable")
    sorted_have = have[order]
    first = np.searchsorted(sorted_have, want, "left")
    counts = np.searchsorted(sorted_have, want, "right") - first
    li = np.repeat(np.arange(len(want)), counts)
    offsets = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    ri = order[np.repeat(first, counts) + offsets]
    li, ri = li[:CAP], ri[:CAP]
    lo = llo[li] + rlo[ri]
    hi = lhi[li] + rhi[ri] + (lo < llo[li]).astype(np.uint64)
    return (lo, hi), (li.astype(np.uint32), ri.astype(np.uint32))


def solve(node: int, level: int, links: dict):
    """The merged list of the subtree ``node`` at ``level`` (leaves are
    level 0), recording each merge's index pairs in ``links``."""
    if level == 0:
        return leaf(node)
    left = solve(2 * node, level - 1, links)
    right = solve(2 * node + 1, level - 1, links)
    start = BITS * (level - 1)
    width = 128 - start if level == 7 else BITS
    merged, links[(node, level)] = merge(left, right, start, width)
    print(f"level {level} node {node}: {len(merged[0])}", file=sys.stderr)
    return merged


def rows_of(node: int, level: int, index: int, links: dict) -> list:
    """The leaf rows behind element ``index`` of a merged list."""
    if level == 0:
        return [(node, int(index))]
    li, ri = links[(node, level)]
    return rows_of(2 * node, level - 1, li[index], links) + rows_of(
        2 * node + 1, level - 1, ri[index], links
    )


def main(out: str) -> int:
    links: dict = {}
    (lo, hi) = solve(0, 7, links)
    if not len(lo):
        print("no collision in this tree; raise CAP or LIST_ROWS",
              file=sys.stderr)
        return 1
    rows = rows_of(0, 7, 0, links)
    a, b = rows[:LISTS // 2], rows[LISTS // 2:]
    assert sum(map(term, a)) % (1 << 128) == sum(map(term, b)) % (1 << 128)
    with open(out, "w") as fh:
        json.dump(
            {"A": [[list(r), 1] for r in a], "B": [[list(r), 1] for r in b]},
            fh,
        )
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
