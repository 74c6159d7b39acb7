"""Write a one-shard verdict store whose PUTs carry caller-order participants.

Until a stored result's participants were read off its key, every PUT
key blob held ``(key, fps)`` with ``fps`` as the caller passed them:
for a pair verdict that is the order the two bags were asked in, while
the key itself sorts them.  ``caller_order_store/`` next to this file
was written by this script at commit 3fbf382, the last build that did
so, and ``tests/store/test_key_blob_compat.py`` checks that later
builds still read, invalidate, compact and verify it.  It holds:

* a pair verdict asked with the larger fingerprint on the left, so its
  key blob lists the participants in the reverse of the key's order;
* a witness, and a refusal (an inconsistent pair's ``None`` witness);
* a Theorem 6 global result over a three-bag path;
* a witness of 160 rows, whose pickle is large enough to be stored
  zlib-compressed (``PUT_Z``).

Run ``PYTHONPATH=src python tests/fixtures/write_caller_order_store.py
OUT_DIR`` on that commit; OUT_DIR must not exist yet.  The bags are
literal rows, so the test rebuilds them from :func:`bags` on any build.
"""

from __future__ import annotations

import sys

from repro import Bag, Engine, Schema
from repro.engine import fingerprint
from repro.errors import InconsistentError
from repro.store import PersistentVerdictStore

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
CD = Schema(["C", "D"])


def bags() -> dict:
    """The fixture's inputs by role, from literal rows.

    ``verdict`` is ordered larger fingerprint first; ``witness`` and
    ``global`` share its right bag, so invalidating that bag's
    fingerprint drops some entries and keeps the others.
    """
    ab = Bag.from_pairs(AB, [((1, 1), 2), ((2, 1), 1), ((3, 2), 1)])
    bc = Bag.from_pairs(BC, [((1, 5), 3), ((2, 6), 1)])
    cd = Bag.from_pairs(CD, [((5, 0), 1), ((5, 1), 2), ((6, 0), 1)])
    verdict = (ab, bc)
    if fingerprint.of_bag(ab) < fingerprint.of_bag(bc):
        verdict = (bc, ab)
    bad_ab = Bag.from_pairs(AB, [((1, 1), 1)])
    bad_bc = Bag.from_pairs(BC, [((1, 5), 2)])
    big_ab = Bag.from_pairs(AB, [((i, i % 8), 1) for i in range(160)])
    big_bc = Bag.from_pairs(BC, [((b, j), 1) for b in range(8) for j in range(20)])
    return {
        "verdict": verdict,
        "witness": (ab, bc),
        "refusal": (bad_ab, bad_bc),
        "global": (ab, bc, cd),
        "big_witness": (big_ab, big_bc),
    }


def write(root: str) -> None:
    inputs = bags()
    store = PersistentVerdictStore(root, shards=1)
    engine = Engine(store=store)
    assert engine.are_consistent(*inputs["verdict"])
    engine.witness(*inputs["witness"])
    try:
        engine.witness(*inputs["refusal"])
    except InconsistentError:
        pass
    else:
        raise AssertionError("the refusal pair must be inconsistent")
    assert engine.global_check(list(inputs["global"])).consistent
    engine.witness(*inputs["big_witness"])
    store.close()


if __name__ == "__main__":
    write(sys.argv[1])
