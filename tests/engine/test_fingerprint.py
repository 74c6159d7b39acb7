"""Content-fingerprint semantics: order-insensitivity, multiplicity
awareness, the record format, cross-engine sharing, and live handles."""

import marshal
import os
import random
import subprocess
import sys
from enum import IntEnum
from hashlib import blake2b
from pathlib import Path

from repro.core.bags import Bag
from repro.core.krelations import KRelation
from repro.core.schema import Schema
from repro.engine import fingerprint
from repro.engine.live import LiveEngine
from repro.engine.session import Engine, VerdictStore
from tests.conftest import collision_bags

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
SRC = Path(__file__).resolve().parents[2] / "src"
# of_bag of the bag in TestFingerprintValue.test_pinned_value, encoding 3
PINNED_FP = "b69a3efb3f3ce88237f7cafdf8a7ceea"


class Color(IntEnum):
    RED = 1
    BLUE = 2


def consistent_pair(seed=0, n=6):
    from repro.workloads.generators import planted_pair

    _, r, s = planted_pair(AB, BC, random.Random(seed), n_tuples=n)
    return r, s


def rebuild(bag: Bag, shuffle_seed: int = 0) -> Bag:
    """A value-equal bag constructed independently, rows in a different
    order (never the same object, never the same dict order)."""
    items = list(bag.items())
    random.Random(shuffle_seed).shuffle(items)
    return Bag.from_pairs(bag.schema, items)


class TestFingerprintValue:
    def test_row_order_is_irrelevant(self):
        r = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1), ((3, 1), 5)])
        assert fingerprint.of_bag(r) == fingerprint.of_bag(rebuild(r, 7))

    def test_schema_attr_order_is_irrelevant(self):
        assert fingerprint.of_schema(Schema(["A", "B"])) == \
            fingerprint.of_schema(Schema(["B", "A"]))

    def test_unequal_multiplicities_never_collide(self):
        base = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)])
        seen = {fingerprint.of_bag(base)}
        # 10**4400 has more digits than str(int) will convert
        for bump in (1, 2, 100, 2**40, 10**4400):
            other = Bag.from_pairs(AB, [((1, 2), 2 + bump), ((2, 2), 1)])
            fp = fingerprint.of_bag(other)
            assert fp not in seen
            seen.add(fp)

    def test_support_vs_multiplicity_no_collision(self):
        # same total multiplicity, different distribution
        a = Bag.from_pairs(AB, [((1, 2), 3)])
        b = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)])
        assert fingerprint.of_bag(a) != fingerprint.of_bag(b)

    def test_type_distinguished_values(self):
        # values that compare or hash equal in Python, or print alike
        values = [1, True, 1.0, 0.0, -0.0, "1", None, Color.RED]
        fps = {
            fingerprint.of_bag(Bag.from_pairs(AB, [((v, 2), 1)]))
            for v in values
        }
        assert len(fps) == len(values)

    def test_equal_strings_fingerprint_alike_whatever_their_identity(self):
        # marshal format 3 and up would write a back-reference for the
        # repeated object and mark interned strings; format 2 does not
        one = "".join(["val", "ue"])
        other = "".join(["va", "lue"])
        assert one == other and one is not other
        same = Bag(AB, {(one, one): 3})
        distinct = Bag(AB, {(one, other): 3})
        assert fingerprint.of_bag(same) == fingerprint.of_bag(distinct)
        interned = Bag(AB, {(sys.intern("value"), "value"): 3})
        assert fingerprint.of_bag(interned) == fingerprint.of_bag(same)

    def test_digest_hashes_the_sorted_records(self):
        # the documented format: the schema fingerprint's 16 bytes, then
        # every record in byte order, in one BLAKE2b-128 call
        scalar = {(1, "x"): 2, (2.5, None): 1, ("y", 10**5000): 3}
        other = {
            (Color.BLUE, "x"): 4,  # IntEnum: the qualified text
            ((1, 2), True): 1,  # nested tuple: the qualified text
        }
        records = [marshal.dumps(item, 2) for item in scalar.items()] + [
            marshal.dumps("row|Color:<Color.BLUE: 2>|str:'x'|#4", 2),
            marshal.dumps("row|tuple:(1, 2)|bool:True|#1", 2),
        ]
        payload = fingerprint.of_schema(AB).to_bytes(16, "big") + b"".join(
            sorted(records)
        )
        expected = blake2b(payload, digest_size=16).digest()
        bag = Bag(AB, {**scalar, **other})
        assert fingerprint.of_bag(bag) == int.from_bytes(expected, "big")
        # a text record is a marshalled str, never a tuple record
        assert {r[:1] for r in records} == {b"(", b"u"}

    def test_a_subset_sum_collision_of_encoding_2_is_apart(self):
        # two 64-row bags whose encoding-2 row-term sums agree mod 2**128
        # (tests/fixtures/find_encoding2_collision.py found them)
        a, b = collision_bags()
        assert a != b and len(a) == len(b) == 64
        assert fingerprint.of_bag(a) != fingerprint.of_bag(b)

    def test_pinned_value(self):
        # a drift in either row encoding (or in marshal format 2 across
        # Python versions) would orphan every persisted store key
        bag = Bag.from_pairs(AB, [
            ((1, "x"), 2),
            ((-0.0, None), 1),
            ((True, "\u00e9"), 10**30),
            (((1, "a"), 2), 1),  # nested tuple: the qualified encoding
        ])
        assert f"{fingerprint.of_bag(bag):032x}" == PINNED_FP

    def test_schema_reaches_the_bag_fingerprint(self):
        a = Bag.from_pairs(AB, [((1, 2), 1)])
        b = Bag.from_pairs(Schema(["A", "C"]), [((1, 2), 1)])
        assert fingerprint.of_bag(a) != fingerprint.of_bag(b)

    def test_deterministic_across_instances(self):
        # the digest must be a pure function of the value, not of the
        # interpreter's salted hash(): another process with another
        # hash seed computes the same fingerprint
        pairs = [((f"k{i}", "x" * i), i + 1) for i in range(12)]
        r = Bag.from_pairs(AB, pairs)
        assert fingerprint.of_bag(r) == fingerprint.of_bag(rebuild(r))
        script = (
            "from repro.core.bags import Bag\n"
            "from repro.core.schema import Schema\n"
            "from repro.engine import fingerprint\n"
            f"bag = Bag.from_pairs(Schema(['A', 'B']), {pairs!r})\n"
            "print(fingerprint.of_bag(bag))\n"
        )
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(SRC),
                       PYTHONHASHSEED=hash_seed)
            out = subprocess.run(
                [sys.executable, "-c", script], env=env, check=True,
                capture_output=True, text=True, timeout=60,
            ).stdout
            assert int(out) == fingerprint.of_bag(r)


class TestCacheSharing:
    def test_value_equal_bags_share_entries_one_engine(self):
        engine = Engine()
        r, s = consistent_pair(seed=1)
        engine.are_consistent(r, s)
        assert engine.stats.consistency_hits == 0
        engine.are_consistent(rebuild(r, 1), rebuild(s, 2))
        assert engine.stats.consistency_hits == 1

    def test_krelation_round_trip_shares_entries(self):
        engine = Engine()
        r, s = consistent_pair(seed=2)
        engine.witness(r, s)
        r2 = KRelation.from_bag(r).to_bag()
        s2 = KRelation.from_bag(s).to_bag()
        assert r2 is not r
        w = engine.witness(r2, s2)
        assert engine.stats.witness_hits == 1
        assert w is engine.witness(r, s)

    def test_two_engines_share_a_store(self):
        """The acceptance criterion: two distinct Engine instances
        given value-equal but separately-constructed collections show
        cache hits on the second evaluation."""
        store = VerdictStore()
        first, second = Engine(store=store), Engine(store=store)
        r, s = consistent_pair(seed=3)
        first.global_check([r, s])
        assert first.stats.global_hits == 0
        second.global_check([rebuild(r, 3), rebuild(s, 4)])
        assert second.stats.global_hits == 1
        # per-engine stats stay separate
        assert first.stats.global_hits == 0

    def test_live_update_keeps_shared_store_entries(self):
        """A LiveEngine over a *shared* store must not invalidate
        entries other engines may still be serving — content-addressed
        results never go stale, and the content may come back."""
        store = VerdictStore()
        serving = Engine(store=store)
        r, s = consistent_pair(seed=5)
        serving.are_consistent(r, s)
        live = LiveEngine([rebuild(r, 1), rebuild(s, 2)], store=store)
        h0, _ = live.handles
        live.update(h0, (7, 7), 1)
        serving.are_consistent(r, s)
        assert serving.stats.consistency_hits == 1  # entry survived
        live.update(h0, (7, 7), -1)  # back to the shared content
        assert live.are_consistent(*live.handles)  # checker still exact

    def test_live_update_still_invalidates_private_store(self):
        live = LiveEngine([Bag.from_pairs(AB, [((1, 2), 1)]),
                           Bag.from_pairs(BC, [((2, 3), 1)])])
        h0, h1 = live.handles
        live.witness(h0, h1)
        assert len(live.engine) >= 1
        live.update(h0, (1, 2), 1)
        assert live.stats.invalidations >= 1

    def test_value_equal_bags_share_one_index(self):
        r = Bag.from_pairs(AB, [((1, 2), 2), ((2, 2), 1)])
        r2 = rebuild(r, 9)
        fingerprint.of_bag(r)
        fingerprint.of_bag(r2)
        assert r._index is r2._index

    def test_fingerprint_cached_on_the_index(self):
        r, _ = consistent_pair(seed=4)
        assert fingerprint.of_bag(r) == fingerprint.of_bag(r)
        assert r._index._fingerprint is not None


class TestIncrementalMaintenance:
    SCHEMAS = [AB, BC, Schema(["C", "D"]), AB]  # two handles share AB

    def _random_update(self, rng, live, handles):
        handle = handles[rng.randrange(len(handles))]
        rows = sorted(handle.items(), key=repr)
        if rows and rng.random() < 0.45:
            row, mult = rows[rng.randrange(len(rows))]
            amount = -mult if rng.random() < 0.5 else -1  # incl. to-zero
        else:
            row = tuple(rng.randrange(3) for _ in handle.schema.attrs)
            amount = rng.randint(1, 2)
        live.update(handle, row, amount)

    def test_stream_fingerprints_match_from_scratch(self):
        """After every update (inserts, deletes, delete-to-zero), the
        handle's fingerprint equals one computed from a freshly built
        value-equal bag."""
        rng = random.Random(20260729)
        live = LiveEngine([Bag.empty(schema) for schema in self.SCHEMAS])
        handles = live.handles
        for step in range(80):
            self._random_update(rng, live, handles)
            for handle in handles:
                fresh = Bag.from_pairs(handle.schema, list(handle.items()))
                assert handle.fingerprint() == fingerprint.of_bag(fresh), (
                    f"step {step}: incremental fingerprint diverged"
                )

    def test_stream_verdicts_match_identity_free_recompute(self):
        """Fingerprint-keyed verdicts along an update stream equal the
        verdicts a fresh identity-style engine computes from scratch on
        value-equal copies — content addressing changes the keys, never
        the answers."""
        from repro.consistency.global_ import decide_global_consistency
        from repro.consistency.pairwise import are_consistent

        rng = random.Random(20260730)
        live = LiveEngine([Bag.empty(schema) for schema in self.SCHEMAS])
        handles = live.handles
        for _ in range(40):
            self._random_update(rng, live, handles)
            bags = [h.bag() for h in handles]
            copies = [rebuild(bag) for bag in bags]
            for i in range(len(handles)):
                for j in range(i + 1, len(handles)):
                    assert live.are_consistent(handles[i], handles[j]) == \
                        are_consistent(copies[i], copies[j])
            assert live.globally_consistent() == decide_global_consistency(
                copies
            )

    def test_mixed_encoding_stream_ends_on_of_bag(self):
        """Rows of both record kinds in one handle: the handle's
        fingerprint is what a freshly built equal bag gets."""
        rng = random.Random(20261018)
        # no two values compare equal: a bag keys 1, True and 1.0 as
        # one row
        pool = [1, "1", 2.5, -0.5, None, False, Color.BLUE, (1, 2), ("a",)]
        live = LiveEngine([Bag.empty(AB)])
        handle = live.handles[0]
        for _ in range(120):
            row = (rng.choice(pool), rng.choice(pool))
            current = handle._mults.get(row, 0)
            amount = -current if current and rng.random() < 0.4 else \
                rng.randint(1, 3)
            live.update(handle, row, amount)
        fresh = Bag.from_pairs(AB, list(handle.items()))
        types = {type(v) for row, _ in fresh.items() for v in row}
        assert {int, str, Color, tuple} <= types
        assert handle.fingerprint() == fingerprint.of_bag(fresh)

    def test_a_session_without_a_shared_store_derives_nothing(
        self, monkeypatch
    ):
        """Updates, pairwise checks and maintained global checks over a
        private store key nothing, so they never digest a snapshot."""
        calls = []
        real = fingerprint.of_bag
        monkeypatch.setattr(
            fingerprint, "of_bag", lambda bag: calls.append(bag) or real(bag)
        )
        r, s = consistent_pair(seed=6, n=12)
        live = LiveEngine([r, s])
        h0, h1 = live.handles
        for step in range(6):
            live.update(h0, (9, step), 1)
            live.update(h1, (step, 9), 1)
            live.update(h0, (9, 9), 1)
            live.update(h1, (9, 9), 1)
            assert live.globally_consistent()
            assert live.global_check().consistent
        assert live.live_global_stats()["repairs"] >= 5
        assert calls == []

    def test_return_to_previous_content_restores_fingerprint(self):
        live = LiveEngine([Bag.from_pairs(AB, [((1, 2), 2)])])
        handle = live.handles[0]
        before = handle.fingerprint()
        live.update(handle, (5, 5), 3)
        assert handle.fingerprint() != before
        live.update(handle, (5, 5), -3)  # delete-to-zero
        assert handle.fingerprint() == before
