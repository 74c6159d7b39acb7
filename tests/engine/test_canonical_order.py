"""One canonical row order per content: what the engine serves is a
function of a bag's content, never of the order its rows arrived in.

Each build below clears the index registry first, so a value-equal bag
built earlier cannot lend its index (and its row order) to a later one.
"""

from __future__ import annotations

import marshal
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.consistency.global_ import global_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import fingerprint, index as index_module, wire
from repro.engine.index import BagIndex
from repro.engine.session import Engine
from repro.io import bag_to_dict

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
CD = Schema(["C", "D"])
ABCD = Schema(["A", "B", "C", "D"])

# ints past one byte and strings of two lengths: marshal order is
# neither numeric nor repr order here
DOMAIN = (0, 1, 300, "b", "aa")


def record_order(bag: Bag) -> list[tuple]:
    """The documented canonical order: rows by their fingerprint
    records' bytes."""
    return sorted(
        bag.support_rows(),
        key=lambda row: marshal.dumps((row, bag.multiplicity(row)), 2),
    )


def spell(bag: Bag, order) -> Bag:
    """A fresh bag with ``bag``'s content, rows inserted in ``order``."""
    items = list(bag.items())
    return Bag.from_pairs(bag.schema, [items[i] for i in order])


def served(bags: list[Bag]) -> tuple:
    """Everything the engine serves about one path collection R, S, T:
    the pair witness of (R, S), both global witnesses, the JSON rows
    and the v2 frame."""
    fingerprint._BAG_INDEXES.clear()
    r, s, _ = bags
    return (
        bag_to_dict(Engine().witness(r, s)),
        bag_to_dict(global_witness(bags, method="acyclic").witness),
        bag_to_dict(global_witness(bags, method="search").witness),
        [bag_to_dict(bag) for bag in bags],
        wire.encode_jobs_frame(
            {"pairs": [[r, s]], "collections": [{"bags": bags}]}
        ),
    )


@st.composite
def spelled_twice(draw):
    """One consistent path collection (the marginals of a random bag
    over ABCD), each bag spelled in two random row orders."""
    rows = draw(st.lists(
        st.tuples(
            st.tuples(*[st.sampled_from(DOMAIN) for _ in ABCD.attrs]),
            st.integers(1, 3),
        ),
        min_size=1,
        max_size=8,
    ))
    content = [
        Bag.from_pairs(ABCD, rows).marginal(schema) for schema in (AB, BC, CD)
    ]
    spellings = []
    for _ in range(2):
        spellings.append([
            spell(bag, draw(st.permutations(range(len(bag)))))
            for bag in content
        ])
    return spellings


class TestServedValuesAreFunctionsOfContent:
    def test_the_two_spellings_of_a_tied_pair(self):
        # two witnesses are minimal here; insertion order used to pick
        r_forward = Bag.from_pairs(AB, [((1, "b"), 1), ((2, "b"), 1)])
        r_reversed = Bag.from_pairs(AB, [((2, "b"), 1), ((1, "b"), 1)])
        s = Bag.from_pairs(BC, [(("b", 10), 1), (("b", 20), 1)])
        witnesses = []
        for r in (r_forward, r_reversed):
            fingerprint._BAG_INDEXES.clear()
            witnesses.append(Engine().witness(r, s))
        assert witnesses[0] == witnesses[1]
        assert bag_to_dict(witnesses[0]) == bag_to_dict(witnesses[1])

    @settings(deadline=None, max_examples=60)
    @given(spelled_twice())
    def test_every_served_value_ignores_row_order(self, spellings):
        first, second = spellings
        assert served(first) == served(second)

    def test_columnar_frames_are_byte_equal(self):
        # past MIN_ROWS, so the bag rides as columns, not inline JSON
        rows = [((i * 37 % 500, f"v{i % 7}"), 1 + i % 3) for i in range(64)]
        frames = []
        for seed in (1, 2):
            shuffled = list(rows)
            random.Random(seed).shuffle(shuffled)
            fingerprint._BAG_INDEXES.clear()
            bag = Bag.from_pairs(AB, shuffled)
            frame = wire.encode_jobs_frame({"pairs": [[bag, bag]]})
            assert b'"cols"' in frame
            frames.append(frame)
        assert frames[0] == frames[1]


class TestOnePassPerContent:
    def content(self) -> list[tuple[tuple, int]]:
        return [((i % 11, f"k{i % 5}", i * 1000), 1 + i % 4) for i in range(40)]

    def test_digest_and_order_agree_whichever_runs_first(self):
        fingerprint._BAG_INDEXES.clear()
        digest_first = Bag.from_pairs(Schema(["A", "B", "C"]), self.content())
        fp = fingerprint.of_bag(digest_first)
        rows = BagIndex.of(digest_first).sorted_rows()

        fingerprint._BAG_INDEXES.clear()
        order_first = Bag.from_pairs(
            Schema(["A", "B", "C"]), self.content()[::-1]
        )
        assert BagIndex.of(order_first).sorted_rows() == rows
        assert fingerprint.of_bag(order_first) == fp
        assert rows == record_order(digest_first)

    def test_records_are_computed_once(self, monkeypatch):
        calls = []
        real = index_module._records
        monkeypatch.setattr(
            index_module, "_records", lambda m: calls.append(1) or real(m)
        )
        for digest_first in (True, False):
            calls.clear()
            fingerprint._BAG_INDEXES.clear()
            bag = Bag.from_pairs(Schema(["A", "B", "C"]), self.content())
            index = BagIndex.of(bag)
            if digest_first:
                fingerprint.of_bag(bag)
            index.buckets(Schema(["B"]))
            bag_to_dict(bag)
            fingerprint.of_bag(bag)
            assert calls == [1]

    def test_order_is_the_record_order_for_any_values(self):
        # rows whose values fall back to the qualified-text record
        bag = Bag.from_pairs(AB, [
            ((1, (2, 3)), 1), ((1, "x"), 2), ((True, None), 1), ((0.5, 1), 4),
        ])
        assert BagIndex.of(bag).sorted_rows() == [
            row for row, _ in sorted(
                bag.items(),
                key=lambda item: index_module._record(*item),
            )
        ]
