"""Property tests for the northwest-corner witness (Corollary 1).

One construction serves every two-bag witness and every Theorem 6 fold
step, so these properties are checked on randomized pairs that include
empty bags, disjoint schemas (one group under the empty key), equal
schemas, and multiplicities past 2^62:

* the witness verifies (``is_witness``);
* its support is at most ``|Supp R| + |Supp S| - #groups`` (Theorem 5);
* no support cell can be dropped: N(R, S) restricted to the remaining
  cells has no saturated flow (Corollary 4's minimality test);
* inconsistent pairs raise :class:`InconsistentError` with the
  historical message;
* the witness is the same with the columnar kernels enabled, disabled,
  and forced onto every bag (``MIN_ROWS = 1``).

Attribute names are module-unique (``WA``, ``WB``, ...) so no index
cached by another test module is value-equal to the bags here.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.consistency.global_ import acyclic_global_witness
from repro.consistency.pairwise import are_consistent, consistency_witness
from repro.consistency.witness import check_theorem5_bound, is_witness
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine import columnar
from repro.engine.session import Engine
from repro.errors import InconsistentError
from repro.flows.maxflow import saturated_flow
from repro.flows.network import FlowNetwork

MESSAGE = "bags are not consistent (no saturated flow in N(R, S))"

SHAPES = [
    (Schema(["WA", "WB"]), Schema(["WB", "WC"])),        # one shared attr
    (Schema(["WA", "WB"]), Schema(["WA", "WB"])),        # equal schemas
    (Schema(["WA", "WB"]), Schema(["WC", "WD"])),        # disjoint
    (Schema(["WA", "WB", "WC"]), Schema(["WB"])),        # nested
    (Schema(["WA", "WB", "WC"]), Schema(["WB", "WC", "WD"])),
]

HUGE = 1 << 62


def planted(left: Schema, right: Schema, rows) -> tuple[Bag, Bag]:
    plant = Bag.from_pairs(left | right, rows)
    return plant.marginal(left), plant.marginal(right)


def plant_rows(draw, union: Schema, max_size: int) -> list:
    """Random plant rows over ``union``; one draw in four lifts every
    multiplicity past 2^62."""
    huge = draw(st.integers(0, 3)) == 0
    mult = st.integers(HUGE, HUGE + 5) if huge else st.integers(1, 4)
    row = st.tuples(*[st.integers(0, 2) for _ in union.attrs])
    return draw(st.lists(st.tuples(row, mult), max_size=max_size))


@st.composite
def planted_pairs(draw):
    """(R, S): the two marginals of a random plant of 0-12 rows over the
    union, so consistent by construction."""
    left, right = draw(st.sampled_from(SHAPES))
    return planted(left, right, plant_rows(draw, left | right, 12))


# Pinned corner cases, on top of the random draws.
EMPTY_PAIR = planted(*SHAPES[2], [])
HUGE_DISJOINT = planted(
    *SHAPES[2], [((0, 1, 2, 0), HUGE + 3), ((1, 1, 0, 2), HUGE)]
)


def copy(bag: Bag) -> Bag:
    """A value-equal bag with a fresh (empty) index."""
    return Bag(bag.schema, dict(bag.items()))


def n_groups(r: Bag, s: Bag) -> int:
    return len(r.marginal(r.schema & s.schema).support())


def network_on(r: Bag, s: Bag, cells) -> FlowNetwork:
    """N(R, S) with middle edges for ``cells`` (union rows) only."""
    network = FlowNetwork(("source", "*"), ("sink", "*"))
    for row, mult in r.items():
        network.add_edge(network.source, ("r", row), mult)
    for row, mult in s.items():
        network.add_edge(("s", row), network.sink, mult)
    union = r.schema | s.schema
    r_idx = [union.attrs.index(a) for a in r.schema.attrs]
    s_idx = [union.attrs.index(a) for a in s.schema.attrs]
    unbounded = max(r.unary_size, 1)
    for cell in cells:
        network.add_edge(
            ("r", tuple(cell[i] for i in r_idx)),
            ("s", tuple(cell[i] for i in s_idx)),
            unbounded,
        )
    return network


@settings(deadline=None, max_examples=150, derandomize=True)
@given(planted_pairs())
@example(EMPTY_PAIR)
@example(HUGE_DISJOINT)
def test_witness_is_valid_bounded_and_minimal(pair):
    r, s = pair
    witness = consistency_witness(r, s)
    assert is_witness([r, s], witness)
    bound = r.support_size + s.support_size - n_groups(r, s)
    assert witness.support_size <= bound
    cells = list(witness.support_rows())
    for dropped in cells:
        rest = [cell for cell in cells if cell != dropped]
        assert saturated_flow(network_on(r, s, rest)) is None, dropped


def test_minimality_check_finds_a_droppable_cell():
    """The oracle above is not vacuous: the product witness of a 2 x 2
    group verifies but any one of its four cells can be dropped."""
    r = Bag.from_pairs(Schema(["WA", "WB"]), [((0, 0), 2), ((1, 0), 2)])
    s = Bag.from_pairs(Schema(["WB", "WC"]), [((0, 0), 2), ((0, 1), 2)])
    cells = [(a, 0, c) for a in (0, 1) for c in (0, 1)]
    product = Bag.from_pairs(r.schema | s.schema, [(cell, 1) for cell in cells])
    assert is_witness([r, s], product)
    for dropped in cells:
        rest = [cell for cell in cells if cell != dropped]
        assert saturated_flow(network_on(r, s, rest)) is not None
    assert consistency_witness(r, s).support_size == 2


@settings(deadline=None, max_examples=100, derandomize=True)
@given(planted_pairs(), st.data())
def test_inconsistent_pairs_raise_the_historical_message(pair, data):
    r, s = pair
    rows = list(s.items())
    if rows and data.draw(st.booleans()):
        row, mult = rows[data.draw(st.integers(0, len(rows) - 1))]
        s = Bag(s.schema, {**dict(rows), row: mult + 1})
    else:  # a row the plant never produced (values 0-2 only)
        s = Bag(s.schema, {**dict(rows), tuple(9 for _ in s.schema.attrs): 1})
    assert not are_consistent(r, s)
    with pytest.raises(InconsistentError) as info:
        consistency_witness(r, s)
    assert str(info.value) == MESSAGE
    with pytest.raises(InconsistentError) as info:
        Engine().witness(r, s, minimal=True)
    assert str(info.value) == MESSAGE


@settings(deadline=None, max_examples=80, derandomize=True)
@given(planted_pairs())
def test_witness_is_backend_independent(pair):
    r, s = pair
    columnar.reset_kernel_stats()
    with mock.patch.object(columnar, "MIN_ROWS", 1):
        r_forced, s_forced = copy(r), copy(s)
        assert are_consistent(r_forced, s_forced)
        forced = consistency_witness(r_forced, s_forced)
    r_default, s_default = copy(r), copy(s)
    assert are_consistent(r_default, s_default)
    default = consistency_witness(r_default, s_default)
    with columnar.disabled():
        r_row, s_row = copy(r), copy(s)
        assert are_consistent(r_row, s_row)
        row = consistency_witness(r_row, s_row)
    assert forced == default == row
    assert list(forced.items()) == list(row.items())
    assert columnar.kernel_stats()["columnar_witnesses"] == 0


@settings(deadline=None, max_examples=80, derandomize=True)
@given(planted_pairs())
def test_engine_minimal_witness_meets_theorem5(pair):
    r, s = pair
    engine = Engine()
    witness = engine.witness(r, s, minimal=True)
    assert check_theorem5_bound(r, s, witness)
    assert witness == engine.witness(r, s) == consistency_witness(r, s)


PATH = [Schema(["WP0", "WP1"]), Schema(["WP1", "WP2"]), Schema(["WP2", "WP3"])]
STAR = [Schema(["WH", f"WL{i}"]) for i in range(3)]


@st.composite
def acyclic_collections(draw):
    schemas = draw(st.sampled_from([PATH, STAR, PATH[:1] + STAR[:2]]))
    union = Schema([])
    for schema in schemas:
        union = union | schema
    plant = Bag.from_pairs(union, plant_rows(draw, union, 10))
    return [plant.marginal(schema) for schema in schemas]


@settings(deadline=None, max_examples=80, derandomize=True)
@given(acyclic_collections())
def test_acyclic_fold_meets_theorem6(bags):
    witness = acyclic_global_witness(bags)
    assert is_witness(bags, witness)
    assert witness.support_size <= sum(bag.support_size for bag in bags)
