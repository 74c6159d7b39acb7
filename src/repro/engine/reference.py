"""The seed's pre-engine execution paths, preserved verbatim.

Before the engine's kernels landed, marginals, bag joins, and the
Corollary 1 witness pipeline ran as per-row ``project_values`` loops and
materialized support-relation joins.  Those loops are kept here, word
for word, for two jobs:

* **oracle** — randomized cross-check tests assert the kernel paths
  compute identical bags/witness networks (``tests/engine/``);
* **baseline** — ``benchmarks/bench_engine.py`` measures the engine
  speedup against exactly the code it replaced, not a strawman.

Nothing in the library proper should import this module.
"""

from __future__ import annotations

from ..core.bags import Bag
from ..core.relations import Relation
from ..core.schema import Schema, projection_indices
from ..errors import InconsistentError
from ..flows.maxflow import FlowResult, saturated_flow
from ..flows.network import FlowNetwork

SOURCE = ("source", "*")
SINK = ("sink", "*")


def _project_values(values: tuple, source: Schema, target: Schema) -> tuple:
    """The seed's per-call projection: index lookup plus a generator."""
    idx = projection_indices(source.attrs, target.attrs)
    return tuple(values[i] for i in idx)


def seed_marginal(bag: Bag, target: Schema) -> Bag:
    """The seed ``Bag.marginal``: one projection per row, no caching."""
    out: dict[tuple, int] = {}
    for row, mult in bag.items():
        key = _project_values(row, bag.schema, target)
        out[key] = out.get(key, 0) + mult
    return Bag(target, out)


def seed_bag_join(left: Bag, right: Bag) -> Bag:
    """The seed ``Bag.bag_join``: rebuilds buckets and the output layout
    on every call."""
    common = left.schema & right.schema
    combined = left.schema | right.schema
    buckets: dict[tuple, list[tuple[tuple, int]]] = {}
    for row, mult in right.items():
        key = _project_values(row, right.schema, common)
        buckets.setdefault(key, []).append((row, mult))
    left_pos = {a: i for i, a in enumerate(left.schema.attrs)}
    right_pos = {a: i for i, a in enumerate(right.schema.attrs)}
    layout = []
    for attr in combined.attrs:
        if attr in left_pos:
            layout.append((0, left_pos[attr]))
        else:
            layout.append((1, right_pos[attr]))
    out: dict[tuple, int] = {}
    for lrow, lmult in left.items():
        key = _project_values(lrow, left.schema, common)
        for rrow, rmult in buckets.get(key, ()):
            sides = (lrow, rrow)
            joined = tuple(sides[side][i] for side, i in layout)
            out[joined] = out.get(joined, 0) + lmult * rmult
    return Bag(combined, out)


def seed_are_consistent(r: Bag, s: Bag) -> bool:
    """The seed Lemma 2(2) test: recompute both marginals every call."""
    common = r.schema & s.schema
    return seed_marginal(r, common) == seed_marginal(s, common)


def seed_build_network(r: Bag, s: Bag) -> FlowNetwork:
    """The seed N(R, S) builder: materializes the support join as a
    :class:`Relation` and re-projects every join tuple twice."""
    network = FlowNetwork(SOURCE, SINK)
    unbounded = max(r.unary_size, s.unary_size, 1)
    for row, mult in r.items():
        network.add_edge(SOURCE, ("r", row), mult)
    for row, mult in s.items():
        network.add_edge(("s", row), SINK, mult)
    join = _seed_relation_join(r.support(), s.support())
    union = join.schema
    for t in join.rows:
        left = _project_values(t, union, r.schema)
        right = _project_values(t, union, s.schema)
        network.add_edge(("r", left), ("s", right), unbounded)
    return network


def _seed_relation_join(left: Relation, right: Relation) -> Relation:
    """The seed ``Relation.join`` (per-call buckets and layout)."""
    common = left.schema & right.schema
    combined = left.schema | right.schema
    buckets: dict[tuple, list[tuple]] = {}
    for row in right.rows:
        key = _project_values(row, right.schema, common)
        buckets.setdefault(key, []).append(row)
    left_pos = {a: i for i, a in enumerate(left.schema.attrs)}
    right_pos = {a: i for i, a in enumerate(right.schema.attrs)}
    layout = []
    for attr in combined.attrs:
        if attr in left_pos:
            layout.append((0, left_pos[attr]))
        else:
            layout.append((1, right_pos[attr]))
    out = set()
    for lrow in left.rows:
        key = _project_values(lrow, left.schema, common)
        for rrow in buckets.get(key, ()):
            sides = (lrow, rrow)
            out.add(tuple(sides[side][i] for side, i in layout))
    return Relation(combined, out)


def seed_witness_from_flow(r: Bag, s: Bag, flow: FlowResult) -> Bag:
    """The seed Corollary 1 witness extraction."""
    union = r.schema | s.schema
    join = _seed_relation_join(r.support(), s.support())
    mults: dict[tuple, int] = {}
    for t in join.rows:
        left = ("r", _project_values(t, union, r.schema))
        right = ("s", _project_values(t, union, s.schema))
        value = flow.on(left, right)
        if value:
            mults[t] = value
    return Bag(union, mults)


def seed_consistency_witness(r: Bag, s: Bag) -> Bag:
    """The seed two-bag witness pipeline: build the network, run one
    max-flow, extract — from scratch on every query."""
    flow = saturated_flow(seed_build_network(r, s))
    if flow is None:
        raise InconsistentError(
            "bags are not consistent (no saturated flow in N(R, S))"
        )
    return seed_witness_from_flow(r, s, flow)
