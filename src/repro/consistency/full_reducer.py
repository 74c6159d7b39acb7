"""Full reducers: the classical set-case machinery and the bag obstacle.

Beeri et al. showed acyclicity is also equivalent to the existence of a
*full reducer* — a sequence of semijoins after which every relation
equals the projection of the join (Section 6 recalls this).  This module
implements the classical construction for relations and makes the
paper's open problem tangible for bags:

* :func:`semijoin` — the relational semijoin ``r |>< s``.
* :func:`full_reducer_program` — the Yannakakis two-pass semijoin
  sequence along a join tree of an acyclic schema.
* :func:`fully_reduce` — apply it; on pairwise-consistent inputs over an
  acyclic schema the output is globally consistent with the join as
  witness, and every output relation equals the join's projection.
* :func:`bag_semijoin_candidate` — the natural bag analogue (keep
  multiplicities of tuples whose projection appears in the other
  support).  :func:`bag_full_reducer_counterexample` exhibits the
  paper's obstacle: even for two already-consistent bags the fully
  "reduced" bags' join fails to witness consistency, so no semijoin-
  style reducer can work unchanged under bag semantics.
"""

from __future__ import annotations

from typing import Sequence

from ..core.bags import Bag
from ..core.relations import Relation, join_all
from ..core.schema import Schema, projection_plan
from ..engine import kernels
from ..engine.index import BagIndex, RelationIndex
from ..hypergraphs.acyclicity import JoinTree, join_tree
from ..hypergraphs.hypergraph import Hypergraph


def semijoin(r: Relation, s: Relation) -> Relation:
    """The semijoin r |>< s: tuples of r whose common-attribute
    projection appears in s.

    The probe-side key set is memoized on s (a full-reducer program
    semijoins against the same relation once per tree neighbour) and
    the filter runs one precompiled projection per row.
    """
    common = r.schema & s.schema
    allowed = RelationIndex.of(s).key_set(common)
    kept = kernels.semi_join_rows(
        r.rows, projection_plan(r.schema.attrs, common.attrs), allowed
    )
    return Relation._from_clean(r.schema, frozenset(kept))


def full_reducer_program(
    hypergraph: Hypergraph,
) -> list[tuple[int, int]]:
    """The Yannakakis semijoin sequence for an acyclic hypergraph.

    Returns a list of (target, source) edge-index pairs meaning
    "replace relation[target] by semijoin(relation[target],
    relation[source])": first an upward pass (leaves to root), then a
    downward pass (root to leaves).  Raises :class:`CyclicSchemaError`
    for cyclic hypergraphs — Beeri et al. prove no full reducer exists
    there.
    """
    return _program_from_tree(join_tree(hypergraph))  # raises when cyclic


def _program_from_tree(tree: JoinTree) -> list[tuple[int, int]]:
    children = tree.children()
    # Post-order (leaves first) for the upward pass.
    order: list[int] = []

    def visit(node: int) -> None:
        for child in children[node]:
            visit(child)
        order.append(node)

    visit(tree.root)
    program: list[tuple[int, int]] = []
    for node in order:
        if tree.parent[node] >= 0:
            program.append((tree.parent[node], node))  # parent ⋉ child
    for node in reversed(order):
        if tree.parent[node] >= 0:
            program.append((node, tree.parent[node]))  # child ⋉ parent
    return program


def fully_reduce_with_tree(
    relations: Sequence[Relation],
) -> tuple[list[Relation], JoinTree]:
    """Apply a full reducer and also return the join tree it ran along.

    Yannakakis' bottom-up pass needs the very same tree, so exposing it
    here saves the caller a second GYO reduction over the hypergraph.

    Matches the relations to hyperedges by schema; duplicate schemas are
    intersected first (two relations over the same schema jointly
    constrain it).
    """
    by_schema: dict[Schema, Relation] = {}
    for relation in relations:
        if relation.schema in by_schema:
            by_schema[relation.schema] = by_schema[
                relation.schema
            ].intersection(relation)
        else:
            by_schema[relation.schema] = relation
    hypergraph = Hypergraph.from_schemas(list(by_schema))
    tree = join_tree(hypergraph)  # raises when cyclic
    edges = list(hypergraph.edges)
    working = [by_schema[edge] for edge in edges]
    for target, source in _program_from_tree(tree):
        working[target] = semijoin(working[target], working[source])
    reduced_by_schema = dict(zip(edges, working))
    return [reduced_by_schema[rel.schema] for rel in relations], tree


def fully_reduce(relations: Sequence[Relation]) -> list[Relation]:
    """Apply a full reducer to a collection of relations over an acyclic
    schema; the result is the collection of projections of the join."""
    reduced, _ = fully_reduce_with_tree(relations)
    return reduced


def is_fully_reduced(relations: Sequence[Relation]) -> bool:
    """Every relation equals the projection of the join — the defining
    property of a fully reduced collection."""
    joined = join_all(list(relations))
    return all(
        joined.project(rel.schema) == rel for rel in relations
    )


def bag_semijoin_candidate(r: Bag, s: Bag) -> Bag:
    """The natural bag semijoin: keep r's multiplicities on tuples whose
    common projection appears in s's support.

    This is the obvious candidate for a bag full reducer — and the
    paper's Section 6 explains why no such candidate is known to work:
    the bag join of consistent bags need not witness their consistency,
    so support-level reduction cannot certify global consistency.
    """
    common = r.schema & s.schema
    allowed = BagIndex.of(s).key_set(common)
    key = projection_plan(r.schema.attrs, common.attrs)
    kept = {
        row: mult for row, mult in r.items() if key(row) in allowed
    }
    return Bag._from_clean(r.schema, kept)


def bag_full_reducer_counterexample() -> tuple[Bag, Bag]:
    """Two consistent bags on which support-level semijoins are already
    fixpoints, yet the bag join of the 'reduced' bags still fails to
    witness consistency — the executable form of the Section 6
    obstacle.

    Returns the Section 3 pair R1, S1; use with
    :func:`bag_semijoin_candidate` and
    :func:`repro.consistency.witness.is_witness` to observe the failure.
    """
    ab = Schema(["A", "B"])
    bc = Schema(["B", "C"])
    r = Bag.from_pairs(ab, [((1, 2), 1), ((2, 2), 1)])
    s = Bag.from_pairs(bc, [((2, 1), 1), ((2, 2), 1)])
    return r, s
