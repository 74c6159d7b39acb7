"""Relations under set semantics.

A :class:`Relation` over a schema X is a finite set of X-tuples — the
paper's function ``R : Tup(X) -> {0, 1}`` identified with its support.
This module provides the classical set-semantics operations the paper's
baseline results use: projection, natural join, and n-ary joins.

Relations are the substrate for the set-case results (Section 5.1 and
Theorem 1) and for the supports of bags (``R'`` in the paper), so the join
implemented here is exactly the join ``R' |><| S'`` over which the linear
program P(R, S) and the network N(R, S) are indexed.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..engine import kernels
from ..engine.index import RelationIndex
from ..errors import SchemaError
from .schema import Attribute, Schema
from .tuples import Tup


class Relation:
    """An immutable finite relation (set of tuples) over a schema.

    Tuples are stored as raw value tuples in the schema's canonical
    attribute order.  Iteration yields :class:`Tup` objects.

    >>> R = Relation.from_pairs(Schema(["A", "B"]), [(0, 0), (1, 1)])
    >>> len(R)
    2
    """

    __slots__ = ("_schema", "_rows", "_index")

    def __init__(self, schema: Schema, rows: Iterable[tuple]) -> None:
        self._schema = schema
        self._index = None
        frozen = frozenset(tuple(row) for row in rows)
        for row in frozen:
            if len(row) != len(schema):
                raise SchemaError(
                    f"row {row!r} has arity {len(row)}, schema {schema!r} "
                    f"has arity {len(schema)}"
                )
        self._rows = frozen

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_clean(cls, schema: Schema, rows: frozenset) -> "Relation":
        """Internal fast path: wrap a kernel-produced row set without
        re-validating arities (kernel outputs are projections/joins of
        validated rows)."""
        relation = object.__new__(cls)
        relation._schema = schema
        relation._rows = rows
        relation._index = None
        return relation

    @classmethod
    def from_pairs(
        cls, schema: Schema, rows: Iterable[Sequence]
    ) -> "Relation":
        """Build from raw rows laid out in canonical attribute order."""
        return cls(schema, (tuple(r) for r in rows))

    @classmethod
    def from_mappings(
        cls, rows: Iterable[Mapping[Attribute, Any]], schema: Schema | None = None
    ) -> "Relation":
        """Build from attribute-to-value mappings.

        If ``schema`` is omitted it is inferred from the first row; all
        rows must share the same attribute set.
        """
        rows = list(rows)
        if schema is None:
            if not rows:
                raise SchemaError(
                    "cannot infer schema from an empty row list; pass schema="
                )
            schema = Schema(rows[0].keys())
        raw = []
        for row in rows:
            if set(row.keys()) != set(schema.attrs):
                raise SchemaError(
                    f"row {row!r} does not match schema {schema!r}"
                )
            raw.append(tuple(row[a] for a in schema.attrs))
        return cls(schema, raw)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        return cls(schema, ())

    # -- accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def rows(self) -> frozenset:
        """Raw value tuples in canonical attribute order."""
        return self._rows

    def __len__(self) -> int:
        return len(self._rows)

    def __bool__(self) -> bool:
        return bool(self._rows)

    def __iter__(self) -> Iterator[Tup]:
        for row in sorted(self._rows, key=repr):
            yield Tup(self._schema, row)

    def __contains__(self, item: Any) -> bool:
        if isinstance(item, Tup):
            if item.schema != self._schema:
                return False
            return item.values in self._rows
        return tuple(item) in self._rows

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Relation):
            return self._schema == other._schema and self._rows == other._rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema, self._rows))

    def __le__(self, other: "Relation") -> bool:
        if self._schema != other._schema:
            raise SchemaError("containment requires equal schemas")
        return self._rows <= other._rows

    def __reduce__(self):
        """Pickle as (schema, rows) only — the per-process index stays
        behind, mirroring :meth:`repro.core.bags.Bag.__reduce__`."""
        return (_rebuild_relation, (self._schema, self._rows))

    def __repr__(self) -> str:
        shown = sorted(self._rows, key=repr)[:6]
        suffix = ", ..." if len(self._rows) > 6 else ""
        return (
            f"Relation({list(self._schema.attrs)!r}, {shown!r}{suffix} "
            f"[{len(self._rows)} rows])"
        )

    # -- relational algebra ----------------------------------------------

    def project(self, target: Schema) -> "Relation":
        """The projection R[Z] under set semantics, memoized per
        relation via the engine index.  ``R[X]`` is ``R`` itself."""
        if target == self._schema:
            return self
        return RelationIndex.of(self).project(target)

    def join(self, other: "Relation") -> "Relation":
        """Natural join R |><| S: a kernel hash join probing the other
        side's cached common-attribute buckets."""
        plan = kernels.join_plan(self._schema.attrs, other._schema.attrs)
        out = kernels.hash_join_rows(
            self._rows, plan, RelationIndex.of(other).buckets(plan.common)
        )
        return Relation._from_clean(plan.union, frozenset(out))

    def restrict(self, predicate) -> "Relation":
        """Selection: keep rows whose :class:`Tup` satisfies ``predicate``."""
        kept = [
            row
            for row in self._rows
            if predicate(Tup(self._schema, row))
        ]
        return Relation(self._schema, kept)

    def union(self, other: "Relation") -> "Relation":
        if self._schema != other._schema:
            raise SchemaError("union requires equal schemas")
        return Relation(self._schema, self._rows | other._rows)

    def intersection(self, other: "Relation") -> "Relation":
        if self._schema != other._schema:
            raise SchemaError("intersection requires equal schemas")
        return Relation(self._schema, self._rows & other._rows)

    def difference(self, other: "Relation") -> "Relation":
        if self._schema != other._schema:
            raise SchemaError("difference requires equal schemas")
        return Relation(self._schema, self._rows - other._rows)

    def active_domain(self, attr: Attribute) -> set:
        """All values the attribute takes in this relation."""
        idx = self._schema.index_of(attr)
        return {row[idx] for row in self._rows}


def _rebuild_relation(schema: Schema, rows: frozenset) -> Relation:
    """Unpickle target for :meth:`Relation.__reduce__`."""
    return Relation._from_clean(schema, rows)


def join_all(relations: Sequence[Relation]) -> Relation:
    """The n-ary natural join R1 |><| ... |><| Rm.

    Joins in input order; for an empty input returns the relation over the
    empty schema containing the empty tuple (the join identity).
    """
    if not relations:
        return Relation(Schema(), [()])
    result = relations[0]
    for rel in relations[1:]:
        result = result.join(rel)
    return result
