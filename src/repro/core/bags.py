"""Bags (multiset relations) and their marginals.

A :class:`Bag` over a schema X is the paper's function
``R : Tup(X) -> {0, 1, 2, ...}`` with finite support.  The central
operation is the *marginal* (Equation 2 of the paper):

    R[Z](t)  =  sum of R(r) over all r in the support with r[Z] = t

which generalizes relational projection to bag semantics.  The module also
implements the bag join (multiplicities multiply), bag containment, the
five size measures of Section 5.2 (support size, multiplicity bound,
multiplicity size, unary size, binary size), and the arithmetic used by
the paper's constructions (sums, scalar multiples, differences).

All multiplicities are arbitrary-precision Python integers, so the
"multiplicities in binary" regime of Section 5 (e.g. Example 1's ``2^n``
multiplicities) is exact.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ..engine import kernels
from ..engine.index import BagIndex
from ..errors import MultiplicityError, SchemaError
from .relations import Relation
from .schema import Attribute, Schema
from .tuples import Tup


def _check_multiplicity(row: tuple, mult: object) -> None:
    """Raise :class:`MultiplicityError` unless ``mult`` is a
    non-negative ``int``; a ``bool`` is not a multiplicity."""
    if not isinstance(mult, int) or isinstance(mult, bool):
        raise MultiplicityError(
            f"multiplicity of {row!r} is {mult!r}; must be an int"
        )
    if mult < 0:
        raise MultiplicityError(
            f"multiplicity of {row!r} is negative: {mult}"
        )


class Bag:
    """An immutable finite bag over a schema.

    Internally a mapping from raw value tuples (canonical attribute order)
    to positive integer multiplicities; tuples with multiplicity zero are
    never stored, so ``Supp(R)`` is exactly the key set.

    >>> R = Bag.from_pairs(Schema(["A", "B"]), [((1, 2), 2), ((2, 2), 1)])
    >>> R.multiplicity((1, 2))
    2
    >>> R.marginal(Schema(["B"])).multiplicity((2,))
    3
    """

    __slots__ = ("_schema", "_mults", "_index")

    def __init__(self, schema: Schema, mults: Mapping[tuple, int]) -> None:
        self._schema = schema
        self._index = None
        cleaned: dict[tuple, int] = {}
        for row, mult in mults.items():
            row = tuple(row)
            if len(row) != len(schema):
                raise SchemaError(
                    f"row {row!r} has arity {len(row)}, schema {schema!r} "
                    f"has arity {len(schema)}"
                )
            if type(mult) is not int or mult < 0:
                _check_multiplicity(row, mult)
            if mult > 0:
                cleaned[row] = mult
        self._mults = cleaned

    # -- constructors ----------------------------------------------------

    @classmethod
    def _from_clean(cls, schema: Schema, mults: dict[tuple, int]) -> "Bag":
        """Internal fast path: wrap a table without re-validating rows.
        The caller guarantees every row has the schema's arity and every
        multiplicity is a positive int (kernel outputs are sums/products
        of validated inputs; :meth:`from_pairs` validates its own)."""
        bag = object.__new__(cls)
        bag._schema = schema
        bag._mults = mults
        bag._index = None
        return bag

    @classmethod
    def from_pairs(
        cls, schema: Schema, pairs: Iterable[tuple[Sequence, int]]
    ) -> "Bag":
        """Build from ``(row, multiplicity)`` pairs; repeated rows add up
        and rows summing to zero are dropped.

        One pass reads the input once and builds the table, which is
        wrapped without a second validation (:meth:`_from_clean`).  Each
        multiplicity is checked before it is added, so a bool or a
        negative count cannot hide inside a valid-looking sum.  An input
        with several faults always names the same one: a malformed entry
        (``TypeError``/``ValueError`` from unpacking it or its row)
        before anything else, then the first multiplicity that is not a
        non-negative ``int`` (:class:`MultiplicityError`) or row that is
        not hashable (``TypeError``), in input order, then the first row
        of the wrong arity (:class:`SchemaError`).
        """
        arity = len(schema)
        table: dict[tuple, int] = {}
        fault = misfit = None
        for row, mult in pairs:
            row = tuple(row)
            if fault is None:
                try:
                    if type(mult) is not int or mult < 0:
                        _check_multiplicity(row, mult)
                    table[row] = table.get(row, 0) + mult
                except (MultiplicityError, TypeError) as exc:
                    fault = exc  # raised once every entry is unpacked
            if len(row) != arity and misfit is None:
                misfit = row
        if fault is not None:
            try:
                raise fault
            finally:
                # the traceback holds this frame: a frame that still
                # held its own exception would be a reference cycle
                fault = None
        if misfit is not None:
            raise SchemaError(
                f"row {misfit!r} has arity {len(misfit)}, schema "
                f"{schema!r} has arity {arity}"
            )
        if 0 in table.values():
            table = {row: mult for row, mult in table.items() if mult}
        return cls._from_clean(schema, table)

    @classmethod
    def from_mappings(
        cls,
        pairs: Iterable[tuple[Mapping[Attribute, Any], int]],
        schema: Schema | None = None,
    ) -> "Bag":
        """Build from ``(attribute mapping, multiplicity)`` pairs."""
        pairs = list(pairs)
        if schema is None:
            if not pairs:
                raise SchemaError(
                    "cannot infer schema from an empty bag; pass schema="
                )
            schema = Schema(pairs[0][0].keys())
        raw = []
        for mapping, mult in pairs:
            if set(mapping.keys()) != set(schema.attrs):
                raise SchemaError(
                    f"row {mapping!r} does not match schema {schema!r}"
                )
            raw.append((tuple(mapping[a] for a in schema.attrs), mult))
        return cls.from_pairs(schema, raw)

    @classmethod
    def from_relation(cls, relation: Relation) -> "Bag":
        """The bag with multiplicity 1 on every tuple of the relation."""
        return cls(relation.schema, {row: 1 for row in relation.rows})

    @classmethod
    def empty(cls, schema: Schema) -> "Bag":
        return cls(schema, {})

    @classmethod
    def empty_schema_bag(cls, multiplicity: int) -> "Bag":
        """The bag over the empty schema holding the empty tuple
        ``multiplicity`` times (zero gives the empty bag)."""
        if multiplicity == 0:
            return cls(Schema(), {})
        return cls(Schema(), {(): multiplicity})

    # -- accessors -------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    def multiplicity(self, row) -> int:
        """R(t) for a raw row or a :class:`Tup` (0 if absent)."""
        if isinstance(row, Tup):
            if row.schema != self._schema:
                raise SchemaError(
                    f"tuple schema {row.schema!r} does not match bag schema "
                    f"{self._schema!r}"
                )
            row = row.values
        return self._mults.get(tuple(row), 0)

    __call__ = multiplicity

    def support(self) -> Relation:
        """Supp(R) as a :class:`Relation` (the paper's ``R'``)."""
        return Relation._from_clean(self._schema, frozenset(self._mults))

    def support_rows(self) -> Iterable[tuple]:
        """Raw support rows (no Relation wrapper); cheap iteration."""
        return self._mults.keys()

    def items(self) -> Iterator[tuple[tuple, int]]:
        """Iterate ``(raw row, multiplicity)`` pairs."""
        return iter(self._mults.items())

    def tuples(self) -> Iterator[tuple[Tup, int]]:
        """Iterate ``(Tup, multiplicity)`` pairs in the canonical row
        order of the bag's content: the byte order of the entries'
        fingerprint records, computed once per content and cached on
        its index (:meth:`repro.engine.index.BagIndex.sorted_rows`).
        """
        for row in BagIndex.of(self).sorted_rows():
            yield Tup(self._schema, row), self._mults[row]

    def __len__(self) -> int:
        """Number of distinct tuples in the support."""
        return len(self._mults)

    def __bool__(self) -> bool:
        return bool(self._mults)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, Bag):
            return self._schema == other._schema and self._mults == other._mults
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._schema, frozenset(self._mults.items())))

    def __reduce__(self):
        """Pickle as (schema, multiplicities) only: the lazily-built
        index (and anything adopted through the fingerprint registry)
        is per-process state and must not travel — process-executor
        payloads and returned witnesses rebuild it on demand."""
        return (_rebuild_bag, (self._schema, dict(self._mults)))

    def __repr__(self) -> str:
        shown = sorted(self._mults.items(), key=repr)[:6]
        suffix = ", ..." if len(self._mults) > 6 else ""
        pretty = ", ".join(f"{row!r}: {mult}" for row, mult in shown)
        return (
            f"Bag({list(self._schema.attrs)!r}, {{{pretty}{suffix}}} "
            f"[{len(self._mults)} tuples])"
        )

    # -- size measures (Section 5.2) ---------------------------------------

    @property
    def support_size(self) -> int:
        """``||R||supp``: the number of distinct tuples."""
        return len(self._mults)

    @property
    def multiplicity_bound(self) -> int:
        """``||R||mu``: the largest multiplicity (0 for the empty bag)."""
        return max(self._mults.values(), default=0)

    @property
    def multiplicity_size(self) -> float:
        """``||R||mb``: max over tuples of log2(R(r) + 1)."""
        return max(
            (math.log2(m + 1) for m in self._mults.values()), default=0.0
        )

    @property
    def unary_size(self) -> int:
        """``||R||u``: the total multiplicity (multiset cardinality)."""
        return sum(self._mults.values())

    @property
    def binary_size(self) -> float:
        """``||R||b``: sum over tuples of log2(R(r) + 1)."""
        return sum(math.log2(m + 1) for m in self._mults.values())

    # -- marginals and joins -----------------------------------------------

    def marginal(self, target: Schema) -> "Bag":
        """The marginal R[Z] of Equation (2): sum multiplicities over
        tuples with equal projection.

        Routed through the engine kernel and memoized per bag: repeated
        marginals on the same target (the Lemma 2 consistency test, the
        pairwise phase of every global check) are computed once.
        ``R[X]`` is ``R`` itself.
        """
        if target == self._schema:
            return self
        return BagIndex.of(self).marginal(target)

    def bag_join(self, other: "Bag") -> "Bag":
        """The bag join R |><|b S: support is the join of supports, and
        multiplicities multiply (Section 2).

        A kernel hash join probing the other side's cached buckets, so
        repeated joins against an unchanged bag skip the build phase.
        """
        plan = kernels.join_plan(self._schema.attrs, other._schema.attrs)
        out = kernels.hash_join_mults(
            self._mults.items(), plan,
            BagIndex.of(other).buckets(plan.common),
        )
        return Bag._from_clean(plan.union, out)

    # -- order and arithmetic ------------------------------------------------

    def bag_contained_in(self, other: "Bag") -> bool:
        """R <=b S: R(t) <= S(t) for every tuple (Section 2)."""
        if self._schema != other._schema:
            raise SchemaError("bag containment requires equal schemas")
        return all(
            mult <= other._mults.get(row, 0)
            for row, mult in self._mults.items()
        )

    def __le__(self, other: "Bag") -> bool:
        return self.bag_contained_in(other)

    def __add__(self, other: "Bag") -> "Bag":
        if self._schema != other._schema:
            raise SchemaError("bag sum requires equal schemas")
        out = dict(self._mults)
        for row, mult in other._mults.items():
            out[row] = out.get(row, 0) + mult
        return Bag(self._schema, out)

    def __sub__(self, other: "Bag") -> "Bag":
        """Multiset difference; raises if the result would be negative."""
        if self._schema != other._schema:
            raise SchemaError("bag difference requires equal schemas")
        out = dict(self._mults)
        for row, mult in other._mults.items():
            new = out.get(row, 0) - mult
            if new < 0:
                raise MultiplicityError(
                    f"difference would make {row!r} negative"
                )
            out[row] = new
        return Bag(self._schema, out)

    def scale(self, factor: int) -> "Bag":
        """Multiply every multiplicity by a non-negative integer."""
        if factor < 0:
            raise MultiplicityError(f"scale factor is negative: {factor}")
        return Bag(
            self._schema, {row: mult * factor for row, mult in self._mults.items()}
        )

    def restrict(self, predicate) -> "Bag":
        """Keep only tuples whose :class:`Tup` satisfies ``predicate``."""
        kept = {
            row: mult
            for row, mult in self._mults.items()
            if predicate(Tup(self._schema, row))
        }
        return Bag(self._schema, kept)

    def is_relation(self) -> bool:
        """True if every multiplicity is 0 or 1."""
        return all(mult == 1 for mult in self._mults.values())

    def active_domain(self, attr: Attribute) -> set:
        idx = self._schema.index_of(attr)
        return {row[idx] for row in self._mults}


def _rebuild_bag(schema: Schema, mults: dict[tuple, int]) -> Bag:
    """Unpickle target for :meth:`Bag.__reduce__` (rows were validated
    when the pickled bag was built, so the clean path applies)."""
    return Bag._from_clean(schema, mults)


def bag_join_all(bags: Sequence[Bag]) -> Bag:
    """The n-ary bag join; empty input yields the join identity (the empty
    tuple with multiplicity 1 over the empty schema)."""
    if not bags:
        return Bag(Schema(), {(): 1})
    result = bags[0]
    for other in bags[1:]:
        result = result.bag_join(other)
    return result
