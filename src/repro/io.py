"""Serialization: JSON-friendly encoding of bags, relations, collections,
and hypergraphs.

The on-disk format is deliberately boring JSON so instances can be
shipped between tools and checked into repositories:

* a bag:      ``{"schema": ["A", "B"], "tuples": [[[1, 2], 3], ...]}``
  (each entry is ``[row, multiplicity]`` with the row in canonical
  attribute order, the entries in the canonical row order of the
  bag's content);
* a relation: ``{"schema": ["A", "B"], "rows": [[1, 2], ...]}``;
* a collection: ``{"bags": [<bag>, ...]}``;
* a hypergraph: ``{"vertices": [...], "edges": [[...], ...]}``.

Values must be JSON scalars (strings, numbers, booleans, null), and a
row holding a JSON array or object does not decode; tuples with other
Python values can still be used in memory, they just will not
round-trip through JSON.  Multiplicities of arbitrary size are fine —
JSON integers are unbounded and Python reads them exactly.

The ``*_from_json`` readers take ``str`` or UTF-8 ``bytes`` and raise
:class:`~repro.errors.SchemaError` for anything they cannot decode:
invalid JSON, bytes that are not UTF-8, or a well-formed document of
the wrong shape.
"""

from __future__ import annotations

import json
from typing import Any

from .core.bags import Bag
from .core.relations import Relation
from .core.schema import Schema
from .engine.index import BagIndex
from .errors import SchemaError
from .hypergraphs.hypergraph import Hypergraph


def _loads(text: str | bytes) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # also bad UTF-8, the digit limit and nesting past the
        # recursion limit
        raise SchemaError(f"invalid JSON: {exc}") from exc


# -- bags -------------------------------------------------------------------

def bag_to_dict(bag: Bag) -> dict:
    """The bag's JSON encoding, rows in the canonical order of its
    content (:meth:`~repro.engine.index.BagIndex.sorted_rows`)."""
    mults = bag._mults
    return {
        "schema": list(bag.schema.attrs),
        "tuples": [
            [list(row), mults[row]]
            for row in BagIndex.of(bag).sorted_rows()
        ],
    }


def bag_from_dict(data: dict) -> Bag:
    """The bag a JSON encoding describes, built by
    :meth:`Bag.from_pairs` straight from its ``tuples`` list.  Every
    malformed shape — a missing key, an entry that is not a ``[row,
    multiplicity]`` pair, a row holding an array or object (unhashable)
    or of the wrong arity, or a value nested too deeply to name —
    raises :class:`SchemaError`; a bad multiplicity raises
    :class:`~repro.errors.MultiplicityError`."""
    try:
        return Bag.from_pairs(Schema(data["schema"]), data["tuples"])
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise SchemaError(f"malformed bag encoding: {exc}") from exc


def bag_to_json(bag: Bag, indent: int | None = None) -> str:
    return json.dumps(bag_to_dict(bag), indent=indent)


def bag_from_json(text: str | bytes) -> Bag:
    return bag_from_dict(_loads(text))


# -- relations ---------------------------------------------------------------

def relation_to_dict(relation: Relation) -> dict:
    return {
        "schema": list(relation.schema.attrs),
        "rows": [list(row) for row in sorted(relation.rows, key=repr)],
    }


def relation_from_dict(data: dict) -> Relation:
    try:
        return Relation.from_pairs(Schema(data["schema"]), data["rows"])
    except (KeyError, TypeError, ValueError) as exc:  # also unhashable rows
        raise SchemaError(f"malformed relation encoding: {exc}") from exc


def relation_to_json(relation: Relation, indent: int | None = None) -> str:
    return json.dumps(relation_to_dict(relation), indent=indent)


def relation_from_json(text: str | bytes) -> Relation:
    return relation_from_dict(_loads(text))


# -- collections --------------------------------------------------------------

def collection_to_dict(bags: list[Bag]) -> dict:
    return {"bags": [bag_to_dict(bag) for bag in bags]}


def collection_from_dict(data: dict) -> list[Bag]:
    try:
        return [bag_from_dict(entry) for entry in data["bags"]]
    except (KeyError, TypeError) as exc:  # no "bags" list to read
        raise SchemaError(f"malformed collection encoding: {exc}") from exc


def collection_to_json(bags: list[Bag], indent: int | None = None) -> str:
    return json.dumps(collection_to_dict(bags), indent=indent)


def collection_from_json(text: str | bytes) -> list[Bag]:
    return collection_from_dict(_loads(text))


# -- hypergraphs ---------------------------------------------------------------

def hypergraph_to_dict(hypergraph: Hypergraph) -> dict:
    return {
        "vertices": sorted(hypergraph.vertices, key=repr),
        "edges": [list(edge.attrs) for edge in hypergraph.edges],
    }


def hypergraph_from_dict(data: dict) -> Hypergraph:
    try:
        return Hypergraph(data.get("vertices"), data["edges"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise SchemaError(f"malformed hypergraph encoding: {exc}") from exc


def hypergraph_to_json(
    hypergraph: Hypergraph, indent: int | None = None
) -> str:
    return json.dumps(hypergraph_to_dict(hypergraph), indent=indent)


def hypergraph_from_json(text: str | bytes) -> Hypergraph:
    return hypergraph_from_dict(_loads(text))


# -- text tables ---------------------------------------------------------------

def bag_from_table(text: str) -> Bag:
    """Parse the paper's tabular format back into a bag.

    Expects the header row (attribute names followed by ``#``) and one
    ``v1 v2 ... : mult`` line per tuple; values are parsed as ints when
    possible, strings otherwise.

    >>> bag_from_table("A  B  #\\n1  2  : 3")
    Bag(['A', 'B'], {(1, 2): 3} [1 tuples])
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise SchemaError("empty table")
    header = lines[0].split()
    if not header or header[-1] != "#":
        raise SchemaError("table header must end with '#'")
    attrs = header[:-1]
    schema = Schema(attrs)

    def parse(token: str) -> Any:
        try:
            return int(token)
        except ValueError:
            return token

    pairs = []
    for line in lines[1:]:
        if line.strip() == "(empty)":
            continue
        if ":" not in line:
            raise SchemaError(f"table row missing ': mult': {line!r}")
        left, right = line.rsplit(":", 1)
        values = [parse(tok) for tok in left.split()]
        if len(values) != len(attrs):
            raise SchemaError(
                f"row {line!r} has {len(values)} values for "
                f"{len(attrs)} attributes"
            )
        mapping = dict(zip(attrs, values))
        row = tuple(mapping[a] for a in schema.attrs)
        pairs.append((row, int(right.strip())))
    return Bag.from_pairs(schema, pairs)
