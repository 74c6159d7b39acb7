"""Differential test of bag construction from JSON-shaped encodings.

``Bag.from_pairs`` builds its table in one pass and wraps it without a
second validation; ``repro.io.bag_from_dict`` hands it the decoded
``tuples`` list as is.  The oracle below is the construction both
replaced: ``bag_from_dict``'s unpacking comprehension, then the summing
loop of ``from_pairs``, then the validating ``Bag.__init__``.  Both must
give the oracle's table (the same keys, key types and insertion order)
or raise its exception class.
"""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Bag, Schema
from repro.errors import MultiplicityError, SchemaError
from repro.io import bag_from_dict

ATTRS = ("A", "B", "C")


def _reference_check(row, mult):
    if not isinstance(mult, int) or isinstance(mult, bool):
        raise MultiplicityError(f"multiplicity of {row!r} is {mult!r}")
    if mult < 0:
        raise MultiplicityError(f"multiplicity of {row!r} is negative")


def reference_table(schema: Schema, tuples) -> dict:
    """The per-row construction of a decoded ``tuples`` list, raising
    what it raised: ``TypeError``/``ValueError`` for a malformed entry
    or an unhashable row, ``MultiplicityError``, or ``SchemaError``."""
    pairs = [(tuple(row), mult) for row, mult in tuples]
    mults: dict = {}
    for row, mult in pairs:
        row = tuple(row)
        if type(mult) is not int or mult < 0:
            _reference_check(row, mult)
        mults[row] = mults.get(row, 0) + mult
    cleaned: dict = {}
    for row, mult in mults.items():
        row = tuple(row)
        if len(row) != len(schema):
            raise SchemaError(f"row {row!r} has the wrong arity")
        if type(mult) is not int or mult < 0:
            _reference_check(row, mult)
        if mult > 0:
            cleaned[row] = mult
    return cleaned


def outcome(build, *args):
    """``build(*args)`` as a comparable value: the exception class, or
    the table's entries by ``repr`` — which tells ``1``, ``True`` and
    ``1.0`` apart, and ``0.0`` from ``-0.0`` — in insertion order."""
    try:
        table = build(*args)
    except Exception as exc:  # the class is the outcome under test
        return type(exc)
    if isinstance(table, Bag):
        table = table._mults
    return repr(list(table.items()))


# Values Python finds equal across types (0, False, 0.0, -0.0; 1, True,
# 1.0) collapse into one row when summed, keeping the first key.
scalars = st.one_of(
    st.integers(-3, 40),
    st.booleans(),
    st.sampled_from([0.0, -0.0, 1.0, 3.0, 2.5]),
    st.sampled_from(["", "a", "b", "ab"]),
    st.none(),
)
good_mults = st.one_of(st.integers(1, 5), st.just(2**70))
bad_mults = st.sampled_from([0, -1, True, False, 2.0, "3", None, [1]])


def _twin(value):
    """A value Python finds equal to ``value`` that JSON keeps apart
    (``value`` itself when there is none)."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return bool(value) if value in (0, 1) else float(value)
    if type(value) is float:
        return -value if value == 0 else int(value)
    return value


def _mutate(draw, entries: list, arity: int) -> None:
    kind = draw(st.sampled_from([
        "duplicate", "twin", "zero", "bad-mult", "arity", "short-entry",
        "long-entry", "string-row", "scalar-entry", "nested",
    ]))
    i = draw(st.integers(0, len(entries) - 1))
    if not isinstance(entries[i], list) or len(entries[i]) != 2 \
            or not isinstance(entries[i][0], list):
        return  # already made malformed
    row, mult = entries[i]
    if kind == "duplicate":
        entries.insert(draw(st.integers(0, len(entries))),
                       [list(row), draw(good_mults)])
    elif kind == "twin":
        entries.append([list(map(_twin, row)), draw(good_mults)])
    elif kind == "zero":
        entries[i] = [row, 0]
    elif kind == "bad-mult":
        entries[i] = [row, draw(bad_mults)]
    elif kind == "arity":
        entries[i] = [row + [7] if draw(st.booleans()) else row[:-1], mult]
    elif kind == "short-entry":
        entries[i] = [row]
    elif kind == "long-entry":
        entries[i] = [row, mult, 1]
    elif kind == "string-row":
        entries[i] = ["ab"[:arity] or "x", mult]
    elif kind == "scalar-entry":
        entries[i] = draw(st.sampled_from([5, "ab", None, []]))
    elif row:
        position = draw(st.integers(0, len(row) - 1))
        row = list(row)
        row[position] = draw(st.sampled_from([[1], [1, 2], {"k": 1}]))
        entries[i] = [row, mult]


@st.composite
def encodings(draw) -> dict:
    """A decoded JSON bag encoding: distinct rows of 0–3 scalars with
    up to three faults spliced in."""
    arity = draw(st.integers(0, 3))
    # sizes drawn evenly: hypothesis alone favours short lists
    size = draw(st.integers(0, 40 if arity else 1))
    rows = draw(st.lists(
        st.tuples(*[scalars] * arity),
        min_size=size,
        max_size=size,
        unique_by=lambda row: tuple(map(repr, row)),
    ))
    entries = [[list(row), draw(good_mults)] for row in rows]
    for _ in range(draw(st.integers(0, 3)) if entries else 0):
        _mutate(draw, entries, arity)
    # what a JSON line decodes to: tuples become lists, bools stay bools
    return json.loads(json.dumps(
        {"schema": list(ATTRS[:arity]), "tuples": entries}
    ))


@settings(max_examples=300, deadline=None)
@given(encodings())
def test_construction_matches_the_per_row_reference(data):
    schema = Schema(data["schema"])
    tuples = data["tuples"]
    expected = outcome(reference_table, schema, tuples)
    assert outcome(Bag.from_pairs, schema, tuples) == expected
    # bag_from_dict maps every malformed shape to SchemaError; before,
    # an unhashable row escaped as a bare TypeError
    if expected in (TypeError, ValueError):
        expected = SchemaError
    assert outcome(bag_from_dict, data) == expected


def test_pairs_and_rows_are_read_once():
    pairs = ((iter((i % 20, i % 20)), 1) for i in range(21))
    bag = Bag.from_pairs(Schema(["A", "B"]), pairs)
    assert bag.multiplicity((0, 0)) == 2 and len(bag) == 20
