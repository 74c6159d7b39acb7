"""Whole JSON lines through the daemon's two ways of reading them: the
plain path (``json.loads``, then ``parse_jobs`` building every bag) and
the ingest memo's byte path (:meth:`IngestMemo.read`), on a cold memo
and again on a warm one.

All three must agree: equal jobs (every bag's schema, its table's keys
with their types and order, its multiplicities and its fingerprint) or
the same :class:`JobError` message, and never another exception class.
The lines mix values Python finds equal but JSON keeps apart
(``1``/``true``/``1.0``, ``0.0``/``-0.0``), ``NaN``, very large
integers, duplicate and zero-count rows, nested values, wrong arities,
job keys and ``bags`` fields that are not lists, and unknown keys; and,
for the byte path, strings holding ``{"schema"``, ``]}``, ``\\"`` and
``\\u0000``, whitespace and key-order variants, duplicate keys, bag
objects outside bag slots, top-level values that are not objects,
other text encodings and lines that are not JSON.
"""

from __future__ import annotations

import codecs
import json
import marshal
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import fingerprint, jobs
from repro.engine.jobs import IngestMemo, JobError, parse_jobs, parse_jobs_text
from repro.obs.metrics import MetricsRegistry

DEEP = '{"pairs": ' + "[" * 100_000 + "]" * 100_000 + "}"
SPAN = '{"schema":["A"],"tuples":[]}'

plain_scalars = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([
        1, True, False, 1.0, 0.0, -0.0, "1", "", "a", None,
        float("nan"), float("inf"), 2**70, -(2**64), 10**400,
    ]),
)
# Strings that look like the byte path's markers, one value in 16.
tricky_strings = st.sampled_from(
    ['{"schema"', "]}", "x]}", '"', "\\", "\x00", SPAN, "é"]
)
scalars = st.integers(0, 15).flatmap(
    lambda k: tricky_strings if k == 0 else plain_scalars
)
good_mults = st.one_of(st.integers(0, 3), st.just(2**70))
bad_mults = st.sampled_from([-1, True, 1.0, "2", None, [1]])
SCHEMAS = (["A"], ["A", "B"], ["B", "C"], [])


class Obj(list):
    """A JSON object as its ``(key, value)`` members, in the order they
    are written, duplicates kept."""


def bag(schema, rows, first="schema") -> Obj:
    members = [("schema", schema), ("tuples", rows)]
    if first == "tuples":
        members.reverse()
    return Obj(members)


@st.composite
def good_bags(draw):
    """A valid encoding: rows of the schema's arity, JSON scalar
    values (so ``1``, ``true`` and ``1.0`` rows collide in Python),
    multiplicities that may repeat a row or be zero, keys in either
    order, and now and then a duplicate key that the last one
    overrides."""
    schema = draw(st.sampled_from(SCHEMAS))
    row = st.lists(scalars, min_size=len(schema), max_size=len(schema))
    rows = draw(st.lists(st.tuples(row, good_mults).map(list), max_size=5))
    first = draw(st.sampled_from(["schema", "schema", "schema", "tuples"]))
    encoded = bag(schema, rows, first)
    if draw(st.integers(0, 7)) == 0:
        shadowed = draw(st.sampled_from([("schema", ["Z"]), ("tuples", [])]))
        encoded.insert(draw(st.integers(0, 1)), shadowed)
    return encoded


nested = st.one_of(
    st.lists(scalars, max_size=2),
    st.dictionaries(st.sampled_from(["k", "v"]), scalars, max_size=1),
    good_bags(),  # a bag object in a row
)


@st.composite
def bad_bags(draw):
    """A valid encoding with one fault: a nested value, a wrong arity,
    a bad multiplicity, a malformed entry, a bad or missing field, an
    unknown key (ignored) or a bag nested in one."""
    encoded = draw(good_bags())
    fields = dict(encoded)
    rows = fields["tuples"]
    fault = draw(st.integers(0, 7))
    if fault == 0 and rows and rows[0][0]:
        rows[0][0][0] = draw(nested)
    elif fault == 1 and rows:
        rows[0][0] = rows[0][0] + [1]
    elif fault == 2 and rows:
        rows[0][1] = draw(bad_mults)
    elif fault == 3:
        rows.append(draw(st.lists(scalars, max_size=3)))
    elif fault == 4:
        encoded.append(("schema", draw(st.one_of(
            scalars, st.just(["A", "A"]), st.just([1, "A"]),
        ))))
    elif fault == 5:
        encoded[:] = [m for m in encoded if m[0] != "tuples"]
    elif fault == 6:
        encoded.append(("extra", 1))
    else:
        encoded.append(("junk", [draw(good_bags())]))
    return encoded


def twin_value(value):
    """A value Python finds equal to ``value`` that JSON keeps apart:
    ``true`` -> ``1`` -> ``1.0`` -> ``true``, ``false`` -> ``0`` ->
    ``0.0`` -> ``-0.0`` -> ``0.0``; any other value is kept."""
    if type(value) is bool:
        return int(value)
    if type(value) is int and value in (0, 1):
        return float(value)
    if type(value) is float and value == 1.0:
        return True
    if type(value) is float and value == 0.0:
        return -math.copysign(0.0, value)
    return value


def twin(encoded):
    """``encoded`` with every row value swapped for its twin: a bag
    Python finds equal, which must still decode to its own values."""
    if not isinstance(encoded, Obj):
        return encoded
    members = []
    for key, value in encoded:
        if key == "tuples" and isinstance(value, list):
            value = [
                [[twin_value(v) for v in entry[0]], *entry[1:]]
                if isinstance(entry, list) and entry
                and isinstance(entry[0], list) else entry
                for entry in value
            ]
        members.append((key, value))
    return Obj(members)


# (between members or items, between key and value, inside brackets)
STYLES = [
    (", ", ": ", ""), (",", ":", ""), (" ,\t", " :  ", ""), (",", ":", " "),
]


def render(value, style) -> str:
    """``value`` as JSON text, written in one of :data:`STYLES`."""
    comma, colon, pad = style
    if isinstance(value, Obj):
        members = comma.join(
            json.dumps(key) + colon + render(item, style)
            for key, item in value
        )
        return "{" + pad + members + pad + "}"
    if isinstance(value, list):
        items = comma.join(render(item, style) for item in value)
        return "[" + pad + items + pad + "]"
    return json.dumps(value)


@st.composite
def lines(draw):
    """One request line.  Slots draw from a small pool of encodings, so
    a line repeats some of them, as repeat traffic does, and the pool
    may hold a twin of one of them; each kind of fault is drawn rarely,
    so most lines reach the bags."""

    def rarely() -> bool:  # 1 in 8
        return all(draw(st.booleans()) for _ in range(3))

    def some(element, min_size=1):
        return draw(st.lists(element, min_size=min_size, max_size=4))

    def encoding():
        if rarely():
            return draw(st.one_of(bad_bags(), scalars, nested))
        return draw(good_bags())

    pool = [encoding() for _ in range(draw(st.integers(1, 4)))]
    if draw(st.booleans()):
        pool.append(twin(draw(st.sampled_from(pool))))
    slot = st.sampled_from(pool)

    def pair():
        if rarely():  # a pair of three, a short one, not a list
            return draw(st.one_of(st.lists(slot, max_size=3), scalars))
        return some(slot, 2)[:2]

    def collection():
        if rarely():
            return draw(st.one_of(
                st.builds(lambda b: Obj([("bags", b)]), scalars), scalars,
                st.just(Obj()),
                st.builds(  # a bag beside the bags
                    lambda b, k: Obj([("bags", b), ("k", k)]),
                    st.lists(slot, max_size=2), slot,
                ),
            ))
        return Obj([("bags", some(slot, 0))])

    def suite():
        if rarely():
            return draw(st.lists(st.one_of(scalars, slot), max_size=4))
        return ["planted-path", 3, 0]

    payload = Obj()
    for key, element in (
        ("pairs", pair), ("collections", collection), ("suites", suite),
    ):
        # pairs nearly always, so that most lines hold bag spans
        if not rarely() if key == "pairs" else draw(st.booleans()):
            if rarely():
                payload.append((key, draw(st.one_of(scalars, st.just(Obj())))))
            else:
                payload.append(
                    (key, [element() for _ in range(draw(st.integers(1, 4)))])
                )
    if payload and rarely():  # a duplicate job key: the last one wins
        payload.insert(0, draw(st.sampled_from(payload)))
    if rarely():
        payload.append(("bogus", draw(st.one_of(st.just([]), slot))))
    top = payload
    if rarely():
        top = draw(st.one_of(st.just([payload]), slot, scalars))
    data = render(top, draw(st.sampled_from(STYLES))).encode("utf-8")
    if rarely():  # not JSON, or not UTF-8
        cut = draw(st.integers(0, len(data)))
        data = draw(st.sampled_from([
            data[:cut], data + b"}", data[:cut] + b"\xc3" + data[cut:],
        ]))
    elif rarely():  # JSON in another encoding json.loads detects
        text = data.decode("utf-8")
        data = draw(st.sampled_from([
            codecs.BOM_UTF8 + data, text.encode("utf-16"),
            text.encode("utf-16-le"),
        ]))
    return data


def describe(bag) -> tuple:
    """A bag as comparable bytes: its schema, each entry's marshal
    record (``1``, ``True`` and ``1.0`` apart, every ``NaN`` alike) in
    table order, and its fingerprint."""
    return (
        marshal.dumps(bag.schema.attrs, 2),
        [marshal.dumps(entry, 2) for entry in bag._mults.items()],
        fingerprint.of_bag(bag),
    )


def outcome(parse) -> tuple:
    try:
        parsed = parse()
    except JobError as exc:
        return ("error", str(exc))
    return (
        "jobs",
        [(describe(left), describe(right)) for left, right in parsed.pairs],
        [[describe(bag) for bag in bags] for bags in parsed.collections],
        parsed.suites,
    )


def by_bytes(line: bytes, memo: IngestMemo):
    """What the daemon's line handler does once a memo is open."""
    payload = memo.read(line)
    if payload is None:
        return parse_jobs_text(line)
    return parse_jobs(payload)


@pytest.mark.parametrize(
    "budget",
    [(jobs.MEMO_ROWS, jobs.MEMO_BYTES), (3, 160)],
    ids=["default", "tiny"],
)
@settings(max_examples=300, deadline=None)
@given(line=lines())
@example(line=DEEP.encode())
@example(line=b'{"pairs": 5}')
@example(line=b'{"collections": true}')
@example(line=b'{"suites": 1.5}')
@example(line=b'{"collections": [{"bags": 5}]}')
@example(line=b'{"pairs": [[{"schema": ["A"], "tuples": [[[NaN], 1], '
               b'[[NaN], 2]]}, {"schema": ["A"], "tuples": [[[-0.0], 1], '
               b'[[0.0], 1]]}]]}')
# Each span cut short decodes on its own to nothing, although the two
# decoded as one array read as two bags (the junk key swallows the
# second's opening): the plain path answers "malformed bag encoding:
# 'schema'" for the middle entry.
@example(line=b'{"collections": [{"bags": [{"schema":["A"],"tuples":[],'
               b'"junk":[{"a":[]}]}, {"bags": [{"schema":0}],"k":1},'
               b'{"schema":["B"],"tuples":[]}]}]}')
# Not JSON, yet each skeleton decodes: a span as an object key, and a
# span whose placeholder closes a string that an invalid escape opened.
@example(line=('{"pairs": [[%s, %s]], %s: 1}' % (SPAN, SPAN, SPAN)).encode())
@example(line=('{"suites": [["x\\%s, 1, 2]]}' % SPAN).encode())
@example(line=('{"pairs": [[%s, %s, %s]]}' % (SPAN, SPAN, SPAN)).encode())
@example(line=SPAN.encode())
def test_plain_and_byte_paths_agree(budget, line):
    plain = outcome(lambda: parse_jobs_text(line))
    rows, nbytes = budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jobs, "MEMO_ROWS", rows)
        patch.setattr(jobs, "MEMO_BYTES", nbytes)
        memo = IngestMemo(MetricsRegistry())
        assert outcome(lambda: by_bytes(line, memo)) == plain
        assert outcome(lambda: by_bytes(line, memo)) == plain
    assert memo._rows <= rows


class TestPinned:
    """Payloads that crashed the validator, each now a one-line
    error."""

    @pytest.mark.parametrize("text", [
        '{"pairs": 5}', '{"pairs": true}', '{"collections": 3}',
        '{"suites": 1.5}', '{"pairs": {"a": 1}}',
    ])
    def test_a_job_key_that_is_not_a_list(self, text):
        # enumerate() of a number or a bool raised TypeError past the
        # validator; an object was read as the list of its keys
        with pytest.raises(JobError, match="must be a list"):
            parse_jobs_text(text)

    def test_nesting_past_the_decoder_limit(self):
        with pytest.raises(JobError, match="invalid JSON"):
            parse_jobs_text(DEEP)
