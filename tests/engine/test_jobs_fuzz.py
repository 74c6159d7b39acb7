"""Whole JSON-line payloads through ``parse_jobs_text``, with the ingest
memo off, on its first sighting of each encoding, and on a repeat.

The three runs must agree: equal jobs (every bag's schema, its table's
keys with their types and order, its multiplicities and its
fingerprint) or the same :class:`JobError` message, and never another
exception class.  The payloads mix values Python finds equal but JSON
keeps apart (``1``/``true``/``1.0``, ``0.0``/``-0.0``), ``NaN``, very
large integers, duplicate and zero-count rows, nested values, wrong
arities, job keys and ``bags`` fields that are not lists, and unknown
keys.
"""

from __future__ import annotations

import json
import marshal
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.engine import fingerprint, jobs
from repro.engine.jobs import IngestMemo, JobError, parse_jobs_text
from repro.obs.metrics import MetricsRegistry

DEEP = '{"pairs": ' + "[" * 100_000 + "]" * 100_000 + "}"

scalars = st.one_of(
    st.integers(-2, 4),
    st.sampled_from([
        1, True, False, 1.0, 0.0, -0.0, "1", "", "a", None,
        float("nan"), float("inf"), 2**70, -(2**64), 10**400,
    ]),
)
nested = st.one_of(
    st.lists(scalars, max_size=2),
    st.dictionaries(st.sampled_from(["k", "v"]), scalars, max_size=1),
)
good_mults = st.one_of(st.integers(0, 3), st.just(2**70))
bad_mults = st.sampled_from([-1, True, 1.0, "2", None, [1]])
SCHEMAS = (["A"], ["A", "B"], ["B", "C"], [])


@st.composite
def good_bags(draw):
    """A valid encoding: rows of the schema's arity, JSON scalar
    values (so ``1``, ``true`` and ``1.0`` rows collide in Python), and
    multiplicities that may repeat a row or be zero."""
    schema = draw(st.sampled_from(SCHEMAS))
    row = st.lists(scalars, min_size=len(schema), max_size=len(schema))
    rows = draw(st.lists(st.tuples(row, good_mults).map(list), max_size=5))
    if draw(st.booleans()):
        return {"tuples": rows, "schema": schema}  # keys in either order
    return {"schema": schema, "tuples": rows}


@st.composite
def bad_bags(draw):
    """A valid encoding with one fault: a nested value, a wrong arity,
    a bad multiplicity, a malformed entry, a bad or missing field."""
    encoded = draw(good_bags())
    rows = encoded["tuples"]
    fault = draw(st.integers(0, 6))
    if fault == 0 and rows and rows[0][0]:
        rows[0][0][0] = draw(nested)
    elif fault == 1 and rows:
        rows[0][0] = rows[0][0] + [1]
    elif fault == 2 and rows:
        rows[0][1] = draw(bad_mults)
    elif fault == 3:
        rows.append(draw(st.lists(scalars, max_size=3)))
    elif fault == 4:
        encoded["schema"] = draw(st.one_of(
            scalars, st.just(["A", "A"]), st.just([1, "A"]),
        ))
    elif fault == 5:
        del encoded["tuples"]
    else:
        encoded["extra"] = 1  # an unknown bag key is ignored
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
    if not isinstance(encoded, dict) or not isinstance(
        encoded.get("tuples"), list
    ):
        return encoded
    rows = []
    for entry in encoded["tuples"]:
        if isinstance(entry, list) and entry and isinstance(entry[0], list):
            entry = [[twin_value(v) for v in entry[0]], *entry[1:]]
        rows.append(entry)
    return {**encoded, "tuples": rows}


@st.composite
def payload_texts(draw):
    """One JSON line.  Slots draw from a small pool of encodings, so a
    payload repeats some of them, as repeat traffic does, and the pool
    may hold a twin of one of them; each kind of fault is drawn rarely,
    so most payloads reach the bags."""

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
        if rarely():
            return draw(st.one_of(st.lists(slot, max_size=3), scalars))
        return some(slot, 2)[:2]

    def collection():
        if rarely():
            return draw(st.one_of(
                st.builds(lambda b: {"bags": b}, scalars), scalars,
                st.just({}),
            ))
        return {"bags": some(slot, 0)}

    def suite():
        if rarely():
            return draw(st.lists(scalars, max_size=4))
        return ["planted-path", 3, 0]

    payload: dict = {}
    for key, element in (
        ("pairs", pair), ("collections", collection), ("suites", suite),
    ):
        if draw(st.booleans()):
            if rarely():
                payload[key] = draw(st.one_of(scalars, st.just({})))
            else:
                payload[key] = [
                    element() for _ in range(draw(st.integers(1, 4)))
                ]
    if rarely():
        payload["bogus"] = []
    if rarely():
        return json.dumps([payload])
    return json.dumps(payload)


def describe(bag) -> tuple:
    """A bag as comparable bytes: its schema, each entry's marshal
    record (``1``, ``True`` and ``1.0`` apart, every ``NaN`` alike) in
    table order, and its fingerprint."""
    return (
        marshal.dumps(bag.schema.attrs, 2),
        [marshal.dumps(entry, 2) for entry in bag._mults.items()],
        fingerprint.of_bag(bag),
    )


def outcome(text: str, memo: IngestMemo | None) -> tuple:
    try:
        jobs = parse_jobs_text(text, memo)
    except JobError as exc:
        return ("error", str(exc))
    return (
        "jobs",
        [(describe(left), describe(right)) for left, right in jobs.pairs],
        [[describe(bag) for bag in bags] for bags in jobs.collections],
        jobs.suites,
    )


@pytest.mark.parametrize(
    "budget",
    [(jobs.MEMO_ROWS, jobs.MEMO_BYTES), (3, 160)],
    ids=["default", "tiny"],
)
@settings(max_examples=300, deadline=None)
@given(text=payload_texts())
@example(text=DEEP)
@example(text='{"pairs": 5}')
@example(text='{"collections": true}')
@example(text='{"suites": 1.5}')
@example(text='{"collections": [{"bags": 5}]}')
@example(text='{"pairs": [[{"schema": ["A"], "tuples": [[[NaN], 1], '
               '[[NaN], 2]]}, {"schema": ["A"], "tuples": [[[-0.0], 1], '
               '[[0.0], 1]]}]]}')
def test_memo_off_first_sighting_and_repeat_agree(budget, text):
    plain = outcome(text, None)
    rows, nbytes = budget
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jobs, "MEMO_ROWS", rows)
        patch.setattr(jobs, "MEMO_BYTES", nbytes)
        memo = IngestMemo(MetricsRegistry())
        assert outcome(text, memo) == plain
        assert outcome(text, memo) == plain
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
