"""Shared fixtures and hypothesis strategies for the test suite.

The strategies generate small instances on purpose: the exact integer
search and the definitional (exponential) oracles are part of most
cross-checks, so instance sizes are kept where the oracles are instant.
"""

from __future__ import annotations

import io
import json
import pickle
import random
import zlib
from pathlib import Path

import pytest
from hypothesis import strategies as st

from repro.core import Bag, Relation, Schema
from repro.hypergraphs import Hypergraph
from repro.store import format as fmt

ATTR_POOL = ("A", "B", "C", "D", "E")


def collision_bags() -> tuple[Bag, Bag]:
    """Two distinct 64-row bags over (P, Q) whose fingerprint-encoding-2
    row-term sums agree (found by fixtures/find_encoding2_collision.py)."""
    path = Path(__file__).parent / "fixtures" / "encoding2_collision.json"
    data = json.loads(path.read_text())
    schema = Schema(["P", "Q"])
    a, b = (
        Bag.from_pairs(schema, [(tuple(row), m) for row, m in data[side]])
        for side in ("A", "B")
    )
    return a, b


def segment_bytes(*frames: bytes, version: int = fmt.FORMAT_VERSION) -> bytes:
    """A store segment file: the header, then ``frames`` as given."""
    buf = io.BytesIO()
    fmt.write_header(buf, version)
    for frame in frames:
        buf.write(frame)
    return buf.getvalue()


def legacy_tombstone(fp: int) -> bytes:
    """The framed tombstone older builds wrote to drop every record
    touching ``fp``: a body head of kind 2, the pickled fingerprint,
    CRC-framed.  Stores may still hold one; nothing writes one now."""
    key_blob = pickle.dumps(fp, protocol=pickle.HIGHEST_PROTOCOL)
    body = fmt.BODY_HEAD.pack(2, len(key_blob)) + key_blob
    return fmt.FRAME.pack(len(body), zlib.crc32(body)) + body


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20210621)


@pytest.fixture(autouse=True, scope="session")
def no_workers_left_behind():
    """Shutting the process-backend pools down must reap every worker
    the session started."""
    yield
    import multiprocessing

    from repro.engine import executors

    executors.shutdown_pools()
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# Hypothesis strategies
# ---------------------------------------------------------------------------

def schemas(
    min_size: int = 0, max_size: int = 4, pool: tuple = ATTR_POOL
) -> st.SearchStrategy[Schema]:
    return st.sets(
        st.sampled_from(pool), min_size=min_size, max_size=max_size
    ).map(Schema)


@st.composite
def bags_over(
    draw,
    schema: Schema,
    domain: tuple = (0, 1, 2),
    max_tuples: int = 4,
    max_multiplicity: int = 4,
) -> Bag:
    rows = draw(
        st.lists(
            st.tuples(
                st.tuples(
                    *[st.sampled_from(domain) for _ in schema.attrs]
                ),
                st.integers(1, max_multiplicity),
            ),
            max_size=max_tuples,
        )
    )
    return Bag.from_pairs(schema, rows)


@st.composite
def bags(draw, min_attrs: int = 0, max_attrs: int = 3) -> Bag:
    schema = draw(schemas(min_attrs, max_attrs))
    return draw(bags_over(schema))


@st.composite
def relations_over(
    draw, schema: Schema, domain: tuple = (0, 1, 2), max_tuples: int = 5
) -> Relation:
    rows = draw(
        st.lists(
            st.tuples(*[st.sampled_from(domain) for _ in schema.attrs]),
            max_size=max_tuples,
        )
    )
    return Relation.from_pairs(schema, rows)


@st.composite
def schema_pairs(draw) -> tuple[Schema, Schema]:
    """Two schemas with a guaranteed-nonempty union."""
    left = draw(schemas(1, 3))
    right = draw(schemas(1, 3))
    return left, right


@st.composite
def consistent_bag_pairs(draw) -> tuple[Bag, Bag, Bag]:
    """(plant, R, S): marginals of a common witness — consistent by
    construction."""
    left, right = draw(schema_pairs())
    union = left | right
    plant = draw(bags_over(union, max_tuples=5))
    return plant, plant.marginal(left), plant.marginal(right)


@st.composite
def planted_collections(
    draw, min_bags: int = 2, max_bags: int = 4
) -> tuple[Bag, list[Bag]]:
    """A hidden witness and its marginals over a few random schemas."""
    n = draw(st.integers(min_bags, max_bags))
    schema_list = [draw(schemas(1, 3)) for _ in range(n)]
    union = Schema([])
    for schema in schema_list:
        union = union | schema
    plant = draw(bags_over(union, max_tuples=5))
    return plant, [plant.marginal(s) for s in schema_list]


@st.composite
def hypergraphs(
    draw,
    min_edges: int = 1,
    max_edges: int = 5,
    max_arity: int = 3,
    pool: tuple = ATTR_POOL,
) -> Hypergraph:
    n = draw(st.integers(min_edges, max_edges))
    edges = [
        draw(st.sets(st.sampled_from(pool), min_size=1, max_size=max_arity))
        for _ in range(n)
    ]
    return Hypergraph(None, edges)
