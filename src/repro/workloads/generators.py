"""Workload generators for tests, examples, and benchmarks.

Three kinds of instances:

* **Planted** — draw a hidden witness bag and marginalize it onto each
  schema: the resulting collection is globally consistent by
  construction (the plant is a witness), hence also pairwise consistent.
* **Perturbed** — take a planted instance and nudge one multiplicity:
  the pair/collection becomes inconsistent (totals disagree).
* **Paper families** — the Section 3 witness-counting family
  ``R_{n-1}, S_{n-1}`` (exactly 2^(n-1) pairwise-incomparable
  witnesses) and Example 1's exponential-join family (path schemas with
  multiplicity 2^n whose bag join has 2^n-sized support while small
  witnesses exist).
"""

from __future__ import annotations

import random
from typing import Sequence

from ..core.bags import Bag
from ..core.schema import Schema
from ..hypergraphs.hypergraph import Hypergraph


def random_bag(
    schema: Schema,
    rng: random.Random,
    domain_size: int = 3,
    n_tuples: int = 4,
    max_multiplicity: int = 5,
) -> Bag:
    """A random bag: ``n_tuples`` draws from a cubic domain with random
    multiplicities (collisions add up)."""
    rows = []
    for _ in range(n_tuples):
        row = tuple(rng.randrange(domain_size) for _ in schema.attrs)
        rows.append((row, rng.randint(1, max_multiplicity)))
    return Bag.from_pairs(schema, rows)


def planted_collection(
    schemas: Sequence[Schema],
    rng: random.Random,
    domain_size: int = 3,
    n_tuples: int = 5,
    max_multiplicity: int = 4,
) -> tuple[Bag, list[Bag]]:
    """A hidden witness over the union schema and its marginals — a
    globally consistent collection with the plant as certificate."""
    union = Schema([])
    for schema in schemas:
        union = union | schema
    plant = random_bag(union, rng, domain_size, n_tuples, max_multiplicity)
    while not plant:
        plant = random_bag(union, rng, domain_size, n_tuples, max_multiplicity)
    return plant, [plant.marginal(schema) for schema in schemas]


def planted_pair(
    left: Schema,
    right: Schema,
    rng: random.Random,
    domain_size: int = 3,
    n_tuples: int = 5,
    max_multiplicity: int = 4,
) -> tuple[Bag, Bag, Bag]:
    """(plant, R, S): a consistent pair with its planted witness."""
    plant, (r, s) = planted_collection(
        [left, right], rng, domain_size, n_tuples, max_multiplicity
    )
    return plant, r, s


def perturb_bag(bag: Bag, rng: random.Random) -> Bag:
    """Add 1 to one multiplicity (or insert a fresh tuple into an empty
    bag), breaking any exact marginal agreement on totals."""
    if not bag:
        row = tuple(0 for _ in bag.schema.attrs)
        return Bag.from_pairs(bag.schema, [(row, 1)])
    rows = sorted(bag.support_rows(), key=repr)
    chosen = rows[rng.randrange(len(rows))]
    bump = Bag.from_pairs(bag.schema, [(chosen, 1)])
    return bag + bump


def inconsistent_pair(
    left: Schema,
    right: Schema,
    rng: random.Random,
    domain_size: int = 3,
    n_tuples: int = 5,
    max_multiplicity: int = 4,
) -> tuple[Bag, Bag]:
    """A pair that is *not* consistent: perturbing one side changes its
    total multiplicity, so the common marginals (which always share the
    grand total) cannot agree."""
    _, r, s = planted_pair(
        left, right, rng, domain_size, n_tuples, max_multiplicity
    )
    return r, perturb_bag(s, rng)


def witness_family_pair(n: int) -> tuple[Bag, Bag]:
    """The Section 3 family ``R_{n-1}(A, B), S_{n-1}(B, C)`` for n >= 2.

    R = {(1,2):1, (2,2):1, (1,3):1, (3,3):1, ..., (1,n):1, (n,n):1} and
    S = {(2,1):1, (2,2):1, (3,1):1, (3,3):1, ..., (n,1):1, (n,n):1}.
    The pair is consistent with exactly 2^(n-1) witnesses, pairwise
    incomparable under bag containment, each with support strictly
    inside the join of supports.
    """
    if n < 2:
        raise ValueError(f"the witness family needs n >= 2, got {n}")
    ab = Schema(["A", "B"])
    bc = Schema(["B", "C"])
    r_rows = []
    s_rows = []
    for v in range(2, n + 1):
        r_rows.append(((1, v), 1))
        r_rows.append(((v, v), 1))
        s_rows.append(((v, 1), 1))
        s_rows.append(((v, v), 1))
    return Bag.from_pairs(ab, r_rows), Bag.from_pairs(bc, s_rows)


def example1_instance(n: int) -> tuple[list[Bag], Bag]:
    """Example 1: path bags R_i(A_i A_{i+1}) with support {0,1}^2 and
    multiplicity 2^n, plus the join-like witness J with support {0,1}^n
    and multiplicity 4 — exponentially larger than the input when
    multiplicities are written in binary."""
    if n < 2:
        raise ValueError(f"Example 1 needs n >= 2, got {n}")
    attrs = [f"A{i}" for i in range(1, n + 1)]
    bags = []
    for i in range(n - 1):
        schema = Schema([attrs[i], attrs[i + 1]])
        rows = [((a, b), 2**n) for a in (0, 1) for b in (0, 1)]
        bags.append(Bag.from_pairs(schema, rows))
    full = Schema(attrs)
    big_rows = []
    for bits in range(2**n):
        mapping = {
            attrs[i]: (bits >> i) & 1 for i in range(n)
        }
        big_rows.append((mapping, 4))
    witness = Bag.from_mappings(big_rows, schema=full)
    return bags, witness


def wide_window_schemas(
    n_bags: int, width: int, overlap: int
) -> list[Schema]:
    """``n_bags`` sliding-window schemas over attributes ``W000, W001,
    ...``: window j covers ``width`` consecutive attributes and shares
    ``overlap`` of them with its neighbour.  Consecutive intervals form
    an acyclic (interval) hypergraph, and the zero-padded names keep
    the canonical attribute order equal to the window order.
    """
    if width < 1 or n_bags < 1:
        raise ValueError("wide windows need n_bags >= 1 and width >= 1")
    if not 0 <= overlap < width:
        raise ValueError(
            f"overlap must be in [0, width), got {overlap} for width {width}"
        )
    step = width - overlap
    return [
        Schema([f"W{step * j + i:03d}" for i in range(width)])
        for j in range(n_bags)
    ]


def wide_planted_collection(
    rng: random.Random,
    n_bags: int = 3,
    width: int = 6,
    overlap: int = 2,
    n_rows: int = 64,
    domain_size: int = 1 << 16,
    max_multiplicity: int = 3,
) -> tuple[Bag, list[Bag]]:
    """A planted collection over wide sliding-window schemas with a
    high-cardinality domain — the workload shape that stresses
    dictionary encoding (many attributes, many distinct values, few
    repeated keys) and exposes the row-kernel gap the columnar bench
    gate measures.  Globally consistent by construction."""
    return planted_collection(
        wide_window_schemas(n_bags, width, overlap),
        rng,
        domain_size=domain_size,
        n_tuples=n_rows,
        max_multiplicity=max_multiplicity,
    )


def wide_planted_pair(
    rng: random.Random,
    width: int = 8,
    overlap: int = 3,
    n_rows: int = 256,
    domain_size: int = 1 << 20,
    max_multiplicity: int = 6,
) -> tuple[Bag, Bag, Bag]:
    """(plant, R, S) over two overlapping wide windows — the two-bag
    unit of the wide workloads (``benchmarks/bench_wire.py``)."""
    plant, (r, s) = wide_planted_collection(
        rng,
        n_bags=2,
        width=width,
        overlap=overlap,
        n_rows=n_rows,
        domain_size=domain_size,
        max_multiplicity=max_multiplicity,
    )
    return plant, r, s


def random_collection_over(
    hypergraph: Hypergraph,
    rng: random.Random,
    domain_size: int = 3,
    n_tuples: int = 5,
    max_multiplicity: int = 4,
) -> list[Bag]:
    """A planted (globally consistent) collection over a hypergraph's
    hyperedges."""
    _, bags = planted_collection(
        list(hypergraph.edges), rng, domain_size, n_tuples, max_multiplicity
    )
    return bags


def planted_stream(
    schemas: Sequence[Schema],
    rng: random.Random,
    n_transactions: int,
    domain_size: int = 4,
    n_tuples: int = 5,
    max_multiplicity: int = 4,
    delete_probability: float = 0.4,
) -> tuple[list[Bag], list[list[tuple[int, tuple, int]]]]:
    """A planted collection plus a consistency-preserving update stream.

    Each **transaction** inserts or deletes one tuple of the hidden
    union-schema witness and propagates its marginal row to every bag,
    returned as a list of ``(bag index, row, amount)`` updates.
    Mid-transaction the collection is (usually) inconsistent; at every
    transaction boundary it is globally consistent again, with the
    evolved plant as certificate — the monitoring pattern behind
    ``benchmarks/bench_live.py`` / ``bench_live_global.py`` and the
    fold-tree stream tests, generated in one place so they replay the
    identical traffic.
    """
    from ..core.schema import projection_plan

    plant, bags = planted_collection(
        schemas, rng, domain_size, n_tuples, max_multiplicity
    )
    union = plant.schema
    plans = [
        projection_plan(union.attrs, schema.attrs) for schema in schemas
    ]
    pool = dict(plant.items())
    transactions = []
    for _ in range(n_transactions):
        if pool and rng.random() < delete_probability:
            rows = sorted(pool)
            row = rows[rng.randrange(len(rows))]
            amount = -1
            if pool[row] == 1:
                del pool[row]
            else:
                pool[row] -= 1
        else:
            row = tuple(rng.randrange(domain_size) for _ in union.attrs)
            amount = 1
            pool[row] = pool.get(row, 0) + 1
        transactions.append(
            [(index, plan(row), amount) for index, plan in enumerate(plans)]
        )
    return bags, transactions
