"""Witness verification, minimal witnesses, and the size bounds.

Implements the algorithmic content of Section 5.3 and the bound
statements of Theorems 3 and 5:

* :func:`is_witness` — the NP certificate check behind Corollary 3:
  verify ``W[Xi] = Ri`` for every bag of the collection.
* :func:`minimal_pairwise_witness` — Corollary 4's strongly polynomial
  self-reducibility: delete middle edges of N(R, S) one at a time,
  keeping an edge only if every saturated flow uses it; the surviving
  edges support a *minimal* witness with
  ``||W||supp <= ||R||supp + ||S||supp`` (Theorem 5).
* :func:`minimize_witness` — for m >= 3 bags, greedy inclusion-minimal
  support reduction via the exact integer search (worst-case
  exponential; the small-instance oracle for Theorem 3(3)).
* :func:`check_theorem3_bounds` / :func:`check_theorem5_bound` — runnable
  bound checkers used by tests and benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..core.bags import Bag
from ..errors import InconsistentError
from ..flows.maxflow import saturated_flow
from ..lp.caratheodory import eisenbrand_shmonin_bound, minimize_support
from ..lp.integer_feasibility import DEFAULT_NODE_BUDGET
from .pairwise import build_network, witness_from_flow
from .program import ConsistencyProgram


def is_witness(bags: Sequence[Bag], candidate: Bag) -> bool:
    """True iff ``candidate`` witnesses the global consistency of the
    collection: its marginal on each bag's schema equals that bag."""
    union = None
    for bag in bags:
        union = bag.schema if union is None else union | bag.schema
    if union is None or candidate.schema != union:
        return False
    return all(
        candidate.marginal(bag.schema) == bag for bag in bags
    )


def witness_marginal_residuals(
    bags: Sequence[Bag], candidate: Bag
) -> dict:
    """Where (and by how much) a candidate witness misses each bag.

    Maps each bag's schema to the sparse signed difference ``bag -
    candidate[schema]`` per cell; a true witness has every residual
    empty (``is_witness`` is "all residuals empty" plus the union-schema
    check).  This is the quantity the live witness's delta repair
    (:mod:`repro.engine.live_global`) drives to zero cell-by-cell, and
    the actionable diagnostic when a maintained or stored witness is
    suspected of drift: it names the exact cells to fix.
    """
    residuals: dict = {}
    for bag in bags:
        marginal = candidate.marginal(bag.schema)
        delta: dict[tuple, int] = {}
        for row, mult in bag.items():
            diff = mult - marginal.multiplicity(row)
            if diff:
                delta[row] = diff
        for row, mult in marginal.items():
            if bag.multiplicity(row) == 0:
                delta[row] = -mult
        residuals[bag.schema] = delta
    return residuals


def minimal_pairwise_witness(r: Bag, s: Bag) -> Bag:
    """Corollary 4: a minimal witness to the consistency of two bags.

    Loops over the middle edges of N(R, S); each edge is temporarily
    removed and the max flow recomputed — if still saturated the edge is
    deleted permanently.  The final saturated flow has inclusion-minimal
    middle-edge support, giving a minimal witness; Theorem 5 then bounds
    ``||W||supp`` by ``||R||supp + ||S||supp`` (checked before return).

    Raises :class:`InconsistentError` when the bags are inconsistent.
    """
    network = build_network(r, s)
    if saturated_flow(network) is None:
        raise InconsistentError(
            "bags are not consistent (no saturated flow in N(R, S))"
        )
    middles = [
        (u, v)
        for u, v, _ in network.edges()
        if u != network.source and v != network.sink
    ]
    for u, v in sorted(middles, key=repr):
        trial = network.copy()
        trial.remove_edge(u, v)
        if saturated_flow(trial) is not None:
            network = trial
    flow = saturated_flow(network)
    assert flow is not None, "deletions preserved saturation by construction"
    witness = witness_from_flow(r, s, flow)
    limit = r.support_size + s.support_size
    if witness.support_size > limit:
        raise AssertionError(
            f"Theorem 5 violated: minimal witness support "
            f"{witness.support_size} exceeds {limit}"
        )
    return witness


def minimize_witness(
    bags: Sequence[Bag],
    witness: Bag,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> Bag:
    """An inclusion-minimal-support witness refining ``witness``.

    Uses the greedy support-reduction of
    :func:`repro.lp.caratheodory.minimize_support` on P(R1, ..., Rm).
    The result is a *minimal witness* in the paper's sense (no witness
    has support strictly contained in it), hence obeys Theorem 3(3).
    """
    if not is_witness(bags, witness):
        raise InconsistentError("candidate is not a witness for the bags")
    program = ConsistencyProgram.build(bags)
    solution = program.solution_from_witness(witness)
    reduced = minimize_support(program.system, solution, node_budget)
    return program.witness_from_solution(reduced)


@dataclass(frozen=True)
class Theorem3Report:
    """Outcome of checking Theorem 3's three bounds on a witness."""

    multiplicity_ok: bool
    support_unary_ok: bool
    support_binary_ok: bool | None  # None when minimality was not claimed
    witness_support: int
    unary_bound: int
    binary_bound: float
    multiplicity_bound: int

    @property
    def all_ok(self) -> bool:
        checks = [self.multiplicity_ok, self.support_unary_ok]
        if self.support_binary_ok is not None:
            checks.append(self.support_binary_ok)
        return all(checks)


def check_theorem3_bounds(
    bags: Sequence[Bag], witness: Bag, minimal: bool = False
) -> Theorem3Report:
    """Verify Theorem 3 on a concrete witness.

    1. ``||W||mu <= max_i ||Ri||mu``;
    2. ``||W||supp <= sum_i ||Ri||u``;
    3. for minimal witnesses, ``||W||supp <= sum_i ||Ri||b``.
    """
    if not is_witness(bags, witness):
        raise InconsistentError("candidate is not a witness for the bags")
    mult_bound = max((bag.multiplicity_bound for bag in bags), default=0)
    unary_bound = sum(bag.unary_size for bag in bags)
    binary_bound = sum(bag.binary_size for bag in bags)
    return Theorem3Report(
        multiplicity_ok=witness.multiplicity_bound <= mult_bound,
        support_unary_ok=witness.support_size <= unary_bound,
        support_binary_ok=(
            witness.support_size <= binary_bound + 1e-9 if minimal else None
        ),
        witness_support=witness.support_size,
        unary_bound=unary_bound,
        binary_bound=binary_bound,
        multiplicity_bound=mult_bound,
    )


def check_theorem5_bound(r: Bag, s: Bag, witness: Bag) -> bool:
    """``||W||supp <= ||R||supp + ||S||supp`` for a minimal two-bag
    witness (Theorem 5)."""
    if not is_witness([r, s], witness):
        raise InconsistentError("candidate is not a witness for the bags")
    return witness.support_size <= r.support_size + s.support_size


def certificate_size_bound(bags: Sequence[Bag]) -> float:
    """The Corollary 3 certificate bound: a minimal witness has support
    at most ``sum_i ||Ri||b`` (so global consistency is in NP even with
    binary multiplicities)."""
    return eisenbrand_shmonin_bound(
        [mult for bag in bags for _, mult in bag.items()]
    )
