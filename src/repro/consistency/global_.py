"""Global consistency of collections of bags — the GCPB problem.

Implements the decision and construction layer of Section 5:

* :func:`pairwise_consistent` / :func:`k_wise_consistent` — local
  consistency notions (Section 4).
* :func:`acyclic_global_witness` — Theorem 6: over an acyclic schema,
  fold minimal (northwest-corner) two-bag witnesses along a
  running-intersection ordering; polynomial time, support bounded by the
  sum of input support sizes.
* :func:`decide_global_consistency` / :func:`global_witness` — the
  dispatching solvers: pairwise check first (necessary), then the
  polynomial acyclic route when the schema is acyclic (Theorem 2 makes
  pairwise consistency sufficient there), otherwise the exact integer
  search on P(R1, ..., Rm) — honest exponential work, as Theorem 4's
  NP-completeness predicts.  No rational relaxation runs first: for
  bags it is only a necessary condition, and on every measured family
  (planted and random triangles, Tseitin cycles and H_n) solving it
  cost more than the complete search it could at best skip.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Literal, Sequence

from ..core.bags import Bag
from ..core.schema import Schema
from ..errors import CyclicSchemaError, InconsistentError
from ..hypergraphs.acyclicity import is_acyclic, running_intersection_order
from ..hypergraphs.hypergraph import hypergraph_of_bags
from ..lp.integer_feasibility import DEFAULT_NODE_BUDGET, find_solution
from .pairwise import are_consistent, consistency_witness
from .program import ConsistencyProgram
from .witness import is_witness

Method = Literal["auto", "acyclic", "search"]
PairChecker = Callable[[Bag, Bag], bool]


def pairwise_consistent(
    bags: Sequence[Bag], pair_checker: PairChecker | None = None
) -> bool:
    """Every two bags of the collection are consistent (Section 4).

    ``pair_checker`` lets a caller route the two-bag test through a
    memoizing layer (the :class:`repro.engine.Engine` passes its cached
    ``are_consistent``); the default is the direct Lemma 2(2) test.
    """
    check = pair_checker or are_consistent
    return all(
        check(bags[i], bags[j])
        for i, j in combinations(range(len(bags)), 2)
    )


def k_wise_consistent(
    bags: Sequence[Bag],
    k: int,
    node_budget: int | None = DEFAULT_NODE_BUDGET,
) -> bool:
    """Every subcollection of at most k bags is globally consistent.

    Because global consistency of a set implies it for every subset
    (marginalize the witness), only subsets of size ``min(k, m)`` need
    checking.  Exponential in k — the oracle behind the Lemma 4 tests.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    size = min(k, len(bags))
    return all(
        decide_global_consistency(
            [bags[i] for i in subset], node_budget=node_budget
        )
        for subset in combinations(range(len(bags)), size)
    )


def _dedupe_by_schema(bags: Sequence[Bag]) -> list[Bag]:
    """Collapse equal-schema bags (pairwise consistency forces equality:
    two bags over the same schema are consistent iff they are equal)."""
    seen: dict[Schema, Bag] = {}
    for bag in bags:
        if bag.schema in seen:
            if seen[bag.schema] != bag:
                raise InconsistentError(
                    f"two distinct bags share schema {bag.schema!r}; they "
                    f"cannot be consistent"
                )
        else:
            seen[bag.schema] = bag
    return list(seen.values())


def fold_order(bags: Sequence[Bag]) -> list[Bag]:
    """The deduped bags in a running-intersection order — the fold order
    of Theorem 6.  Raises :class:`CyclicSchemaError` when the schema
    hypergraph is cyclic (Theorem 1(c): no such order exists).
    """
    deduped = _dedupe_by_schema(bags)
    hypergraph = hypergraph_of_bags(deduped)
    rip = running_intersection_order(hypergraph)  # raises if cyclic
    by_schema = {bag.schema: bag for bag in deduped}
    return [by_schema[edge] for edge in rip.order]


def fold_step(acc: Bag, bag: Bag) -> Bag:
    """One step of the Theorem 6 fold: absorb ``bag`` into the running
    witness ``acc`` through the northwest-corner two-bag witness, which
    is minimal by construction, so the per-step support bound
    ``||W||supp <= ||acc||supp + ||bag||supp`` holds.  Raises
    :class:`InconsistentError` when the two sides are inconsistent."""
    return consistency_witness(acc, bag)


def check_fold_bound(witness: Bag, bags: Sequence[Bag]) -> None:
    """Assert the Theorem 6 support bound ``||T||supp <= sum_i
    ||Ri||supp`` for a fold over ``bags``."""
    bound = sum(bag.support_size for bag in bags)
    if witness.support_size > bound:
        raise AssertionError(
            f"Theorem 6 violated: witness support "
            f"{witness.support_size} exceeds {bound}"
        )


def acyclic_global_witness(
    bags: Sequence[Bag],
    pair_checker: PairChecker | None = None,
) -> Bag:
    """Theorem 6: a witness to global consistency over an acyclic schema.

    Requires the collection to be pairwise consistent (checked through
    ``pair_checker`` when given, so an engine-cached pairwise phase is
    not redone; raises :class:`InconsistentError` otherwise) and the
    schema hypergraph to be acyclic (raises
    :class:`CyclicSchemaError` otherwise).  Folds two-bag witnesses
    along a running-intersection ordering (:func:`fold_order` /
    :func:`fold_step`); every step's witness is minimal, giving
    ``||T||supp <= sum_i ||Ri||supp`` as Theorem 6 promises (asserted
    before returning).
    """
    if not bags:
        raise InconsistentError("empty collection has no witness schema")
    if not pairwise_consistent(bags, pair_checker):
        raise InconsistentError("collection is not pairwise consistent")
    ordered = fold_order(bags)
    witness = ordered[0]
    for bag in ordered[1:]:
        witness = fold_step(witness, bag)
    check_fold_bound(witness, ordered)
    if not is_witness(ordered, witness):
        raise AssertionError(
            "Theorem 6 construction failed to produce a witness; "
            "this contradicts Step 1 of Theorem 2"
        )
    return witness


@dataclass(frozen=True)
class GlobalConsistencyResult:
    """Outcome of a global-consistency decision."""

    consistent: bool
    witness: Bag | None
    method: str


def takes_search(
    bags: Sequence[Bag], method: Method = "auto", acyclic: bool | None = None
) -> bool:
    """Whether :func:`global_witness` decides a pairwise-consistent
    ``bags`` by the exact Theorem 4 search rather than the polynomial
    Theorem 6 fold: under ``method="auto"`` exactly when the schema
    hypergraph is cyclic (``acyclic``, when given, is a caller's
    already-validated answer), never under ``"acyclic"``, always under
    ``"search"``.  The process executor ships exactly these
    collections."""
    if method == "acyclic":
        return False
    if method != "auto":
        return True
    if acyclic is None:
        acyclic = is_acyclic(hypergraph_of_bags(bags))
    return not acyclic


def global_witness(
    bags: Sequence[Bag],
    method: Method = "auto",
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    pair_checker: PairChecker | None = None,
    acyclic: bool | None = None,
) -> GlobalConsistencyResult:
    """Decide global consistency and produce a witness when one exists.

    ``method="auto"`` picks the polynomial acyclic route when the schema
    hypergraph is acyclic and falls back to the exact integer search on
    P(R1, ..., Rm) otherwise.  ``pair_checker`` is forwarded to the
    pairwise phase (see :func:`pairwise_consistent`).  ``acyclic`` lets
    a caller that already validated the schema hypergraph (the live
    engine caches the answer per handle set — membership never changes
    on row updates) skip the GYO re-run; the answer is a pure function
    of the schema set, so a stale hint is impossible unless the caller
    lies.
    """
    if not bags:
        raise InconsistentError("empty collection")
    if not pairwise_consistent(bags, pair_checker):
        return GlobalConsistencyResult(False, None, "pairwise")
    if not takes_search(bags, method, acyclic):
        # method="acyclic" on a cyclic schema raises CyclicSchemaError
        # from the running-intersection construction inside.
        witness = acyclic_global_witness(bags, pair_checker=pair_checker)
        return GlobalConsistencyResult(True, witness, "acyclic")
    program = ConsistencyProgram.build(list(_dedupe_by_schema(bags)))
    solution = find_solution(program.system, node_budget)
    if solution is None:
        return GlobalConsistencyResult(False, None, "search")
    witness = program.witness_from_solution(solution)
    return GlobalConsistencyResult(True, witness, "search")


def decide_global_consistency(
    bags: Sequence[Bag],
    method: Method = "auto",
    node_budget: int | None = DEFAULT_NODE_BUDGET,
    pair_checker: PairChecker | None = None,
) -> bool:
    """The GCPB decision problem: are the bags globally consistent?

    On acyclic schemas this is the pure Theorem 2 decision: pairwise
    consistency alone settles the answer in polynomial time, with no
    witness construction.  On cyclic schemas it falls through to the
    exact search (NP-complete in general, Theorem 4).
    """
    if not bags:
        raise InconsistentError("empty collection")
    if not pairwise_consistent(bags, pair_checker):
        return False
    if method != "search":
        hypergraph = hypergraph_of_bags(bags)
        if is_acyclic(hypergraph):
            return True  # Theorem 2: pairwise consistency suffices
        if method == "acyclic":
            raise CyclicSchemaError(
                f"method='acyclic' requested on a cyclic schema: "
                f"{hypergraph!r}"
            )
    return global_witness(
        bags, "search", node_budget, pair_checker=pair_checker
    ).consistent
