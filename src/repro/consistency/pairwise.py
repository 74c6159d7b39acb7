"""Consistency of two bags — all five characterizations of Lemma 2.

Lemma 2 proves the equivalence of:

1. R and S are consistent (some bag T has T[X] = R and T[Y] = S);
2. R[X & Y] = S[X & Y];
3. P(R, S) is feasible over the rationals;
4. P(R, S) is feasible over the integers;
5. N(R, S) admits a saturated flow.

Each statement is implemented as an independently runnable decider
(:func:`consistent_via_marginals`, :func:`consistent_via_lp`,
:func:`consistent_via_integer_search`, :func:`consistent_via_flow`,
:func:`consistent_via_witness_search`), and the test suite checks they
agree.  The practical API is :func:`are_consistent` (the O(n) marginal
test) and :func:`consistency_witness` (Corollary 1: a minimal witness
in linear time by the northwest-corner rule).  Max-flow over N(R, S)
stays for Lemma 2(5) and Corollary 4's minimal witness.

:func:`rational_witness` exposes the explicit closed-form solution
``x_t = R(t[X]) * S(t[Y]) / R(t[Z])`` used in the (2) => (3) step.
"""

from __future__ import annotations

from fractions import Fraction

from ..core.bags import Bag
from ..engine import columnar, kernels
from ..engine.index import BagIndex
from ..errors import InconsistentError
from ..flows.maxflow import FlowResult, saturated_flow
from ..flows.network import FlowNetwork
from ..lp.integer_feasibility import DEFAULT_NODE_BUDGET, find_solution
from ..lp.simplex import solve_lp
from .program import ConsistencyProgram

SOURCE = ("source", "*")
SINK = ("sink", "*")


def are_consistent(r: Bag, s: Bag) -> bool:
    """Lemma 2(2): the polynomial-time consistency test — equal marginals
    on the common attributes.

    When both bags carry a columnar encoding the comparison runs on
    their cached common-attribute groupings (two array equalities);
    otherwise the memoized marginal bags are compared directly.
    """
    verdict = columnar.try_consistent(r, s)
    if verdict is not None:
        return verdict
    columnar.count_row("consistency")
    common = r.schema & s.schema
    return r.marginal(common) == s.marginal(common)


consistent_via_marginals = are_consistent


def build_network(r: Bag, s: Bag) -> FlowNetwork:
    """The network N(R, S) of Section 3.

    One node per support tuple of each bag plus source and sink; source
    edges carry R(r), sink edges carry S(s), and middle edges (one per
    join tuple) carry "unbounded" capacity, realized as the total
    multiplicity of R (no flow can exceed it).

    Join tuples are in bijection with matching support pairs, so the
    engine streams ``(r row, s row)`` pairs straight out of S's cached
    common-attribute buckets instead of materializing the support join.
    """
    network = FlowNetwork(SOURCE, SINK)
    unbounded = max(r.unary_size, s.unary_size, 1)
    for row, mult in r.items():
        network.add_edge(SOURCE, ("r", row), mult)
    for row, mult in s.items():
        network.add_edge(("s", row), SINK, mult)
    plan = kernels.join_plan(r.schema.attrs, s.schema.attrs)
    buckets = BagIndex.of(s).buckets(plan.common)
    for lrow, (rrow, _) in kernels.iter_join_pairs(
        r.support_rows(), plan, buckets
    ):
        network.add_edge(("r", lrow), ("s", rrow), unbounded)
    return network


def consistent_via_flow(r: Bag, s: Bag) -> bool:
    """Lemma 2(5): N(R, S) admits a saturated flow."""
    return saturated_flow(build_network(r, s)) is not None


def witness_from_flow(r: Bag, s: Bag, flow: FlowResult) -> Bag:
    """The witness T(t) := f(t[X], t[Y]) extracted from a saturated flow
    (the (5) => (1) step of Lemma 2).

    Each join tuple t is emitted from its unique matching support pair,
    so the flow on the pair's middle edge is exactly T(t).
    """
    plan = kernels.join_plan(r.schema.attrs, s.schema.attrs)
    buckets = BagIndex.of(s).buckets(plan.common)
    emit = plan.emit
    mults: dict[tuple, int] = {}
    for lrow, (rrow, _) in kernels.iter_join_pairs(
        r.support_rows(), plan, buckets
    ):
        value = flow.on(("r", lrow), ("s", rrow))
        if value:
            mults[emit(lrow + rrow)] = value
    return Bag._from_clean(plan.union, mults)


def consistency_witness(r: Bag, s: Bag) -> Bag:
    """Corollary 1: a witness to the consistency of two bags; raises
    :class:`InconsistentError` when the bags are inconsistent.

    The northwest-corner rule over both bags' cached common-key buckets
    (:func:`repro.engine.kernels.northwest_corner`): no flow network,
    the same rows on every backend, and an inclusion-minimal witness
    (Corollary 4's notion) within Theorem 5's support bound.
    """
    columnar.count_row("witnesses")
    plan = kernels.join_plan(r.schema.attrs, s.schema.attrs)
    table = kernels.northwest_corner(
        BagIndex.of(r).buckets(plan.common),
        BagIndex.of(s).buckets(plan.common),
        plan.emit,
    )
    if table is None:
        raise InconsistentError(
            "bags are not consistent (no saturated flow in N(R, S))"
        )
    return Bag._from_clean(plan.union, table)


def rational_witness(r: Bag, s: Bag) -> dict[tuple, Fraction]:
    """The closed-form rational solution of P(R, S) from Lemma 2's
    (2) => (3) step: ``x_t = R(t[X]) * S(t[Y]) / R(t[Z])``.

    Keys are raw join tuples over the union schema.  Raises
    :class:`InconsistentError` when R[Z] != S[Z].
    """
    plan = kernels.join_plan(r.schema.attrs, s.schema.attrs)
    common = plan.common
    r_common = r.marginal(common)
    if r_common != s.marginal(common):
        raise InconsistentError("bags disagree on their common marginal")
    buckets = BagIndex.of(s).buckets(common)
    left_key, emit = plan.left_key, plan.emit
    denominators = r_common._mults
    out: dict[tuple, Fraction] = {}
    for lrow, lmult in r.items():
        bucket = buckets.get(left_key(lrow))
        if not bucket:
            continue
        denominator = denominators[left_key(lrow)]
        for rrow, rmult in bucket:
            out[emit(lrow + rrow)] = Fraction(lmult * rmult, denominator)
    return out


def consistent_via_lp(r: Bag, s: Bag) -> bool:
    """Lemma 2(3): rational feasibility of P(R, S), by exact simplex."""
    program = ConsistencyProgram.build([r, s])
    result = solve_lp(program.dense_matrix(), program.dense_rhs())
    return result.status == "optimal"


def consistent_via_integer_search(
    r: Bag, s: Bag, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> bool:
    """Lemma 2(4): integer feasibility of P(R, S), by exact search."""
    program = ConsistencyProgram.build([r, s])
    return find_solution(program.system, node_budget) is not None


def consistent_via_witness_search(
    r: Bag, s: Bag, node_budget: int | None = DEFAULT_NODE_BUDGET
) -> Bag | None:
    """Lemma 2(1) taken literally: search for a witness bag directly.

    Returns a witness or None; the definitional (exponential) route, used
    as the oracle in cross-checks.
    """
    program = ConsistencyProgram.build([r, s])
    solution = find_solution(program.system, node_budget)
    if solution is None:
        return None
    return program.witness_from_solution(solution)


ALL_DECIDERS = (
    ("marginals", consistent_via_marginals),
    ("lp", consistent_via_lp),
    ("integer", consistent_via_integer_search),
    ("flow", consistent_via_flow),
    ("witness", lambda r, s: consistent_via_witness_search(r, s) is not None),
)
