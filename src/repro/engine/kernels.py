"""Columnar execution kernels: projection, marginal, hash join,
semi-join, and the northwest-corner witness.

Every headline algorithm of the paper — Lemma 2's marginal test,
Corollary 1's witness, Theorem 6's acyclic folding, the Yannakakis
passes — is built from two primitives: *marginals* (project + aggregate)
and *joins* (bucket + probe + emit).  The seed implemented each call
site as its own per-row ``project_values`` loop; this module is the one
shared kernel they all route through.  Witnesses walk the same
common-key buckets a join probes (:func:`northwest_corner`), so the
engine's one witness construction needs no flow network.

The design is plan-based: for every ``(source schema, target schema)``
pair a projector is compiled once (an :func:`operator.itemgetter`, via
:func:`repro.core.schema.projection_plan`) and cached process-wide, and
for every ``(left schema, right schema)`` pair a :class:`JoinPlan` is
compiled once holding the key projectors, the output emitter, and the
derived common/union schemas.  Kernels then apply the plan to raw value
tuples with no schema arithmetic inside the loop.

This module deliberately sits *below* the bag/relation classes: it
imports only :mod:`repro.core.schema` and operates on plain mappings and
row iterables, so :class:`repro.core.bags.Bag`,
:class:`repro.core.relations.Relation`, and
:class:`repro.core.krelations.KRelation` can all share it without
import cycles.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Iterable, Iterator, Mapping, NamedTuple

from ..core.schema import Attribute, Schema, projection_plan

__all__ = [
    "JoinPlan",
    "join_plan",
    "marginal_table",
    "aggregate_table",
    "group_items",
    "group_rows",
    "hash_join_mults",
    "hash_join_annotations",
    "hash_join_rows",
    "iter_join_pairs",
    "northwest_corner",
    "semi_join_rows",
    "project_key_set",
]

_EXHAUSTED = (None, 0)


class JoinPlan(NamedTuple):
    """A precompiled plan for joining rows of two fixed schemas.

    ``left_key``/``right_key`` project a row of either side onto the
    common attributes; ``emit`` maps the concatenation ``lrow + rrow``
    onto the union schema's canonical layout (the duplicate common
    positions resolve to the right side, whose values are equal on a
    join match by construction).
    """

    left: Schema
    right: Schema
    common: Schema
    union: Schema
    left_key: Callable[[tuple], tuple]
    right_key: Callable[[tuple], tuple]
    emit: Callable[[tuple], tuple]


@lru_cache(maxsize=16384)
def join_plan(
    left_attrs: tuple[Attribute, ...], right_attrs: tuple[Attribute, ...]
) -> JoinPlan:
    """The cached :class:`JoinPlan` for a pair of schema layouts."""
    left = Schema(left_attrs)
    right = Schema(right_attrs)
    common = left & right
    union = left | right
    return JoinPlan(
        left=left,
        right=right,
        common=common,
        union=union,
        left_key=projection_plan(left_attrs, common.attrs),
        right_key=projection_plan(right_attrs, common.attrs),
        emit=projection_plan(left_attrs + right_attrs, union.attrs),
    )


def marginal_table(
    items: Iterable[tuple[tuple, int]],
    source_attrs: tuple[Attribute, ...],
    target_attrs: tuple[Attribute, ...],
) -> dict[tuple, int]:
    """The marginal of Equation (2) over raw ``(row, multiplicity)``
    items: sum multiplicities over rows with equal projection."""
    plan = projection_plan(source_attrs, target_attrs)
    out: dict[tuple, int] = {}
    get = out.get
    for row, mult in items:
        key = plan(row)
        out[key] = get(key, 0) + mult
    return out


def aggregate_table(
    items: Iterable[tuple[tuple, Any]],
    source_attrs: tuple[Attribute, ...],
    target_attrs: tuple[Attribute, ...],
    add: Callable[[Any, Any], Any],
) -> dict[tuple, Any]:
    """Semiring-generic marginal: like :func:`marginal_table` but values
    combine with ``add`` (used by K-relations)."""
    plan = projection_plan(source_attrs, target_attrs)
    out: dict[tuple, Any] = {}
    for row, value in items:
        key = plan(row)
        if key in out:
            out[key] = add(out[key], value)
        else:
            out[key] = value
    return out


def group_items(
    items: Iterable[tuple[tuple, Any]],
    key: Callable[[tuple], tuple],
) -> dict[tuple, list[tuple[tuple, Any]]]:
    """Bucket ``(row, value)`` items by the key projection of the row —
    the build side of every hash join."""
    buckets: dict[tuple, list[tuple[tuple, Any]]] = {}
    setdefault = buckets.setdefault
    for row, value in items:
        setdefault(key(row), []).append((row, value))
    return buckets


def group_rows(
    rows: Iterable[tuple],
    key: Callable[[tuple], tuple],
) -> dict[tuple, list[tuple]]:
    """Bucket bare rows by their key projection (set-semantics builds)."""
    buckets: dict[tuple, list[tuple]] = {}
    setdefault = buckets.setdefault
    for row in rows:
        setdefault(key(row), []).append(row)
    return buckets


def hash_join_mults(
    left_items: Iterable[tuple[tuple, int]],
    plan: JoinPlan,
    right_buckets: Mapping[tuple, list[tuple[tuple, int]]],
) -> dict[tuple, int]:
    """The bag join: probe prebuilt right-side buckets with the left
    rows; multiplicities multiply, colliding outputs add (Section 2)."""
    out: dict[tuple, int] = {}
    get_bucket = right_buckets.get
    get = out.get
    left_key, emit = plan.left_key, plan.emit
    for lrow, lmult in left_items:
        bucket = get_bucket(left_key(lrow))
        if not bucket:
            continue
        for rrow, rmult in bucket:
            joined = emit(lrow + rrow)
            out[joined] = get(joined, 0) + lmult * rmult
    return out


def hash_join_annotations(
    left_items: Iterable[tuple[tuple, Any]],
    plan: JoinPlan,
    right_buckets: Mapping[tuple, list[tuple[tuple, Any]]],
    mul: Callable[[Any, Any], Any],
    add: Callable[[Any, Any], Any],
) -> dict[tuple, Any]:
    """Semiring-generic join: annotations multiply with ``mul`` and
    colliding outputs combine with ``add`` (K-relations)."""
    out: dict[tuple, Any] = {}
    get_bucket = right_buckets.get
    left_key, emit = plan.left_key, plan.emit
    for lrow, lval in left_items:
        bucket = get_bucket(left_key(lrow))
        if not bucket:
            continue
        for rrow, rval in bucket:
            joined = emit(lrow + rrow)
            product = mul(lval, rval)
            if joined in out:
                out[joined] = add(out[joined], product)
            else:
                out[joined] = product
    return out


def hash_join_rows(
    left_rows: Iterable[tuple],
    plan: JoinPlan,
    right_buckets: Mapping[tuple, list[tuple]],
) -> set:
    """The natural join under set semantics (relation supports)."""
    out: set = set()
    get_bucket = right_buckets.get
    add = out.add
    left_key, emit = plan.left_key, plan.emit
    for lrow in left_rows:
        bucket = get_bucket(left_key(lrow))
        if not bucket:
            continue
        for rrow in bucket:
            add(emit(lrow + rrow))
    return out


def iter_join_pairs(
    left_rows: Iterable[tuple],
    plan: JoinPlan,
    right_buckets: Mapping[tuple, list],
) -> Iterator[tuple[tuple, Any]]:
    """Stream matching ``(left row, right entry)`` pairs without
    materializing the join — the network builder and the closed-form
    witness constructions consume pairs directly.

    Right entries are whatever the buckets hold: bare rows from
    :func:`group_rows` or ``(row, value)`` items from
    :func:`group_items`.
    """
    get_bucket = right_buckets.get
    left_key = plan.left_key
    for lrow in left_rows:
        bucket = get_bucket(left_key(lrow))
        if not bucket:
            continue
        for entry in bucket:
            yield lrow, entry


def northwest_corner(
    left_buckets: Mapping[tuple, list[tuple[tuple, int]]],
    right_buckets: Mapping[tuple, list[tuple[tuple, int]]],
    emit: Callable[[tuple], tuple],
) -> dict[tuple, int] | None:
    """Corollary 1's two-bag witness table by the northwest-corner rule,
    or ``None`` when the bags are inconsistent (Lemma 2(2) fails).

    Every row pair inside a common-key group is a join tuple, so walk
    both buckets in order and give each cell the smaller remaining
    multiplicity.  Each cell retires a row, so a group's cells form a
    forest: the witness is the only one on its support, hence
    inclusion-minimal, with at most ``|Supp R| + |Supp S| - #groups``
    cells (Theorem 5).  Distinct cells emit distinct union rows.
    """
    if len(left_buckets) != len(right_buckets):
        return None
    out: dict[tuple, int] = {}
    get_bucket = right_buckets.get
    for key, left in left_buckets.items():
        right = get_bucket(key)
        if right is None:
            return None
        rights = iter(right)
        rrow, rrem = _EXHAUSTED
        for lrow, lrem in left:
            while lrem:
                if not rrem:
                    rrow, rrem = next(rights, _EXHAUSTED)
                    if not rrem:
                        return None  # the left group outweighs the right
                cell = lrem if lrem < rrem else rrem
                out[emit(lrow + rrow)] = cell
                lrem -= cell
                rrem -= cell
        if rrem or next(rights, None) is not None:
            return None  # the right group outweighs the left
    return out


def semi_join_rows(
    rows: Iterable[tuple],
    key: Callable[[tuple], tuple],
    allowed: frozenset | set,
) -> list[tuple]:
    """The semijoin filter: keep rows whose key projection is allowed."""
    return [row for row in rows if key(row) in allowed]


def project_key_set(
    rows: Iterable[tuple],
    key: Callable[[tuple], tuple],
) -> set:
    """The set of key projections of the rows (a projection's support)."""
    return {key(row) for row in rows}
