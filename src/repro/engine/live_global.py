"""The delta repair behind the live global witness.

:meth:`repro.engine.live.LiveEngine.global_check` keeps one Theorem 6
witness per acyclic handle set.  After updates it does not re-run the
fold: it hands the held witness and each bag's sparse delta to
:func:`repair_fold_witness`, which replays the deltas as marginal
"needs" and patches witness rows (removals matched through a
projection index, additions assembled by unifying one needed cell per
bag on the overlapping attributes) until every need is zero.  The
patched bag's marginals then equal the new bags *exactly* — by
construction, not by re-verification.  Ties between cells and rows
break in the canonical row order (:func:`repro.engine.index.row_key`),
never in dict order.  When the greedy patch cannot close the needs, or
the delta is too large (``limit``), the repair gives up and the engine
re-folds cold.

Pure functions over plain dicts: nothing here holds state or locks.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..core.schema import projection_plan
from .index import row_key

__all__ = ["repair_fold_witness"]

_UNSET = object()

# Ceiling on repair work: more positive/negative cells than this (or
# more patch rounds) means the delta is no longer "small" and a cold
# re-fold is the honest move.
DEFAULT_REPAIR_LIMIT = 64


def repair_fold_witness(
    mults: dict,
    union_attrs: tuple,
    inputs: Sequence[tuple[tuple, dict]],
    limit: int = DEFAULT_REPAIR_LIMIT,
) -> dict | None:
    """Patch a witness so its marginals track input deltas.

    ``mults`` is the old witness (row -> multiplicity, not mutated);
    ``inputs`` lists ``(input_attrs, delta)`` pairs where ``delta`` is
    the sparse signed change of that input's multiplicity map.  The old
    witness's marginal on each input schema equals the input's *old*
    state, so after the patch the marginals equal the *new* states
    exactly iff every residual "need" reaches zero — which is the
    success criterion, maintained cell-by-cell, not re-verified by a
    scan.

    Returns the patched multiplicity map, or ``None`` when the greedy
    patch cannot close the needs within ``limit`` rounds (the caller
    falls back to a cold fold).  Removals only ever decrease existing
    multiplicities, so the result is nonnegative by construction.
    """
    plans = [projection_plan(union_attrs, attrs) for attrs, _ in inputs]
    needs: list[dict] = [
        {cell: amount for cell, amount in delta.items() if amount}
        for _, delta in inputs
    ]
    if sum(len(need) for need in needs) > limit:
        return None
    work = dict(mults)
    # cell -> live witness rows projecting to it, per input; built
    # lazily on the first removal (insert-only streams never pay it).
    row_index: list[dict | None] = [None for _ in inputs]

    def apply_row(row: tuple, amount: int) -> None:
        work[row] = work.get(row, 0) + amount
        if work[row] == 0:
            del work[row]
        for i, plan in enumerate(plans):
            cell = plan(row)
            need = needs[i]
            need[cell] = need.get(cell, 0) - amount
            if need[cell] == 0:
                del need[cell]
            index = row_index[i]
            if index is not None:
                bucket = index.setdefault(cell, set())
                if row in work:
                    bucket.add(row)
                else:
                    bucket.discard(row)

    def index_for(i: int) -> dict:
        index = row_index[i]
        if index is None:
            index = {}
            plan = plans[i]
            for row in work:
                index.setdefault(plan(row), set()).add(row)
            row_index[i] = index
        return index

    for _ in range(limit):
        deficit_at = None
        for i, need in enumerate(needs):
            negative = [cell for cell, amount in need.items() if amount < 0]
            if negative:
                deficit_at = (i, min(negative, key=row_key))
                break
        if deficit_at is not None:
            i, cell = deficit_at
            deficit = -needs[i][cell]
            candidates = sorted(
                (row for row in index_for(i).get(cell, ()) if row in work),
                key=row_key,
            )
            if not candidates:
                return None  # bookkeeping says impossible; re-fold
            # Prefer rows whose other projections also sit at cells
            # needing removal — they settle several inputs at once.
            row = max(
                candidates[:32],
                key=lambda r: sum(
                    1
                    for j, plan in enumerate(plans)
                    if needs[j].get(plan(r), 0) < 0
                ),
            )
            apply_row(row, -min(work[row], deficit))
            continue
        seeds = [
            i
            for i, need in enumerate(needs)
            if any(amount > 0 for amount in need.values())
        ]
        if not seeds:
            return work  # every need closed: marginals exact
        row = _assemble_row(union_attrs, inputs, plans, needs, seeds[0])
        if row is None:
            return None
        amount = min(
            needs[i][plans[i](row)]
            for i in range(len(inputs))
            if needs[i].get(plans[i](row), 0) > 0
        )
        apply_row(row, amount)
    return None  # round budget exhausted: the delta was not small


def _assemble_row(
    union_attrs: tuple,
    inputs: Sequence[tuple[tuple, dict]],
    plans: Sequence[Callable],
    needs: Sequence[dict],
    seed: int,
) -> tuple | None:
    """Unify one needed cell per input into a full witness row.

    Starts from an input that still has a positive need (``seed``),
    then extends attribute-by-attribute: each later input contributes a
    positive-need cell compatible with the values fixed so far, or —
    when the fixed values already determine its whole cell — that
    forced projection (driving its need negative, which the removal
    phase then settles).  Returns ``None`` when no compatible choice
    exists; the caller falls back to a cold fold.
    """
    positions = [
        tuple(union_attrs.index(attr) for attr in attrs)
        for attrs, _ in inputs
    ]
    values: list = [_UNSET] * len(union_attrs)
    order = [seed] + [i for i in range(len(inputs)) if i != seed]
    for i in order:
        pos = positions[i]
        compatible = [
            cell
            for cell, amount in needs[i].items()
            if amount > 0
            and all(
                values[p] is _UNSET or values[p] == v
                for p, v in zip(pos, cell)
            )
        ]
        if compatible:
            cell = min(compatible, key=row_key)
        elif all(values[p] is not _UNSET for p in pos):
            cell = tuple(values[p] for p in pos)
        else:
            return None
        for p, v in zip(pos, cell):
            values[p] = v
    if any(v is _UNSET for v in values):
        return None  # inputs do not cover the union schema (cannot
        # happen for a global witness; defensive for direct callers)
    return tuple(values)
