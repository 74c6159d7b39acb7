"""The consistency programs P(R, S) and P(R1, ..., Rm).

Equation (3) of the paper associates with two bags a linear program over
variables x_t indexed by the join ``J = R' |><| S'`` of the supports; for
each support tuple of each bag there is one equation forcing the
marginal.  Equation (14) generalizes this to m bags.  Integer solutions
of P(R1, ..., Rm) are in 1-to-1 correspondence with the bags witnessing
global consistency (Theorem 3's proof), which is the bridge every solver
in this package crosses.

:class:`ConsistencyProgram` materializes the program sparsely (each
variable knows its constraint rows) and converts in both directions
between solution vectors and witness bags.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from ..core.bags import Bag
from ..core.relations import join_all
from ..core.schema import Schema, project_values
from ..engine.index import BagIndex, row_key
from ..errors import SchemaError
from ..lp.integer_feasibility import ZeroOneSystem


@dataclass(frozen=True)
class ConsistencyProgram:
    """P(R1, ..., Rm) in sparse form.

    ``join_rows`` lists the tuples of ``J = R1' |><| ... |><| Rm'`` (raw
    value tuples over the union schema, in the canonical row order of
    :func:`repro.engine.index.row_key`); variable
    j corresponds to ``join_rows[j]``.  ``constraint_labels[i]`` records
    which (bag index, support row) the i-th constraint encodes, and
    ``system`` is the 0/1 equation system ``Ax = b``.
    """

    bags: tuple[Bag, ...]
    union_schema: Schema
    join_rows: tuple[tuple, ...]
    constraint_labels: tuple[tuple[int, tuple], ...]
    system: ZeroOneSystem

    @classmethod
    def build(cls, bags: Sequence[Bag]) -> "ConsistencyProgram":
        bags = tuple(bags)
        if not bags:
            raise SchemaError("a consistency program needs at least one bag")
        union = bags[0].schema
        for bag in bags[1:]:
            union = union | bag.schema
        join = join_all([bag.support() for bag in bags])
        join_rows = tuple(sorted(join.rows, key=row_key))
        # One constraint per (bag, support row), in canonical row order.
        constraint_index: dict[tuple[int, tuple], int] = {}
        labels: list[tuple[int, tuple]] = []
        rhs: list[int] = []
        for i, bag in enumerate(bags):
            for row in BagIndex.of(bag).sorted_rows():
                constraint_index[(i, row)] = len(labels)
                labels.append((i, row))
                rhs.append(bag.multiplicity(row))
        var_constraints: list[tuple[int, ...]] = []
        for t in join_rows:
            touched = []
            for i, bag in enumerate(bags):
                r = project_values(t, union, bag.schema)
                touched.append(constraint_index[(i, r)])
            var_constraints.append(tuple(touched))
        system = ZeroOneSystem(
            n_vars=len(join_rows),
            var_constraints=tuple(var_constraints),
            rhs=tuple(rhs),
        )
        return cls(
            bags=bags,
            union_schema=union,
            join_rows=join_rows,
            constraint_labels=tuple(labels),
            system=system,
        )

    # -- conversions -------------------------------------------------------

    def witness_from_solution(self, solution: Sequence[int]) -> Bag:
        """The witness bag encoded by an integer solution vector."""
        if len(solution) != len(self.join_rows):
            raise ValueError("solution vector has wrong length")
        return Bag(
            self.union_schema,
            {
                row: value
                for row, value in zip(self.join_rows, solution)
                if value
            },
        )

    def solution_from_witness(self, witness: Bag) -> list[int]:
        """The solution vector of a witness bag.

        Requires the witness support to lie inside the join of supports
        (Lemma 1 guarantees this for genuine witnesses).
        """
        if witness.schema != self.union_schema:
            raise SchemaError(
                f"witness schema {witness.schema!r} differs from program "
                f"schema {self.union_schema!r}"
            )
        index = {row: j for j, row in enumerate(self.join_rows)}
        solution = [0] * len(self.join_rows)
        for row, mult in witness.items():
            if row not in index:
                raise SchemaError(
                    f"witness tuple {row!r} lies outside the join of "
                    f"supports (violates Lemma 1)"
                )
            solution[index[row]] = mult
        return solution

    # -- dense views ---------------------------------------------------------

    def dense_matrix(self) -> list[list[Fraction]]:
        """The constraint matrix A as dense rows of Fractions."""
        n_cons = len(self.constraint_labels)
        rows = [
            [Fraction(0)] * len(self.join_rows) for _ in range(n_cons)
        ]
        for j, touched in enumerate(self.system.var_constraints):
            for c in touched:
                rows[c][j] = Fraction(1)
        return rows

    def dense_rhs(self) -> list[Fraction]:
        return [Fraction(b) for b in self.system.rhs]

    def bipartite_split(self) -> int | None:
        """For two-bag programs, the row index separating the two
        constraint groups (Section 3's total-unimodularity argument);
        None when the program has more than two bags."""
        if len(self.bags) != 2:
            return None
        return sum(1 for i, _ in self.constraint_labels if i == 0)
