#!/usr/bin/env python
"""Quickstart: two-bag consistency, witnesses, and minimal witnesses.

Reproduces the running example of Section 3 of the paper: the bags
R1(A, B) and S1(B, C) are consistent, their bag join does NOT witness
their consistency (unlike the set-semantics world), and there are
exactly two witnesses, found here by the northwest-corner construction
of Corollary 1 and the enumeration of the program P(R, S).

Run:  python examples/quickstart.py
"""

from repro import (
    Bag,
    ConsistencyProgram,
    Schema,
    are_consistent,
    bag_table,
    consistency_witness,
    is_witness,
    minimal_pairwise_witness,
)
from repro.lp import enumerate_solutions


def main() -> None:
    ab = Schema(["A", "B"])
    bc = Schema(["B", "C"])
    r = Bag.from_pairs(ab, [((1, 2), 1), ((2, 2), 1)])
    s = Bag.from_pairs(bc, [((2, 1), 1), ((2, 2), 1)])

    print("R1(A, B):")
    print(bag_table(r))
    print("\nS1(B, C):")
    print(bag_table(s))

    # Lemma 2(2): the polynomial consistency test.
    print("\nConsistent (equal marginals on B)?", are_consistent(r, s))

    # Corollary 1: a witness by the northwest-corner rule.
    witness = consistency_witness(r, s)
    print("\nA witness found by the northwest-corner rule:")
    print(bag_table(witness))
    assert is_witness([r, s], witness)

    # Section 3's observation: the bag join is NOT a witness.
    joined = r.bag_join(s)
    print("\nThe bag join R |><|b S (multiplicities multiply):")
    print(bag_table(joined))
    print("Is the bag join a witness?", is_witness([r, s], joined))

    # All witnesses, by enumerating integer solutions of P(R, S).
    program = ConsistencyProgram.build([r, s])
    solutions = enumerate_solutions(program.system)
    print(f"\nNumber of witnesses: {len(solutions)} (the paper says 2):")
    for sol in solutions:
        w = program.witness_from_solution(sol)
        print(bag_table(w))
        print()

    # Corollary 4: a minimal witness; Theorem 5 bounds its support.
    minimal = minimal_pairwise_witness(r, s)
    print("A minimal witness (Corollary 4):")
    print(bag_table(minimal))
    bound = r.support_size + s.support_size
    print(
        f"Support {minimal.support_size} <= "
        f"||R||supp + ||S||supp = {bound} (Theorem 5)"
    )


if __name__ == "__main__":
    main()
