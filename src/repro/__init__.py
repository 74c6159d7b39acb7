"""repro — a reproduction of *Structure and Complexity of Bag Consistency*
(Atserias & Kolaitis, PODS 2021).

The package implements, from scratch, the paper's full pipeline:

* bags (multiset relations), marginals, bag joins (:mod:`repro.core`);
* the execution engine: shared projection/join kernels, cached per-bag
  indexes, and the memoizing batched :class:`Engine` facade
  (:mod:`repro.engine`);
* hypergraph acyclicity, join trees, chordality/conformality, and the
  Lemma 3 obstruction machinery (:mod:`repro.hypergraphs`);
* integral max-flow and exact rational LP/ILP substrates
  (:mod:`repro.flows`, :mod:`repro.lp`);
* the consistency layer — Lemma 2's five equivalent deciders for two
  bags, the GCPB solvers with the Theorem 4 dichotomy, Theorem 6 witness
  construction, and the Theorem 2 local-to-global machinery with its
  Tseitin-style counterexamples (:mod:`repro.consistency`);
* the NP-hardness reductions (3-coloring, 3DCT, the C_n and H_n chains)
  (:mod:`repro.reductions`);
* workload generators and paper example families (:mod:`repro.workloads`).

Quick taste::

    >>> from repro import Bag, Schema, are_consistent, consistency_witness
    >>> R = Bag.from_pairs(Schema(["A", "B"]), [((1, 2), 1), ((2, 2), 1)])
    >>> S = Bag.from_pairs(Schema(["B", "C"]), [((2, 1), 1), ((2, 2), 1)])
    >>> are_consistent(R, S)
    True
    >>> consistency_witness(R, S).schema
    Schema(['A', 'B', 'C'])
"""

from .consistency import (
    ConsistencyProgram,
    acyclic_global_witness,
    are_consistent,
    bfmy_counterexample,
    check_theorem3_bounds,
    check_theorem5_bound,
    consistency_witness,
    counterexample_for_cyclic,
    decide_global_consistency,
    find_local_to_global_counterexample,
    global_witness,
    has_local_to_global_property_for_bags,
    is_witness,
    k_wise_consistent,
    minimal_pairwise_witness,
    minimize_witness,
    pairwise_consistent,
    rational_witness,
    relations_consistent,
    relations_globally_consistent,
    relations_pairwise_consistent,
    tseitin_collection,
    universal_relation,
    verify_counterexample,
)
from .core import (
    Bag,
    KRelation,
    Relation,
    Schema,
    Tup,
    bag_join_all,
    join_all,
    schema,
)
from .display import bag_table, collection_summary, relation_table
from .engine.session import Engine, EngineStats
from .errors import (
    AcyclicSchemaError,
    CyclicSchemaError,
    InconsistentError,
    MultiplicityError,
    NotRegularError,
    ReductionError,
    ReproError,
    SchemaError,
    SearchLimitExceeded,
    SolverError,
)
from .hypergraphs import (
    Hypergraph,
    cycle_hypergraph,
    hn_hypergraph,
    hypergraph_of_bags,
    is_acyclic,
    join_tree,
    path_hypergraph,
    running_intersection_order,
    triangle_hypergraph,
)

__version__ = "1.0.0"

__all__ = [
    "AcyclicSchemaError",
    "Bag",
    "ConsistencyProgram",
    "CyclicSchemaError",
    "Engine",
    "EngineStats",
    "Hypergraph",
    "InconsistentError",
    "KRelation",
    "MultiplicityError",
    "NotRegularError",
    "ReductionError",
    "Relation",
    "ReproError",
    "Schema",
    "SchemaError",
    "SearchLimitExceeded",
    "SolverError",
    "Tup",
    "acyclic_global_witness",
    "are_consistent",
    "bag_join_all",
    "bag_table",
    "bfmy_counterexample",
    "check_theorem3_bounds",
    "check_theorem5_bound",
    "collection_summary",
    "consistency_witness",
    "counterexample_for_cyclic",
    "cycle_hypergraph",
    "decide_global_consistency",
    "find_local_to_global_counterexample",
    "global_witness",
    "has_local_to_global_property_for_bags",
    "hn_hypergraph",
    "hypergraph_of_bags",
    "is_acyclic",
    "is_witness",
    "join_all",
    "join_tree",
    "k_wise_consistent",
    "minimal_pairwise_witness",
    "minimize_witness",
    "pairwise_consistent",
    "path_hypergraph",
    "rational_witness",
    "relation_table",
    "relations_consistent",
    "relations_globally_consistent",
    "relations_pairwise_consistent",
    "running_intersection_order",
    "schema",
    "triangle_hypergraph",
    "tseitin_collection",
    "universal_relation",
    "verify_counterexample",
]
