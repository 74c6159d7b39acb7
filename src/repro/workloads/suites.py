"""Named instance suites: a registry of the workload families.

Benchmarks, examples, and external users reference instance families by
name + size instead of copy-pasting construction code.  Each suite knows
its expected answer (consistent / inconsistent / depends), so harnesses
can assert correctness alongside timing.

    >>> suite = get_suite("tseitin-cycle")
    >>> bags = suite.build(4, seed=0)
    >>> suite.expected
    'inconsistent'
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Literal, Sequence

from ..core.bags import Bag
from ..hypergraphs.families import (
    cycle_hypergraph,
    hn_hypergraph,
    path_hypergraph,
    triangle_hypergraph,
)

Expected = Literal["consistent", "inconsistent", "depends"]


@dataclass(frozen=True)
class InstanceSuite:
    """A named family of GCPB instances.

    ``build(size, seed)`` returns a collection of bags; ``expected``
    states the global-consistency answer for every member ("depends"
    when it varies by seed/size).
    """

    name: str
    description: str
    expected: Expected
    schema_kind: Literal["acyclic", "cyclic"]
    min_size: int
    builder: Callable[[int, int], list[Bag]]

    def build(self, size: int, seed: int = 0) -> list[Bag]:
        if size < self.min_size:
            raise ValueError(
                f"suite {self.name!r} needs size >= {self.min_size}"
            )
        return self.builder(size, seed)


def _planted_path(size: int, seed: int) -> list[Bag]:
    from .generators import random_collection_over

    return random_collection_over(
        path_hypergraph(size + 1), random.Random(seed), n_tuples=5
    )


def _planted_triangle(size: int, seed: int) -> list[Bag]:
    from .generators import random_collection_over

    return random_collection_over(
        triangle_hypergraph(), random.Random(seed),
        domain_size=size, n_tuples=size * size,
    )


def _planted_star(size: int, seed: int) -> list[Bag]:
    from ..hypergraphs.families import star_hypergraph
    from .generators import random_collection_over

    return random_collection_over(
        star_hypergraph(size), random.Random(seed), n_tuples=5
    )


def _tseitin_cycle(size: int, seed: int) -> list[Bag]:
    from ..consistency.local_global import tseitin_collection

    return tseitin_collection(list(cycle_hypergraph(size).edges))


def _tseitin_hn(size: int, seed: int) -> list[Bag]:
    from ..consistency.local_global import tseitin_collection

    return tseitin_collection(list(hn_hypergraph(size).edges))


def _example1(size: int, seed: int) -> list[Bag]:
    from .generators import example1_instance

    return example1_instance(size)[0]


def _witness_family(size: int, seed: int) -> list[Bag]:
    from .generators import witness_family_pair

    return list(witness_family_pair(size))


def _planted_wide(size: int, seed: int) -> list[Bag]:
    from .generators import wide_planted_collection

    _, bags = wide_planted_collection(
        random.Random(seed),
        n_bags=3,
        width=size + 2,
        overlap=2,
        n_rows=16 * size,
        domain_size=1 << 16,
    )
    return bags


def _perturbed_path(size: int, seed: int) -> list[Bag]:
    from .generators import perturb_bag, random_collection_over

    rng = random.Random(seed)
    bags = random_collection_over(
        path_hypergraph(size + 1), rng, n_tuples=5
    )
    victim = rng.randrange(len(bags))
    bags[victim] = perturb_bag(bags[victim], rng)
    return bags


_SUITES: dict[str, InstanceSuite] = {}


def _register(suite: InstanceSuite) -> None:
    _SUITES[suite.name] = suite


_register(InstanceSuite(
    name="planted-path",
    description="Marginals of a hidden witness over the path P_{n+1}; "
                "globally consistent by construction.",
    expected="consistent",
    schema_kind="acyclic",
    min_size=2,
    builder=_planted_path,
))
_register(InstanceSuite(
    name="planted-triangle",
    description="Marginals of a hidden witness over the triangle with "
                "domain size n; consistent but on a cyclic schema.",
    expected="consistent",
    schema_kind="cyclic",
    min_size=2,
    builder=_planted_triangle,
))
_register(InstanceSuite(
    name="planted-star",
    description="Marginals of a hidden witness over the star {Hub, A_i}; "
                "globally consistent, acyclic with a wide-fan, depth-2 "
                "join tree.",
    expected="consistent",
    schema_kind="acyclic",
    min_size=1,
    builder=_planted_star,
))
_register(InstanceSuite(
    name="tseitin-cycle",
    description="The Theorem 2 counterexample over C_n: pairwise "
                "consistent, globally inconsistent.",
    expected="inconsistent",
    schema_kind="cyclic",
    min_size=3,
    builder=_tseitin_cycle,
))
_register(InstanceSuite(
    name="tseitin-hn",
    description="The Theorem 2 counterexample over H_n.",
    expected="inconsistent",
    schema_kind="cyclic",
    min_size=3,
    builder=_tseitin_hn,
))
_register(InstanceSuite(
    name="example1",
    description="Example 1: path bags with multiplicity 2^n; "
                "consistent, join witness exponential.",
    expected="consistent",
    schema_kind="acyclic",
    min_size=2,
    builder=_example1,
))
_register(InstanceSuite(
    name="witness-family",
    description="Section 3's R_{n-1}, S_{n-1}: consistent with exactly "
                "2^(n-1) witnesses.",
    expected="consistent",
    schema_kind="acyclic",
    min_size=2,
    builder=_witness_family,
))
_register(InstanceSuite(
    name="planted-wide",
    description="Marginals of a hidden witness over wide sliding-window "
                "schemas with a high-cardinality domain — many "
                "attributes, many distinct values, few repeated "
                "keys; consistent, acyclic.",
    expected="consistent",
    schema_kind="acyclic",
    min_size=1,
    builder=_planted_wide,
))
_register(InstanceSuite(
    name="perturbed-path",
    description="A planted path collection with one bumped "
                "multiplicity; pairwise inconsistent.",
    expected="inconsistent",
    schema_kind="acyclic",
    min_size=2,
    builder=_perturbed_path,
))


@dataclass(frozen=True)
class SuiteRunResult:
    """One engine-routed suite evaluation: the decision, the method the
    Theorem 4 dispatch picked, and whether it matched ``expected``."""

    suite: str
    size: int
    seed: int
    consistent: bool
    method: str
    ok: bool

    def as_dict(self) -> dict:
        return {
            "suite": self.suite,
            "size": self.size,
            "seed": self.seed,
            "consistent": self.consistent,
            "method": self.method,
            "ok": self.ok,
        }


def run_suites(
    specs: Sequence[tuple[str, int, int]],
    engine=None,
    method: str = "auto",
    parallelism: int | None = None,
) -> list[SuiteRunResult]:
    """Evaluate ``(name, size, seed)`` specs through one shared
    :class:`repro.engine.Engine`.

    This is the batched-serving entry point for workload replay: all
    specs share the engine's marginal/pairwise caches, so sweeping a
    suite across seeds or re-running a spec costs one decision, not
    many.  ``parallelism`` > 1 fans the decisions over that many worker
    processes (:mod:`repro.engine.executors`; for CPU-bound sweeps) and
    ``None`` or 1 runs them in a plain loop.  The engine keeps its
    recent specs built (:meth:`Engine.instance`), so a duplicate or
    replayed spec rebuilds nothing and shares one cache entry.
    ``ok`` records agreement with the suite's expected answer (always
    true for ``expected="depends"``).
    """
    if engine is None:
        from ..engine.session import Engine

        engine = Engine()
    spec_list = [(name, size, seed) for name, size, seed in specs]
    collections = [
        engine.instance(spec, partial(get_suite(spec[0]).build, *spec[1:]))
        for spec in spec_list
    ]
    outcomes = engine.global_check_many(
        collections,
        method=method,
        parallelism=parallelism,
    )
    results = []
    for (name, size, seed), outcome in zip(spec_list, outcomes):
        suite = get_suite(name)
        ok = (
            suite.expected == "depends"
            or outcome.consistent == (suite.expected == "consistent")
        )
        results.append(
            SuiteRunResult(
                suite=name,
                size=size,
                seed=seed,
                consistent=outcome.consistent,
                method=outcome.method,
                ok=ok,
            )
        )
    return results


def repeated_stream(
    specs: Sequence[tuple[str, int, int]], rounds: int
) -> list[tuple[str, int, int]]:
    """``specs`` replayed ``rounds`` times, round-robin — the
    repeat-heavy serving pattern (the same audits re-checked after
    every sync) that the engine's verdict store, and the persistent
    store across restarts, amortize to one computation per distinct
    spec.  Benchmarks and the serve smoke jobs build their traffic
    with this instead of hand-rolled loops."""
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    return [tuple(spec) for _ in range(rounds) for spec in specs]


def get_suite(name: str) -> InstanceSuite:
    """Look up a suite by name; raises KeyError with the catalogue."""
    try:
        return _SUITES[name]
    except KeyError:
        raise KeyError(
            f"unknown suite {name!r}; available: {sorted(_SUITES)}"
        ) from None


def list_suites() -> list[InstanceSuite]:
    return [_SUITES[name] for name in sorted(_SUITES)]
