"""Batch execution: the plain loop and the process pool agree, only
Theorem 4 search misses ship, the CLI's ``--backend`` shorthand, and
the process merge-back path."""

import multiprocessing
import os
import random

import pytest

from repro.cli import _batch_parallelism, build_parser
from repro.core.schema import Schema
from repro.engine import executors, fingerprint
from repro.engine.session import Engine
from repro.hypergraphs.families import path_hypergraph, triangle_hypergraph
from repro.server import ReproServer
from repro.workloads.generators import (
    inconsistent_pair,
    perturb_bag,
    planted_pair,
    random_collection_over,
)

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])
PARALLELISMS = (1, 2)


def pairs_workload(n=5):
    out = []
    for seed in range(n):
        _, r, s = planted_pair(AB, BC, random.Random(seed), n_tuples=5)
        out.append((r, s))
    out.append(inconsistent_pair(AB, BC, random.Random(99)))
    return out


def triangles_workload(n=4, seed=0):
    """``n`` small planted triangles (cyclic: each takes the Theorem 4
    search) plus one perturbed, pairwise-inconsistent triangle."""
    rng = random.Random(500 + seed)
    out = [
        random_collection_over(
            triangle_hypergraph(), rng, domain_size=3, n_tuples=6
        )
        for _ in range(n + 1)
    ]
    out[-1][0] = perturb_bag(out[-1][0], rng)
    return out


def paths_workload(n=4, seed=0):
    """``n`` planted paths of three bags: acyclic, so Theorem 6 folds
    them."""
    rng = random.Random(900 + seed)
    return [
        random_collection_over(path_hypergraph(4), rng, n_tuples=8)
        for _ in range(n)
    ]


def verdicts(results):
    return [result.consistent for result in results]


@pytest.fixture
def shipped(monkeypatch):
    """Every job the process batches submit, chunk by chunk, with
    the pool reaped before and after the test."""
    executors.shutdown_pools()
    chunks = []
    real_pool = executors._pool

    class Spy:
        def __init__(self, pool):
            self.pool = pool

        def submit(self, fn, chunk, *rest):
            chunks.append(list(chunk))
            return self.pool.submit(fn, chunk, *rest)

    monkeypatch.setattr(
        executors, "_pool", lambda workers: Spy(real_pool(workers))
    )
    yield chunks
    executors.shutdown_pools()


def fps_of(collection):
    return tuple(map(fingerprint.of_bag, collection))


def cli_parallelism(*argv):
    return _batch_parallelism(
        build_parser().parse_args(["batch", "jobs.json", *argv])
    )


class TestResolution:
    def test_legacy_contract(self, monkeypatch):
        """``parallelism`` alone picks: ``None`` or 1 runs the plain
        loop, N > 1 the N-worker pool for a global batch
        (``run_process_batch`` is looked up at call time, so wrapping it
        sees every process batch)."""
        calls = []

        def recording(engine, collections, workers, method="auto"):
            calls.append((len(collections), workers, method))
            return []

        monkeypatch.setattr(executors, "run_process_batch", recording)
        workload = triangles_workload(1)
        assert verdicts(Engine().global_check_many(workload)) == [
            True, False,
        ]
        assert verdicts(
            Engine().global_check_many(workload, parallelism=1)
        ) == [True, False]
        assert calls == []
        Engine().global_check_many(workload, method="search", parallelism=3)
        assert calls == [(2, 3, "search")]

    def test_explicit_backends(self):
        """``--backend`` stands for a parallelism: serial pins 1,
        process defaults to every core."""
        assert cli_parallelism() is None
        assert cli_parallelism("--parallelism", "3") == 3
        assert cli_parallelism("--backend", "serial", "--parallelism", "4") == 1
        assert cli_parallelism("--backend", "process") == (os.cpu_count() or 1)
        assert cli_parallelism("--backend", "process", "--parallelism", "2") == 2

    def test_unknown_backend_rejected(self):
        """The library takes no backend at all."""
        engine = Engine()
        for batch in (
            engine.are_consistent_many,
            engine.witness_many,
            engine.global_check_many,
        ):
            with pytest.raises(TypeError):
                batch([], backend="process")
        with pytest.raises(TypeError):
            ReproServer(backend="process")

    def test_bad_parallelism_rejected(self):
        # refused by every batch, also by those that never ship
        engine = Engine()
        for batch in (
            engine.are_consistent_many,
            engine.witness_many,
            engine.global_check_many,
        ):
            with pytest.raises(ValueError, match="parallelism"):
                batch([], parallelism=-1)

    def test_backends_tuple_is_the_cli_contract(self):
        """``batch`` and ``serve`` keep the two choices scripts pass."""
        parser = build_parser()
        for command in (["batch", "jobs.json"], ["serve", "--port", "0"]):
            for backend in ("serial", "process"):
                args = parser.parse_args([*command, "--backend", backend])
                assert args.backend == backend
            with pytest.raises(SystemExit):
                parser.parse_args([*command, "--backend", "thread"])


class TestBackendParity:
    def test_pairs_all_backends_agree(self):
        workload = pairs_workload()
        expected = Engine().are_consistent_many(workload)
        for parallelism in PARALLELISMS:
            got = Engine().are_consistent_many(workload, parallelism=parallelism)
            assert got == expected, parallelism

    def test_witnesses_all_backends_agree(self):
        workload = pairs_workload(3)
        expected = Engine().witness_many(workload)
        for parallelism in PARALLELISMS:
            got = Engine().witness_many(workload, parallelism=parallelism)
            assert got == expected, parallelism
            assert got[-1] is None  # the inconsistent pair

    def test_global_all_backends_agree(self):
        collections = [
            [bag for bag in planted_pair(
                AB, BC, random.Random(seed), n_tuples=5)[1:]]
            for seed in range(4)
        ]
        expected = [
            r.consistent for r in Engine().global_check_many(collections)
        ]
        for parallelism in PARALLELISMS:
            got = [
                r.consistent
                for r in Engine().global_check_many(
                    collections, parallelism=parallelism
                )
            ]
            assert got == expected, parallelism


class TestProcessMerge:
    def test_worker_deltas_land_in_the_parent_store(self):
        workload = triangles_workload(4)
        engine = Engine()
        engine.global_check_many(workload, parallelism=2)
        assert engine.store.merged >= len(workload)
        # the replay after the merge must be pure hits
        before = engine.store.hits
        engine.global_check_many(workload)
        assert engine.store.hits >= before + len(workload)

    def test_cached_jobs_are_not_reshipped(self, shipped):
        workload = triangles_workload(3)
        engine = Engine()
        engine.global_check_many(workload)  # warm locally
        merged_before = engine.store.merged
        engine.global_check_many(workload, parallelism=2)
        assert engine.store.merged == merged_before  # nothing shipped
        assert shipped == []

    def test_duplicate_jobs_shipped_once(self, shipped):
        collection = triangles_workload(1)[0]
        engine = Engine()
        results = engine.global_check_many([collection] * 6, parallelism=2)
        assert verdicts(results) == [True] * 6
        assert shipped == [[fps_of(collection)]]

    def test_global_results_survive_the_pickle_round_trip(self, shipped):
        from repro.consistency.witness import is_witness

        collection = triangles_workload(1)[0]
        engine = Engine()
        (result,) = engine.global_check_many([collection], parallelism=2)
        assert shipped == [[fps_of(collection)]]
        assert result.consistent and result.method == "search"
        assert result.witness is not None
        assert is_witness(collection, result.witness)

    @pytest.mark.parametrize("method", ["auto", "search"])
    def test_prefilter_probes_the_keys_a_local_replay_fills(
        self, method, shipped
    ):
        """The pre-filter keeps a job off the wire only if its key is the
        one the session stores the answer under."""
        collection = triangles_workload(1)[0]
        engine = Engine()
        engine.global_check(collection, method=method)
        engine.global_check_many([collection], method=method, parallelism=2)
        assert shipped == []


class TestDispatch:
    """Only the exponential part ships: at ``parallelism=2`` pair
    checks, witnesses and Theorem 6 folds run in the calling thread;
    collections that take the Theorem 4 search go to the pool."""

    def test_pair_witness_and_acyclic_batches_start_no_worker(self, shipped):
        pairs = pairs_workload(4)
        paths = paths_workload(4)
        serial = Engine()
        expected = (
            serial.are_consistent_many(pairs),
            serial.witness_many(pairs),
            serial.global_check_many(paths),
        )
        engine = Engine()
        got = (
            engine.are_consistent_many(pairs, parallelism=2),
            engine.witness_many(pairs, parallelism=2),
            engine.global_check_many(paths, parallelism=2),
        )
        assert got == expected
        assert {result.method for result in got[2]} == {"acyclic"}
        assert got[1][-1] is None  # the inconsistent pair
        assert shipped == []
        assert multiprocessing.active_children() == []
        assert engine.store.merged == 0

    def test_method_acyclic_starts_no_worker(self, shipped):
        paths = paths_workload(3, seed=2)
        got = Engine().global_check_many(
            paths, method="acyclic", parallelism=2
        )
        assert got == Engine().global_check_many(paths, method="acyclic")
        assert shipped == []
        assert multiprocessing.active_children() == []

    def test_a_cyclic_batch_ships(self, shipped):
        triangles = triangles_workload(3, seed=3)
        got = Engine().global_check_many(triangles, parallelism=2)
        assert got == Engine().global_check_many(triangles)
        assert sorted(fps for chunk in shipped for fps in chunk) == sorted(
            map(fps_of, triangles)
        )
        assert len(multiprocessing.active_children()) == 2

    def test_search_over_an_acyclic_schema_ships(self, shipped):
        paths = paths_workload(3, seed=4)
        got = Engine().global_check_many(
            paths, method="search", parallelism=2
        )
        assert got == Engine().global_check_many(paths, method="search")
        assert {result.method for result in got} == {"search"}
        assert sorted(fps for chunk in shipped for fps in chunk) == sorted(
            map(fps_of, paths)
        )

    def test_a_mixed_batch_ships_only_its_search_misses(self, shipped):
        triangles = triangles_workload(2, seed=5)
        paths = paths_workload(3, seed=5)
        mixed = [
            paths[0], triangles[0], paths[1], triangles[1], paths[2],
            triangles[2],
        ]
        engine = Engine()
        got = engine.global_check_many(mixed, parallelism=2)
        assert got == Engine().global_check_many(mixed)
        assert [result.method for result in got] == [
            "acyclic", "search", "acyclic", "search", "acyclic", "pairwise",
        ]
        assert sorted(fps for chunk in shipped for fps in chunk) == sorted(
            map(fps_of, triangles)
        )
