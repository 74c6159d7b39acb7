"""Batch execution: the plain loop and the process pool agree, the
CLI's ``--backend`` shorthand, and the process merge-back path."""

import os
import random

import pytest

from repro.cli import _batch_parallelism, build_parser
from repro.core.schema import Schema
from repro.engine import executors, fingerprint
from repro.engine.session import Engine
from repro.server import ReproServer
from repro.workloads.generators import inconsistent_pair, planted_pair

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


def cli_parallelism(*argv):
    return _batch_parallelism(
        build_parser().parse_args(["batch", "jobs.json", *argv])
    )


class TestResolution:
    def test_legacy_contract(self, monkeypatch):
        """``parallelism`` alone picks: ``None`` or 1 runs the plain
        loop, N > 1 the N-worker pool (``run_process_batch`` is looked
        up at call time, so wrapping it sees every process batch)."""
        calls = []

        def recording(engine, kind, items, workers, method="auto"):
            calls.append((kind, workers))
            return []

        monkeypatch.setattr(executors, "run_process_batch", recording)
        workload = pairs_workload(1)
        assert Engine().are_consistent_many(workload) == [True, False]
        assert Engine().are_consistent_many(workload, parallelism=1) == [
            True, False,
        ]
        assert calls == []
        Engine().witness_many(workload, parallelism=3)
        assert calls == [("witness", 3)]

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
        with pytest.raises(ValueError, match="parallelism"):
            Engine().global_check_many([], parallelism=-1)

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
        workload = pairs_workload(4)
        engine = Engine()
        engine.are_consistent_many(workload, parallelism=2)
        assert engine.store.merged >= len(workload)
        # the replay after the merge must be pure hits
        before = engine.store.hits
        engine.are_consistent_many(workload)
        assert engine.store.hits >= before + len(workload)

    def test_cached_jobs_are_not_reshipped(self):
        workload = pairs_workload(3)
        engine = Engine()
        engine.are_consistent_many(workload)  # warm locally
        merged_before = engine.store.merged
        engine.are_consistent_many(workload, parallelism=2)
        assert engine.store.merged == merged_before  # nothing shipped

    def test_duplicate_jobs_shipped_once(self):
        pair = pairs_workload(1)[0]
        engine = Engine()
        verdicts = engine.are_consistent_many(
            [pair] * 6, parallelism=2
        )
        assert verdicts == [True] * 6
        assert len(engine) == 1

    def test_global_results_survive_the_pickle_round_trip(self):
        from repro.consistency.witness import is_witness

        _, r, s = planted_pair(AB, BC, random.Random(7), n_tuples=5)
        engine = Engine()
        (result,) = engine.global_check_many(
            [[r, s]], parallelism=2
        )
        assert result.consistent
        assert result.witness is not None
        assert is_witness([r, s], result.witness)

    @pytest.mark.parametrize("kind", ["consistent", "witness", "global"])
    def test_prefilter_probes_the_keys_a_local_replay_fills(self, kind):
        """The pre-filter keeps a job off the wire only if its key is the
        one the session stores the answer under."""
        r, s = pairs_workload(1)[0]
        engine = Engine()
        if kind == "consistent":
            engine.are_consistent(s, r)  # either orientation answers it
        elif kind == "witness":
            engine.witness(r, s)
        else:
            engine.global_check([r, s])
        fps = (fingerprint.of_bag(r), fingerprint.of_bag(s))
        jobs = [fps, fps[::-1]] if kind == "consistent" else [fps]
        for frozen in jobs:
            key = executors._job_key(kind, frozen, "auto")
            assert engine.store.contains(key)
