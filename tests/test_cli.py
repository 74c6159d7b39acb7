"""CLI tests: every subcommand, through main()."""

import json

import pytest

from repro.cli import main
from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.hypergraphs.families import path_hypergraph, triangle_hypergraph
from repro.io import (
    bag_from_json,
    bag_to_json,
    collection_from_json,
    collection_to_json,
    hypergraph_to_json,
)

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])


@pytest.fixture
def pair_files(tmp_path):
    r = Bag.from_pairs(AB, [((1, 2), 1), ((2, 2), 1)])
    s = Bag.from_pairs(BC, [((2, 1), 1), ((2, 2), 1)])
    rp = tmp_path / "r.json"
    sp = tmp_path / "s.json"
    rp.write_text(bag_to_json(r))
    sp.write_text(bag_to_json(s))
    return rp, sp, r, s


class TestCheckPair:
    def test_consistent_exit_zero(self, pair_files, capsys):
        rp, sp, _, _ = pair_files
        assert main(["check-pair", str(rp), str(sp)]) == 0
        assert "consistent" in capsys.readouterr().out

    def test_inconsistent_exit_one(self, tmp_path, pair_files, capsys):
        rp, _, _, s = pair_files
        bad = tmp_path / "bad.json"
        bad.write_text(bag_to_json(s + s))
        assert main(["check-pair", str(rp), str(bad)]) == 1

    def test_missing_file_exit_two(self, pair_files):
        rp, _, _, _ = pair_files
        assert main(["check-pair", str(rp), "/nonexistent.json"]) == 2


class TestWitness:
    def test_witness_to_stdout(self, pair_files, capsys):
        rp, sp, r, s = pair_files
        assert main(["witness", str(rp), str(sp)]) == 0
        out = capsys.readouterr().out
        assert "#" in out  # table header

    def test_witness_to_file(self, tmp_path, pair_files):
        rp, sp, r, s = pair_files
        out = tmp_path / "w.json"
        assert main(["witness", str(rp), str(sp), "-o", str(out)]) == 0
        witness = bag_from_json(out.read_text())
        from repro.consistency.witness import is_witness

        assert is_witness([r, s], witness)

    def test_minimal_flag(self, tmp_path, pair_files):
        rp, sp, r, s = pair_files
        out = tmp_path / "w.json"
        assert main(
            ["witness", str(rp), str(sp), "--minimal", "-o", str(out)]
        ) == 0
        witness = bag_from_json(out.read_text())
        assert witness.support_size <= r.support_size + s.support_size

    def test_inconsistent_exit_one(self, tmp_path, pair_files):
        rp, _, _, s = pair_files
        bad = tmp_path / "bad.json"
        bad.write_text(bag_to_json(s + s))
        assert main(["witness", str(rp), str(bad)]) == 1


class TestGlobalCheck:
    def test_acyclic_collection(self, tmp_path, rng, capsys):
        from repro.workloads.generators import planted_collection

        _, bags = planted_collection([AB, BC], rng, n_tuples=3)
        path = tmp_path / "coll.json"
        path.write_text(collection_to_json(bags))
        assert main(["global-check", str(path)]) == 0
        out = capsys.readouterr().out
        assert "globally consistent" in out
        assert "method: acyclic" in out

    def test_tseitin_collection_fails(self, tmp_path, capsys):
        from repro.consistency.local_global import tseitin_collection

        bags = tseitin_collection(list(triangle_hypergraph().edges))
        path = tmp_path / "coll.json"
        path.write_text(collection_to_json(bags))
        assert main(["global-check", str(path)]) == 1
        assert "globally inconsistent" in capsys.readouterr().out

    def test_witness_output_file(self, tmp_path, rng):
        from repro.consistency.witness import is_witness
        from repro.workloads.generators import planted_collection

        _, bags = planted_collection([AB, BC], rng, n_tuples=3)
        coll = tmp_path / "coll.json"
        out = tmp_path / "w.json"
        coll.write_text(collection_to_json(bags))
        assert main(["global-check", str(coll), "-o", str(out)]) == 0
        assert is_witness(bags, bag_from_json(out.read_text()))


class TestAuditSchema:
    def test_acyclic_schema(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text(hypergraph_to_json(path_hypergraph(4)))
        assert main(["audit-schema", str(path)]) == 0
        assert "acyclic" in capsys.readouterr().out

    def test_cyclic_schema_with_counterexample(self, tmp_path, capsys):
        from repro.consistency.local_global import verify_counterexample

        path = tmp_path / "h.json"
        out = tmp_path / "cex.json"
        path.write_text(hypergraph_to_json(triangle_hypergraph()))
        assert main(
            ["audit-schema", str(path), "--counterexample", str(out)]
        ) == 1
        assert "cyclic" in capsys.readouterr().out
        bags = collection_from_json(out.read_text())
        assert verify_counterexample(bags)

    def test_json_that_is_not_an_object_exit_two(self, tmp_path, capsys):
        path = tmp_path / "h.json"
        path.write_text("[]")
        assert main(["audit-schema", str(path)]) == 2
        assert "malformed hypergraph" in capsys.readouterr().err


BAD_FILES = {
    "truncated": b'{"schema": ["A", "B"], "tuples": [[[1, 2], 1',
    "not-utf8": b'{"schema": ["A", "\xff"], "tuples": []}',
    "bags-not-a-list": b'{"bags": 5}',
    # past the decoder's recursion limit, far under any size limit
    "deeply-nested": b'{"bags": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
}
PAIR_COMMANDS = ("check-pair", "witness", "analyze")


class TestMalformedInputFiles:
    """A file that is not UTF-8 JSON, or not the shape its command
    reads, exits 2 with one error line naming it, never a traceback
    (``check-pair``'s exit 1 means "inconsistent")."""

    @pytest.mark.parametrize("content", BAD_FILES.values(), ids=BAD_FILES)
    @pytest.mark.parametrize("command", [
        *PAIR_COMMANDS, "show", "global-check", "certificate", "repair",
        "audit-schema",
    ])
    def test_exit_two_with_one_error_line(
        self, tmp_path, pair_files, capsys, command, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        files = [pair_files[0], bad] if command in PAIR_COMMANDS else [bad]
        assert main([command, *map(str, files)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert len(captured.err.splitlines()) == 1

    # JSON arrays and objects decode to unhashable lists and dicts,
    # which no row may hold
    @pytest.mark.parametrize(
        "value", [[1, 2], {"k": 1}], ids=["array", "object"]
    )
    @pytest.mark.parametrize("command", [
        *PAIR_COMMANDS, "show", "global-check", "certificate", "repair",
    ])
    def test_nested_value_exits_two_with_one_error_line(
        self, tmp_path, pair_files, capsys, command, value
    ):
        bag = {"schema": ["A", "B"], "tuples": [[[1, value], 1]]}
        bad = tmp_path / "bad.json"
        if command in (*PAIR_COMMANDS, "show"):
            bad.write_text(json.dumps(bag))
        else:
            bad.write_text(json.dumps({"bags": [bag]}))
        files = [pair_files[0], bad] if command in PAIR_COMMANDS else [bad]
        assert main([command, *map(str, files)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert "unhashable" in captured.err
        assert len(captured.err.splitlines()) == 1

    # a chmod-000 file stays readable to root, so the unreadable paths
    # are ones no user can read: a directory, and a path through a file
    @pytest.mark.parametrize("kind", ["directory", "file/child"])
    @pytest.mark.parametrize("command", [
        *PAIR_COMMANDS, "show", "global-check", "certificate", "repair",
        "audit-schema", "batch",
    ])
    def test_unreadable_path_exits_two_with_one_error_line(
        self, tmp_path, pair_files, capsys, command, kind
    ):
        bad = tmp_path / "bad"
        if kind == "directory":
            bad.mkdir()
        else:
            bad.write_text("{}")
            bad = bad / "child.json"
        files = [pair_files[0], bad] if command in PAIR_COMMANDS else [bad]
        assert main([command, *map(str, files)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {bad}: ")
        assert len(captured.err.splitlines()) == 1


class TestShow:
    def test_show_renders_table(self, pair_files, capsys):
        rp, _, _, _ = pair_files
        assert main(["show", str(rp)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["A", "B", "#"]

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": ["A"]}))
        assert main(["show", str(bad)]) == 2


class TestBatch:
    def jobs_file(self, tmp_path, r, s, bad):
        from repro.io import bag_to_dict

        jobs = {
            "pairs": [
                [bag_to_dict(r), bag_to_dict(s)],
                [bag_to_dict(r), bag_to_dict(bad)],
                [bag_to_dict(r), bag_to_dict(s)],
            ],
            "collections": [{"bags": [bag_to_dict(r), bag_to_dict(s)]}],
            "suites": [["planted-path", 3, 0], ["perturbed-path", 3, 0]],
        }
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps(jobs))
        return path

    def test_batch_report(self, tmp_path, pair_files, capsys):
        _, _, r, s = pair_files
        bad = s + s
        path = self.jobs_file(tmp_path, r, s, bad)
        assert main(["batch", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert [entry["consistent"] for entry in report["pairs"]] == [
            True,
            False,
            True,
        ]
        assert report["collections"][0] == {
            "consistent": True,
            "method": "acyclic",
        }
        assert [entry["ok"] for entry in report["suites"]] == [True, True]
        # The duplicate pair job must be served from the engine cache.
        assert report["stats"]["consistency_hits"] >= 1

    def test_batch_witnesses(self, tmp_path, pair_files, capsys):
        from repro.consistency.witness import is_witness
        from repro.io import bag_from_dict

        _, _, r, s = pair_files
        bad = s + s
        path = self.jobs_file(tmp_path, r, s, bad)
        assert main(["batch", str(path), "--witnesses"]) == 0
        report = json.loads(capsys.readouterr().out)
        witness = bag_from_dict(report["pairs"][0]["witness"])
        assert is_witness([r, s], witness)
        assert "witness" not in report["pairs"][1]

    def test_batch_output_file(self, tmp_path, pair_files, capsys):
        _, _, r, s = pair_files
        path = self.jobs_file(tmp_path, r, s, s + s)
        out = tmp_path / "report.json"
        assert main(["batch", str(path), "-o", str(out)]) == 0
        report = json.loads(out.read_text())
        assert "stats" in report

    def test_batch_rejects_unknown_keys(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"nonsense": []}))
        assert main(["batch", str(path)]) == 2

    def test_batch_rejects_unknown_suite(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"suites": [["no-such-suite", 3, 0]]}))
        assert main(["batch", str(path)]) == 2
        assert "bad suite spec" in capsys.readouterr().err

    def test_batch_rejects_malformed_suite_spec(self, tmp_path):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"suites": [["planted-path"]]}))
        assert main(["batch", str(path)]) == 2

    def test_batch_rejects_malformed_pair_entry(self, tmp_path, capsys):
        from repro.io import bag_to_dict

        path = tmp_path / "jobs.json"
        r = Bag.from_pairs(AB, [((1, 2), 1)])
        path.write_text(json.dumps({"pairs": [[bag_to_dict(r)]]}))
        assert main(["batch", str(path)]) == 2
        assert "bad pair entry" in capsys.readouterr().err

    def test_batch_rejects_malformed_collection_entry(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"collections": [{}]}))
        assert main(["batch", str(path)]) == 2
        assert "bad collection entry" in capsys.readouterr().err

    def test_batch_parallelism_matches_serial(self, tmp_path, pair_files,
                                              capsys):
        _, _, r, s = pair_files
        path = self.jobs_file(tmp_path, r, s, s + s)
        assert main(["batch", str(path)]) == 0
        serial = json.loads(capsys.readouterr().out)
        assert main(["batch", str(path), "--parallelism", "4"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert parallel["pairs"] == serial["pairs"]
        assert parallel["collections"] == serial["collections"]
        assert parallel["suites"] == serial["suites"]

    def test_batch_capacity_bounds_the_engine_cache(self, tmp_path,
                                                    pair_files, capsys):
        _, _, r, s = pair_files
        path = self.jobs_file(tmp_path, r, s, s + s)
        assert main(["batch", str(path), "--capacity", "2"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["stats"]["evictions"] >= 1

    def test_batch_rejects_bad_parallelism(self, tmp_path, pair_files,
                                           capsys):
        _, _, r, s = pair_files
        path = self.jobs_file(tmp_path, r, s, s + s)
        assert main(["batch", str(path), "--parallelism", "0"]) == 2
        assert "parallelism" in capsys.readouterr().err

    def test_batch_method_reaches_suites(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        path.write_text(json.dumps({"suites": [["planted-path", 3, 0]]}))
        assert main(["batch", str(path), "--method", "search"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["suites"][0]["method"] == "search"
        assert report["suites"][0]["ok"] is True

    def test_batch_missing_file_exit_two(self):
        assert main(["batch", "/nonexistent-jobs.json"]) == 2

    def test_batch_invalid_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "jobs.json"
        # an integer past the 4,300-digit limit, bytes that are not
        # UTF-8, then nesting past the decoder's recursion limit
        for data in (
            b"{definitely not json",
            b'{"pairs": [%s]}' % (b"7" * 5000),
            b'{"pairs": "\xff"}',
            b'{"pairs": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ):
            path.write_bytes(data)
            assert main(["batch", str(path)]) == 2
            err = capsys.readouterr().err
            assert "invalid JSON" in err
            assert len(err.strip().splitlines()) == 1  # one structured line

    def test_batch_backend_matches_serial(self, tmp_path, pair_files,
                                          capsys):
        _, _, r, s = pair_files
        path = self.jobs_file(tmp_path, r, s, s + s)
        assert main(["batch", str(path)]) == 0
        serial = json.loads(capsys.readouterr().out)
        for backend in ("serial", "process"):
            assert main(
                ["batch", str(path), "--backend", backend,
                 "--parallelism", "2"]
            ) == 0
            report = json.loads(capsys.readouterr().out)
            assert report["pairs"] == serial["pairs"]
            assert report["collections"] == serial["collections"]
            assert report["suites"] == serial["suites"]

    def test_batch_report_includes_store_stats(self, tmp_path, pair_files,
                                               capsys):
        _, _, r, s = pair_files
        path = self.jobs_file(tmp_path, r, s, s + s)
        assert main(["batch", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["store"]["entries"] >= 1
        assert 0.0 <= report["store"]["hit_rate"] <= 1.0


class TestServe:
    def test_serve_requires_exactly_one_bind(self, capsys):
        assert main(["serve"]) == 2
        assert "--socket or --port" in capsys.readouterr().err
        assert main(
            ["serve", "--socket", "/tmp/x.sock", "--port", "1"]
        ) == 2

    def test_serve_rejects_bad_knobs(self, capsys):
        assert main(["serve", "--port", "0", "--parallelism", "0"]) == 2
        assert "parallelism" in capsys.readouterr().err
        assert main(["serve", "--port", "0", "--capacity", "0"]) == 2
        assert "capacity" in capsys.readouterr().err
