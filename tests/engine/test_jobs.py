"""Batch job parsing/validation (`repro.engine.jobs`), shared by the
`batch` CLI and the serve daemon."""

import json

import pytest

from repro.core.bags import Bag
from repro.core.schema import Schema
from repro.engine.jobs import JobError, parse_jobs, parse_jobs_text, run_jobs
from repro.engine.session import Engine
from repro.io import bag_to_dict

AB = Schema(["A", "B"])
BC = Schema(["B", "C"])

R = Bag.from_pairs(AB, [((1, 2), 2)])
S = Bag.from_pairs(BC, [((2, 3), 2)])


def payload():
    return {
        "pairs": [[bag_to_dict(R), bag_to_dict(S)]],
        "collections": [{"bags": [bag_to_dict(R), bag_to_dict(S)]}],
        "suites": [["planted-path", 3, 0]],
    }


class TestParsing:
    def test_round_trip(self):
        jobs = parse_jobs(payload())
        assert jobs.n_jobs == 3
        assert jobs.pairs[0][0] == R
        assert jobs.suites == [("planted-path", 3, 0)]

    @pytest.mark.parametrize("twin", [True, 1.0], ids=["true", "1.0"])
    def test_each_job_keeps_its_own_values(self, twin):
        # 1, true and 1.0 are equal in Python and apart in JSON: the
        # second pair's witness holds the values its own bag was sent
        # with, exactly as when that pair is sent alone
        one = bag_to_dict(Bag.from_pairs(AB, [((1, "x"), 1)]))
        other = bag_to_dict(Bag.from_pairs(AB, [((twin, "x"), 1)]))
        side = bag_to_dict(Bag.from_pairs(BC, [(("x", 5), 1)]))

        def witnesses(pairs):
            report = run_jobs(
                parse_jobs({"pairs": pairs}), Engine(), witnesses=True
            )
            return [json.dumps(entry["witness"]) for entry in report["pairs"]]

        both = witnesses([[one, side], [other, side]])
        alone = witnesses([[other, side]])
        assert both[1] == alone[0] == json.dumps({
            "schema": ["A", "B", "C"], "tuples": [[[twin, "x", 5], 1]],
        })
        assert both[0] == json.dumps({
            "schema": ["A", "B", "C"], "tuples": [[[1, "x", 5], 1]],
        })

    def test_text_entry_point_rejects_invalid_json(self):
        # past the interpreter's 4,300-digit limit json.loads raises a
        # plain ValueError, not a JSONDecodeError
        long_int = '{"suites": [["planted-path", 3, %s]]}' % ("9" * 5000)
        for text in ("{not json", long_int):
            with pytest.raises(JobError, match="invalid JSON"):
                parse_jobs_text(text)

    def test_non_object_rejected(self):
        with pytest.raises(JobError, match="JSON object"):
            parse_jobs([1, 2, 3])

    def test_unknown_keys_rejected(self):
        with pytest.raises(JobError, match="unknown batch job keys"):
            parse_jobs({"nonsense": []})

    def test_bad_pair_entry_names_the_index(self):
        bad = payload()
        bad["pairs"].append([bag_to_dict(R)])  # only one side
        with pytest.raises(JobError, match=r"bad pair entry: #1"):
            parse_jobs(bad)

    def test_bad_collection_entry(self):
        with pytest.raises(JobError, match=r"bad collection entry: #0"):
            parse_jobs({"collections": [{}]})

    def test_bad_bag_encoding(self):
        # each multiplicity is checked before it is summed: True would
        # count as 1, and 2 + -1 as a valid 1
        for bad in (
            {"schema": ["A"]},
            {"schema": ["A"], "tuples": [[[1], True]]},
            {"schema": ["A"], "tuples": [[[1], 2], [[1], -1]]},
        ):
            with pytest.raises(JobError, match="bad pair entry"):
                parse_jobs({"pairs": [[bad, bag_to_dict(S)]]})

    def test_bad_suite_spec_shape(self):
        with pytest.raises(JobError, match=r"bad suite spec: #0"):
            parse_jobs({"suites": [["planted-path"]]})

    def test_bad_suite_spec_types(self):
        with pytest.raises(JobError, match="bad suite spec"):
            parse_jobs({"suites": [["planted-path", "three", 0]]})

    def test_error_messages_are_one_line(self):
        for bad in (
            "{not json",
            json.dumps({"pairs": [[{"schema": ["A"]}, {"schema": ["A"]}]]}),
            json.dumps({"suites": [[1, 2, 3]]}),
        ):
            with pytest.raises(JobError) as excinfo:
                parse_jobs_text(bad)
            assert "\n" not in str(excinfo.value)


class TestRunning:
    def test_report_shape(self):
        engine = Engine()
        report = run_jobs(parse_jobs(payload()), engine)
        assert report["pairs"] == [{"consistent": True}]
        assert report["collections"][0]["consistent"] is True
        assert report["suites"][0]["ok"] is True
        assert "consistency_queries" in report["stats"]
        assert report["store"]["entries"] == len(engine)

    def test_sections_absent_when_not_requested(self):
        report = run_jobs(parse_jobs({"pairs": []}), Engine())
        assert "pairs" not in report
        assert "collections" not in report

    def test_witnesses_included_on_request(self):
        report = run_jobs(
            parse_jobs({"pairs": payload()["pairs"]}),
            Engine(),
            witnesses=True,
        )
        assert "witness" in report["pairs"][0]

    def test_unknown_suite_surfaces_as_job_error(self):
        jobs = parse_jobs({"suites": [["no-such-suite", 3, 0]]})
        with pytest.raises(JobError, match="bad suite spec"):
            run_jobs(jobs, Engine())
