"""The benchmark's own tests (about a minute, mostly the smoke runs):

    python3 -m pytest perfbench/selftest.py -q

They check that the correctness gate catches a wrong expectation, that
``BENCHMARK.json`` names exactly the metrics the command prints, that
every listed workload runs untraced and traced at smoke size, and that
the command fails without printing a result when the sources are
missing.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from repro.engine import wire  # noqa: E402
from repro.server import ReproServer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _serve(request: workloads.Request, witnesses: bool) -> bytes:
    """Answer ``request`` with an in-process server, encoded the way
    the daemon would send it."""
    server = ReproServer(witnesses=witnesses)
    if request.data[:1] == wire.MAGIC[:1]:
        header, blob = wire.split_frame(request.data)
        response = server.handle_payload(wire.decode_jobs_frame(header, blob))
        return wire.encode_response_frame(response)
    return (json.dumps(server.handle_payload(json.loads(request.data))) + "\n").encode()


def _flip_first_pair(request: workloads.Request) -> workloads.Request:
    job = request.pairs[0]
    flipped = dataclasses.replace(job, consistent=not job.consistent)
    return dataclasses.replace(request, pairs=[flipped, *request.pairs[1:]])


@pytest.mark.parametrize(
    "workload, witnesses",
    [
        (workloads.warm_hits(3, 2), False),
        (workloads.cold_misses(3, 2, 0), True),
        (workloads.process_fanout(3, 2, 0), False),
        (workloads.restart_replay(3, 2, 0, 8), True),
    ],
    ids=lambda value: getattr(value, "name", str(value)),
)
def test_gate_passes_right_answers_and_catches_a_wrong_expectation(
    workload, witnesses
):
    request = workload.stream[0]
    response = _serve(request, witnesses)
    assert workloads.check_response(request, response, witnesses, {}) is None
    problem = workloads.check_response(
        _flip_first_pair(request), response, witnesses, {}
    )
    assert problem is not None and "pair 0" in problem


def test_gate_catches_a_corrupted_witness():
    workload = workloads.cold_misses(5, 8, 0)
    request = next(r for r in workload.stream if r.pairs[0].consistent)
    response = workloads.decode_response(_serve(request, witnesses=True))
    witness = response["report"]["pairs"][0]["witness"]
    witness["tuples"][0][1] += 1
    tampered = (json.dumps(response) + "\n").encode()
    problem = workloads.check_response(request, tampered, True, {})
    assert problem is not None and "is_witness" in problem


def test_benchmark_json_names_what_the_command_prints():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers.UNITS


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run(workload, trace):
    done = _bench(
        "--workload", workload, "--seed", "11", "--seconds", "35",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    # Runs send a fixed count, well inside the cap (again if the host
    # stole enough CPU time); a traced run sends its share twice (plain,
    # then traced).
    requests = run.SMOKE.requests[workload]
    if trace == "0":
        attempts, rest = divmod(result["attempted"], requests)
        assert rest == 0 and 1 <= attempts <= 1 + run.RETRIES
    else:
        assert result["attempted"] == 2 * (requests // run.TRACED_SHARE)
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    if trace == "0":
        # The reference line undoes the host-speed scaling.
        reference = json.loads(done.stdout.splitlines()[-2])["reference"]
        slowdown = reference["probe_ms"] / run.REFERENCE_PROBE_MS
        for name, value in reference["as_measured"].items():
            scale = slowdown if name == "throughput_rps" else 1 / slowdown
            assert result["metrics"][name]["value"] == pytest.approx(value * scale)
    assert not (ROOT / ".perfbench").exists()


def test_wrong_expectation_fails_the_run(monkeypatch):
    build = workloads.warm_hits

    def wrong(seed, n_requests):
        workload = build(seed, n_requests)
        workload.stream[0] = _flip_first_pair(workload.stream[0])
        return workload

    monkeypatch.setattr(workloads, "warm_hits", wrong)
    monkeypatch.chdir(ROOT)
    status = run.main([
        "--workload", "warm-hits", "--seed", "2", "--seconds", "1", "--smoke",
    ])
    assert status == 1


def test_disturbed_phase_is_driven_again(monkeypatch, capsys):
    monkeypatch.setattr(run, "STEAL_LIMIT", -1.0)  # every phase too disturbed
    monkeypatch.chdir(ROOT)
    status = run.main([
        "--workload", "warm-hits", "--seed", "4", "--seconds", "5", "--smoke",
    ])
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    reference = json.loads(lines[-2])["reference"]
    assert status == 0 and result["correct"]
    assert len(reference["phase_steal_shares"]) == run.RETRIES + 1
    assert result["attempted"] == (run.RETRIES + 1) * run.SMOKE.requests["warm-hits"]


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path)
    done = _bench(
        "--workload", "warm-hits", "--seed", "1", "--seconds", "1",
        cwd=tmp_path,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
