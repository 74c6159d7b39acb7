"""End-to-end benchmark of ``repro serve``: one named workload, one seed.

    python3 perfbench/run.py --workload warm-hits --seed 1 --seconds 10 --trace 0

The command starts the daemon in its own process, drives the
workload's fixed number of requests over a Unix socket from this one
generator process in a closed loop (``--seconds`` caps the measured
phase), checks every answer, and prints each metric by name with its
unit and sample count.  Time figures are scaled to a reference host
speed, timed by a fixed probe between chunks of the stream; the figures
as measured are on the reference line.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``; with ``--trace 1``, the
per-layer metrics of two phases of a quarter of the requests, one on
the plain daemon and one through the tracing launcher.  It exits
non-zero on any wrong answer.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import harness
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = Path(".perfbench")
WORKLOADS = ("warm-hits", "cold-misses", "process-fanout", "restart-replay")

END_TO_END = {
    "setup_s": "s",
    "throughput_rps": "req/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "cpu_ms_per_req": "ms",
    "pss_p90_mb": "MiB",
    "success_rate": "fraction",
}


@dataclass(frozen=True)
class Size:
    """How much work a run does: the measured ``requests`` of each
    workload (each traced phase sends the first quarter of them), the
    untimed warm-up, the daemon starts behind ``setup_s``, and the
    pairs in the replay store."""

    starts: int
    requests: dict
    warmup: dict
    stored_pairs: int


# At least 1000 requests, so that a hundred or more lie beyond p90;
# more where requests are cheap, so that a run averages the host's
# speed over a longer stretch.
FULL = Size(
    starts=5,
    requests={
        "warm-hits": 3000, "cold-misses": 1000,
        "process-fanout": 1000, "restart-replay": 3000,
    },
    warmup={"cold-misses": 40, "process-fanout": 4, "restart-replay": 300},
    stored_pairs=2048,
)
SMOKE = Size(
    starts=2,
    requests={
        "warm-hits": 40, "cold-misses": 20,
        "process-fanout": 8, "restart-replay": 40,
    },
    warmup={"cold-misses": 4, "process-fanout": 1, "restart-replay": 20},
    stored_pairs=64,
)
TRACED_SHARE = 4
# Time figures are reported at the host speed at which the host probe
# (harness.probe) takes this long: each is scaled by this over the
# median probe time of its own phase.
REFERENCE_PROBE_MS = 2.5
# A measured phase during which the hypervisor stole more than this share
# of all CPU time (read from /proc/stat) is driven again, at most RETRIES
# times, and only if the run has used under RETRY_WITHIN_S seconds, so
# that every run ends well inside three minutes.
STEAL_LIMIT = 0.05
RETRIES = 2
RETRY_WITHIN_S = 60.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ascending ``values``."""
    return values[max(0, math.ceil(q * len(values)) - 1)]


def build_workload(name: str, seed: int, n_requests: int, size: Size):
    import workloads

    warmup = size.warmup.get(name, 0)
    if name == "warm-hits":
        return workloads.warm_hits(seed, n_requests)
    if name == "cold-misses":
        return workloads.cold_misses(seed, n_requests, warmup)
    if name == "process-fanout":
        return workloads.process_fanout(seed, n_requests, warmup)
    return workloads.restart_replay(seed, n_requests, warmup, size.stored_pairs)


class Bench:
    """One invocation: the workload's inputs and replay store (built
    once, reused by every daemon start), and every daemon started, so
    all of them are stopped at exit."""

    def __init__(self, workload, workdir: Path) -> None:
        import workloads

        self.workload = workload
        self.workdir = workdir
        self.daemons: list = []
        self.store_template: Path | None = None
        if workload.stored_pairs:
            self.store_template = workdir / "store-template"
            workloads.build_store(self.store_template, workload.stored_pairs)

    def daemon(self, traced: bool = False) -> harness.Daemon:
        """A fresh daemon, on a pristine copy of the replay store."""
        flags = list(self.workload.daemon_flags)
        if self.store_template is not None:
            store = self.workdir / "store"
            shutil.rmtree(store, ignore_errors=True)
            shutil.copytree(self.store_template, store)
            flags += ["--store-dir", str(store)]
        extra = {"PERFBENCH_SPANS": str(self.spans_path)} if traced else {}
        daemon = harness.Daemon(
            harness.serve_argv(traced, HERE / "launcher.py"),
            flags,
            self.workdir,
            harness.daemon_env(ROOT, extra),
        )
        self.daemons.append(daemon)
        return daemon

    @property
    def spans_path(self) -> Path:
        return self.workdir / "spans.json"

    def stop_all(self) -> None:
        for daemon in self.daemons:
            daemon.stop()

    def warm(self, daemon: harness.Daemon) -> None:
        harness.replay(daemon, self.workload.warmup, self.workload.framed)

    def drive(self, daemon: harness.Daemon, requests, seconds: float) -> Phase:
        """Drive ``requests``, for at most ``seconds``, with this
        process's GC frozen."""
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            with harness.Sampler(daemon.pid) as sampler:
                start = time.perf_counter()
                samples, busy, probes = harness.drive(
                    daemon, requests, self.workload.framed,
                    self.workload.connections, start + seconds,
                )
                end = time.perf_counter()
        finally:
            gc.enable()
            gc.unfreeze()
        return Phase(samples, start, end, sampler, busy, probes)

    def check(self, samples, requests) -> dict[int, str]:
        """Failed sample positions, each with its reason."""
        import workloads

        verified: dict = {}
        failed = {}
        for position, sample in enumerate(samples):
            if not sample.response:
                failed[position] = "lost in transit"
                continue
            problem = workloads.check_response(
                requests[sample.index], sample.response,
                self.workload.witnesses, verified,
            )
            if problem is not None:
                failed[position] = problem
        return failed


@dataclass
class Phase:
    """A measured phase: its samples, its ``perf_counter`` window, the
    sampler that watched the daemon's memory, the seconds requests were
    in flight, and the host-probe times taken between its chunks."""

    samples: list
    start: float
    end: float
    sampler: harness.Sampler
    busy: float
    probes: list[float]

    @property
    def slowdown(self) -> float:
        """How much slower than the reference speed the host ran the
        probe during this phase (above 1 is slower)."""
        return statistics.median(self.probes) * 1000 / REFERENCE_PROBE_MS

    def latencies_ms(self, failed: dict[int, str]) -> list[float]:
        """Round trips, ascending; failed requests count as +inf."""
        return sorted(
            math.inf if position in failed
            else (s.received - s.sent) * 1000
            for position, s in enumerate(self.samples)
        )


@dataclass
class Outcome:
    metrics: dict[str, float]
    counts: dict[str, int]
    attempted: int
    failed: dict[int, str]
    reference: dict


def run_timed(bench: Bench, seconds: float, starts: int) -> Outcome:
    """``setup_s`` from ``starts`` daemon starts; the last daemon then
    warms up and serves the closed loop.

    A phase during which the hypervisor stole more than ``STEAL_LIMIT``
    of all CPU time is driven again on a fresh daemon, at most
    ``RETRIES`` times and only while ``RETRY_WITHIN_S`` seconds have not
    passed; the figures come from the least disturbed phase, and every
    phase's answers are checked."""
    began = time.perf_counter()
    setups = []
    for i in range(starts):
        daemon = bench.daemon()
        setups.append(daemon.start())
        if i < starts - 1:
            daemon.stop()
    stream = bench.workload.stream
    attempts = []
    failed: dict[int, str] = {}
    while True:
        bench.warm(daemon)
        counters = harness.cpu_counters()
        cpu_before = harness.tree_cpu_seconds(daemon.pid)
        phase = bench.drive(daemon, stream, seconds)
        cpu = harness.tree_cpu_seconds(daemon.pid) - cpu_before
        steal = harness.steal_share(counters, harness.cpu_counters())
        daemon.stop()
        phase_failed = bench.check(phase.samples, stream)
        offset = sum(len(a[1].samples) for a in attempts)
        failed.update((offset + i, reason) for i, reason in phase_failed.items())
        attempts.append((steal, phase, cpu, phase_failed))
        if (
            steal <= STEAL_LIMIT
            or len(attempts) > RETRIES
            or time.perf_counter() - began > RETRY_WITHIN_S
        ):
            break
        daemon = bench.daemon()
        daemon.start()
    _, phase, cpu, phase_failed = min(attempts, key=lambda attempt: attempt[0])
    samples = phase.samples
    latencies = phase.latencies_ms(phase_failed)
    completed = len(samples) - len(phase_failed)
    measured = {
        "setup_s": statistics.median(setups),
        "throughput_rps": completed / phase.busy,
        "p50_ms": percentile(latencies, 0.50),
        "p90_ms": percentile(latencies, 0.90),
        "cpu_ms_per_req": cpu * 1000 / max(1, completed),
    }
    slowdown = phase.slowdown
    metrics = {
        name: value * slowdown if name == "throughput_rps" else value / slowdown
        for name, value in measured.items()
    }
    metrics["pss_p90_mb"] = percentile(sorted(phase.sampler.readings), 0.90)
    metrics["success_rate"] = completed / len(samples)
    counts = {name: len(samples) for name in metrics}
    counts["setup_s"] = starts
    counts["pss_p90_mb"] = len(phase.sampler.readings)
    reference = {
        "requests": len(samples),
        "as_measured": measured,
        "probe_ms": statistics.median(phase.probes) * 1000,
        "probes": len(phase.probes),
        "phase_steal_shares": [attempt[0] for attempt in attempts],
        "setup_samples_s": setups,
    }
    attempted = sum(len(attempt[1].samples) for attempt in attempts)
    return Outcome(metrics, counts, attempted, failed, reference)


def run_traced(bench: Bench, seconds: float) -> Outcome:
    """The same request list through a plain daemon and then the
    tracing launcher, each for at most ``seconds``; per-layer metrics
    come from the second."""
    requests = bench.workload.stream
    daemon = bench.daemon()
    daemon.start()
    bench.warm(daemon)
    plain = bench.drive(daemon, requests, seconds)
    daemon.stop()

    daemon = bench.daemon(traced=True)
    daemon.start()
    bench.warm(daemon)
    before = daemon.op("stats")
    phase = bench.drive(daemon, requests, seconds)
    after = daemon.op("stats")
    daemon.stop()
    trace = json.loads(bench.spans_path.read_text())

    failed = bench.check(plain.samples, requests)
    failed.update(
        (len(plain.samples) + position, reason)
        for position, reason in bench.check(phase.samples, requests).items()
    )
    metrics = layers.per_layer(
        trace, phase.samples, requests, (phase.start, phase.end), before, after
    )
    metrics["trace.overhead"] = (
        percentile(phase.latencies_ms({}), 0.5) / phase.slowdown
    ) / (percentile(plain.latencies_ms({}), 0.5) / plain.slowdown)
    attempted = len(plain.samples) + len(phase.samples)
    counts = {name: len(phase.samples) for name in metrics}
    reference = {
        "requests": len(phase.samples),
        "plain_requests": len(plain.samples),
    }
    return Outcome(metrics, counts, attempted, failed, reference)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument(
        "--seconds", type=float, required=True,
        help="cap on each measured phase",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="a few requests, tiny warm-ups, two daemon starts, a small replay store",
    )
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    size = SMOKE if args.smoke else FULL
    n_requests = size.requests[args.workload]
    if args.trace:
        n_requests = max(1, n_requests // TRACED_SHARE)
    # fixed-width, so paths echoed in responses keep one byte length
    workdir = WORKDIR / f"run-{os.getpid():07d}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    counters_before = harness.cpu_counters()
    bench = None
    try:
        workload = build_workload(args.workload, args.seed, n_requests, size)
        bench = Bench(workload, workdir)
        if args.trace:
            outcome = run_traced(bench, args.seconds)
            units = layers.UNITS
        else:
            outcome = run_timed(bench, args.seconds, size.starts)
            units = END_TO_END
    finally:
        if bench is not None:
            bench.stop_all()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            WORKDIR.rmdir()
    outcome.reference["steal_share"] = harness.steal_share(
        counters_before, harness.cpu_counters()
    )

    for name, unit in units.items():
        value = outcome.metrics[name]
        print(f"{name:<28} {value:>14.4f} {unit:<9} n={outcome.counts[name]}")
    for position, reason in sorted(outcome.failed.items())[:10]:
        print(f"wrong answer at sample {position}: {reason}", file=sys.stderr)
    print(json.dumps({"reference": outcome.reference}))
    correct = not outcome.failed
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": len(outcome.failed),
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != "0":
        # One string-hash seed for this process and the daemons it
        # starts, so set iteration order -- and with it the records the
        # replay store is built from and the bytes the daemon writes --
        # repeats from run to run.
        os.execve(
            sys.executable, [sys.executable, *sys.argv],
            {**os.environ, "PYTHONHASHSEED": "0"},
        )
    sys.exit(main())
