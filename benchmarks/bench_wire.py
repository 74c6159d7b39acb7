"""E-WIRE — dictionary-coded frames over the serve socket.

The claim: **columnar frames beat JSON rows on the serve socket.**
Replaying a stream of wide two-bag batches against one ``repro serve``
daemon, a ``wire_format="columnar"`` client — which ships each bag once
as int64 code arrays plus per-column local dictionaries, sparing the
daemon validation, and whose claimed fingerprints spare it rehashing
on store hits (a miss derives the fingerprint it writes under) —
completes the stream at least ``MIN_WIRE_SPEEDUP``x faster than a
``wire_format="json"`` client sending the same bags as sorted row
lists.  Reports are asserted bit-identical between the two formats.

``REPRO_BENCH_SMOKE=1`` shrinks sizes and loosens the gates so CI
replays the file in seconds; ``REPRO_BENCH_OUT=path`` writes the
measured trajectory (CI stores it as ``BENCH_wire.json``).
"""

from __future__ import annotations

import json
import os
import random
import time

from repro.engine import wire
from repro.obs import percentiles
from repro.server import ReproServer, ServeClient
from repro.workloads.generators import wide_planted_pair

SMOKE = bool(os.environ.get("REPRO_BENCH_SMOKE"))

# Values repeat (domain << rows x width) so the dictionary pays for
# itself: short value lists in the header, one code gather per column
# on the daemon, and claimed fingerprints that key the store hits of
# every replayed round without rehashing.
WIRE_N_PAIRS = 2 if SMOKE else 4
WIRE_N_ROWS = 512 if SMOKE else 8192
WIRE_DOMAIN = 1 << 12
WIRE_N_ROUNDS = 2 if SMOKE else 4
MIN_WIRE_SPEEDUP = 1.2 if SMOKE else 2.0

_MEASUREMENTS: dict = {
    "bench": "wire",
    "smoke": SMOKE,
}


def wide_pairs(
    n_pairs: int, n_rows: int, base_seed: int, domain: int
) -> list:
    """Consistent wide pairs over a shared repeated-value domain
    (disjoint seeds keep the store from collapsing distinct pairs into
    one job)."""
    pairs = []
    for i in range(n_pairs):
        rng = random.Random(base_seed + i)
        _, r, s = wide_planted_pair(rng, n_rows=n_rows, domain_size=domain)
        pairs.append((r, s))
    return pairs


def run_stream(
    address, wire_format: str, payloads
) -> tuple[float, list, list]:
    """One client, ``WIRE_N_ROUNDS`` replays of the payload stream."""
    with ServeClient(address, wire_format=wire_format) as client:
        client.request({"op": "ping"})  # connection + negotiation warmup
        reports = []
        samples = []
        start = time.perf_counter()
        for _ in range(WIRE_N_ROUNDS):
            for payload in payloads:
                tick = time.perf_counter()
                response = client.request(payload)
                samples.append(time.perf_counter() - tick)
                assert response["ok"], response
                reports.append(response["report"]["pairs"])
        elapsed = time.perf_counter() - start
    return elapsed, reports, samples


def test_columnar_frames_beat_json_rows_over_the_socket():
    """The gate: same jobs, same daemon — frames must win on the wire."""
    pairs = wide_pairs(
        WIRE_N_PAIRS, WIRE_N_ROWS, base_seed=710_000, domain=WIRE_DOMAIN
    )
    payloads = [{"pairs": [[r, s]]} for r, s in pairs]

    server = ReproServer()
    address = server.bind_tcp()
    server.serve_in_background()
    try:
        # one warmup pass per format so the store and both codecs are
        # hot before either side is timed
        run_stream_once = [{"pairs": [[r, s]]} for r, s in pairs[:1]]
        for fmt in ("json", "columnar"):
            with ServeClient(address, wire_format=fmt) as client:
                client.request(run_stream_once[0])

        before = wire.wire_stats()
        json_elapsed, json_reports, json_samples = run_stream(
            address, "json", payloads
        )
        mid = wire.wire_stats()
        col_elapsed, col_reports, col_samples = run_stream(
            address, "columnar", payloads
        )
        after = wire.wire_stats()
    finally:
        server.shutdown()

    assert json_reports == col_reports  # bit-identical across formats
    assert all(
        section == [{"consistent": True}] for section in json_reports
    )

    json_bytes = mid["wire_json_bytes"] - before["wire_json_bytes"]
    frame_bytes = (
        after["wire_frame_bytes_encoded"] - mid["wire_frame_bytes_encoded"]
    )
    speedup = json_elapsed / col_elapsed
    byte_ratio = json_bytes / frame_bytes if frame_bytes else float("inf")
    print(
        f"\nwire stream ({WIRE_N_PAIRS} pairs x {WIRE_N_ROWS} rows x "
        f"{WIRE_N_ROUNDS} rounds): json {json_elapsed * 1000:.0f} ms "
        f"({json_bytes / 1e6:.1f} MB), columnar "
        f"{col_elapsed * 1000:.0f} ms ({frame_bytes / 1e6:.1f} MB), "
        f"speedup {speedup:.2f}x, byte ratio {byte_ratio:.2f}x"
    )
    _MEASUREMENTS["wire_stream"] = {
        "n_pairs": WIRE_N_PAIRS,
        "n_rows": WIRE_N_ROWS,
        "n_rounds": WIRE_N_ROUNDS,
        "json_seconds": json_elapsed,
        "columnar_seconds": col_elapsed,
        "json_bytes": json_bytes,
        "frame_bytes": frame_bytes,
        "byte_ratio": byte_ratio,
        "speedup": speedup,
        "min_speedup": MIN_WIRE_SPEEDUP,
        "latency": {
            "json_request": percentiles(json_samples),
            "columnar_request": percentiles(col_samples),
        },
    }
    _write_out()
    assert speedup >= MIN_WIRE_SPEEDUP, (
        f"columnar frames only {speedup:.2f}x over JSON rows "
        f"(required {MIN_WIRE_SPEEDUP}x)"
    )


def _write_out() -> None:
    """Write the trajectory before the gate asserts, so a failing run
    still leaves the measurements behind (CI uploads them on failure
    too)."""
    out = os.environ.get("REPRO_BENCH_OUT")
    if out:
        with open(out, "w") as fh:
            json.dump(_MEASUREMENTS, fh, indent=2)
