"""Batch job payloads: parsing, validation, and execution.

One job payload — the JSON object ``repro batch`` reads from a file and
``repro serve`` reads off a socket — may carry any of:

* ``"pairs"``: a list of two-element lists of bag encodings
  (:mod:`repro.io`) — consistency of each pair, plus a witness when
  requested;
* ``"collections"``: a list of collection encodings
  (``{"bags": [...]}``) — the GCPB decision for each;
* ``"suites"``: a list of ``[name, size, seed]`` specs resolved via
  :mod:`repro.workloads.suites`.

:func:`parse_jobs` validates the whole payload up front and raises
:class:`JobError` — a one-line, structured message (``bad pair entry:
...``), never a traceback — so both surfaces can map malformed input to
exit code 2 / an ``{"ok": false}`` response uniformly.  Every bag slot
decodes to its own :class:`~repro.core.bags.Bag`, so a job keeps exactly
the values it was sent (``1``, ``true`` and ``1.0`` stay apart, though
Python finds them equal); once fingerprinted, bags with the same
content share one index (marginals, buckets, row order) through the
fingerprint registry (:func:`repro.engine.fingerprint.of_bag`).

:func:`run_jobs` executes a parsed payload against one engine and
returns the report dict (per-job results + the engine's cache
statistics + the store's hit-rate/size stats + the wire counters under
``kernels``).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import io as repro_io
from ..core.bags import Bag
from ..errors import ReproError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import wire

# Per-section latency (pairs / collections / suites): how a mixed batch
# splits its time across job kinds.
_SECTION_HISTOGRAMS = {
    section: obs_metrics.REGISTRY.histogram(
        "repro_jobs_section_seconds", {"section": section}
    )
    for section in ("pairs", "collections", "suites")
}

__all__ = ["BatchJobs", "JobError", "parse_jobs", "parse_jobs_text", "run_jobs"]

JOB_KEYS = ("pairs", "collections", "suites")


class JobError(ReproError):
    """A malformed batch job payload (one structured line, no traceback)."""


@contextmanager
def _section(name: str, count: int):
    """Time one report section into its histogram and, when a request
    trace is in flight, attach the matching ``jobs.<section>`` span."""
    start = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - start
        _SECTION_HISTOGRAMS[name].record(elapsed)
        tr = obs_trace.current()
        if tr is not None:
            tr.add_span("jobs." + name, start, elapsed, n=count)


@dataclass
class BatchJobs:
    """A validated batch payload, every bag slot decoded to its own
    :class:`Bag`."""

    pairs: list[tuple[Bag, Bag]] = field(default_factory=list)
    collections: list[list[Bag]] = field(default_factory=list)
    suites: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def n_jobs(self) -> int:
        return len(self.pairs) + len(self.collections) + len(self.suites)


def parse_jobs_text(text: str | bytes) -> BatchJobs:
    """Parse a raw JSON document (file contents as UTF-8 bytes, a socket
    line) into a validated :class:`BatchJobs`; raises :class:`JobError`
    on any malformation, including invalid JSON and invalid UTF-8."""
    import json

    try:
        payload = json.loads(text)
    except ValueError as exc:  # also integers past the digit limit
        raise JobError(f"invalid JSON in jobs payload: {exc}") from exc
    return parse_jobs(payload)


def parse_jobs(payload: object) -> BatchJobs:
    """Validate a decoded jobs object; raises :class:`JobError` with a
    structured one-line message naming the offending entry."""
    if not isinstance(payload, dict):
        raise JobError("batch file must be a JSON object")
    unknown = set(payload) - set(JOB_KEYS)
    if unknown:
        raise JobError(f"unknown batch job keys: {sorted(unknown)}")

    def load_bag(encoded: object) -> Bag:
        if isinstance(encoded, Bag):
            # wire-decoded frames carry live Bag objects (with their
            # claimed fingerprints)
            return encoded
        return repro_io.bag_from_dict(encoded)  # raises SchemaError

    jobs = BatchJobs()
    for i, entry in enumerate(payload.get("pairs") or []):
        try:
            left, right = entry
            jobs.pairs.append((load_bag(left), load_bag(right)))
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise JobError(f"bad pair entry: #{i}: {exc}") from exc
    for i, entry in enumerate(payload.get("collections") or []):
        try:
            jobs.collections.append(
                [load_bag(encoded) for encoded in entry["bags"]]
            )
        except (KeyError, TypeError, ValueError, ReproError) as exc:
            raise JobError(f"bad collection entry: #{i}: {exc}") from exc
    for i, spec in enumerate(payload.get("suites") or []):
        try:
            name, size, seed = spec
        except (TypeError, ValueError) as exc:
            raise JobError(
                f"bad suite spec: #{i}: expected [name, size, seed], "
                f"got {spec!r}"
            ) from exc
        if not isinstance(name, str) or isinstance(size, bool) \
                or isinstance(seed, bool) or not isinstance(size, int) \
                or not isinstance(seed, int):
            raise JobError(
                f"bad suite spec: #{i}: expected [name, size, seed] with a "
                f"string name and integer size/seed, got {spec!r}"
            )
        jobs.suites.append((name, size, seed))
    return jobs


def run_jobs(
    jobs: BatchJobs,
    engine,
    method: str = "auto",
    witnesses: bool = False,
    parallelism: int | None = None,
) -> dict:
    """Run a validated payload through one engine; returns the report.

    The report mirrors the historical ``repro batch`` output —
    ``pairs`` / ``collections`` / ``suites`` sections only when the
    payload carried them, plus ``stats`` (the engine's counters) and
    ``store`` (hit rate and size of the verdict store).  Suite-building
    errors (unknown name, undersized instance) surface as
    :class:`JobError`.
    """
    from ..workloads.suites import run_suites

    report: dict = {}
    if jobs.pairs:
        with _section("pairs", len(jobs.pairs)):
            verdicts = engine.are_consistent_many(
                jobs.pairs, parallelism=parallelism
            )
            entries = [{"consistent": verdict} for verdict in verdicts]
            if witnesses:
                found = engine.witness_many(
                    jobs.pairs, parallelism=parallelism
                )
                for entry, witness in zip(entries, found):
                    if witness is not None:
                        entry["witness"] = repro_io.bag_to_dict(witness)
        report["pairs"] = entries
    if jobs.collections:
        with _section("collections", len(jobs.collections)):
            report["collections"] = [
                {"consistent": outcome.consistent, "method": outcome.method}
                for outcome in engine.global_check_many(
                    jobs.collections,
                    method=method,
                    parallelism=parallelism,
                )
            ]
    if jobs.suites:
        try:
            with _section("suites", len(jobs.suites)):
                report["suites"] = [
                    result.as_dict()
                    for result in run_suites(
                        jobs.suites,
                        engine=engine,
                        method=method,
                        parallelism=parallelism,
                    )
                ]
        except (KeyError, TypeError, ValueError) as exc:
            raise JobError(f"bad suite spec: {exc}") from exc
    report["stats"] = engine.stats.as_dict()
    report["store"] = engine.store.stats_dict()
    report["kernels"] = wire.wire_stats()
    return report
