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
exit code 2 / an ``{"ok": false}`` response uniformly.  A job keeps
exactly the values it was sent (``1``, ``true`` and ``1.0`` stay apart,
though Python finds them equal), and every bag slot decodes to its own
:class:`~repro.core.bags.Bag` unless the slot already holds one: a v2
frame's, or one the daemon's :class:`IngestMemo` put there while
reading a JSON line by its bytes.  Once fingerprinted, bags with the
same content share one index (marginals, buckets, row order) through
the fingerprint registry (:func:`repro.engine.fingerprint.of_bag`).

:func:`run_jobs` executes a parsed payload against one engine and
returns the report dict (per-job results + the engine's cache
statistics + the store's hit-rate/size stats + the wire counters under
``kernels``).
"""

from __future__ import annotations

import json
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field

from .. import io as repro_io
from ..analysis.registry import shared_state
from ..core.bags import Bag
from ..errors import ReproError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace
from . import fingerprint, wire

# Per-section latency (pairs / collections / suites): how a mixed batch
# splits its time across job kinds.
_SECTION_HISTOGRAMS = {
    section: obs_metrics.REGISTRY.histogram(
        "repro_jobs_section_seconds", {"section": section}
    )
    for section in ("pairs", "collections", "suites")
}

__all__ = [
    "BatchJobs", "IngestMemo", "JobError", "parse_jobs", "parse_jobs_text",
    "run_jobs",
]

JOB_KEYS = ("pairs", "collections", "suites")

# What an ingest memo holds at most: support rows (perfbench's
# warm-hits working set, 6,959 rows, added about 1.7 MiB of PSS), and
# bytes of the spans it keys them on, which bounds bags of few rows and
# long values too.
MEMO_ROWS = 8192
MEMO_BYTES = 1 << 20

# A bag span of a JSON line: from this opening to the first ``]}``.
_SPAN_OPEN = b'{"schema"'
_SPAN_CLOSE = b"]}"


class JobError(ReproError):
    """A malformed batch job payload (one structured line, no traceback)."""


@shared_state("_lock", "_bags", "_rows", "_bytes", tier="engine")
class IngestMemo:
    """An LRU from the bytes of a JSON bag encoding to the :class:`Bag`
    built from them, read a whole line at a time by :meth:`read`.

    A key is a *span* of a request line: from a ``{"schema"`` to the
    first ``]}`` after it, admitted only once ``json.loads`` accepted
    it on its own as one complete value.  A JSON value ends where its
    brackets balance, so wherever a line holds a key's bytes, the value
    there is that key; a hit compares the bytes whole, so ``1``,
    ``true``, ``1.0``, ``-0.0`` and ``"1"`` stay apart with no digest.
    The value is the bag :func:`repro.io.bag_from_dict` built from the
    span, already fingerprinted by
    :func:`~repro.engine.fingerprint.of_bag`: a hit runs neither, nor
    any JSON decode, and the store still keys on a fingerprint derived
    from content.  Only a line :meth:`read` serves whole admits its
    spans, so an encoding that fails to build is never held.

    At most :data:`MEMO_ROWS` support rows and :data:`MEMO_BYTES` key
    bytes are held; the least recently used bags go first, and a bag
    larger than either budget is never admitted.  The bags form
    no reference cycle, so an evicted bag nothing else holds is freed
    at once.  Hits and misses (per bag span of a line served), lines
    that fell back, and rows held are counters and a gauge in
    ``registry``.
    """

    def __init__(self, registry: obs_metrics.MetricsRegistry) -> None:
        self._lock = threading.Lock()
        self._bags: OrderedDict[bytes, Bag] = OrderedDict()
        self._rows = 0
        self._bytes = 0
        self.hits = registry.counter("repro_ingest_memo_hits")
        self.misses = registry.counter("repro_ingest_memo_misses")
        self.fallbacks = registry.counter("repro_ingest_line_fallbacks")
        self.held_rows = registry.gauge("repro_ingest_memo_rows")

    def read(self, line: bytes) -> dict | None:
        """The request object a JSON line decodes to, with each bag span
        it holds already a :class:`Bag` in its slot; ``None`` when the
        line must take the plain path (``json.loads``, then
        :func:`parse_jobs` building every bag), which then answers
        exactly as if this had never run.

        Held spans become placeholder strings ``"\\u0000<n>"`` and are
        never decoded; each missed span is decoded on its own (a span
        cut at a ``]}`` inside a string, or before its brackets
        balance, fails there), then built and fingerprinted; the
        skeleton left over is decoded once, and
        :func:`~repro.engine.wire._walk_payload` puts each bag into its
        slot.  The line falls back when it holds a ``\\u0000`` of its
        own (so no other string can equal a placeholder), when a span
        or the skeleton does not decode or a span does not build, and
        when a placeholder is not taken exactly once by a bag slot (an
        object key, a suite spec, a discarded duplicate key, a pair of
        three)."""
        try:
            payload = self._read(line)
        except (ValueError, RecursionError, ReproError):
            payload = None  # JSON that does not decode, a bag that does not build
        if payload is None:
            self.fallbacks.inc()
        return payload

    def _read(self, line: bytes) -> dict | None:
        if b"\\u0000" in line:
            return None
        keys: list[bytes] = []
        parts: list[bytes] = []
        done = 0
        start = line.find(_SPAN_OPEN)
        while start >= 0:
            end = line.find(_SPAN_CLOSE, start)
            if end < 0:
                return None
            end += len(_SPAN_CLOSE)
            parts += (line[done:start], b'"\\u0000%d"' % len(keys))
            keys.append(line[start:end])
            done = end
            start = line.find(_SPAN_OPEN, end)
        parts.append(line[done:])
        skeleton = json.loads(b"".join(parts).decode("utf-8", "surrogatepass"))
        if type(skeleton) is not dict:
            return None
        if not keys:
            return skeleton
        with self._lock:
            bags = list(map(self._bags.get, keys))
            for key, bag in zip(keys, bags):
                if bag is not None:
                    self._bags.move_to_end(key)
        built: dict[bytes, Bag] = {}
        for i, key in enumerate(keys):
            if bags[i] is None:
                bag = built.get(key)
                if bag is None:
                    bag = repro_io.bag_from_dict(json.loads(key))
                    fingerprint.of_bag(bag)
                    built[key] = bag
                bags[i] = bag
        marks = {"\x00%d" % i: i for i in range(len(keys))}
        taken: list[int] = []

        def convert(obj: object) -> object:
            if type(obj) is str:
                i = marks.get(obj)
                if i is not None:
                    taken.append(i)
                    return bags[i]
            return obj

        payload = wire._walk_payload(skeleton, convert)
        if len(taken) != len(keys) or len(set(taken)) != len(keys):
            return None
        for key, bag in built.items():
            if len(bag._mults) <= MEMO_ROWS and len(key) <= MEMO_BYTES:
                self._admit(key, bag)
        self.misses.inc(len(built))
        self.hits.inc(len(keys) - len(built))
        return payload

    def _admit(self, key: bytes, bag: Bag) -> None:
        with self._lock:
            if key in self._bags:
                return  # a racing line admitted the same bytes
            self._bags[key] = bag
            self._rows += len(bag._mults)
            self._bytes += len(key)
            while self._rows > MEMO_ROWS or self._bytes > MEMO_BYTES:
                old_key, old = self._bags.popitem(last=False)
                self._rows -= len(old._mults)
                self._bytes -= len(old_key)
            self.held_rows.set(self._rows)


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
    """A validated batch payload.  Each bag slot holds a :class:`Bag`
    with exactly the values its encoding was sent with; slots share one
    only when they held one already, as a frame's repeated bag or an
    :class:`IngestMemo`'s held span does."""

    pairs: list[tuple[Bag, Bag]] = field(default_factory=list)
    collections: list[list[Bag]] = field(default_factory=list)
    suites: list[tuple[str, int, int]] = field(default_factory=list)

    @property
    def n_jobs(self) -> int:
        return len(self.pairs) + len(self.collections) + len(self.suites)


def parse_jobs_text(text: str | bytes) -> BatchJobs:
    """Parse a raw JSON document (file contents as UTF-8 bytes, a socket
    line) into a validated :class:`BatchJobs`; raises :class:`JobError`
    on any malformation, including invalid JSON, invalid UTF-8 and
    nesting deeper than the decoder's recursion limit."""
    try:
        payload = json.loads(text)
    except (ValueError, RecursionError) as exc:  # also the digit limit
        raise JobError(f"invalid JSON in jobs payload: {exc}") from exc
    return parse_jobs(payload)


def _job_list(payload: dict, key: str) -> list:
    entries = payload.get(key)
    if entries is None:
        return []
    if not isinstance(entries, (list, tuple)):
        raise JobError(
            f"batch job key {key!r} must be a list, "
            f"got {type(entries).__name__}"
        )
    return entries


# What a bad entry raises: its shape (unpacking, subscripting), a bag
# that does not decode, or a value nested too deeply to name.
_ENTRY_ERRORS = (KeyError, TypeError, ValueError, RecursionError, ReproError)


def parse_jobs(payload: object) -> BatchJobs:
    """Validate a decoded jobs object; raises :class:`JobError` with a
    structured one-line message naming the offending entry.  A slot
    that already holds a :class:`Bag` keeps it."""
    if not isinstance(payload, dict):
        raise JobError("batch file must be a JSON object")
    unknown = set(payload) - set(JOB_KEYS)
    if unknown:
        raise JobError(f"unknown batch job keys: {sorted(unknown)}")

    def load_bag(encoded: object) -> Bag:
        if isinstance(encoded, Bag):
            # wire-decoded frames carry live Bag objects (with their
            # claimed fingerprints), and so do lines the memo read
            return encoded
        return repro_io.bag_from_dict(encoded)  # raises SchemaError

    jobs = BatchJobs()
    for i, entry in enumerate(_job_list(payload, "pairs")):
        try:
            left, right = entry
            jobs.pairs.append((load_bag(left), load_bag(right)))
        except _ENTRY_ERRORS as exc:
            raise JobError(f"bad pair entry: #{i}: {exc}") from exc
    for i, entry in enumerate(_job_list(payload, "collections")):
        try:
            jobs.collections.append(
                [load_bag(encoded) for encoded in entry["bags"]]
            )
        except _ENTRY_ERRORS as exc:
            raise JobError(f"bad collection entry: #{i}: {exc}") from exc
    for i, spec in enumerate(_job_list(payload, "suites")):
        try:
            name, size, seed = spec
        except (TypeError, ValueError) as exc:
            raise JobError(
                f"bad suite spec: #{i}: expected [name, size, seed], "
                f"got {_brief(spec)}"
            ) from exc
        if not isinstance(name, str) or isinstance(size, bool) \
                or isinstance(seed, bool) or not isinstance(size, int) \
                or not isinstance(seed, int):
            raise JobError(
                f"bad suite spec: #{i}: expected [name, size, seed] with a "
                f"string name and integer size/seed, got {_brief(spec)}"
            )
        jobs.suites.append((name, size, seed))
    return jobs


def _brief(value: object) -> str:
    """``repr(value)``, or a type name where the repr would recurse
    past the interpreter's limit."""
    try:
        return repr(value)
    except RecursionError:
        return f"a {type(value).__name__} nested too deeply to show"


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
            verdicts = engine.are_consistent_many(jobs.pairs)
            entries = [{"consistent": verdict} for verdict in verdicts]
            if witnesses:
                found = engine.witness_many(jobs.pairs)
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
