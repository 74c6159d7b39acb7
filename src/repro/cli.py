"""Command-line interface.

Usage (all inputs are the JSON encodings of :mod:`repro.io`):

* ``python -m repro check-pair R.json S.json`` — Lemma 2 consistency test.
* ``python -m repro witness R.json S.json [--minimal] [-o OUT]`` — a
  (minimal) witness via Corollary 1 / Corollary 4.
* ``python -m repro global-check COLLECTION.json [--method M]`` — the
  GCPB decision with the Theorem 4 dispatch, plus a witness when one
  exists.
* ``python -m repro audit-schema HYPERGRAPH.json [--counterexample OUT]``
  — acyclicity audit; for cyclic schemas optionally emits the Theorem 2
  counterexample collection.
* ``python -m repro show BAG.json`` — render a bag in the paper's
  tabular format.
* ``python -m repro certificate COLLECTION.json [-v]`` — a verifiable
  inconsistency certificate (marginal cell / Farkas / search marker).
* ``python -m repro repair COLLECTION.json [-o OUT]`` — repair a
  collection over an acyclic schema into global consistency.
* ``python -m repro analyze R.json S.json`` — witness-space ambiguity
  report (per-tuple multiplicity ranges).
* ``python -m repro batch JOBS.json [-o OUT] [--witnesses]
  [--parallelism N] [--backend B] [--capacity N]`` — run many pair
  checks, global checks, and named workload suites through one
  memoizing :class:`repro.engine.Engine` (with a bounded LRU result
  store; ``--parallelism N`` above 1 fans the global checks that take
  the Theorem 4 search over N worker processes, while pair checks,
  witnesses and acyclic folds stay in this process, and ``--backend
  serial``/``process`` stand for 1 and every core); emits a JSON
  report with per-job results plus the engine's cache statistics.
* ``python -m repro serve (--socket PATH | --port N) [--capacity N]
  [--parallelism N] [--backend B] [--store-dir DIR] [--max-inflight N]``
  — a long-running daemon speaking the batch JSON protocol over a
  Unix/TCP socket, one shared content-addressed verdict store across
  all connections with an engine per connection and a batch admission
  cap (see :mod:`repro.server` for the wire protocol and ``stats``
  endpoint).  With ``--store-dir`` the store is durable: a restarted
  daemon reopens its shards and answers repeat traffic warm.
* ``python -m repro batch JOBS.json --store-dir DIR`` — same durable
  store for one-shot batches: verdicts computed today are disk hits
  tomorrow.
* ``python -m repro obs [--socket PATH | --port N]
  [--format json|prometheus] [--traces]`` — telemetry exposition:
  scrape a running daemon's ``metrics`` op (merged metric registries,
  per-op latency percentiles, recent request traces), or dump the
  current process's registry when no daemon address is given.  The
  daemon side pairs with ``repro serve --slow-ms MS``, which logs a
  span breakdown for any request slower than MS milliseconds.
* ``python -m repro store (stats|compact|clear) --store-dir DIR`` —
  offline maintenance of a persistent store; prints one JSON line
  (per-shard record/byte counts, compaction results) for scripting.

Exit codes: 0 for "yes"/success, 1 for "no" (inconsistent / cyclic),
2 for usage or input errors: an input file that is missing, not UTF-8,
not JSON, or not the expected encoding exits 2 with one error line,
never a traceback.  ``batch`` exits 0 when every job ran (individual
verdicts live in the report); malformed job files exit 2 with a
structured one-line error.  ``serve`` exits 0 on a clean
shutdown (the ``shutdown`` op or Ctrl-C).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from . import io as repro_io
from .consistency.global_ import global_witness
from .consistency.local_global import find_local_to_global_counterexample
from .consistency.pairwise import are_consistent, consistency_witness
from .consistency.witness import minimal_pairwise_witness
from .display import bag_table, collection_summary
from .errors import InconsistentError, ReproError
from .hypergraphs.acyclicity import is_acyclic, running_intersection_order
from .hypergraphs.obstructions import find_obstruction


def _load(path: str, decode):
    """``decode`` applied to a file's bytes; a path it cannot read (a
    directory, a missing or unreadable file), or cannot read as its
    encoding, is a :class:`ReproError` naming the file (exit 2)."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ReproError(f"{path}: {exc.strerror or exc}") from exc
    try:
        return decode(data)
    except ReproError as exc:
        raise ReproError(f"{path}: {exc}") from exc


def _load_bag(path: str):
    return _load(path, repro_io.bag_from_json)


def _cmd_check_pair(args: argparse.Namespace) -> int:
    r = _load_bag(args.left)
    s = _load_bag(args.right)
    consistent = are_consistent(r, s)
    print("consistent" if consistent else "inconsistent")
    return 0 if consistent else 1


def _cmd_witness(args: argparse.Namespace) -> int:
    r = _load_bag(args.left)
    s = _load_bag(args.right)
    try:
        if args.minimal:
            witness = minimal_pairwise_witness(r, s)
        else:
            witness = consistency_witness(r, s)
    except InconsistentError:
        print("inconsistent", file=sys.stderr)
        return 1
    if args.output:
        Path(args.output).write_text(repro_io.bag_to_json(witness, indent=2))
        print(f"witness written to {args.output}")
    else:
        print(bag_table(witness))
    return 0


def _cmd_global_check(args: argparse.Namespace) -> int:
    bags = _load(args.collection, repro_io.collection_from_json)
    print(collection_summary(bags))
    result = global_witness(bags, method=args.method)
    print(f"method: {result.method}")
    if not result.consistent:
        print("globally inconsistent")
        return 1
    print("globally consistent")
    if result.witness is not None:
        if args.output:
            Path(args.output).write_text(
                repro_io.bag_to_json(result.witness, indent=2)
            )
            print(f"witness written to {args.output}")
        else:
            print(bag_table(result.witness))
    return 0


def _cmd_audit_schema(args: argparse.Namespace) -> int:
    hypergraph = _load(args.hypergraph, repro_io.hypergraph_from_json)
    if is_acyclic(hypergraph):
        print("acyclic: pairwise consistency checks are sound and complete")
        rip = running_intersection_order(hypergraph)
        for i, edge in enumerate(rip.order):
            print(f"  {i + 1}. {tuple(edge.attrs)}")
        return 0
    obstruction = find_obstruction(hypergraph)
    print(
        f"cyclic: obstruction {obstruction.kind} on "
        f"{sorted(map(str, obstruction.vertices))}"
    )
    if args.counterexample:
        bags = find_local_to_global_counterexample(hypergraph)
        Path(args.counterexample).write_text(
            repro_io.collection_to_json(bags, indent=2)
        )
        print(f"counterexample collection written to {args.counterexample}")
    return 1


def _cmd_show(args: argparse.Namespace) -> int:
    print(bag_table(_load_bag(args.bag)))
    return 0


def _cmd_certificate(args: argparse.Namespace) -> int:
    from .consistency.certificates import (
        FarkasCertificate,
        MarginalCertificate,
        SearchRefutation,
        collection_certificate,
        verify_certificate,
    )

    bags = _load(args.collection, repro_io.collection_from_json)
    certificate = collection_certificate(bags)
    if certificate is None:
        print("globally consistent: no inconsistency certificate exists")
        return 0
    assert verify_certificate(bags, certificate)
    if isinstance(certificate, MarginalCertificate):
        print(
            f"inconsistent: bags {certificate.left_index} and "
            f"{certificate.right_index} disagree on common cell "
            f"{certificate.cell}: {certificate.left_value} vs "
            f"{certificate.right_value}"
        )
    elif isinstance(certificate, FarkasCertificate):
        print(
            f"inconsistent: Farkas certificate with "
            f"{len(certificate.multipliers)} multipliers refutes even the "
            f"rational relaxation"
        )
        if args.verbose:
            for (bag, row), mult in zip(
                certificate.labels, certificate.multipliers
            ):
                if mult:
                    print(f"  y[bag {bag}, row {row}] = {mult}")
    elif isinstance(certificate, SearchRefutation):
        print(
            "inconsistent: exhaustive search found no witness "
            "(no succinct certificate exists for this instance)"
        )
    return 1


def _cmd_repair(args: argparse.Namespace) -> int:
    from .consistency.repair import repair_collection

    bags = _load(args.collection, repro_io.collection_from_json)
    fixed, cost = repair_collection(bags)
    print(f"repair cost: {cost} tuple edits")
    if args.output:
        Path(args.output).write_text(
            repro_io.collection_to_json(fixed, indent=2)
        )
        print(f"repaired collection written to {args.output}")
    else:
        print(collection_summary(fixed))
    return 0


def _validate_batch_knobs(args: argparse.Namespace) -> None:
    if args.parallelism is not None and args.parallelism < 1:
        raise ReproError(
            f"--parallelism must be positive, got {args.parallelism}"
        )
    if args.capacity is not None and args.capacity < 1:
        raise ReproError(f"--capacity must be positive, got {args.capacity}")
    if getattr(args, "shards", None) is not None:
        if args.shards < 1:
            raise ReproError(f"--shards must be positive, got {args.shards}")
        if args.store_dir is None:
            raise ReproError("--shards only makes sense with --store-dir")


def _batch_parallelism(args: argparse.Namespace) -> int | None:
    """The ``parallelism`` that ``--backend`` and ``--parallelism``
    select together: ``serial`` pins 1, ``process`` defaults to every
    core."""
    if args.backend == "serial":
        return 1
    if args.backend == "process" and args.parallelism is None:
        return os.cpu_count() or 1
    return args.parallelism


def _open_store(args: argparse.Namespace):
    """The persistent store for ``--store-dir`` (``None`` without it).
    ``--capacity`` then bounds the store's hot tier, not a private
    engine store."""
    if getattr(args, "store_dir", None) is None:
        return None
    from .store import PersistentVerdictStore

    return PersistentVerdictStore(
        args.store_dir, shards=args.shards, capacity=args.capacity
    )


def _cmd_batch(args: argparse.Namespace) -> int:
    """Batched serving: one engine, many jobs.

    Job parsing/validation lives in :mod:`repro.engine.jobs` (shared
    with ``repro serve``); a malformed jobs file exits 2 with one
    structured error line.
    """
    import json as json_module

    from .engine.jobs import parse_jobs_text, run_jobs
    from .engine.session import Engine

    _validate_batch_knobs(args)
    jobs = _load(args.jobs, parse_jobs_text)
    store = _open_store(args)
    engine = (
        Engine(store=store) if store is not None
        else Engine(capacity=args.capacity)
    )
    try:
        report = run_jobs(
            jobs,
            engine,
            method=args.method,
            witnesses=args.witnesses,
            parallelism=_batch_parallelism(args),
        )
    finally:
        if store is not None:
            store.close()  # flush the write-behind tail
    text = json_module.dumps(report, indent=2)
    if args.output:
        Path(args.output).write_text(text)
        print(f"batch report written to {args.output}")
    else:
        print(text)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """The long-running daemon: bind, announce, serve until shutdown."""
    from .server import ReproServer

    _validate_batch_knobs(args)
    if (args.socket is None) == (args.port is None):
        raise ReproError("serve needs exactly one of --socket or --port")
    if args.max_inflight is not None and args.max_inflight < 1:
        raise ReproError(
            f"--max-inflight must be positive, got {args.max_inflight}"
        )
    server = ReproServer(
        capacity=args.capacity,
        method=args.method,
        witnesses=args.witnesses,
        parallelism=_batch_parallelism(args),
        store_dir=args.store_dir,
        shards=args.shards,
        max_inflight=args.max_inflight,
        wire_format=args.wire_format,
        slow_ms=args.slow_ms,
    )
    if args.store_dir:
        persisted = server.store.stats_dict()["persistent"]
        print(
            f"persistent store at {args.store_dir}: "
            f"{persisted['shards']} shards, "
            f"{persisted['records']} records warm",
            flush=True,
        )
    try:
        if args.socket:
            address = server.bind_unix(args.socket)
            print(f"serving on unix socket {address}", flush=True)
        else:
            host, port = server.bind_tcp(args.host, args.port)
            print(f"serving on tcp {host}:{port}", flush=True)
    except OSError as exc:
        # address in use, bad permissions, unwritable socket path: a
        # usage error (exit 2), not a traceback
        raise ReproError(f"cannot bind: {exc}") from exc
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        # Reached on Ctrl-C *and* on the wire `shutdown` op (which
        # stops serve_forever from a helper thread): shutdown() is
        # idempotent and blocks until the store flush has happened, so
        # the process cannot exit with an unflushed write-behind tail.
        server.shutdown()
        if args.socket:
            import contextlib
            import os

            with contextlib.suppress(OSError):
                os.unlink(args.socket)
    print("serve shut down cleanly", flush=True)
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """Offline persistent-store maintenance: one-line JSON per action
    (``stats`` / ``compact`` / ``clear`` / ``verify``) for scripting.
    ``verify`` CRC-scans every segment and cross-checks a random sample
    of stored verdicts/witnesses against fresh recompute; it exits
    nonzero on any framing damage or recompute mismatch."""
    import json as json_module

    from .store import PersistentVerdictStore

    if not (Path(args.store_dir) / "META.json").exists():
        raise ReproError(
            f"no verdict store at {args.store_dir} (missing META.json); "
            f"create one with `repro batch --store-dir` or "
            f"`repro serve --store-dir`"
        )
    if args.action == "verify":
        from .store.verify import verify_store

        out = verify_store(
            args.store_dir, sample=args.sample, seed=args.seed
        )
        print(json_module.dumps(out))
        return 0 if out["ok"] else 1
    store = PersistentVerdictStore(args.store_dir)
    try:
        if args.action == "stats":
            persisted = store.stats_dict()["persistent"]
            persisted["per_shard"] = [
                {
                    "shard": i,
                    "records": s["records"],
                    "dead_records": s["dead_records"],
                    "bytes": s["disk_bytes"],
                    "segments": s["segments"],
                    "torn_tails": s["torn_tails"],
                }
                for i, s in enumerate(store.shard_stats())
            ]
            out = {"action": "stats", **persisted}
        elif args.action == "compact":
            live = store.compact()
            out = {
                "action": "compact",
                "store_dir": str(args.store_dir),
                "live_records": live,
                "disk_bytes": store.stats_dict()["persistent"]["disk_bytes"],
            }
        else:  # clear
            store.clear()
            out = {
                "action": "clear",
                "store_dir": str(args.store_dir),
                "cleared": True,
            }
    finally:
        store.close()
    print(json_module.dumps(out))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Telemetry exposition.  With ``--socket``/``--port`` scrape a
    running daemon's ``metrics`` op (merged registries + trace ring);
    without, render this process's global registry — useful after an
    in-process ``repro batch`` run under the same interpreter, and as
    the quickest way to eyeball the Prometheus shape."""
    from .obs import RECENT, REGISTRY, render_json, render_prometheus

    if args.socket and args.port:
        raise ReproError("obs takes at most one of --socket or --port")
    if args.socket or args.port:
        from .server import ServeClient

        address = args.socket if args.socket else (args.host, args.port)
        with ServeClient(address, wire_format="json") as client:
            response = client.request({"op": "metrics"})
        if not response.get("ok"):
            raise ReproError(
                f"metrics op failed: {response.get('error', response)}"
            )
        snapshot = response["json"]
        traces = response.get("traces", [])
        prometheus = response["prometheus"]
    else:
        snapshot = REGISTRY.snapshot()
        traces = RECENT.snapshot()
        prometheus = None
    if args.obs_format == "prometheus":
        if prometheus is None:
            prometheus = render_prometheus(snapshot)
        print(prometheus, end="")
    else:
        print(render_json(snapshot, traces=traces if args.traces else None))
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    from .analysis import format_report, witness_space_report

    r = _load_bag(args.left)
    s = _load_bag(args.right)
    report = witness_space_report(r, s)
    print(format_report(report))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import main as lint_main

    return lint_main(args.lint_args, prog="repro lint")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Bag consistency toolkit (Atserias & Kolaitis, PODS 2021)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-pair", help="two-bag consistency (Lemma 2)")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_check_pair)

    p = sub.add_parser("witness", help="two-bag witness (Corollary 1/4)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--minimal", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser(
        "global-check", help="global consistency of a collection (GCPB)"
    )
    p.add_argument("collection")
    p.add_argument(
        "--method", choices=["auto", "acyclic", "search"], default="auto"
    )
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_global_check)

    p = sub.add_parser(
        "audit-schema",
        help="acyclicity audit + Theorem 2 counterexample synthesis",
    )
    p.add_argument("hypergraph")
    p.add_argument("--counterexample", metavar="OUT")
    p.set_defaults(func=_cmd_audit_schema)

    p = sub.add_parser("show", help="render a bag in the paper's format")
    p.add_argument("bag")
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser(
        "certificate",
        help="produce a verifiable inconsistency certificate",
    )
    p.add_argument("collection")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=_cmd_certificate)

    p = sub.add_parser(
        "repair",
        help="repair a collection over an acyclic schema",
    )
    p.add_argument("collection")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser(
        "analyze",
        help="witness-space ambiguity report for a pair of bags",
    )
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser(
        "lint",
        help="repo-aware static analysis: lock, cache, and snapshot "
        "invariants (RL01-RL05)",
        add_help=False,  # flags pass through to the lint parser
    )
    p.add_argument("lint_args", nargs=argparse.REMAINDER)
    p.set_defaults(func=_cmd_lint)

    p = sub.add_parser(
        "batch",
        help="run many pair/collection/suite jobs through one engine",
    )
    p.add_argument("jobs")
    p.add_argument(
        "--method", choices=["auto", "acyclic", "search"], default="auto"
    )
    p.add_argument(
        "--witnesses",
        action="store_true",
        help="include a witness bag for every consistent pair",
    )
    _add_engine_knobs(p)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_batch)

    p = sub.add_parser(
        "serve",
        help="long-running batch daemon over a Unix/TCP socket",
    )
    p.add_argument(
        "--socket", metavar="PATH", help="listen on a Unix domain socket"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, metavar="N", help="listen on TCP host:port"
    )
    p.add_argument(
        "--method", choices=["auto", "acyclic", "search"], default="auto"
    )
    p.add_argument(
        "--witnesses",
        action="store_true",
        help="include a witness bag for every consistent pair",
    )
    _add_engine_knobs(p)
    p.add_argument(
        "--wire-format",
        choices=["json", "columnar"],
        default="columnar",
        dest="wire_format",
        help="socket transport (default columnar): accept and advertise "
        "v2 binary frames alongside newline JSON ('json' simulates a "
        "v1-only daemon)",
    )
    p.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        metavar="N",
        help="admission cap: at most N batches execute concurrently "
        "(default: scaled to the core count)",
    )
    p.add_argument(
        "--slow-ms",
        type=float,
        default=None,
        metavar="MS",
        dest="slow_ms",
        help="log a warning with the full span breakdown for any "
        "request slower than MS milliseconds (default: off)",
    )
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser(
        "obs",
        help="telemetry exposition: scrape a daemon's metrics op, or "
        "dump this process's registry",
    )
    p.add_argument(
        "--socket", metavar="PATH", help="scrape a daemon on a Unix socket"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, metavar="N", help="scrape a daemon on TCP"
    )
    p.add_argument(
        "--format",
        choices=["json", "prometheus"],
        default="json",
        dest="obs_format",
        help="output format (default: one-line JSON)",
    )
    p.add_argument(
        "--traces",
        action="store_true",
        help="include the recent-trace ring in JSON output",
    )
    p.set_defaults(func=_cmd_obs)

    p = sub.add_parser(
        "store",
        help="inspect or maintain a persistent verdict store directory",
    )
    p.add_argument("action", choices=["stats", "compact", "clear", "verify"])
    p.add_argument(
        "--store-dir",
        required=True,
        metavar="DIR",
        help="the persistent store directory (as given to batch/serve)",
    )
    p.add_argument(
        "--sample",
        type=int,
        default=32,
        metavar="N",
        help="(verify) cross-check at most N sampled records against "
        "fresh recompute (0 skips sampling, CRC scan only)",
    )
    p.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="N",
        help="(verify) RNG seed for the record sample",
    )
    p.set_defaults(func=_cmd_store)

    return parser


def _add_engine_knobs(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--parallelism",
        type=int,
        default=None,
        metavar="N",
        help="run the global checks that take the Theorem 4 search "
        "(cyclic schemas, or --method search) on N worker processes "
        "when N > 1; pair checks, witnesses and acyclic folds always "
        "run in this process (default: one process, or every core with "
        "--backend process)",
    )
    p.add_argument(
        "--backend",
        choices=["serial", "process"],
        default=None,
        help="shorthand for --parallelism: serial runs every batch in "
        "this process whatever --parallelism says; process defaults "
        "--parallelism to every core (only search work ever ships)",
    )
    p.add_argument(
        "--capacity",
        type=int,
        default=None,
        metavar="N",
        help="bound the engine's verdict store to N results (LRU "
        "eviction; with --store-dir this bounds the in-memory hot "
        "tier — disk is unbounded)",
    )
    p.add_argument(
        "--store-dir",
        default=None,
        metavar="DIR",
        help="durable sharded verdict store: verdicts/witnesses/global "
        "results spill to segment logs here and are reloaded warm on "
        "the next run",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count when creating a new --store-dir (default 8; "
        "an existing store keeps its count)",
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["lint"]:
        # Route around argparse: REMAINDER drops leading optionals
        # (`repro lint --strict`), so hand the tail straight to the
        # lint CLI, which owns all of its flags.
        from .analysis.cli import main as lint_main

        return lint_main(argv[1:], prog="repro lint")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
