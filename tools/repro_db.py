#!/usr/bin/env python3
"""repro_db — command-line front door to the persistence layer.

Build a database from RDF, reopen it, query it, inspect it::

    # parse + discover + cluster + save
    python tools/repro_db.py save data.nt mydb/

    # sanity-open: restore + WAL replay, report what came back
    python tools/repro_db.py open mydb/

    # run SPARQL (default) or SQL against a saved database
    python tools/repro_db.py query mydb/ 'SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }'
    python tools/repro_db.py query mydb/ --sql 'SELECT * FROM Book'

    # run one query under the resource profiler (per-operator CPU, rows,
    # page reads, payload bytes; --memory adds tracemalloc peaks)
    python tools/repro_db.py profile mydb/ 'SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }'

    # apply a SPARQL Update (logged to the WAL), optionally checkpoint
    python tools/repro_db.py update mydb/ 'INSERT DATA { <http://x/s> <http://x/p> "v" . }'
    python tools/repro_db.py checkpoint mydb/

    # manifest + schema + buffer statistics
    python tools/repro_db.py info mydb/

    # live metrics: storage, buffer pool, plan cache, Prometheus exposition
    python tools/repro_db.py stats mydb/
    python tools/repro_db.py stats mydb/ --prometheus

    # refreshing live view of a running server's in-flight queries
    python tools/repro_db.py top http://127.0.0.1:9090

Exit status is 0 on success, 1 on any repro error (bad input, corrupt
database, unsupported query), with the message on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro import (  # noqa: E402
    RDFStore,
    ReproError,
    WriteAheadLog,
    default_registry,
    render_prometheus,
)
from repro.obs import format_bytes  # noqa: E402
from repro.persist import MANIFEST_FILE, SnapshotReader  # noqa: E402
from repro.persist.snapshot import wal_path  # noqa: E402
from repro.rio import load_graph  # noqa: E402
from repro.storage import ORDERS  # noqa: E402


def cmd_save(args: argparse.Namespace) -> int:
    graph = load_graph(Path(args.source), syntax=args.syntax)
    store = RDFStore.build(graph, cluster=not args.no_cluster)
    info = store.save(args.database)
    print(f"saved {info.triples} triples / {info.terms} terms to {info.path} "
          f"({info.files} files, {info.data_bytes / 1024:.0f} KiB, epoch {info.epoch[:8]})")
    return 0


def cmd_open(args: argparse.Namespace) -> int:
    store = RDFStore.open(args.database)
    summary = store.storage_summary()
    print(f"opened {summary['triples']} triples, {summary['terms']} terms, "
          f"{summary.get('tables', 0)} tables, clustered={summary['clustered']}")
    if store.has_pending_updates():
        print(f"replayed WAL: {store.delta.insert_count()} pending inserts, "
              f"{store.delta.tombstone_count()} pending deletes")
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    store = RDFStore.open(args.database)
    if args.sql:
        result = store.sql(args.query)
    else:
        result = store.sparql(args.query)
    for row in store.decode_rows(result):
        print("\t".join("NULL" if value is None else str(value) for value in row))
    print(f"-- {len(result)} rows ({result.cost.describe()})", file=sys.stderr)
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    store = RDFStore.open(args.database)
    if args.memory:
        store.config.profile_memory = True
    if args.sql:
        result = store.sql(args.query, profile=True)
    else:
        result = store.sparql(args.query, profile=True)
    profile = result.trace
    print(profile.render())
    print()
    print(f"rows:        {len(result)}")
    print(f"page reads:  {profile.page_reads_total} "
          f"(hits {profile.page_hits_total})")
    print(f"payload:     {format_bytes(profile.payload_bytes_total)} "
          f"moved between operators")
    print(f"residual:    {sum(result.run.residuals.values())} "
          f"subjects answered by the residual scan, not a block")
    if result.run.buffers:
        pairs = ", ".join(f"{key}={value}"
                          for key, value in sorted(result.run.buffers.items()))
        print(f"buffer pool: {pairs}")
    if profile.mem_peak:
        print(f"mem peak:    {format_bytes(profile.mem_peak)} "
              f"(tracemalloc, per-operator in the tree above)")
    return 0


def cmd_update(args: argparse.Namespace) -> int:
    store = RDFStore.open(args.database)
    result = store.update(args.request)
    durability = "logged to WAL" if result.changed else "no-op, not logged"
    print(f"inserted {result.inserted}, deleted {result.deleted} "
          f"({result.statements} statements, {durability})")
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    store = RDFStore.open(args.database)
    report = store.checkpoint()
    print(report.describe())
    for line in _render_maintenance(store):
        print(line)
    return 0


_MAINTENANCE_SPLITS = {
    "compaction": ("statistics_s", "index_s"),
    "checkpoint": ("compact_s", "write_s"),
}


def _render_maintenance(store: RDFStore) -> list[str]:
    """Where the newest compaction and checkpoint of this process went: one
    line per event type that has been emitted, seconds split by phase (and
    how many sorted projections a compaction merged)."""
    lines = []
    for kind, phases in _MAINTENANCE_SPLITS.items():
        for event in store.events(type=kind, limit=1):
            split = ", ".join(f"{phase}={event[phase] * 1000:.1f}ms" for phase in phases)
            if "projections_merged" in event:
                split += f", projections_merged={event['projections_merged']}"
            lines.append(f"last {kind + ':':<12}{event['seconds'] * 1000:.1f}ms ({split})")
    return lines


def cmd_info(args: argparse.Namespace) -> int:
    reader = SnapshotReader(args.database)
    manifest = reader.manifest
    print(f"database:   {args.database}")
    print(f"format:     {manifest['format']} v{manifest['format_version']} "
          f"(epoch {manifest['epoch'][:8]}, created {manifest['created_utc']})")
    print(f"triples:    {manifest['triples']}")
    print(f"terms:      {manifest['terms']} "
          f"(value-order watermark {manifest['value_order_watermark']})")
    print(f"clustered:  {manifest['clustered']}")
    # a database stores no projection (format v1 / v2 files are ignored):
    # an opened store starts with none and sorts one when a pattern reads it
    ignored = len((manifest.get("index") or {}).get("orders", ()))
    print(f"index:      {len(ORDERS)} projections sorted from {manifest['matrix']['file']} "
          f"at first read; projections_materialized=[] at open"
          + (f" ({ignored} stored projection files ignored)" if ignored else ""))
    clustered = manifest.get("clustered_store")
    if clustered:
        columns = sum(len(b["columns"]) for b in clustered["blocks"])
        zone_maps = sum(len(b["zone_maps"]) for b in clustered["blocks"])
        print(f"blocks:     {len(clustered['blocks'])} CS blocks, {columns} property "
              f"columns, {zone_maps} zone maps, "
              f"{clustered['irregular']['rows']} irregular triples")
        for block in clustered["blocks"]:
            # an entry without head_rows (an older database) is all head
            head = block.get("head_rows", block["rows"])
            print(f"table {block['label']}: {head} head rows, {block['rows'] - head} tail rows")
    # read-only peek: info must not replay the WAL (that runs queries and
    # materializes columns) or recovery-truncate it (a write)
    records = WriteAheadLog.peek(wal_path(args.database)).record_count()
    if records:
        print(f"wal:        {records} update records pending replay "
              f"(run 'open' for the resulting delta sizes)")
    else:
        print("wal:        empty (checkpointed)")
    if args.json:
        print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    store = RDFStore.open(args.database)
    if args.query:
        store.sparql(args.query)  # warm the metrics with one real query
    if args.prometheus:
        sys.stdout.write(render_prometheus(store.metrics_registry,
                                           default_registry()))
        return 0
    metrics = store.metrics()
    if args.json:
        payload = {
            "metrics": metrics,
            "slow_queries": [entry.as_dict() for entry in store.slow_queries()],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    summary = store.storage_summary()
    print(f"database:      {args.database}")
    print(f"triples:       {summary['triples']} ({summary['terms']} terms, "
          f"clustered={summary['clustered']})")
    print(f"projections:   projections_materialized={summary['projections_materialized']} "
          f"(sorted so far, of {len(ORDERS)})")
    pool = store.buffer_pool_stats()
    print(f"buffer pool:   {pool['cached_pages']} pages resident "
          f"({pool['resident_bytes'] / 1024:.0f} KiB), "
          f"{pool['page_hits']} hits / {pool['page_reads']} reads, "
          f"{pool['evictions']} evictions")
    cache = store.plan_cache.stats()
    print(f"plan cache:    {cache['size']} entries, "
          f"lifetime {cache['lifetime_hits']} hits / "
          f"{cache['lifetime_misses']} misses / "
          f"{cache['lifetime_evictions']} evictions")
    print(f"delta:         {store.delta.insert_count()} pending inserts, "
          f"{store.delta.tombstone_count()} tombstones, "
          f"version {store.delta.version}")
    slow = store.slow_queries()
    print(f"slow queries:  {len(slow)} logged "
          f"(threshold {store.config.slow_query_seconds * 1000:.0f}ms)")
    for entry in slow[:5]:
        print(f"  {entry.seconds * 1000:8.1f}ms  [{entry.frontend}] {entry.text[:70]}")
    for line in _render_maintenance(store):
        print(line)
    print(f"metrics:       {len(metrics)} samples "
          f"(use --prometheus for the exposition text)")
    for key in sorted(metrics):
        if key.split("{")[0].endswith(("_p50", "_p95", "_p99", "_max", "_sum")):
            continue  # the human view keeps counts; percentiles stay in --json
        print(f"  {key} = {metrics[key]:g}")
    return 0


def _render_top(stats: dict, queries: list) -> list[str]:
    lines = [
        f"repro top — {stats.get('active_queries', len(queries))} active, "
        f"{stats.get('open_snapshots', 0)} snapshots pinned, "
        f"delta v{stats.get('delta_version', '?')} "
        f"({stats.get('pending_inserts', 0)} pending inserts, "
        f"{stats.get('pending_deletes', 0)} pending deletes)",
        f"{'ID':>5} {'SRC':<8} {'FE':<6} {'SCHEME':<9} {'TIME':>8} "
        f"{'ROWS':>9} {'PROG':>6} {'OP':<28} QUERY",
    ]
    for q in queries:
        progress = q.get("progress")
        prog = f"{progress * 100:5.1f}%" if progress is not None else "     -"
        flag = "!" if q.get("cancel_requested") else " "
        lines.append(
            f"{q['id']:>5} {q.get('source', '-'):<8} {q.get('frontend', '-'):<6} "
            f"{q.get('scheme', '-'):<9} {q.get('elapsed_seconds', 0.0):7.2f}s "
            f"{q.get('rows', 0):>9} {prog} {q.get('operator', '')[:28]:<28}{flag}"
            f"{q.get('text', '')[:60]}")
    if not queries:
        lines.append("  (no queries in flight)")
    return lines


def cmd_top(args: argparse.Namespace) -> int:
    import time
    import urllib.error
    import urllib.request

    base = args.url.rstrip("/")
    if "://" not in base:
        base = "http://" + base
    iterations = args.iterations
    count = 0
    while True:
        try:
            with urllib.request.urlopen(base + "/queries", timeout=5) as resp:
                queries = json.loads(resp.read())["queries"]
            with urllib.request.urlopen(base + "/stats", timeout=5) as resp:
                stats = json.loads(resp.read())
        except (urllib.error.URLError, OSError) as exc:
            print(f"error: cannot reach {base}: {exc}", file=sys.stderr)
            return 1
        if not args.no_clear and count:
            sys.stdout.write("\033[2J\033[H")  # clear + home, like top(1)
        print("\n".join(_render_top(stats, queries)), flush=True)
        count += 1
        if iterations and count >= iterations:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro_db", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_save = sub.add_parser("save", help="build a store from RDF and save it")
    p_save.add_argument("source", help="RDF file (N-Triples or Turtle)")
    p_save.add_argument("database", help="target database directory")
    p_save.add_argument("--syntax", choices=["ntriples", "turtle"], default=None,
                        help="input syntax (default: inferred from extension)")
    p_save.add_argument("--no-cluster", action="store_true",
                        help="skip subject clustering (ParseOrder baseline)")
    p_save.set_defaults(func=cmd_save)

    p_open = sub.add_parser("open", help="open a database and report its state")
    p_open.add_argument("database")
    p_open.set_defaults(func=cmd_open)

    p_query = sub.add_parser("query", help="run SPARQL (or --sql) against a database")
    p_query.add_argument("database")
    p_query.add_argument("query")
    p_query.add_argument("--sql", action="store_true", help="treat the query as SQL")
    p_query.set_defaults(func=cmd_query)

    p_profile = sub.add_parser(
        "profile", help="run one query with the resource profiler and print "
                        "per-operator CPU, rows, pages and bytes")
    p_profile.add_argument("database")
    p_profile.add_argument("query")
    p_profile.add_argument("--sql", action="store_true",
                           help="treat the query as SQL")
    p_profile.add_argument("--memory", action="store_true",
                           help="also sample tracemalloc peaks per operator")
    p_profile.set_defaults(func=cmd_profile)

    p_update = sub.add_parser("update", help="apply a SPARQL Update (WAL-logged)")
    p_update.add_argument("database")
    p_update.add_argument("request")
    p_update.set_defaults(func=cmd_update)

    p_ckpt = sub.add_parser("checkpoint", help="compact + snapshot + truncate the WAL")
    p_ckpt.add_argument("database")
    p_ckpt.set_defaults(func=cmd_checkpoint)

    p_info = sub.add_parser("info", help=f"print the {MANIFEST_FILE} summary")
    p_info.add_argument("database")
    p_info.add_argument("--json", action="store_true", help="also dump the raw manifest")
    p_info.set_defaults(func=cmd_info)

    p_stats = sub.add_parser(
        "stats", help="open a database and print its observability metrics")
    p_stats.add_argument("database")
    p_stats.add_argument("--query", default=None, metavar="SPARQL",
                         help="run one query first so latency metrics are live")
    p_stats.add_argument("--prometheus", action="store_true",
                         help="print the Prometheus text exposition instead")
    p_stats.add_argument("--json", action="store_true",
                         help="print the flat metrics dict as JSON")
    p_stats.set_defaults(func=cmd_stats)

    p_top = sub.add_parser(
        "top", help="refreshing live view of a server's in-flight queries")
    p_top.add_argument("url", help="base URL of a QueryServer metrics endpoint "
                                   "(e.g. http://127.0.0.1:9090)")
    p_top.add_argument("--interval", type=float, default=1.0,
                       help="seconds between refreshes (default 1)")
    p_top.add_argument("--iterations", type=int, default=0, metavar="N",
                       help="stop after N refreshes (default: run until ^C)")
    p_top.add_argument("--no-clear", action="store_true",
                       help="append refreshes instead of clearing the screen")
    p_top.set_defaults(func=cmd_top)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
