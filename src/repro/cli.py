"""Command-line interface: thin builders over :mod:`repro.flow` plans.

Every extraction-shaped subcommand (``backbone``, ``score``,
``sweep``) compiles its arguments into a declarative flow plan and
runs it — the CLI adds no execution logic of its own, so its output
is bit-identical to the library API by construction. ``repro backbone
--explain`` prints the compiled plan (source fingerprint, method
config, cache key) without executing, and ``repro flow run plan.json``
executes a plan saved as a JSON artifact (``Plan.to_json``).

Every subcommand detects the file format from the suffix: ``.csv``
(plain text, ``src,dst,weight`` with a header), ``.csv.gz`` (the same,
gzip-compressed) and ``.npz`` (the binary columnar format, which also
stores directedness, labels and the exact node count). ``repro
convert`` translates between them.

Examples
--------
::

    python -m repro.cli backbone edges.csv out.csv --method NC --delta 1.64
    python -m repro.cli backbone edges.npz out.npz --method DF --share 0.1
    python -m repro.cli backbone edges.csv out.csv --explain
    python -m repro.cli score edges.csv.gz scored.csv --method NC
    python -m repro.cli info edges.npz
    python -m repro.cli convert edges.csv edges.npz
    python -m repro.cli sweep edges.csv --metric density --workers -1 \
        --cache-dir .repro-cache
    python -m repro.cli flow run plan.json --output backbone.csv
    python -m repro.cli obs trace plan.json --cache-dir .repro-cache
    python -m repro.cli obs metrics --port 8710
    python -m repro.cli cache stats .repro-cache
    python -m repro.cli cache gc .repro-cache --max-bytes 100000000
    python -m repro.cli cache migrate .repro-cache scores.sqlite
    python -m repro.cli net serve --port 8711
    python -m repro.cli net put 127.0.0.1:8711 edges.npz edges.npz
    python -m repro.cli backbone kv://127.0.0.1:8711/edges.npz out.csv \
        --cache-dir kv://127.0.0.1:8711

Cache locations (``--cache-dir`` and the ``cache`` subcommands) accept
a directory path, a ``.sqlite``/``.db`` file, or an explicit
``sqlite://``/``dir://``/``kv://host:port`` spec; input paths also
accept ``http(s)://`` and ``kv://host:port/key`` source URLs.

Exit codes: 0 on success; 2 for bad input, as one ``error:`` line on
stderr; 1 when ``obs trace``'s plan fails or no daemon or KV server
answers (``serve status|shutdown``, ``obs metrics``, ``net stats|put``).
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional, Sequence

from .backbones.registry import get_method, method_codes
from .evaluation.coverage import coverage
from .graph.ingest import detect_format, read_edges, write_edges
from .graph.metrics import density

#: Methods whose configuration takes the --delta strictness knob.
_DELTA_CODES = ("NC", "NCp")

#: --streaming choice -> the flow() knob.
_STREAMING_MODES = {"auto": "auto", "always": True, "never": False}

_FORMAT_EPILOG = """\
file formats (detected from the suffix on every subcommand):
  .csv      src,dst,weight text with a header row; endpoints may be
            integer indices or string labels
  .csv.gz   the same, gzip-compressed (transparent on read and write)
  .npz      binary columnar format: fastest to load, and the only one
            that stores directedness, labels and the exact node count
            (so --directed is ignored for .npz input)

use `repro convert` to translate between formats.
"""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Network backboning (Coscia & Neffke, ICDE 2017)",
        epilog=_FORMAT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    commands = parser.add_subparsers(dest="command", required=True)

    backbone = commands.add_parser(
        "backbone", help="extract a backbone from an edge list",
        epilog=_FORMAT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    _add_io_arguments(backbone)
    backbone.add_argument("--method", default="NC",
                          choices=method_codes(),
                          help="backbone method code (default NC)")
    backbone.add_argument("--delta", type=float, default=1.64,
                          help="NC delta (standard deviations; "
                               "default 1.64 ~ p<0.05)")
    group = backbone.add_mutually_exclusive_group()
    group.add_argument("--threshold", type=float,
                       help="keep edges with score above this value")
    group.add_argument("--share", type=float,
                       help="keep this share of edges (0..1)")
    group.add_argument("--n-edges", type=int,
                       help="keep exactly this many edges")
    backbone.add_argument("--streaming", default="auto",
                          choices=("auto", "always", "never"),
                          help="out-of-core scoring: 'always' streams "
                               "the file in O(nodes) memory (NC/NCp/DF/"
                               "NT only), 'never' loads it whole, "
                               "'auto' streams supported methods above "
                               "a size threshold (default auto)")
    backbone.add_argument("--cache-dir",
                          help="scored-table cache location (directory, "
                               ".sqlite file or spec); repeated "
                               "extractions skip rescoring")
    backbone.add_argument("--explain", action="store_true",
                          help="print the compiled plan (source "
                               "fingerprint, method config, cache key) "
                               "without executing; with a warm "
                               "--cache-dir the file is not even parsed")

    score = commands.add_parser(
        "score", help="write per-edge scores without filtering")
    _add_io_arguments(score)
    score.add_argument("--method", default="NC", choices=method_codes())
    score.add_argument("--delta", type=float, default=1.64)

    info = commands.add_parser("info", help="describe an edge list")
    info.add_argument("input",
                      help="input edge file (.csv, .csv.gz or .npz)")
    info.add_argument("--directed", action="store_true",
                      help="treat edges as directed (csv only)")

    convert = commands.add_parser(
        "convert",
        help="translate an edge list between csv/csv.gz/npz",
        epilog=_FORMAT_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    convert.add_argument("input",
                         help="input edge file (.csv, .csv.gz or .npz)")
    convert.add_argument("output",
                         help="output edge file; the suffix picks the "
                              "format")
    convert.add_argument("--directed", action="store_true",
                         help="treat csv input as directed (.npz "
                              "input carries its own directedness)")
    convert.add_argument("--streaming", default="auto",
                         choices=("auto", "always", "never"),
                         help="out-of-core conversion to .npz in "
                              "O(nodes) memory: 'always' requires an "
                              ".npz output, 'auto' streams above a "
                              "size threshold (default auto)")

    sweep = commands.add_parser(
        "sweep",
        help="sweep methods across edge shares (cached, sharded)")
    sweep.add_argument("input",
                       help="input edge file (.csv, .csv.gz or .npz)")
    sweep.add_argument("--directed", action="store_true",
                       help="treat edges as directed (csv only)")
    sweep.add_argument("--methods", default="NT,MST,DS,HSS,DF,NC",
                       help="comma-separated method codes "
                            "(default: the paper's six)")
    sweep.add_argument("--metric", default="density",
                       help="metric per backbone: coverage, density, "
                            "average-degree or edges (default density)")
    sweep.add_argument("--shares",
                       help="comma-separated shares of edges to keep "
                            "(default: the paper's log-spaced grid)")
    sweep.add_argument("--delta", type=float, default=1.64,
                       help="NC/NCp delta (default 1.64 ~ p<0.05)")
    sweep.add_argument("--workers", type=int,
                       help="process fan-out; -1 = one per CPU")
    sweep.add_argument("--cache-dir",
                       help="scored-table cache location (directory, "
                            ".sqlite file or sqlite:// spec); reruns "
                            "skip rescoring")
    sweep.add_argument("--output",
                       help="also write method,share,value rows to this "
                            "CSV")

    flow_cmd = commands.add_parser(
        "flow", help="run declarative plan artifacts (plan.json)")
    flow_commands = flow_cmd.add_subparsers(dest="flow_command",
                                            required=True)
    flow_run = flow_commands.add_parser(
        "run", help="execute a plan saved with Plan.to_json()")
    flow_run.add_argument("plan", help="path to the plan.json artifact")
    flow_run.add_argument("--output",
                          help="write the extracted backbone here "
                               "(suffix picks the format)")
    flow_run.add_argument("--cache-dir",
                          help="scored-table cache location (directory, "
                               ".sqlite file or spec)")
    flow_run.add_argument("--workers", type=int,
                          help="process fan-out; -1 = one per CPU")
    flow_run.add_argument("--explain", action="store_true",
                          help="print the compiled plan and exit "
                               "without executing")

    obs = commands.add_parser(
        "obs",
        help="observability: trace plan executions, scrape metrics")
    obs_commands = obs.add_subparsers(dest="obs_command", required=True)
    obs_trace = obs_commands.add_parser(
        "trace", help="run a plan artifact under tracing and dump the "
                      "trace (span tree, stage durations) as JSON")
    obs_trace.add_argument("plan", help="path to the plan.json artifact")
    obs_trace.add_argument("--cache-dir",
                           help="scored-table cache location (directory, "
                                ".sqlite file or spec)")
    obs_trace.add_argument("--workers", type=int,
                           help="process fan-out; -1 = one per CPU")
    obs_trace.add_argument("--output",
                           help="write the trace JSON here instead of "
                                "stdout")
    obs_metrics = obs_commands.add_parser(
        "metrics", help="print a running daemon's Prometheus text "
                        "exposition (GET /v1/metrics)")
    obs_metrics.add_argument("--host", default="127.0.0.1",
                             help="daemon address (default 127.0.0.1)")
    obs_metrics.add_argument("--port", type=int, default=8710,
                             help="daemon port (default 8710)")

    cache = commands.add_parser(
        "cache", help="inspect and manage scored-table caches")
    cache_commands = cache.add_subparsers(dest="cache_command",
                                          required=True)
    cache_stats = cache_commands.add_parser(
        "stats", help="entry count, byte total and idle ages of a cache")
    cache_stats.add_argument("store", help="cache location (directory, "
                                           ".sqlite file or spec)")
    cache_gc = cache_commands.add_parser(
        "gc", help="evict least-recently-used entries until bounds hold")
    cache_gc.add_argument("store", help="cache location")
    cache_gc.add_argument("--max-bytes", type=int,
                          help="keep at most this many payload bytes")
    cache_gc.add_argument("--max-entries", type=int,
                          help="keep at most this many entries")
    cache_gc.add_argument("--max-age-days", type=float,
                          help="evict entries idle longer than this")
    cache_gc.add_argument("--dry-run", action="store_true",
                          help="report what would be evicted; delete "
                               "nothing")
    cache_migrate = cache_commands.add_parser(
        "migrate", help="copy every entry into another backend")
    cache_migrate.add_argument("source", help="cache to copy from")
    cache_migrate.add_argument("dest", help="cache to copy into")

    net = commands.add_parser(
        "net",
        help="run or talk to the shared socket KV server (kv://)")
    net_commands = net.add_subparsers(dest="net_command", required=True)
    net_serve = net_commands.add_parser(
        "serve", help="start a KV server; share one warm cache across "
                      "processes via --cache-dir kv://host:port")
    net_serve.add_argument("--host", default="127.0.0.1",
                           help="bind address (default 127.0.0.1)")
    net_serve.add_argument("--port", type=int, default=8711,
                           help="bind port; 0 picks a free one "
                                "(default 8711)")
    net_stats = net_commands.add_parser(
        "stats", help="print a running KV server's stats as JSON")
    net_stats.add_argument("address",
                           help="server address (kv://host:port or "
                                "host:port)")
    net_put = net_commands.add_parser(
        "put", help="upload a file as a named object and print its "
                    "kv:// URL (usable as a flow source)")
    net_put.add_argument("address",
                         help="server address (kv://host:port or "
                              "host:port)")
    net_put.add_argument("key", help="object key, e.g. edges.npz")
    net_put.add_argument("file", help="local file to upload")

    serve = commands.add_parser(
        "serve",
        help="run or talk to the long-lived backbone daemon")
    serve_commands = serve.add_subparsers(dest="serve_command",
                                          required=True)
    serve_start = serve_commands.add_parser(
        "start", help="start the daemon (blocks until shutdown)")
    serve_start.add_argument("--host", default="127.0.0.1",
                             help="bind address (default 127.0.0.1)")
    serve_start.add_argument("--port", type=int, default=8710,
                             help="bind port; 0 picks a free one "
                                  "(default 8710)")
    serve_start.add_argument("--workers", type=int,
                             help="process fan-out for cold scoring; "
                                  "-1 = one per CPU")
    serve_start.add_argument("--cache-dir",
                             help="persistent scored-table cache "
                                  "(directory, .sqlite file or spec); "
                                  "omitted = memory-only")
    serve_start.add_argument("--deadline", type=float, default=30.0,
                             help="default per-request deadline in "
                                  "seconds (default 30)")
    serve_start.add_argument("--slow-request", type=float,
                             help="log a warning (and count it) for "
                                  "requests slower end-to-end than "
                                  "this many seconds")
    serve_start.add_argument("--probe-interval", type=float, default=5.0,
                             help="seconds between background probes "
                                  "that re-arm a degraded cache "
                                  "backend; 0 disables (default 5)")
    for name, help_text in (
            ("status", "print a running daemon's status as JSON"),
            ("shutdown", "ask a running daemon to stop")):
        sub = serve_commands.add_parser(name, help=help_text)
        sub.add_argument("--host", default="127.0.0.1",
                         help="daemon address (default 127.0.0.1)")
        sub.add_argument("--port", type=int, default=8710,
                         help="daemon port (default 8710)")

    analyze = commands.add_parser(
        "analyze",
        help="run the repo's AST invariant checkers (RPA001-RPA005)")
    analyze.add_argument("paths", nargs="*", default=["src"],
                         help="files or directories to check "
                              "(default: src)")
    analyze.add_argument("--format", choices=("text", "json"),
                         default="text",
                         help="report format (default text)")
    analyze.add_argument("--baseline", metavar="PATH",
                         help="baseline file of grandfathered "
                              "findings (default: "
                              "analysis-baseline.json when present)")
    analyze.add_argument("--no-baseline", action="store_true",
                         help="ignore any baseline file")
    analyze.add_argument("--write-baseline", action="store_true",
                         help="grandfather all current findings into "
                              "the baseline file and exit")
    analyze.add_argument("--list-checkers", action="store_true",
                         help="print the checker table and exit")
    return parser


def _add_io_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("input",
                     help="input edge file (.csv, .csv.gz or .npz)")
    sub.add_argument("output", help="output path (suffix picks format)")
    sub.add_argument("--directed", action="store_true",
                     help="treat edges as directed (csv only)")


def _make_method(code: str, delta: float):
    if code in _DELTA_CODES:
        return get_method(code, delta=delta)
    return get_method(code)


def _build_plan(args: argparse.Namespace):
    """Lower backbone/score arguments onto a declarative flow plan."""
    from .flow import BUDGET_KEYS, flow

    params = {"delta": args.delta} if args.method in _DELTA_CODES else {}
    streaming = _STREAMING_MODES[getattr(args, "streaming", "auto")]
    plan = flow(args.input, directed=args.directed,
                streaming=streaming).method(args.method, **params)
    kwargs = {name: getattr(args, name) for name in BUDGET_KEYS
              if getattr(args, name, None) is not None}
    if kwargs:
        plan = plan.budget(**kwargs)
    return plan, kwargs


def _run_backbone(args: argparse.Namespace) -> int:
    from .pipeline import ScoreStore

    plan, kwargs = _build_plan(args)
    # The method's own budget rule, checked before anything is parsed.
    plan.method_spec.build().cut(**kwargs)
    store = None if args.cache_dir is None else ScoreStore(args.cache_dir)
    if args.explain:
        print(plan.explain(store=store))
        return 0
    result = plan.run(store=store)
    backbone = result.backbone
    # The source's TableSummary answers everything the report needs
    # (m, non_isolated_count), in memory, streamed or warm alike.
    base = result.base
    write_edges(backbone, args.output)
    kept_nodes = coverage(base, backbone)
    print(f"kept {backbone.m} of {base.m} edges "
          f"({backbone.m / max(base.m, 1):.1%}); "
          f"coverage {kept_nodes:.1%}")
    return 0


def _run_score(args: argparse.Namespace) -> int:
    plan, _ = _build_plan(args)
    scored = plan.scores()
    with open(args.output, "w", newline="") as handle:
        writer = csv.writer(handle)
        header = ["src", "dst", "weight", "score"]
        if scored.sdev is not None:
            header.append("sdev")
        writer.writerow(header)
        for row, (u, v, w) in enumerate(scored.table.iter_edges()):
            record = [scored.table.label_of(u), scored.table.label_of(v),
                      repr(w), repr(float(scored.score[row]))]
            if scored.sdev is not None:
                record.append(repr(float(scored.sdev[row])))
            writer.writerow(record)
    print(f"scored {scored.m} edges with {scored.method}")
    return 0


def _run_info(args: argparse.Namespace) -> int:
    import numpy as np

    table = read_edges(args.input, directed=args.directed)
    weights = table.weight
    print(f"format:    {detect_format(args.input)}")
    print(f"nodes:     {table.n_nodes}")
    print(f"edges:     {table.m}")
    print(f"directed:  {table.directed}")
    print(f"density:   {density(table):.4f}")
    print(f"isolates:  {len(table.isolates())}")
    if table.m:
        median = np.partition(weights, table.m // 2)[table.m // 2]
        print(f"weights:   min={weights.min():g} median={median:g} "
              f"max={weights.max():g} total={weights.sum():g}")
    return 0


def _run_convert(args: argparse.Namespace) -> int:
    table = _convert_edges(args)
    kind = "directed" if table.directed else "undirected"
    labeled = "labeled" if table.labels is not None else "unlabeled"
    print(f"wrote {args.output} ({detect_format(args.output)}): "
          f"{table.m} edges, {table.n_nodes} nodes, {kind}, {labeled}")
    return 0


def _convert_edges(args: argparse.Namespace):
    """Convert in memory or out-of-core; returns the table or summary.

    Streaming conversion (bounded memory, same canonical rows) can
    only target ``.npz`` — the text writers need a materialized
    table — so ``--streaming always`` demands an ``.npz`` output and
    ``auto`` falls back to in-memory for text outputs.
    """
    mode = _STREAMING_MODES[getattr(args, "streaming", "auto")]
    if mode is not False and detect_format(args.output) == "npz":
        from .stream import auto_streams, stream_convert

        if mode is True or auto_streams(args.input):
            return stream_convert(args.input, args.output,
                                  directed=args.directed)
    elif mode is True:
        raise ValueError("--streaming always needs an .npz output; "
                         f"got {args.output!r}")
    table = read_edges(args.input, directed=args.directed)
    write_edges(table, args.output)
    return table


def _run_sweep(args: argparse.Namespace) -> int:
    from .evaluation.sweep import DEFAULT_SHARES
    from .flow import MetricSpec, flow, sweep_methods
    from .pipeline import ScoreStore

    # The whole sweep compiles to a flow plan batch: one plan per
    # method and share over one file source. Source bindings (file
    # fingerprint -> table fingerprint and summary, so warm runs parse
    # nothing) and scoring deduplication live in the flow compiler,
    # not here.
    store = None if args.cache_dir is None else ScoreStore(args.cache_dir)
    codes = [code.strip() for code in args.methods.split(",")
             if code.strip()]
    methods = [_make_method(code, args.delta) for code in codes]
    metric = MetricSpec(args.metric)
    shares = DEFAULT_SHARES if args.shares is None else tuple(
        float(part) for part in args.shares.split(","))
    for share in shares:
        if not 0.0 <= share <= 1.0:
            raise ValueError(f"share must be in [0, 1], got {share}")
    series = sweep_methods(methods, flow(args.input, directed=args.directed),
                           metric, shares=shares, store=store,
                           workers=args.workers)

    header = "share".rjust(7) + "".join(code.rjust(12) for code in codes)
    print(f"{args.metric} across shares of edges kept")
    print(header)
    budgeted = {code: dict(zip(result.shares, result.values))
                for code, result in series.items()
                if not result.parameter_free}
    for share in shares:
        cells = []
        for code in codes:
            value = budgeted.get(code, {}).get(share)
            cells.append(f"{value:12.4f}" if value is not None
                         else " " * 8 + "-" * 4)
        print(f"{share:7.3f}" + "".join(cells))
    for code, result in series.items():
        if result.parameter_free and result.shares:
            print(f"  {code}: {result.values[0]:.4f} at its natural "
                  f"share {result.shares[0]:.4f}")
        elif not result.shares:
            print(f"  {code}: n/a (not applicable to this network)")
    if store is not None:
        print(store.stats.summary())

    if args.output:
        with open(args.output, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["method", "share", "value"])
            for code in codes:
                result = series[code]
                for share, value in zip(result.shares, result.values):
                    writer.writerow([code, repr(share), repr(value)])
    return 0


def _read_plan(path: str):
    """The plan artifact saved at ``path``."""
    from .flow import Plan

    with open(path) as handle:
        return Plan.from_json(handle.read())


def _run_flow(args: argparse.Namespace) -> int:
    from .pipeline import ScoreStore

    plan = _read_plan(args.plan)
    store = None if args.cache_dir is None else ScoreStore(args.cache_dir)
    if args.explain:
        print(plan.explain(store=store))
        return 0
    result = plan.run(store=store, workers=args.workers)
    backbone = result.backbone
    if args.output:
        write_edges(backbone, args.output)
    print(f"plan {plan.fingerprint()[:16]}: kept {backbone.m} of "
          f"{result.base.m} edges ({result.kept_share:.1%} of non-loop "
          "edges)")
    for name, value in result.metrics.items():
        print(f"  {name}: {value:.6g}")
    if store is not None:
        print(store.stats.summary())
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    import json

    if args.obs_command == "metrics":
        from .serve import ServeClient, ServeError

        client = ServeClient(args.host, args.port)
        try:
            sys.stdout.write(client.metrics())
        except (OSError, ServeError) as error:
            print(f"no daemon at {args.host}:{args.port} ({error})",
                  file=sys.stderr)
            return 1
        return 0

    from .flow.serve import serve
    from .obs import TRACER, trace, trace_to_dict
    from .pipeline import ScoreStore

    plan = _read_plan(args.plan)
    store = None if args.cache_dir is None else ScoreStore(args.cache_dir)
    with trace("cli.trace", plan=plan.fingerprint()[:16]) as root:
        results = serve([plan], store=store, workers=args.workers)
    artifact = trace_to_dict(root.trace_id, TRACER.pop(root.trace_id))
    text = json.dumps(artifact, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    for name, seconds in sorted(artifact["stages"].items(),
                                key=lambda kv: -kv[1]):
        print(f"  {name:<16} {seconds:.6f}s", file=sys.stderr)
    result = results[0]
    if result.error is not None:
        print(f"error: plan failed: {result.error}", file=sys.stderr)
        return 1
    return 0


def _run_cache(args: argparse.Namespace) -> int:
    from .pipeline.backends import open_backend

    if args.cache_command == "stats":
        return _cache_stats(open_backend(args.store))
    if args.cache_command == "gc":
        return _cache_gc(open_backend(args.store), args)
    return _cache_migrate(open_backend(args.source), open_backend(args.dest))


def _cache_stats(backend) -> int:
    infos = backend.entries()
    negatives = sources = 0
    for info in infos:
        if not info.negative:
            continue
        meta = backend.peek_meta(info.key) or {}
        if meta.get("source") is not None:
            sources += 1
        else:
            negatives += 1
    print(f"backend:  {backend.describe()}")
    print(f"entries:  {len(infos)} ({negatives} negative, "
          f"{sources} source bindings)")
    print(f"bytes:    {sum(info.size for info in infos)}")
    if infos:
        import time as _time

        now = _time.time()
        idle = [max(0.0, now - info.last_access) for info in infos]
        print(f"idle:     min {min(idle):.0f}s, max {max(idle):.0f}s")
    return 0


def _cache_gc(backend, args: argparse.Namespace) -> int:
    from .pipeline.backends import GCPolicy, run_gc

    max_age = None if args.max_age_days is None \
        else args.max_age_days * 86_400.0
    policy = GCPolicy(max_bytes=args.max_bytes,
                      max_entries=args.max_entries, max_age=max_age)
    result = run_gc(backend, policy, dry_run=args.dry_run)
    print(result.summary())
    return 0


def _cache_migrate(source, dest) -> int:
    from .pipeline.backends import BackendCorruption

    copied = skipped = 0
    for key in source.keys():
        try:
            raw = source.get(key, touch=False)
        except BackendCorruption:
            skipped += 1
            continue
        if raw is None:
            skipped += 1
            continue
        dest.put(key, raw)
        copied += 1
    print(f"migrated {copied} entries from {source.describe()} "
          f"to {dest.describe()}"
          + (f" ({skipped} corrupt/missing skipped)" if skipped else ""))
    return 0


def _net_address(text: str):
    """``(host, port)`` from ``kv://host:port`` or ``host:port``."""
    address = text.partition("://")[2] if "://" in text else text
    host, _, port_text = address.rpartition(":")
    if not host or not port_text.isdigit():
        raise ValueError(f"bad KV address {text!r}; expected "
                         "kv://host:port")
    return host, int(port_text)


def _run_net(args: argparse.Namespace) -> int:
    import json

    from .pipeline.backends import KVError

    if args.net_command == "serve":
        from .net.server import main as net_main

        return net_main(["--host", args.host, "--port", str(args.port)])
    host, port = _net_address(args.address)
    if args.net_command == "stats":
        from .net import SocketKVTransport

        transport = SocketKVTransport(host, port)
        try:
            stats = transport.request("stats")
        except (OSError, KVError) as error:
            print(f"no KV server at {host}:{port} ({error})",
                  file=sys.stderr)
            return 1
        finally:
            transport.close()
        print(json.dumps(stats, indent=2, sort_keys=True))
        return 0
    from .net import put_object

    try:
        url = put_object(f"kv://{host}:{port}", args.key, args.file)
    except KVError as error:
        print(f"no KV server at {host}:{port} ({error})",
              file=sys.stderr)
        return 1
    print(url)
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import json

    from .serve import BackboneDaemon, ServeClient, ServeError

    if args.serve_command == "start":
        daemon = BackboneDaemon(
            host=args.host, port=args.port, cache_dir=args.cache_dir,
            workers=args.workers, default_deadline=args.deadline,
            slow_request_s=args.slow_request,
            probe_interval=args.probe_interval).start()
        print(f"backbone daemon listening on {args.host}:{daemon.port} "
              f"(POST /v1/run, GET /v1/status, GET /v1/metrics, "
              f"POST /v1/shutdown)")
        daemon.run_forever()
        print("backbone daemon stopped")
        return 0
    client = ServeClient(args.host, args.port)
    if args.serve_command == "status":
        try:
            print(json.dumps(client.status(), indent=2, sort_keys=True))
        except (OSError, ServeError) as error:
            print(f"no daemon at {args.host}:{args.port} ({error})",
                  file=sys.stderr)
            return 1
        return 0
    if client.shutdown():
        print("daemon shutting down")
        return 0
    print(f"no daemon at {args.host}:{args.port}", file=sys.stderr)
    return 1


_DEFAULT_BASELINE = "analysis-baseline.json"


def _run_analyze(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .analysis import (Baseline, analyze_paths, checker_table)

    if args.list_checkers:
        for code, name, rationale in checker_table():
            print(f"{code}  {name}: {rationale}")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"no such path: {missing[0]}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline) if args.baseline \
        else Path(_DEFAULT_BASELINE)
    baseline = None
    if not args.no_baseline and not args.write_baseline \
            and baseline_path.exists():
        try:
            baseline = Baseline.load(baseline_path)
        except (ValueError, OSError, KeyError) as error:
            print(f"bad baseline {baseline_path}: {error}",
                  file=sys.stderr)
            return 2

    report = analyze_paths(paths, root=Path.cwd(), baseline=baseline)

    if args.write_baseline:
        Baseline(report.findings).save(baseline_path)
        print(f"wrote {len(report.findings)} finding(s) to "
              f"{baseline_path}")
        return 0
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.render_text())
    return report.exit_code()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the exit code the module docstring lists.

    >>> main(["info", "no-such-file.csv"])
    2
    """
    args = build_parser().parse_args(argv)
    handlers = {"backbone": _run_backbone, "score": _run_score,
                "info": _run_info, "convert": _run_convert,
                "sweep": _run_sweep, "flow": _run_flow,
                "obs": _run_obs, "cache": _run_cache,
                "net": _run_net, "serve": _run_serve,
                "analyze": _run_analyze}
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
