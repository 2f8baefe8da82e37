"""Command-line interface: rank a CSV of multi-attribute objects.

Usage::

    python -m repro rank data.csv --alpha "+GDP,+LEB,-IMR,-TB" \
        --output ranking.csv --top 10
    python -m repro demo countries        # run a bundled experiment
    python -m repro demo journals

    # fit-once / serve-many workflow
    python -m repro save data.csv --alpha "+GDP,+LEB,-IMR,-TB" \
        --model model.json
    python -m repro load model.json       # inspect a saved model
    python -m repro score model.json fresh.csv --output ranking.csv
    python -m repro score model.json huge.csv.gz --top-k 10
    python -m repro score model.json huge.csv.gz \
        --memory-budget-rows 100000 --output ranking.csv

    # long-running scoring daemon (JSON over HTTP)
    python -m repro serve --model wellbeing=model.json --port 8000
    # pre-fork worker fleet with request micro-batching
    python -m repro serve --model wellbeing=model.json --port 8000 \
        --workers 4 --batch-window-ms 2

The ``rank`` command loads a headered CSV (first column = labels by
default), fits a Ranking Principal Curve with the given attribute
directions, prints the top of the ranking list and optionally writes
the full list to a CSV.  ``save`` fits the same way but persists the
fitted model (JSON, ``.npz``, or a manifest directory) instead of
discarding it — any registered model family (``--family``); ``score``
reloads such a model in a fresh process and ranks new rows with no
refitting: the CSV (gzipped or plain) is read and scored a chunk at a
time, and the *complete* ranking comes out of a spill-to-disk external
merge sort (``--memory-budget-rows`` bounds the buffered rows),
byte-identical to ranking the whole table in memory; ``--top-k N``
instead folds the stream into a bounded heap so even the ranking list
never materialises.  ``serve`` keeps any number of saved models
resident behind an HTTP daemon (see :mod:`repro.server`) instead of
paying a process start per scoring run; its concurrency comes from
``--workers`` processes and ``--batch-window-ms`` micro-batching.
Scoring itself is one float64 path on one thread.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Optional, Sequence

from repro.core.exceptions import ConfigurationError, ReproError
from repro.core.rpc import RankingPrincipalCurve
from repro.data.loaders import load_csv, parse_alpha_spec, save_ranking_csv
from repro.families import build_model, family_names
from repro.serving.persistence import check_model_path, load_model, save_model
from repro.serving.stream import (
    stream_rank_csv,
    stream_rank_topk,
    write_ranking,
)

RESTARTS_HELP = "starts: N−1 random, then the diagonal (default 1)"
SEED_HELP = (
    "seed of the random starts; matters only with --restarts > 1 "
    "(default 0)"
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Unsupervised ranking with Ranking Principal Curves",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rank = sub.add_parser("rank", help="rank objects from a CSV file")
    rank.add_argument("csv_path", help="input CSV with a header row")
    rank.add_argument(
        "--alpha",
        required=True,
        help="attribute directions, e.g. '+GDP,+LEB,-IMR,-TB'",
    )
    rank.add_argument(
        "--label-column",
        default=None,
        help="header of the identifier column (default: first column)",
    )
    rank.add_argument(
        "--output", default=None, help="write the full ranking CSV here"
    )
    rank.add_argument(
        "--top", type=int, default=10, help="rows to print (default 10)"
    )
    rank.add_argument(
        "--degree", type=int, default=3, help="Bezier degree (default 3)"
    )
    rank.add_argument(
        "--restarts", type=int, default=1, help=RESTARTS_HELP
    )
    rank.add_argument("--seed", type=int, default=0, help=SEED_HELP)

    demo = sub.add_parser("demo", help="run a bundled experiment")
    demo.add_argument(
        "dataset",
        choices=("countries", "journals"),
        help="which bundled dataset to rank",
    )
    demo.add_argument("--top", type=int, default=10)

    save = sub.add_parser(
        "save", help="fit a model on a CSV and persist it"
    )
    save.add_argument("csv_path", help="input CSV with a header row")
    save.add_argument(
        "--alpha",
        required=True,
        help="attribute directions, e.g. '+GDP,+LEB,-IMR,-TB'",
    )
    save.add_argument(
        "--model",
        required=True,
        help="destination: a .json or .npz file, or a manifest "
        "directory (no suffix)",
    )
    save.add_argument(
        "--family",
        choices=family_names(),
        default="rpc",
        help="model family to fit (default 'rpc', the Bézier ranking "
        "principal curve; other families use their default "
        "hyperparameters and ignore --degree/--restarts/--seed/"
        "--warm-start; 'pagerank' reads the CSV matrix as an "
        "adjacency matrix)",
    )
    save.add_argument("--label-column", default=None)
    save.add_argument("--degree", type=int, default=3)
    save.add_argument("--restarts", type=int, default=1, help=RESTARTS_HELP)
    save.add_argument("--seed", type=int, default=0, help=SEED_HELP)
    save.add_argument(
        "--warm-start",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="warm-started projection during fitting (on by default; "
        "--no-warm-start restores the cold per-iteration grid scan)",
    )

    load = sub.add_parser("load", help="inspect a saved model")
    load.add_argument(
        "model_path",
        help="model file or manifest directory written by 'save'",
    )

    score = sub.add_parser(
        "score", help="score a CSV with a saved model (no refitting)"
    )
    score.add_argument(
        "model_path",
        help="model file or manifest directory written by 'save'",
    )
    score.add_argument("csv_path", help="CSV of new objects to score")
    score.add_argument("--label-column", default=None)
    score.add_argument(
        "--output", default=None, help="write the full ranking CSV here"
    )
    score.add_argument(
        "--top", type=int, default=10, help="rows to print (default 10)"
    )
    score.add_argument(
        "--top-k",
        type=int,
        default=None,
        dest="top_k",
        metavar="N",
        help="keep only the best N rows in a bounded heap so the full "
        "ranking never materialises (prints and writes just those N "
        "rows)",
    )
    score.add_argument(
        "--memory-budget-rows",
        type=int,
        default=None,
        dest="memory_budget_rows",
        metavar="N",
        help="rows buffered in memory before the external sort spills "
        "a sorted run to disk (default 1000000; not with --top-k)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the long-running HTTP scoring daemon",
        epilog="serving knobs are set once, at boot: change one by "
        "restarting the daemon (SIGHUP is ignored).  Operations guide "
        "(worker sizing, batching trade-offs, overload behaviour, "
        "metrics semantics, TLS/auth proxy): docs/ops.md",
    )
    serve.add_argument(
        "--model",
        action="append",
        required=True,
        metavar="NAME=PATH",
        dest="models",
        help="serve the saved model (file or manifest directory) at "
        "PATH under NAME (repeatable; families may be mixed)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default local)"
    )
    serve.add_argument(
        "--port", type=int, default=8000, help="TCP port (default 8000)"
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes sharing the listening socket "
        "(pre-fork; default 1 = single-process daemon)",
    )
    serve.add_argument(
        "--batch-window-ms",
        type=float,
        default=0.0,
        dest="batch_window_ms",
        metavar="MS",
        help="micro-batching: small /score and /rank requests that "
        "arrive while an engine call for their model is running are "
        "coalesced into the next call, and wait at most this long for "
        "it (responses stay byte-identical; 0 = off, the default). "
        "An idle daemon waits for nothing",
    )
    serve.add_argument(
        "--max-batch-rows",
        type=int,
        default=None,
        dest="max_batch_rows",
        metavar="N",
        help="rows per coalesced micro-batch before it is flushed "
        "early; requests this large bypass batching (default 1024)",
    )
    serve.add_argument(
        "--max-inflight",
        type=int,
        default=None,
        dest="max_inflight",
        metavar="N",
        help="admission control: concurrently admitted scoring "
        "requests per worker before new ones are shed with 429 + "
        "Retry-After (0 = unbounded; default 64)",
    )
    serve.add_argument(
        "--max-inflight-per-model",
        type=int,
        default=0,
        dest="max_inflight_per_model",
        metavar="N",
        help="per-model concurrency quota so one hot model cannot "
        "starve the rest (0 = no per-model quota, the default)",
    )
    serve.add_argument(
        "--retry-after",
        type=float,
        default=None,
        dest="retry_after",
        metavar="SECONDS",
        help="Retry-After advice attached to shed (429) responses "
        "(default 1)",
    )
    serve.add_argument(
        "--keepalive-timeout",
        type=float,
        default=30.0,
        dest="keepalive_timeout",
        metavar="SECONDS",
        help="idle seconds before a kept-alive connection is closed; "
        "must be > 0 (default 30)",
    )
    serve.add_argument(
        "--no-reload",
        action="store_true",
        help="disable hot-reloading models when their file changes",
    )
    serve.add_argument(
        "--trace",
        choices=("off", "sampled", "on"),
        default="off",
        dest="trace",
        help="per-request stage tracing: 'on' traces every request, "
        "'sampled' every --trace-sample'th, 'off' (default) none; "
        "traces are served by GET /v1/debug/trace/<request-id> "
        "(see docs/observability.md)",
    )
    serve.add_argument(
        "--trace-sample",
        type=int,
        default=64,
        dest="trace_sample",
        metavar="N",
        help="with --trace sampled, record every N-th request "
        "(default 64)",
    )
    serve.add_argument(
        "--trace-buffer",
        type=int,
        default=256,
        dest="trace_buffer",
        metavar="N",
        help="recent traces retained per worker for the debug "
        "endpoint (default 256)",
    )
    serve.add_argument(
        "--access-log",
        default=None,
        dest="access_log",
        metavar="PATH",
        help="append one JSON line per request (request id, stage "
        "timings, batch id) to PATH; '-' logs to stderr",
    )

    shard = sub.add_parser(
        "shard",
        help="coordinate a score/rank job across shard daemons",
        epilog="sharded serving guide (topology, round-robin "
        "partitioning, shard-death reroute and exactly-once semantics, "
        "coordinator metrics roll-up): docs/ops.md, section "
        "'Sharded scoring and rank'",
    )
    shard.add_argument(
        "csv_path", help="CSV (or .csv.gz) of objects to score or rank"
    )
    shard.add_argument(
        "--shard",
        action="append",
        default=None,
        metavar="URL",
        dest="shards",
        help="base URL of a shard daemon, e.g. http://host:8000 "
        "(repeatable; every shard must serve --model-name)",
    )
    shard.add_argument(
        "--local-workers",
        type=int,
        default=0,
        dest="local_workers",
        metavar="N",
        help="instead of --shard URLs, spawn N throwaway local shard "
        "daemons serving --model-path on ephemeral ports (testing/CI "
        "topology; they are torn down when the job ends)",
    )
    shard.add_argument(
        "--model-name",
        default="shard-model",
        dest="model_name",
        help="registered model name to score with on every shard "
        "(default 'shard-model', which is what --local-workers "
        "registers)",
    )
    shard.add_argument(
        "--model-path",
        default=None,
        dest="model_path",
        help="saved model the --local-workers daemons serve "
        "(required with --local-workers, ignored with --shard)",
    )
    shard.add_argument(
        "--mode",
        choices=("rank", "score"),
        default="rank",
        help="'rank' (default) writes the complete ranking CSV, "
        "byte-identical to the single-box streaming rank; 'score' "
        "writes label,score rows in input order, byte-identical to "
        "the single-box streaming score",
    )
    shard.add_argument(
        "--output", default=None, help="write the result CSV here"
    )
    shard.add_argument(
        "--rows-per-block",
        type=int,
        default=None,
        dest="rows_per_block",
        metavar="N",
        help="rows per shard block — the retry/exactly-once unit "
        "(default 16384); any value gives the single-box output",
    )
    shard.add_argument("--label-column", default=None)
    shard.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-block shard request timeout before the shard is "
        "presumed dead and the block reroutes (default 60)",
    )
    shard.add_argument(
        "--max-open-runs",
        type=int,
        default=None,
        dest="max_open_runs",
        metavar="N",
        help="merge fan-in budget for the coordinator's k-way merge "
        "(default 64; more blocks than this triggers multi-pass "
        "merging)",
    )
    shard.add_argument(
        "--top", type=int, default=10, help="rows to print (default 10)"
    )
    shard.add_argument(
        "--metrics-json",
        default=None,
        dest="metrics_json",
        metavar="PATH",
        help="after the job, fetch every live shard's /metrics and "
        "write the exact coordinator-level roll-up (summed counters, "
        "merged latency histograms) as JSON to PATH",
    )
    return parser


def _print_head(entries: Sequence[tuple[str, float]]) -> None:
    """The ``pos score label`` table of the ``rank`` and ``score``
    commands.  Positions count the best-first entries, so duplicate
    labels print their own positions."""
    print(f"{'pos':>4}  {'score':>8}  label")
    for position, (label, score) in enumerate(entries, start=1):
        print(f"{position:>4}  {score:>8.4f}  {label}")


def _fit_seed(args: argparse.Namespace) -> Optional[int]:
    """``--seed`` when random starts use it, else ``None``: a one-start
    fit is the diagonal start alone, so its saved model must not record
    a seed it never used."""
    return args.seed if args.restarts > 1 else None


def _run_rank(args: argparse.Namespace) -> int:
    table = load_csv(args.csv_path, label_column=args.label_column)
    alpha = parse_alpha_spec(args.alpha, table.attribute_names)
    model = RankingPrincipalCurve(
        alpha=alpha,
        degree=args.degree,
        n_restarts=args.restarts,
        random_state=_fit_seed(args),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ranking = model.fit_rank(table.X, labels=table.labels)

    print(f"ranked {len(table.labels)} objects on "
          f"{len(table.attribute_names)} attributes "
          f"(explained variance {model.explained_variance(table.X):.3f})")
    _print_head(ranking.top(args.top))
    if args.output:
        save_ranking_csv(args.output, ranking)
        print(f"full ranking written to {args.output}")
    return 0


def _run_demo(args: argparse.Namespace) -> int:
    if args.dataset == "countries":
        from repro.data.countries import load_countries

        data = load_countries()
        alpha = data.alpha
        X, labels = data.X, data.labels
    else:
        from repro.data.journals import load_journals

        jdata = load_journals()
        alpha = jdata.alpha
        X, labels = jdata.X, jdata.labels

    model = RankingPrincipalCurve(alpha=alpha, random_state=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ranking = model.fit_rank(X, labels=labels)
    print(f"{args.dataset}: {X.shape[0]} objects, "
          f"explained variance {model.explained_variance(X):.3f}")
    for label, score in ranking.top(args.top):
        print(f"  {score:.4f}  {label}")
    return 0


def _run_save(args: argparse.Namespace) -> int:
    # Validate the destination format before paying for the fit.
    check_model_path(args.model)
    table = load_csv(args.csv_path, label_column=args.label_column)
    alpha = parse_alpha_spec(args.alpha, table.attribute_names)
    if args.family == "rpc":
        # The Bézier family keeps its dedicated knobs; other families
        # fit with their registered default hyperparameters.
        model = RankingPrincipalCurve(
            alpha=alpha,
            degree=args.degree,
            n_restarts=args.restarts,
            random_state=_fit_seed(args),
            warm_start=args.warm_start,
        )
    else:
        model = build_model(args.family, alpha=alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model.fit(table.X)
    path = save_model(model, args.model, feature_names=table.attribute_names)
    summary = (
        f"fitted {args.family} model on {table.X.shape[0]} objects x "
        f"{table.X.shape[1]} attributes"
    )
    trace = getattr(model, "trace_", None)
    if trace is not None:
        summary += (
            f" (final objective {trace.final_objective:.6f}, "
            f"{trace.n_iterations} iterations)"
        )
    print(summary)
    print(f"model written to {path}")
    if trace is not None and not trace.converged:
        # The fit above silences ConvergenceWarning; say it here so a
        # model saved from an unfinished fit is never mistaken for one
        # that converged.  Still exit 0: the model is usable.
        print(
            f"warning: fit did not converge after {trace.n_iterations} "
            f"iterations (final objective {trace.final_objective:.6f})",
            file=sys.stderr,
        )
    return 0


def _run_load(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    print(f"model: {model!r}")
    print(f"family: {getattr(model, 'family', type(model).__name__)}")
    if model.feature_names_ is not None:
        print(f"attributes: {', '.join(model.feature_names_)}")
    if not model.is_fitted:
        print("state: not fitted")
        return 0
    trace = getattr(model, "trace_", None)
    if trace is not None:
        print(
            f"state: fitted ({trace.n_iterations} iterations, "
            f"final objective {trace.final_objective:.6f}, "
            f"converged={trace.converged})"
        )
    else:
        n_attrs = model.n_attributes
        print(
            "state: fitted"
            + (f" ({n_attrs} attributes)" if n_attrs is not None else "")
        )
    control_points = getattr(model, "control_points_", None)
    if control_points is not None:
        print("control points (normalised coordinates):")
        for r, column in enumerate(control_points.T):
            coords = ", ".join(f"{v:.4f}" for v in column)
            print(f"  p{r} = ({coords})")
    return 0


def _run_score(args: argparse.Namespace) -> int:
    model = load_model(args.model_path)
    if args.top_k is not None:
        if args.memory_budget_rows is not None:
            raise ConfigurationError(
                "--memory-budget-rows bounds the external sort; --top-k "
                "keeps a bounded heap and never sorts"
            )
        # Bounded-heap rank: neither the input matrix nor the ranking
        # list is ever materialised — only the k best entries survive.
        top, n_rows = stream_rank_topk(
            model,
            args.csv_path,
            args.top_k,
            label_column=args.label_column,
        )
        print(
            f"scored {n_rows} objects with saved model {args.model_path} "
            f"(top {len(top)} kept)"
        )
        _print_head(top)
        if args.output:
            write_ranking(
                [([label for label, _ in top], [score for _, score in top])],
                args.output,
            )
            print(f"top-{len(top)} ranking written to {args.output}")
        return 0
    # Full rank: scored chunks spill to sorted run files whenever more
    # than --memory-budget-rows rows are buffered, and a k-way merge
    # writes the complete ranking incrementally — never materialising
    # the input, the scores, or the ranking list.
    n_rows, head = stream_rank_csv(
        model,
        args.csv_path,
        args.output,
        label_column=args.label_column,
        memory_budget_rows=args.memory_budget_rows,
        head=max(args.top, 0),
    )
    print(f"scored {n_rows} objects with saved model {args.model_path}")
    _print_head(head)
    if args.output:
        print(f"full ranking written to {args.output}")
    return 0


def parse_model_specs(specs: Sequence[str]) -> list[tuple[str, str]]:
    """Split repeated ``NAME=PATH`` arguments of ``repro serve``."""
    pairs = []
    seen = set()
    for spec in specs:
        name, sep, path = spec.partition("=")
        name = name.strip()
        if not sep or not name or not path:
            raise ConfigurationError(
                f"--model expects NAME=PATH, got {spec!r}"
            )
        if name in seen:
            raise ConfigurationError(f"model name {name!r} given twice")
        seen.add(name)
        pairs.append((name, path))
    return pairs


def _run_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.obs import AccessLog, Tracer
    from repro.server import (
        ModelRegistry,
        ScoringHTTPServer,
        WorkerPool,
        install_graceful_shutdown,
    )
    from repro.server.admission import (
        DEFAULT_MAX_INFLIGHT,
        DEFAULT_RETRY_AFTER,
    )

    specs = parse_model_specs(args.models)
    # Load every model once, in this process: a missing or corrupt
    # model file fails the boot, and pool workers inherit the models.
    registry = ModelRegistry(check_mtime=not args.no_reload)
    for name, path in specs:
        entry = registry.register(name, path)
        state = "fitted" if entry.model.is_fitted else "NOT FITTED"
        print(f"registered {name!r} from {path} ({state})")
    # Built whatever the mode, so a bad --trace-sample or
    # --trace-buffer fails the boot; a tracer with nothing to do is
    # then dropped, leaving the untraced request path untouched.
    tracer = Tracer(
        mode=args.trace,
        sample_every=args.trace_sample,
        capacity=args.trace_buffer,
        access_log=(
            AccessLog(args.access_log)
            if args.access_log is not None
            else None
        ),
    )
    if tracer.mode == "off" and tracer.access_log is None:
        tracer = None
    # The one daemon: its constructor checks every serving knob before
    # it binds, and --workers N forks it as it is.
    server = ScoringHTTPServer(
        (args.host, args.port),
        registry,
        batch_window=args.batch_window_ms / 1e3,
        max_batch_rows=args.max_batch_rows,
        max_inflight=(
            DEFAULT_MAX_INFLIGHT
            if args.max_inflight is None
            else args.max_inflight
        ),
        max_inflight_per_model=args.max_inflight_per_model,
        retry_after=(
            DEFAULT_RETRY_AFTER
            if args.retry_after is None
            else args.retry_after
        ),
        keepalive_timeout=args.keepalive_timeout,
        tracer=tracer,
    )
    pool, fleet = None, ""
    if args.workers != 1:
        try:
            pool = WorkerPool(server, args.workers)
        except ConfigurationError:
            server.server_close()
            raise
        fleet = f" with {args.workers} worker processes"
    host, port = server.server_address[:2]
    print(
        f"serving {len(registry)} model(s) on http://{host}:{port}{fleet}"
    )
    print("endpoints: /healthz /metrics /v1/models "
          "/v1/models/<name>/score /v1/models/<name>/rank")
    print("ops guide: docs/ops.md", flush=True)
    if pool is not None:
        code = pool.serve()
        print("pool shut down")
        return code
    # SIGTERM (systemd, docker stop, the pool's own drill) and SIGINT
    # both drain gracefully: stop accepting, finish in-flight
    # requests, close the socket, exit 0.
    install_graceful_shutdown(server)
    if hasattr(signal, "SIGHUP"):
        # Knobs are set at boot; a SIGHUP must not kill the daemon.
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        server.serve_forever(poll_interval=0.05)
    except KeyboardInterrupt:  # pragma: no cover - direct Ctrl-C race
        pass
    finally:
        server.server_close()
    print("shut down")
    return 0


def _run_shard(args: argparse.Namespace) -> int:
    from repro.sharding import (
        LocalShardFleet,
        ShardCoordinator,
        fetch_shard_metrics,
        rollup_metrics,
    )

    if bool(args.shards) == bool(args.local_workers > 0):
        raise ConfigurationError(
            "give either --shard URLs or --local-workers N (not both)"
        )
    if args.mode == "score" and args.output is None:
        raise ConfigurationError("--mode score requires --output")

    def _run_job(urls: Sequence[str]) -> int:
        coordinator = ShardCoordinator(
            urls,
            args.model_name,
            **{
                key: value
                for key, value in {
                    "rows_per_block": args.rows_per_block,
                    "timeout": args.timeout,
                }.items()
                if value is not None
            },
            max_open_runs=args.max_open_runs,
        )
        if args.mode == "score":
            n_rows = coordinator.score_csv(
                args.csv_path, args.output, label_column=args.label_column
            )
            print(
                f"scored {n_rows} objects across "
                f"{len(coordinator.stats()['live_shards'])} shard(s)"
            )
            print(f"scores written to {args.output}")
        else:
            n_rows, head = coordinator.rank_csv(
                args.csv_path,
                args.output,
                label_column=args.label_column,
                head=max(args.top, 0),
            )
            print(
                f"ranked {n_rows} objects across "
                f"{len(coordinator.stats()['live_shards'])} shard(s)"
            )
            print(f"{'pos':>4}  {'score':>8}  label")
            for position, (label, score) in enumerate(head, start=1):
                print(f"{position:>4}  {score:>8.4f}  {label}")
            if args.output:
                print(f"full ranking written to {args.output}")
        stats = coordinator.stats()
        print(
            f"blocks: {stats['n_blocks']} "
            f"(rerouted {stats['retried_blocks']}); "
            f"dead shards: {stats['dead_shards'] or 'none'}"
        )
        if args.metrics_json is not None:
            payloads = [
                fetch_shard_metrics(url)
                for url in stats["live_shards"]
            ]
            rollup = rollup_metrics(payloads, urls=stats["live_shards"])
            with open(args.metrics_json, "w") as handle:
                json.dump(rollup, handle, indent=2, sort_keys=True)
            print(f"coordinator metrics roll-up written to "
                  f"{args.metrics_json}")
        return 0

    if args.local_workers:
        if args.model_path is None:
            raise ConfigurationError(
                "--local-workers needs --model-path (the model the "
                "throwaway daemons will serve)"
            )
        with LocalShardFleet(
            args.model_path,
            n_shards=args.local_workers,
            model_name=args.model_name,
        ) as fleet:
            print(
                f"spawned {len(fleet.urls)} local shard daemon(s): "
                f"{' '.join(fleet.urls)}"
            )
            return _run_job(fleet.urls)
    return _run_job(args.shards)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "rank": _run_rank,
        "demo": _run_demo,
        "save": _run_save,
        "load": _run_load,
        "score": _run_score,
        "serve": _run_serve,
        "shard": _run_shard,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
