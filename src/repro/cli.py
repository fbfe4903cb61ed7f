"""Command-line entry point: regenerate tables/figures, serve, or index.

Usage::

    python -m repro table2 --quick
    python -m repro fig6 --scale small --splits 3
    python -m repro all --quick
    python -m repro serve --quick --queries u1,u2 --k 5
    python -m repro serve --quick --shards 4 --workers 4
    python -m repro serve --quick --shards 4 --backend process --replicas 2
    python -m repro serve --quick --snapshot idx/ --mmap
    python -m repro serve --quick --snapshot idx/ --listen 127.0.0.1:8766 --watch
    python -m repro index build --dataset linkedin --out idx/ --workers 4
    python -m repro index info idx/
    python -m repro index update idx/ --dataset linkedin --edits edits.json
    python -m repro shard-worker --snapshot idx/ --shard 0 --num-shards 4 \
        --socket /tmp/shard0.sock

``--quick`` switches to the tiny preset (minutes); the default ``small``
scale is the one EXPERIMENTS.md records.  ``serve`` runs the online
phase end to end through one
:class:`~repro.search.SemanticProximitySearch` — offline build (or
``--snapshot`` cold start, optionally ``--mmap``'d), training, then
batched ranking through the compiled scoring backend (``--shards`` for
the shard router, ``--backend process`` for supervised shard-worker
processes) — and prints rankings plus throughput.  ``index build`` runs
the offline phase (optionally on a worker pool) and persists a versioned
snapshot;
``index info`` verifies and describes one.  ``shard-worker`` is the
standalone shard serving process the ``process`` backend supervises
(usable by hand for multi-host topologies).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from repro.experiments import EXPERIMENTS, QUICK_CONFIG, ExperimentConfig, OfflineRunner


def build_parser() -> argparse.ArgumentParser:
    """The `python -m repro` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Semantic Proximity Search on Graphs with "
            "Metagraph-based Learning' (ICDE 2016): regenerate any table "
            "or figure of the evaluation section.  See also `repro index "
            "build|info` for persistent offline index snapshots."
        ),
    )
    parser.add_argument(
        "experiment",
        choices=[
            *sorted(EXPERIMENTS), "all", "serve", "index", "lint",
            "shard-worker",
        ],
        help=(
            "which table/figure to regenerate ('all' runs everything; "
            "'serve' runs the online phase as a batched query service; "
            "'index' manages snapshots — see `repro index --help`; "
            "'lint' runs the invariant-analysis suite — see `repro lint "
            "--help`; 'shard-worker' serves one shard of a snapshot over "
            "a socket — see `repro shard-worker --help`)"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny datasets and reduced sweeps (fast smoke run)",
    )
    parser.add_argument(
        "--scale",
        choices=["tiny", "small", "medium"],
        default=None,
        help="dataset scale preset (default: small, or tiny with --quick)",
    )
    parser.add_argument(
        "--splits", type=int, default=None, help="number of query splits"
    )
    parser.add_argument("--seed", type=int, default=None, help="global seed")
    # serve-only options default to None sentinels (resolved by
    # run_serve) so main() can reject any explicit use — even of a
    # default value — on non-serve experiments; declaring through
    # serve_arg records each flag so new ones are covered automatically
    serving = parser.add_argument_group("serve options")
    serve_only: list[tuple[str, str]] = []

    def serve_arg(flag: str, **kwargs) -> None:
        action = serving.add_argument(flag, default=None, **kwargs)
        serve_only.append((action.dest, flag))

    serve_arg(
        "--dataset",
        choices=["linkedin", "facebook"],
        help="dataset to serve (serve only; default: linkedin)",
    )
    serve_arg(
        "--class",
        dest="class_name",
        help="semantic class to fit and serve (default: first class)",
    )
    serve_arg(
        "--queries",
        help="comma-separated query node ids (default: sampled labelled queries)",
    )
    serve_arg(
        "--num-queries",
        type=int,
        help="how many labelled queries to serve when --queries is unset "
        "(default: 8)",
    )
    serve_arg("--k", type=int, help="results per query (default: 5)")
    serve_arg(
        "--shards",
        type=int,
        help="partition the compiled universe into this many node-range "
        "shards and serve through the shard router (default: 1 = "
        "unsharded; rankings are bit-identical for every value)",
    )
    serve_arg(
        "--workers",
        type=int,
        help="router worker threads a query batch fans out over "
        "(default: 1; only meaningful with --shards > 1)",
    )
    serve_arg(
        "--backend",
        choices=["thread", "process"],
        help="where shard scoring runs: in this process ('thread', "
        "default) or in supervised shard-worker processes that mmap "
        "their slice from a snapshot and answer over the serving wire "
        "protocol ('process'; rankings are bit-identical)",
    )
    serve_arg(
        "--replicas",
        type=int,
        help="worker processes per shard with --backend process "
        "(default: REPRO_SERVING_REPLICAS or 1); requests fail over "
        "between replicas when a worker dies",
    )
    serve_arg(
        "--snapshot",
        help="serve from this index snapshot directory (cold start: no "
        "mining or matching; classes the snapshot carries serve "
        "immediately)",
    )
    serve_arg(
        "--mmap",
        action="store_true",
        help="memory-map the --snapshot's compiled arrays instead of "
        "loading a copy (near-zero cold start; pages shared across "
        "co-hosted processes)",
    )
    serve_arg(
        "--listen",
        metavar="HOST:PORT",
        help="run a long-lived HTTP query frontend instead of a one-shot "
        "batch: /query, /reload, /stats, /health; requires --snapshot "
        "(the server serves a persisted index)",
    )
    serve_arg(
        "--max-batch",
        type=int,
        help="frontend: a query dispatches at once when its (class, k) "
        "group is idle and batches while the group is busy; flush such a "
        "batch at this many queries (default: REPRO_FRONTEND_MAX_BATCH or 32)",
    )
    serve_arg(
        "--max-delay-ms",
        type=float,
        help="frontend: longest a query may queue behind an in-flight "
        "batch of its group, 0: never "
        "(default: REPRO_FRONTEND_MAX_DELAY_MS or 2.0)",
    )
    serve_arg(
        "--cache-size",
        type=int,
        help="frontend: LRU result-cache capacity; 0 disables caching "
        "(default: REPRO_FRONTEND_CACHE_SIZE or 4096)",
    )
    serve_arg(
        "--cache-ttl",
        type=float,
        help="frontend: seconds a cached ranking stays servable "
        "(default: REPRO_FRONTEND_CACHE_TTL, else no expiry)",
    )
    serve_arg(
        "--watch",
        action="store_true",
        help="frontend: poll the --snapshot directory and hot-reload "
        "(zero downtime) whenever its digest changes",
    )
    parser.serve_only_options = serve_only
    return parser


def config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    """Resolve CLI flags into an ExperimentConfig."""
    config = QUICK_CONFIG if args.quick else ExperimentConfig()
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.splits is not None:
        overrides["num_splits"] = args.splits
    if args.seed is not None:
        overrides["seed"] = args.seed
    return dataclasses.replace(config, **overrides) if overrides else config


def run_serve(args: argparse.Namespace, config: ExperimentConfig) -> int:
    """The ``serve`` subcommand: obtain an engine, fit, batched ranking."""
    # validate --class against a cheap tiny-scale load before paying for
    # the full offline build (classes are scale-independent)
    from repro.datasets import load_dataset
    from repro.exceptions import SnapshotError
    from repro.index.parallel import IndexBuildConfig
    from repro.learning.trainer import TrainerConfig
    from repro.search import SemanticProximitySearch

    # resolve the None sentinels build_parser uses for serve-only flags
    dataset_name = args.dataset or "linkedin"
    num_queries = 8 if args.num_queries is None else args.num_queries
    top_k = 5 if args.k is None else args.k
    shards = 1 if args.shards is None else args.shards
    workers = 1 if args.workers is None else args.workers
    backend_name = args.backend or "thread"
    if num_queries < 0:
        print(
            f"--num-queries must be >= 0, got {num_queries}",
            file=sys.stderr,
        )
        return 2
    if top_k <= 0:
        print(f"--k must be >= 1, got {top_k}", file=sys.stderr)
        return 2
    if shards < 1:
        print(f"--shards must be >= 1, got {shards}", file=sys.stderr)
        return 2
    if workers < 1:
        print(f"--workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    if args.replicas is not None and backend_name != "process":
        print(
            "--replicas only applies with --backend process",
            file=sys.stderr,
        )
        return 2
    if args.replicas is not None and args.replicas < 1:
        print(f"--replicas must be >= 1, got {args.replicas}", file=sys.stderr)
        return 2
    if args.mmap and args.snapshot is None:
        print(
            "--mmap memory-maps a snapshot's compiled arrays; it "
            "requires --snapshot",
            file=sys.stderr,
        )
        return 2
    frontend_flags = [
        flag
        for flag, value in (
            ("--max-batch", args.max_batch),
            ("--max-delay-ms", args.max_delay_ms),
            ("--cache-size", args.cache_size),
            ("--cache-ttl", args.cache_ttl),
            ("--watch", args.watch),
        )
        if value is not None
    ]
    if args.listen is None and frontend_flags:
        print(
            f"option(s) {frontend_flags} configure the HTTP frontend; "
            "they require --listen",
            file=sys.stderr,
        )
        return 2
    if args.listen is not None:
        if args.snapshot is None:
            print(
                "--listen serves a persisted index long-lived; it "
                "requires --snapshot (build one with `repro index build`)",
                file=sys.stderr,
            )
            return 2
        from repro.serving.frontend import parse_listen

        try:
            parse_listen(args.listen)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
    classes = load_dataset(dataset_name, scale="tiny").classes
    class_name = args.class_name or classes[0]
    if class_name not in classes:
        print(
            f"unknown class {class_name!r}; available: {list(classes)}",
            file=sys.stderr,
        )
        return 2
    dataset = load_dataset(dataset_name, scale=config.scale)
    if class_name not in dataset.classes:  # exact check at serving scale
        print(
            f"class {class_name!r} missing at scale {config.scale!r}; "
            f"available: {list(dataset.classes)}",
            file=sys.stderr,
        )
        return 2
    trainer_config = TrainerConfig(
        restarts=config.trainer_restarts,
        max_iterations=config.trainer_max_iterations,
        seed=config.seed,
    )
    tier = {
        "shards": shards,
        "serving_workers": workers,
        "serving_backend": backend_name,
        "replicas": args.replicas,
    }
    if shards > 1 or backend_name == "process":
        process = ", process" if backend_name == "process" else ""
        backend = f"sharded ({shards} shards, {workers} workers{process})"
    else:
        backend = "compiled"
    if args.snapshot is not None:
        # cold start: no mining, no matching — the snapshot's counts
        # (with --mmap, its compiled arrays memory-mapped) back
        # serving directly
        try:
            engine = SemanticProximitySearch.from_index(
                args.snapshot,
                dataset.graph,
                trainer_config=trainer_config,
                mmap=bool(args.mmap),
                **tier,
            )
        except SnapshotError as exc:
            print(
                f"[serve] cannot serve from snapshot {args.snapshot}: {exc}",
                file=sys.stderr,
            )
            return 1
        backend += f" over {'mmap' if args.mmap else 'loaded'} snapshot"
    else:
        engine = SemanticProximitySearch(
            dataset.graph,
            anchor_type=dataset.anchor_type,
            miner_config=config.miner_config(dataset_name),
            trainer_config=trainer_config,
            **tier,
        ).prepare(
            build_config=IndexBuildConfig(workers=config.index_workers)
        )
    with engine:
        return _serve_engine(
            args, config, engine, dataset, class_name,
            num_queries=num_queries, top_k=top_k, backend=backend,
        )


def _serve_engine(
    args: argparse.Namespace,
    config: ExperimentConfig,
    engine,
    dataset,
    class_name: str,
    *,
    num_queries: int,
    top_k: int,
    backend: str,
) -> int:
    """Everything ``serve`` does once it holds a prepared engine.

    Classes a snapshot carries serve as restored; a missing class is
    fitted from the dataset's labels.  The facade owns the serving tier
    (backend, worker snapshot, router), so this only asks it questions.
    """
    from repro.exceptions import QueryError
    from repro.serving import validate_query_node

    # resolve and validate the query batch before paying for training
    if args.queries is not None:
        queries = [q.strip() for q in args.queries.split(",") if q.strip()]
        if not queries:
            print(
                f"--queries {args.queries!r} contains no query ids",
                file=sys.stderr,
            )
            return 2
        try:
            for query in queries:
                validate_query_node(dataset.graph, query, dataset.anchor_type)
        except QueryError as exc:
            print(f"cannot serve this batch: {exc}", file=sys.stderr)
            return 2
    else:
        queries = list(dataset.queries(class_name))[:num_queries]
    restored = class_name in engine.classes
    if not restored:
        engine.fit(
            class_name,
            labels=dataset.class_labels(class_name),
            num_examples=200,
            seed=config.seed,
        )
    if args.listen is not None:
        from repro.serving.frontend import FrontendConfig

        frontend_config = FrontendConfig.from_env(
            max_batch=args.max_batch,
            max_delay_ms=args.max_delay_ms,
            cache_size=args.cache_size,
            cache_ttl=args.cache_ttl,
        )
        print(
            f"[serve] {dataset.name}/{class_name!r}: listening on "
            f"{args.listen} (digest {engine.serving_digest()[:12]}…, "
            f"max_batch={frontend_config.max_batch}, "
            f"max_delay_ms={frontend_config.max_delay_ms}, "
            f"cache_size={frontend_config.cache_size}, "
            f"watch={'on' if args.watch else 'off'})"
        )
        try:
            engine.serve_forever(
                listen=args.listen,
                config=frontend_config,
                watch=args.snapshot if args.watch else None,
            )
        except KeyboardInterrupt:
            print("[serve] interrupted; shutting down")
        return 0
    start = time.perf_counter()
    try:
        rankings = engine.query_many(class_name, queries, k=top_k)
    except QueryError as exc:
        # the batch was validated above, so this is unreachable in
        # practice — but a clean message beats a traceback if a new
        # serving path ever skips validation
        print(f"cannot serve this batch: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(
        f"[serve] {dataset.name}/{class_name!r}: {len(queries)} queries, "
        f"{backend} backend, k={top_k} "
        f"(class {'restored from snapshot' if restored else 'fitted'})"
    )
    for query, ranking in zip(queries, rankings):
        shown = ", ".join(f"{node} ({score:.3f})" for node, score in ranking)
        print(f"  {query} -> {shown or '(no results)'}")
    per_query = elapsed / max(len(queries), 1) * 1e3
    print(
        f"[serve] ranked {len(queries)} queries in {elapsed * 1e3:.2f} ms "
        f"({per_query:.3f} ms/query, universe={len(engine.universe())})"
    )
    return 0


def build_index_parser() -> argparse.ArgumentParser:
    """The `python -m repro index` argument parser."""
    from repro.datasets import DATASET_GENERATORS

    dataset_names = sorted(DATASET_GENERATORS)
    parser = argparse.ArgumentParser(
        prog="repro index",
        description=(
            "Build, persist, inspect and incrementally update offline "
            "index snapshots (catalog + Eq. 1-2 counts + fitted classes)."
        ),
    )
    actions = parser.add_subparsers(dest="action", required=True)
    build = actions.add_parser(
        "build", help="run the offline phase and persist a snapshot"
    )
    build.add_argument(
        "--dataset",
        choices=dataset_names,
        default="linkedin",
        help="dataset to index (default: linkedin)",
    )
    build.add_argument(
        "--scale",
        choices=["tiny", "small", "medium"],
        default="tiny",
        help="dataset scale preset (default: tiny)",
    )
    build.add_argument(
        "--out", required=True, help="snapshot directory to write"
    )
    build.add_argument(
        "--workers",
        type=int,
        default=1,
        help="matching worker processes (default: 1 = sequential)",
    )
    build.add_argument(
        "--max-nodes", type=int, default=4, help="largest mined pattern size"
    )
    build.add_argument(
        "--min-support", type=int, default=3, help="MNI support threshold"
    )
    info = actions.add_parser(
        "info", help="verify a snapshot and print its manifest summary"
    )
    info.add_argument("path", help="snapshot directory")
    update = actions.add_parser(
        "update",
        help="apply graph edits to a snapshot incrementally (no rebuild)",
        description=(
            "Replay the snapshot's recorded update log onto the base "
            "dataset graph, apply the new edits with delta index "
            "maintenance, and write the snapshot back with an extended "
            "log and bumped graph fingerprint."
        ),
    )
    update.add_argument("path", help="snapshot directory to update in place")
    update.add_argument(
        "--dataset",
        choices=dataset_names,
        default=None,
        help="base dataset the snapshot was built from (default: the "
        "dataset recorded in the snapshot manifest, else linkedin)",
    )
    update.add_argument(
        "--scale",
        choices=["tiny", "small", "medium"],
        default=None,
        help="dataset scale preset (default: the scale recorded in the "
        "snapshot manifest, else tiny)",
    )
    group = update.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--edits",
        help="JSON file with a list of edit records, e.g. "
        '[{"op": "add_edge", "u": "u1", "v": "s0"}, ...]',
    )
    group.add_argument(
        "--toggle-edges",
        type=int,
        metavar="N",
        help="demo/bench mode: remove then re-add N existing edges",
    )
    update.add_argument(
        "--seed", type=int, default=0, help="--toggle-edges sampling seed"
    )
    return parser


def run_index_update(args) -> int:
    """The ``index update`` verb: delta-maintain a snapshot in place."""
    import json
    import random
    from pathlib import Path

    from repro.datasets import load_dataset
    from repro.exceptions import ReproError
    from repro.index import (
        GraphDelta,
        apply_delta,
        load_index,
        read_manifest,
        save_index,
    )

    try:
        manifest = read_manifest(args.path)
    except ReproError as exc:
        print(f"[index] cannot update {args.path}: {exc}", file=sys.stderr)
        return 1
    # `index build` records its base dataset/scale in the manifest; the
    # flags only need repeating when that provenance is absent
    recorded = manifest["extra"]
    dataset_name = args.dataset or recorded.get("dataset") or "linkedin"
    scale = args.scale or recorded.get("scale") or "tiny"
    dataset = load_dataset(dataset_name, scale=scale)
    graph = dataset.graph
    try:
        replayed = GraphDelta.from_json_list(manifest["update_log"])
        # reconstruct the graph the snapshot describes: base dataset
        # graph + the snapshot's recorded update log
        replayed.apply_to(graph)
        # mmap=False: the snapshot is rewritten in place below
        loaded = load_index(args.path, graph=graph, mmap=False)
    except ReproError as exc:
        print(f"[index] cannot update {args.path}: {exc}", file=sys.stderr)
        return 1
    if replayed:
        print(f"[index] replayed {len(replayed)} logged edit(s) onto the base graph")
    if args.edits is not None:
        try:
            docs = json.loads(Path(args.edits).read_text(encoding="utf-8"))
            delta = GraphDelta.from_json_list(docs)
        except (OSError, ValueError, ReproError) as exc:
            print(f"[index] unreadable edits file {args.edits}: {exc}", file=sys.stderr)
            return 2
    else:
        if not 1 <= args.toggle_edges <= graph.num_edges:
            print(
                f"--toggle-edges must be between 1 and the graph's "
                f"{graph.num_edges} edges, got {args.toggle_edges}",
                file=sys.stderr,
            )
            return 2
        rng = random.Random(args.seed)
        sample = rng.sample(sorted(graph.edges(), key=repr), args.toggle_edges)
        delta = GraphDelta()
        for u, v in sample:
            # re-add with the original kind and orientation; edges()
            # yields sorted pairs, not source-first
            kind = graph.edge_kind(u, v)
            if kind.directed and graph.edge_signature(u, v)[1] == -1:
                u, v = v, u
            delta.remove_edge(u, v)
            delta.add_edge(u, v, kind)
    # snapshots saved without per-metagraph |I(M)| totals cannot have
    # them patched (reconstruction would start every total at 0 and go
    # negative on the first retirement); the vectors still update, and
    # the rewritten snapshot stays totals-free like the original
    instance_index = loaded.instance_index() if loaded.instance_totals else None
    applied_log: list[dict] = []
    start = time.perf_counter()
    try:
        stats = apply_delta(
            graph,
            loaded.catalog,
            loaded.vectors,
            delta,
            index=instance_index,
            on_edit=lambda edit: applied_log.append(edit.to_json_dict()),
        )
    except ReproError as exc:
        print(f"[index] update failed: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - start
    update_log = manifest["update_log"] + applied_log
    # save_index commits by replacing the manifest last, so a crash
    # mid-rewrite leaves the previous snapshot loadable
    save_index(
        args.path,
        loaded.vectors,
        loaded.catalog,
        graph=graph,
        index=instance_index,
        models=loaded.models,
        extra=recorded or None,
        update_log=update_log,
    )
    print(
        f"[index] applied {stats.edits_applied} edit(s) "
        f"({stats.edits_noop} no-ops) in {elapsed * 1e3:.1f} ms: "
        f"-{stats.instances_retired}/+{stats.instances_added} instances "
        f"across {len(stats.metagraphs_touched)} metagraph(s)"
    )
    print(
        f"[index] snapshot at {args.path} rewritten: update log now "
        f"{len(update_log)} edit(s), "
        "graph fingerprint re-stamped"
    )
    return 0


def run_index(argv: list[str]) -> int:
    """The ``index`` subcommand family: build, inspect, update snapshots."""
    from repro.datasets import load_dataset
    from repro.exceptions import SnapshotError
    from repro.index import IndexBuildConfig, build_index, load_index, save_index
    from repro.mining import MinerConfig, mine_catalog

    args = build_index_parser().parse_args(argv)
    if args.action == "update":
        return run_index_update(args)
    if args.action == "info":
        try:
            # mmap=False: info is the verification tool; every member is
            # read and hashed in full
            loaded = load_index(args.path, mmap=False)
        except SnapshotError as exc:
            print(f"[index] invalid snapshot at {args.path}: {exc}", file=sys.stderr)
            return 1
        manifest, compiled = loaded.manifest, loaded.vectors.compile()
        print(f"[index] snapshot at {args.path} (verified)")
        print(f"  format version : {manifest['format_version']}")
        print(
            f"  payload        : {len(manifest['compiled_arrays'])} members, "
            f"{len(manifest['value_table']['counts'])} distinct counts "
            "(digests verified)"
        )
        print(f"  anchor type    : {manifest['anchor_type']}")
        schema = manifest["schema"]
        if schema and schema.get("edge_kinds"):
            print(
                "  schema         : edge kinds on, types "
                f"{', '.join(schema.get('types', []))}"
            )
            for a, b, label, directed in schema.get("edge_rules", []):
                arrow = "->" if directed else "--"
                shown = label or "(plain)"
                print(f"    {a} {arrow} {b} [{shown}]")
        else:
            print("  schema         : plain (unlabeled, undirected)")
        print(f"  metagraphs     : {manifest['catalog_size']}")
        print(
            f"  counts         : {compiled.num_nodes} nodes, "
            f"{compiled.num_pairs} pairs, {compiled.nnz} nonzeros"
        )
        print(f"  transform      : {manifest['transform']}")
        print(f"  graph          : {manifest['graph_fingerprint']}")
        print(f"  catalog sha256 : {manifest['catalog_sha256']}")
        print(f"  classes        : {sorted(manifest['models']) or '(none fitted)'}")
        for key, value in sorted(manifest["extra"].items()):
            print(f"  {key:<15}: {value}")
        return 0

    if args.workers < 1:
        print(f"--workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    try:
        miner_config = MinerConfig(
            max_nodes=args.max_nodes, min_support=args.min_support
        )
    except ValueError as exc:
        print(f"[index] invalid miner settings: {exc}", file=sys.stderr)
        return 2
    dataset = load_dataset(args.dataset, scale=args.scale)
    print(f"[index] building over {dataset.graph!r}")
    start = time.perf_counter()
    catalog = mine_catalog(
        dataset.graph, miner_config, anchor_type=dataset.anchor_type
    )
    mining_s = time.perf_counter() - start
    print(f"[index] mined {len(catalog)} metagraphs in {mining_s:.1f}s")
    start = time.perf_counter()
    vectors, index = build_index(
        dataset.graph,
        catalog,
        config=IndexBuildConfig(workers=args.workers),
    )
    matching_s = time.perf_counter() - start
    print(
        f"[index] matched {len(index)} metagraphs in {matching_s:.1f}s "
        f"({args.workers} worker(s))"
    )
    target = save_index(
        args.out,
        vectors,
        catalog,
        graph=dataset.graph,
        index=index,
        extra={
            "dataset": args.dataset,
            "scale": args.scale,
            "workers": args.workers,
            "miner_config": miner_config.to_json_dict(),
        },
    )
    total = sum(f.stat().st_size for f in target.rglob("*") if f.is_file())
    print(f"[index] snapshot written to {target} ({total / 1024:.1f} KiB)")
    return 0


def build_lint_parser() -> argparse.ArgumentParser:
    """Parser for the ``repro lint`` static-analysis verb."""
    parser = argparse.ArgumentParser(
        prog="repro lint",
        description=(
            "run the repository's invariant-analysis suite (determinism, "
            "lock discipline, resource lifecycle, wire-error taxonomy, "
            "API hygiene) over python sources"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the report to this file",
    )
    parser.add_argument(
        "--rules",
        metavar="RULE[,RULE...]",
        default=None,
        help="comma-separated subset of rule ids to run",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    return parser


def run_lint_cli(argv: list[str]) -> int:
    """``repro lint``: exit 0 clean, 1 findings/errors, 2 usage."""
    # lean import path, mirroring `shard-worker`: the analysis suite
    # must stay importable without the experiments stack
    from repro.analysis import all_checkers, format_json, format_text, run_lint

    parser = build_lint_parser()
    args = parser.parse_args(argv)
    if args.list_rules:
        for rule, cls in sorted(all_checkers().items()):
            print(f"{rule}: {cls.description}")
        return 0
    rules = None
    if args.rules is not None:
        rules = [rule.strip() for rule in args.rules.split(",") if rule.strip()]
    try:
        report = run_lint(args.paths, rules=rules, root=Path.cwd())
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2
    rendered = (
        format_json(report) if args.format == "json" else format_text(report)
    )
    print(rendered)
    if args.output is not None:
        Path(args.output).write_text(rendered + "\n", encoding="utf-8")
    return 0 if report.clean else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] == "index":
        return run_index(argv[1:])
    if argv and argv[0] == "lint":
        return run_lint_cli(argv[1:])
    if argv and argv[0] == "shard-worker":
        # lean import path: the worker process must not pay for the
        # experiments stack it never uses
        from repro.serving.worker import main as worker_main

        return worker_main(argv[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.experiment in ("index", "lint", "shard-worker"):
        # reachable when flags precede the command ("--quick index"):
        # these families have their own parsers and flag sets
        print(
            f"the {args.experiment!r} command takes its own options; "
            f"invoke it as `repro {args.experiment} ...` with nothing "
            "before it",
            file=sys.stderr,
        )
        return 2
    config = config_from_args(args)
    if args.experiment == "serve":
        return run_serve(args, config)
    # the flat parser accepts serve flags everywhere; reject them on
    # experiment runs instead of silently ignoring them (any non-None
    # value means the flag was passed explicitly)
    misused = [
        flag
        for name, flag in parser.serve_only_options
        if getattr(args, name) is not None
    ]
    if misused:
        print(
            f"option(s) {sorted(misused)} only apply to the 'serve' "
            f"command, not {args.experiment!r}",
            file=sys.stderr,
        )
        return 2
    runner = OfflineRunner(config)
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        start = time.perf_counter()
        output = EXPERIMENTS[name](config, runner)
        elapsed = time.perf_counter() - start
        print(output)
        print(f"[{name} completed in {elapsed:.1f}s]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
