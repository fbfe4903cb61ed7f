"""The traced run: one request replayed through every layer, rung by rung.

A fixed-seed sample of the workload's own requests goes through a
ladder of public entry points, all in this process, one span per call;
rungs of one request share an ``op_id``:

    HTTP GET on an in-process FrontendServer -> QueryFrontend.query
    -> engine.query_many -> QueryRouter.rank_many -> ShardBackend.score_group
    -> ScoreRequest.to_wire / ShardExecutor.execute / encode_rankings /
    decode_rankings -> score_group_on_shard -> ProximityModel.rank

A layer's self time is its rung's duration minus the next rung's on the
same input.  The update path gets the same treatment (``apply_updates``
against ``apply_delta`` + recompiles), and the offline rungs come from
the pass child (``offline_pass.py --trace 1``).  Every layer metric is
the median over the sample unless its name says otherwise.

The routers here fan out with one worker, so that a router rung minus
the sum of its backend rungs is the router's own time.
"""

from __future__ import annotations

import http.client
import itertools
import json
import statistics

import inputs
from spans import Tracer
from workloads import SHARDS, Data, Run, http_get, percentile, query_path

#: requests of the workload's stream the ladder replays
OPS = 8
#: requests replayed through a fresh frontend for cache and batching counters
REPLAY = 256
CACHE_KEYS = 1024
TOGGLES = 2


def offline_layers(tracer: Tracer, result: dict) -> dict[str, float]:
    """Layer metrics of a traced pass (spans already adopted by ``tracer``)."""
    rungs, check = result["rungs"], result["parallel_check"]
    match_s = tracer.total("compiled_embedding_matrix")
    seq_s, par_s = tracer.total("build_index[sample]"), tracer.total("parallel.build_index[sample]")
    return {
        "graph.csr_build_ms": tracer.median("CSRGraph.from_graph") * 1e3,
        "mining.mine_s": tracer.total("mine_catalog"),
        "mining.patterns": result["patterns"],
        "matching.match_s": match_s,
        "matching.embeddings": rungs["embeddings"],
        "index.count_s": tracer.total("compiled_match_and_count") - match_s,
        "index.instances": rungs["instances"],
        "index.build_index_s": tracer.total("prepare"),
        "index.parallel.sample_seq_s": seq_s,
        "index.parallel.sample_par_s": par_s,
        "index.parallel.efficiency": seq_s / (par_s * check["workers"]),
        "index.compile_ms": tracer.median("MetagraphVectors.compile") * 1e3,
        "index.nnz": rungs["nnz"],
        "learning.fit_s": tracer.total("fit"),
        "index.persist.save_ms": tracer.total("save_index") * 1e3,
        "index.persist.bytes": result["snapshot_bytes"],
        "index.persist.load_npz_ms": tracer.median("load_index[npz]") * 1e3,
        "index.persist.load_mmap_ms": tracer.median("load_index[mmap]") * 1e3,
        "index.persist.load_compiled_ms": tracer.median("load_compiled") * 1e3,
    }


def frontend_stats(stats: dict) -> dict[str, float]:
    """Cache and batching counters of a frontend's ``stats()`` / ``/stats``."""
    cache, batching = stats["cache"], stats["batching"]
    return {
        "serving.cache.hit_ratio": cache["hits"] / max(cache["hits"] + cache["misses"], 1),
        "serving.frontend.batch_size_mean": batching["submitted"] / max(batching["batches"], 1),
    }


def update_layers(tracer: Tracer) -> dict[str, float]:
    """The write path, from the ladder's toggles and (update_mixed) the loop's."""
    model_compiles = tracer.by_op("ProximityModel.compile[after delta]")
    return {
        "search.apply_updates_ms": tracer.median("engine.apply_updates") * 1e3,
        "search.apply_updates_p90_ms":
            percentile(sorted(tracer.seconds("engine.apply_updates")), 0.9) * 1e3,
        "search.post_update_batch_ms": tracer.median("engine.query_many[post-update]") * 1e3,
        "search.steady_batch_ms": tracer.median("engine.query_many[steady]") * 1e3,
        "index.delta.apply_ms": tracer.median("apply_delta") * 1e3,
        "index.recompile_ms": tracer.median("MetagraphVectors.compile[after delta]") * 1e3,
        "learning.model.compile_ms": tracer.median("ProximityModel.compile[after delta]") * 1e3,
        "search.apply_updates_self_ms": (
            tracer.median("engine.apply_updates")
            - tracer.median("apply_delta")
            - tracer.median("MetagraphVectors.compile[after delta]")
            - statistics.median(model_compiles.values())
        ) * 1e3,
    }


def route(backend, queries: list[str]) -> dict[int, list[tuple[int, str, int]]]:
    """The router's grouping of a batch by owning shard, from public calls.

    A user without counts has no row on any shard; the router pads its
    ranking itself, so it reaches no rung below.
    """
    groups: dict[int, list[tuple[int, str, int]]] = {}
    for slot, query in enumerate(queries):
        pos = backend.position(query)
        if pos is not None:
            groups.setdefault(backend.shard_id_of(pos), []).append((slot, query, pos))
    return groups


def serving_layers(run: Run, data: Data, oracle, sample: list[inputs.Request]) -> dict[str, float]:
    """Replay ``sample`` through the serving ladder; returns the layer metrics."""
    from repro import SemanticProximitySearch
    from repro.serving import FrontendConfig
    from repro.serving.backend import InProcessBackend, SubprocessBackend
    from repro.serving.frontend import FrontendServer
    from repro.serving.router import QueryRouter, ShardedVectors
    from repro.serving.shards import partition_compiled

    tracer, w = run.tracer, run.workload
    graph = data.dataset.graph
    compiled = oracle.vectors.compile()
    universe = oracle.universe()
    layers: dict[str, float] = {}
    closers = []
    try:
        with tracer.span("partition_compiled", "serving.shards"):
            shards = partition_compiled(compiled, SHARDS)
        backends = {"thread": InProcessBackend(ShardedVectors(shards, compiled))}
        with tracer.span("SubprocessBackend.start", "serving.backend"):
            backends["process"] = SubprocessBackend(data.snapshot, SHARDS, replicas=1)
            closers.append(backends["process"].close)
            backends["process"].start()
        routers = {kind: QueryRouter(backend, workers=1) for kind, backend in backends.items()}
        closers.extend(router.close for router in routers.values())

        tier = {"serving_workers": 1} if w.backend == "thread" else {"replicas": 1}
        primary = SemanticProximitySearch.from_index(
            data.snapshot, graph, mmap=True, shards=SHARDS, serving_backend=w.backend, **tier
        )
        closers.append(primary.close)
        front = primary.frontend(FrontendConfig())
        closers.append(front.close)
        server = FrontendServer(front).start()
        closers.append(server.shutdown)
        conn = http.client.HTTPConnection(*server.address, timeout=30)
        closers.append(conn.close)
        http_get(conn, "/health")  # connect, and start the fleet, before the rungs
        primary.query_many(*sample[0][:2], k=sample[0][2])

        for _ in range(16):
            with tracer.span("GET /health", "http"):
                http_get(conn, "/health")
        # first contact of a class with a shard computes its dot products:
        # replay the sample once unrecorded so the rungs compare warm paths
        for request in sample:
            replay_request(Tracer(w.name, enabled=False), None, request, conn, front, primary,
                           oracle, routers, backends, shards, universe)
        frame_bytes = [
            replay_request(tracer, op, request, conn, front, primary, oracle, routers,
                           backends, shards, universe)
            for op, request in enumerate(sample)
        ]
        layers.update(request_layers(tracer, w.backend))
        layers["serving.protocol.frame_bytes"] = statistics.median(frame_bytes)

        # cache and batching counters over a longer prefix of the stream
        singles = (
            (cls, [q], k) for cls, queries, k in w.stream(data.users, run.seed, 0) for q in queries
        )
        with primary.frontend(FrontendConfig()) as replay:
            for class_name, queries, k in itertools.islice(singles, REPLAY):
                replay.query(class_name, queries[0], k=k)
            layers.update(frontend_stats(replay.stats()))
        layers.update(cache_layers(tracer))
        layers["index.delta.rematched"] = update_rungs(run, data, tracer, sample[0], closers)
        layers.update(update_layers(tracer))
        layers.update({
            "serving.shards.partition_ms": tracer.median("partition_compiled") * 1e3,
            "serving.backend.fleet_start_ms": tracer.median("SubprocessBackend.start") * 1e3,
            "serving.backend.swap_process_ms":
                tracer.median("apply_updates+refresh_serving[process]") * 1e3,
            "http.health_p50_ms": tracer.median("GET /health") * 1e3,
            "search.coldstart_ms": tracer.median("from_index[mmap]+query") * 1e3,
        })
    finally:
        for close in reversed(closers):
            close()
    return layers


def replay_request(tracer, op, request, conn, front, primary, oracle, routers, backends,
                   shards, universe) -> int:
    """Every rung of the ladder for one request; returns its wire bytes."""
    from repro.serving.protocol import (
        ScoreRequest, ShardExecutor, decode_rankings, encode_rankings, score_group_on_shard,
    )

    class_name, queries, k = request
    first = queries[0]
    model = oracle.model(class_name)
    path = query_path(request)
    with tracer.span("GET /query[miss]", "http", op_id=op) as http_span:
        http_get(conn, path)
    with tracer.span("GET /query[hit]", "http", op_id=op):
        http_get(conn, path)
    front.cache.invalidate()
    with tracer.span("QueryFrontend.query[miss]", "serving.frontend", op_id=op,
                     parent=http_span) as front_span:
        front.query(class_name, first, k=k)
    with tracer.span("QueryFrontend.query[hit]", "serving.frontend", op_id=op, parent=http_span):
        front.query(class_name, first, k=k)
    front.cache.invalidate()
    with tracer.span("engine.query_many[1]", "search", op_id=op, parent=front_span):
        primary.query_many(class_name, [first], k=k)
    with tracer.span("engine.query_many", "search", op_id=op, parent=front_span) as engine_span:
        primary.query_many(class_name, queries, k=k)

    groups = route(backends["thread"], queries)
    for kind, router in routers.items():
        with tracer.span(f"QueryRouter.rank_many[{kind}]", "serving.router", op_id=op,
                         parent=engine_span) as router_span:
            router.rank_many(model, queries, universe=universe, k=k)
        for shard_id, group in groups.items():
            with tracer.span(f"ShardBackend.score_group[{kind}]", "serving.backend", op_id=op,
                             parent=router_span) as backend_span:
                backends[kind].score_group(model, shard_id, group, universe, k)

    frame_bytes = 0
    for shard_id, group in groups.items():
        shard = shards[shard_id]
        executor = ShardExecutor(shard)
        # first contact ships the universe; steady state only its digest
        executor.execute(ScoreRequest(group, model.weights, k, universe, True).to_wire())
        with tracer.span("ScoreRequest.to_wire", "serving.protocol", op_id=op,
                         parent=backend_span):
            doc = ScoreRequest(group, model.weights, k, universe).to_wire()
        with tracer.span("ShardExecutor.execute", "serving.protocol", op_id=op,
                         parent=backend_span) as execute_span:
            response = executor.execute(doc)
        node_dots, pair_dots = executor.dot_products(model.weights)
        with tracer.span("score_group_on_shard", "serving.shards", op_id=op,
                         parent=execute_span):
            results = score_group_on_shard(shard, node_dots, pair_dots, group, universe, k)
        with tracer.span("encode_rankings", "serving.protocol", op_id=op, parent=execute_span):
            encode_rankings(results)
        with tracer.span("decode_rankings", "serving.protocol", op_id=op, parent=backend_span):
            decode_rankings(response["results"])
        frame_bytes += 8 + len(json.dumps(doc)) + len(json.dumps(response))
    for query in queries:
        with tracer.span("ProximityModel.rank", "learning.model", op_id=op):
            model.rank(query, universe=universe, k=k)
    return frame_bytes


def request_layers(tracer: Tracer, backend: str) -> dict[str, float]:
    def rung(name: str, scale: float) -> float:
        return statistics.median(tracer.by_op(name).values()) * scale

    return {
        "http.self_ms":
            tracer.median_self("GET /query[miss]", "QueryFrontend.query[miss]") * 1e3,
        "serving.frontend.hit_us": rung("QueryFrontend.query[hit]", 1e6),
        "serving.frontend.miss_ms": rung("QueryFrontend.query[miss]", 1e3),
        "serving.frontend.coalescer_wait_ms":
            tracer.median_self("QueryFrontend.query[miss]", "engine.query_many[1]") * 1e3,
        "search.query_many_self_ms":
            tracer.median_self("engine.query_many", f"QueryRouter.rank_many[{backend}]") * 1e3,
        "serving.router.rank_many_self_ms": tracer.median_self(
            "QueryRouter.rank_many[thread]", "ShardBackend.score_group[thread]") * 1e3,
        "serving.backend.thread.score_group_ms": rung("ShardBackend.score_group[thread]", 1e3),
        "serving.backend.process.score_group_ms": rung("ShardBackend.score_group[process]", 1e3),
        "serving.protocol.encode_request_us": rung("ScoreRequest.to_wire", 1e6),
        "serving.protocol.execute_ms": rung("ShardExecutor.execute", 1e3),
        "serving.protocol.encode_rankings_us": rung("encode_rankings", 1e6),
        "serving.protocol.decode_rankings_us": rung("decode_rankings", 1e6),
        "serving.shards.score_ms": rung("score_group_on_shard", 1e3),
        "learning.model.rank_us": tracer.median("ProximityModel.rank") * 1e6,
    }


def cache_layers(tracer: Tracer) -> dict[str, float]:
    from repro.serving.cache import ResultCache, result_key

    cache = ResultCache(4096)
    keys = [result_key("digest", "college", f"u{i}", 10, "universe") for i in range(CACHE_KEYS)]
    ranking = [(f"u{i}", 1.0 / (i + 1)) for i in range(10)]
    with tracer.span(f"ResultCache.put[x{CACHE_KEYS}]", "serving.cache"):
        for key in keys:
            cache.put(key, ranking)
    with tracer.span(f"ResultCache.get[x{CACHE_KEYS}]", "serving.cache"):
        for key in keys:
            cache.get(key)
    return {
        "serving.cache.put_us": tracer.total(f"ResultCache.put[x{CACHE_KEYS}]") / CACHE_KEYS * 1e6,
        "serving.cache.get_us": tracer.total(f"ResultCache.get[x{CACHE_KEYS}]") / CACHE_KEYS * 1e6,
    }


def update_rungs(run: Run, data: Data, tracer: Tracer, request, closers: list) -> float:
    """Toggle a few edges through the facade, then through its parts.

    Returns the mean number of instances one edit retired and re-matched.
    """
    from repro import GraphDelta, SemanticProximitySearch
    from repro.index.delta import apply_delta
    from repro.index.persist import load_index
    from repro.learning.model import ProximityModel

    class_name, queries, k = request
    edges = inputs.toggle_edges(data.dataset, run.seed + 1, TOGGLES)
    deltas = []
    for u, v in edges:
        deltas.append((f"ladder.{len(deltas)}", GraphDelta().remove_edge(u, v)))
        deltas.append((f"ladder.{len(deltas)}", GraphDelta().add_edge(u, v)))

    engine = SemanticProximitySearch.from_index(
        data.snapshot, data.dataset.graph.copy(), mmap=True, shards=SHARDS
    )
    closers.append(engine.close)
    engine.query_many(class_name, queries, k=k)
    for op, delta in deltas:
        with tracer.span("engine.apply_updates", "search", op_id=op) as parent:
            engine.apply_updates(delta)
        with tracer.span("engine.query_many[post-update]", "search", op_id=op, parent=parent):
            engine.query_many(class_name, queries, k=k)
        with tracer.span("engine.query_many[steady]", "search", op_id=op, parent=parent):
            engine.query_many(class_name, queries, k=k)

    # the same edits against the parts apply_updates is made of
    graph = data.dataset.graph.copy()
    loaded = load_index(data.snapshot, graph=graph, mmap=True)
    vectors, index = loaded.vectors, loaded.instance_index()
    models = [ProximityModel(weights, vectors, name=name).compile()
              for name, weights in sorted(loaded.models.items())]
    rematched = []
    for op, delta in deltas:
        with tracer.span("apply_delta", "index.delta", op_id=op):
            stats = apply_delta(graph, loaded.catalog, vectors, delta, index=index)
        rematched.append(stats.instances_retired + stats.instances_added)
        with tracer.span("MetagraphVectors.compile[after delta]", "index", op_id=op):
            compiled = vectors.compile()
        for model in models:
            with tracer.span("ProximityModel.compile[after delta]", "learning.model", op_id=op):
                model.compile(compiled)

    fleet = SemanticProximitySearch.from_index(
        data.snapshot, data.dataset.graph.copy(), mmap=True, shards=SHARDS,
        serving_backend="process", replicas=1,
    )
    closers.append(fleet.close)
    fleet.query_many(class_name, queries, k=k)
    with tracer.span("apply_updates+refresh_serving[process]", "serving.backend"):
        fleet.apply_updates(deltas[0][1])
        fleet.refresh_serving()
    return statistics.mean(rematched)
