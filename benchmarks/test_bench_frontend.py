"""Query-frontend benchmark: coalesced, cached serving under Zipf load.

Real query traffic is skewed — a few hot anchors absorb most requests —
so the frontend's two optimisations compound: the LRU result cache
absorbs the repeats, and the batch coalescer merges the concurrent
misses into dynamic ``query_many`` batches.  This harness drives a
fixed-seed Zipf(1.2) workload from concurrent client threads through
:class:`~repro.serving.frontend.QueryFrontend` over the sharded tier
and measures sustained QPS and p99 latency (recorded, not asserted:
the gated throughput number is ``ops_per_s`` on ``bench/``'s
``http_zipf`` workload).  The parity spot check pins the
whole stack to the direct ``query_many`` bits — caching and batching
change latency shape, never results.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import SemanticProximitySearch
from repro.learning.trainer import TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from repro.serving import FrontendConfig, QueryFrontend
from benchmarks.test_bench_serving import TOP_K, serving_graph

SHARDS = 4
ROUTER_WORKERS = 4
CLIENTS = 8
NUM_REQUESTS = 400
ZIPF_A = 1.2
WORKLOAD_SEED = 7


@pytest.fixture(scope="module")
def frontend_setup():
    graph = serving_graph()
    catalog = MetagraphCatalog(
        [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "employer", "hobby")
        ],
        anchor_type="user",
    )
    engine = SemanticProximitySearch(
        graph,
        shards=SHARDS,
        serving_workers=ROUTER_WORKERS,
        trainer_config=TrainerConfig(restarts=1, max_iterations=50, seed=0),
    )
    engine.prepare(catalog=catalog)
    engine.fit(
        "circle",
        triplets=[("u000", "u001", "u010"), ("u002", "u003", "u020")],
    )
    users = sorted(engine.universe())
    # fixed-seed Zipf rank workload: rank r (1-hot) maps onto user r-1
    ranks = np.random.default_rng(WORKLOAD_SEED).zipf(ZIPF_A, NUM_REQUESTS)
    workload = [users[int(r - 1) % len(users)] for r in ranks]
    frontend = QueryFrontend(
        engine,
        config=FrontendConfig(
            max_batch=32, max_delay_ms=2.0, cache_size=4096,
            dispatch_workers=ROUTER_WORKERS,
        ),
    )
    # warm the serving tier (router build, shard dot caches) off-clock
    frontend.query("circle", workload[0], k=TOP_K)
    yield engine, frontend, workload
    frontend.close()
    engine.close()


def drive_workload(frontend, workload) -> dict:
    """All requests through CLIENTS concurrent threads; QPS and p99."""
    latencies: list[float] = []
    record_lock = threading.Lock()
    errors: list[BaseException] = []

    def client(requests: list) -> None:
        mine: list[float] = []
        try:
            for query in requests:
                start = time.perf_counter()
                frontend.query("circle", query, k=TOP_K)
                mine.append(time.perf_counter() - start)
        except BaseException as exc:  # noqa: BLE001 — surfaced below
            errors.append(exc)
        with record_lock:
            latencies.extend(mine)

    threads = [
        threading.Thread(target=client, args=(workload[i::CLIENTS],))
        for i in range(CLIENTS)
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    assert not errors, errors
    assert len(latencies) == len(workload)
    return {
        "wall_s": wall,
        "qps": len(workload) / wall,
        "p50_ms": float(np.percentile(latencies, 50)) * 1e3,
        "p99_ms": float(np.percentile(latencies, 99)) * 1e3,
    }


def test_bench_frontend_zipf(benchmark, frontend_setup):
    _engine, frontend, workload = frontend_setup
    summary = benchmark(drive_workload, frontend, workload)
    benchmark.extra_info["qps"] = round(summary["qps"], 1)
    benchmark.extra_info["p50_ms"] = round(summary["p50_ms"], 3)
    benchmark.extra_info["p99_ms"] = round(summary["p99_ms"], 3)


def test_frontend_parity_spot_check(frontend_setup):
    """The benchmarked stack serves the direct ``query_many`` bits."""
    engine, frontend, workload = frontend_setup
    sample = sorted(set(workload))[:16]
    direct = engine.query_many("circle", sample, k=TOP_K)
    assert [
        frontend.query("circle", query, k=TOP_K) for query in sample
    ] == direct


def test_frontend_cache_absorbs_zipf_repeats(frontend_setup):
    """Under Zipf skew the cache, not the backend, serves the repeats."""
    _engine, frontend, workload = frontend_setup
    drive_workload(frontend, workload)
    stats = frontend.stats()
    hits = stats["cache"]["hits"]
    submitted = stats["batching"]["submitted"]
    assert hits + submitted >= len(workload)
    # every distinct query dispatches at most once per snapshot: the
    # steady-state dispatch count is bounded by the key space, not the
    # request count
    assert submitted < hits, (
        f"cache absorbed too little: {hits} hits vs {submitted} dispatches"
    )
