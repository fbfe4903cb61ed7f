"""Process-worker serving benchmark: supervised shard workers.

The process backend pays everything the thread backend does not: JSON
framing, a Unix-socket round trip per shard group, and supervisor
bookkeeping.  The benchmark times the process-worker router (2 shards,
2 replicas each) on the batched workload; no wall-clock floor is
asserted (``bench/``'s ``lib_batch_process`` workload measures it).
Two deterministic checks ride along:

- ``test_process_results_bit_identical`` — the process tier merges to
  the in-process sharded rankings;
- ``test_killed_worker_loses_no_queries`` — killing one worker while
  the benchmark workload runs loses no queries and changes no bits:
  the surviving replica serves the identical rankings.

Both run on the same serving-scale graph as ``test_bench_serving.py``
(600 users, batch of 64, top-10).
"""

from __future__ import annotations

import pytest

from repro.index.persist import save_index
from repro.index.parallel import build_index
from repro.learning.model import SortedUniverse, uniform_model
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from repro.serving import (
    InProcessBackend,
    QueryRouter,
    ShardedVectors,
    SubprocessBackend,
)
from benchmarks.test_bench_serving import BATCH, TOP_K, serving_graph

SHARDS = 2
REPLICAS = 2
ROUTER_WORKERS = 2


@pytest.fixture(scope="module")
def process_setup(tmp_path_factory):
    graph = serving_graph()
    catalog = MetagraphCatalog(
        [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "employer", "hobby")
        ],
        anchor_type="user",
    )
    vectors, index = build_index(graph, catalog)
    model = uniform_model(vectors, name="process").compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    queries = list(universe)[:BATCH]
    snapshot = tmp_path_factory.mktemp("process-serving") / "snapshot"
    save_index(snapshot, vectors, catalog, graph=graph, index=index)
    backend = SubprocessBackend(snapshot, SHARDS, replicas=REPLICAS)
    router = QueryRouter(backend, workers=ROUTER_WORKERS)
    # warm every worker's dot/universe caches
    router.rank_many(model, queries, universe=universe, k=TOP_K)
    yield model, universe, queries, backend, router
    router.close()


def test_bench_process_batch(benchmark, process_setup):
    model, universe, queries, _backend, router = process_setup
    benchmark(router.rank_many, model, queries, universe=universe, k=TOP_K)


def test_process_results_bit_identical(process_setup):
    """The process tier must merge to the in-process sharded rankings."""
    model, universe, queries, _backend, router = process_setup
    compiled = model.vectors.compile()
    with QueryRouter(
        InProcessBackend(ShardedVectors.partition(compiled, SHARDS)),
        workers=ROUTER_WORKERS,
    ) as flat:
        expected = flat.rank_many(model, queries, universe=universe, k=TOP_K)
    assert router.rank_many(
        model, queries, universe=universe, k=TOP_K
    ) == expected


def test_killed_worker_loses_no_queries(process_setup):
    """Acceptance: killing any single worker mid-workload drops nothing.

    One replica of each shard is SIGKILLed in turn while the benchmark
    batch replays; every batch must come back complete and bit-identical
    to the healthy run served before the kills.
    """
    model, universe, queries, backend, router = process_setup
    healthy = router.rank_many(model, queries, universe=universe, k=TOP_K)
    assert len(healthy) == len(queries)
    for shard_id in range(SHARDS):
        victim = backend._workers[shard_id][0]
        victim.proc.kill()
        victim.proc.wait()
        assert router.rank_many(
            model, queries, universe=universe, k=TOP_K
        ) == healthy
