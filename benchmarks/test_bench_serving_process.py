"""Process-worker serving benchmark: supervised shard workers vs the oracle.

The process backend pays everything the thread backend does not: JSON
framing, a Unix-socket round trip per shard group, and supervisor
bookkeeping.  Two floors keep that overhead honest:

- ``test_process_batch_speedup`` — the process-worker router (2 shards,
  2 replicas each) must still beat the scalar reference ranker (now
  the oracle in ``tests/oracles.py``: dict rows, one dense ``mgp()``
  per candidate) on the batched workload by
  ``REPRO_PROCESS_SERVING_FLOOR`` (default 2x):
  crossing the process boundary must not give back the compiled
  kernel's win;
- ``test_killed_worker_loses_no_queries`` — killing one worker while
  the benchmark workload runs loses no queries and changes no bits:
  the surviving replica serves the identical rankings.

Both compare against the same serving-scale graph as
``test_bench_serving.py`` (600 users, batch of 64, top-10).
"""

from __future__ import annotations

import os

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
from benchmarks.test_bench_serving import (
    BATCH,
    TOP_K,
    _best_of,
    _rank_batch,
    serving_graph,
)
from tests.oracles import ScalarModel

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
    scalar = ScalarModel.like(model)
    universe = SortedUniverse(graph.nodes_of_type("user"))
    queries = list(universe)[:BATCH]
    snapshot = tmp_path_factory.mktemp("process-serving") / "snapshot"
    save_index(snapshot, vectors, catalog, graph=graph, index=index)
    backend = SubprocessBackend(snapshot, SHARDS, replicas=REPLICAS)
    router = QueryRouter(backend, workers=ROUTER_WORKERS)
    # warm every worker's dot/universe caches
    router.rank_many(model, queries, universe=universe, k=TOP_K)
    yield scalar, model, universe, queries, backend, router
    router.close()


def test_bench_process_batch(benchmark, process_setup):
    _scalar, model, universe, queries, _backend, router = process_setup
    benchmark(router.rank_many, model, queries, universe=universe, k=TOP_K)


def test_process_batch_speedup(process_setup):
    """Acceptance floor: process-worker batched serving >= 2x over scalar.

    Wall-clock ratios are noisy on shared runners, so the floor can be
    relaxed via REPRO_PROCESS_SERVING_FLOOR (the GitHub Actions job
    sets a lower one); the local tier-1 run enforces the full 2x.
    """
    floor = float(os.environ.get("REPRO_PROCESS_SERVING_FLOOR", "2"))
    scalar, model, universe, queries, _backend, router = process_setup
    scalar_s = _best_of(lambda: _rank_batch(scalar, universe, queries), 5)
    process_s = _best_of(
        lambda: router.rank_many(model, queries, universe=universe, k=TOP_K),
        5,
    )
    speedup = scalar_s / process_s
    assert speedup >= floor, (
        f"process-worker batched path only {speedup:.1f}x faster (floor "
        f"{floor}x; scalar {scalar_s * 1e3:.1f} ms, process "
        f"{process_s * 1e3:.1f} ms)"
    )


def test_process_results_bit_identical(process_setup):
    """The process tier must merge to the in-process sharded rankings."""
    _scalar, model, universe, queries, _backend, router = process_setup
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
    _scalar, model, universe, queries, backend, router = process_setup
    healthy = router.rank_many(model, queries, universe=universe, k=TOP_K)
    assert len(healthy) == len(queries)
    for shard_id in range(SHARDS):
        victim = backend._workers[shard_id][0]
        victim.proc.kill()
        victim.proc.wait()
        assert router.rank_many(
            model, queries, universe=universe, k=TOP_K
        ) == healthy
