"""Online-phase serving benchmark: scalar vs compiled scoring backend.

Measures Sect. II-B's online ranking on a synthetic serving graph that
is larger than the experiment datasets (more anchor nodes, denser
partner sets), in the two shapes a deployment cares about:

- single-query latency (one ``rank`` call, warm caches);
- batched throughput (one ranking per query over a query batch).

The compiled CSR backend must beat the scalar reference path by >= 10x
on the batched workload; ``test_compiled_batch_speedup`` enforces that
floor, and the parity suite (tests/learning/test_rank_parity.py) proves
the two paths return identical rankings.

The sharded serving tier adds two more floors:

- ``test_sharded_batch_speedup`` — the shard router (4 shards, 4
  workers) must also beat the scalar path by a floor
  (``REPRO_SHARDED_SERVING_FLOOR``, default 5x): sharding must not
  give back what compiling bought;
- ``test_mmap_coldstart_speedup`` — cold-starting a serving worker
  from the format-v2 mmap sidecar must beat the npz path (decompress +
  dict replay + compile) by ``REPRO_MMAP_COLDSTART_FLOOR`` (default
  2x).
"""

from __future__ import annotations

import os
import random
import time

import numpy as np
import pytest

from repro.graph.typed_graph import TypedGraph
from repro.index.persist import load_compiled, load_index, save_index
from repro.index.vectors import build_vectors
from repro.learning.model import ProximityModel, SortedUniverse, uniform_model
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from repro.serving import InProcessBackend, QueryRouter, ShardedVectors

SHARDS = 4
ROUTER_WORKERS = 4

NUM_USERS = 600
GROUP_SIZE = 8
BATCH = 64
TOP_K = 10


def serving_graph(seed: int = 0) -> TypedGraph:
    """A serving-scale graph: users clustered by typed attribute groups."""
    rng = random.Random(seed)
    graph = TypedGraph(name="serving")
    users = [f"u{i:03d}" for i in range(NUM_USERS)]
    for user in users:
        graph.add_node(user, "user")
    for attr_type in ("school", "employer", "hobby"):
        pool = users[:]
        rng.shuffle(pool)
        for g, start in enumerate(range(0, len(pool), GROUP_SIZE)):
            attr = f"{attr_type}{g}"
            graph.add_node(attr, attr_type)
            for user in pool[start : start + GROUP_SIZE]:
                graph.add_edge(user, attr)
    return graph


@pytest.fixture(scope="module")
def serving_setup():
    graph = serving_graph()
    catalog = MetagraphCatalog(
        [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "employer", "hobby")
        ],
        anchor_type="user",
    )
    vectors, _ = build_vectors(graph, catalog)
    scalar = uniform_model(vectors, name="scalar")
    compiled = uniform_model(vectors, name="compiled").compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    queries = list(universe)[:BATCH]
    # warm the scalar path's dense-vector caches so both backends are
    # measured at steady state
    for query in queries:
        scalar.rank(query, universe=universe, k=TOP_K)
        compiled.rank(query, universe=universe, k=TOP_K)
    return scalar, compiled, universe, queries


def _rank_batch(model: ProximityModel, universe, queries, k=TOP_K):
    return [model.rank(q, universe=universe, k=k) for q in queries]


def test_bench_scalar_single_query(benchmark, serving_setup):
    scalar, _compiled, universe, queries = serving_setup
    benchmark(scalar.rank, queries[0], universe=universe, k=TOP_K)


def test_bench_compiled_single_query(benchmark, serving_setup):
    _scalar, compiled, universe, queries = serving_setup
    benchmark(compiled.rank, queries[0], universe=universe, k=TOP_K)


def test_bench_scalar_batch(benchmark, serving_setup):
    scalar, _compiled, universe, queries = serving_setup
    benchmark(_rank_batch, scalar, universe, queries)


def test_bench_compiled_batch(benchmark, serving_setup):
    _scalar, compiled, universe, queries = serving_setup
    benchmark(_rank_batch, compiled, universe, queries)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_compiled_batch_speedup(serving_setup):
    """Acceptance floor: compiled batched serving >= 10x over scalar.

    Wall-clock ratios are noisy on shared runners, so the floor can be
    relaxed via REPRO_SERVING_SPEEDUP_FLOOR (the GitHub Actions job
    sets a lower one); the local tier-1 run enforces the full 10x.
    """
    floor = float(os.environ.get("REPRO_SERVING_SPEEDUP_FLOOR", "10"))
    scalar, compiled, universe, queries = serving_setup
    scalar_s = _best_of(lambda: _rank_batch(scalar, universe, queries), 5)
    compiled_s = _best_of(lambda: _rank_batch(compiled, universe, queries), 5)
    speedup = scalar_s / compiled_s
    assert speedup >= floor, (
        f"compiled batched path only {speedup:.1f}x faster (floor {floor}x; "
        f"scalar {scalar_s * 1e3:.1f} ms, compiled {compiled_s * 1e3:.1f} ms)"
    )


@pytest.fixture(scope="module")
def sharded_setup(serving_setup):
    _scalar, compiled_model, universe, queries = serving_setup
    compiled = compiled_model.vectors.compile()
    router = QueryRouter(
        InProcessBackend(ShardedVectors.partition(compiled, SHARDS)),
        workers=ROUTER_WORKERS,
    )
    # warm the pool and the per-shard dot/mask caches
    router.rank_many(compiled_model, queries, universe=universe, k=TOP_K)
    yield router, compiled_model
    router.close()


def test_bench_sharded_batch(benchmark, serving_setup, sharded_setup):
    _scalar, compiled, universe, queries = serving_setup
    router, model = sharded_setup
    benchmark(router.rank_many, model, queries, universe=universe, k=TOP_K)


def test_sharded_batch_speedup(serving_setup, sharded_setup):
    """Acceptance floor: sharded batched serving >= 5x over scalar.

    The shard router pays partition bookkeeping and thread fan-out on
    top of the compiled kernels; this floor proves those costs never
    hand back the compiled path's win over the scalar reference.
    Relax via REPRO_SHARDED_SERVING_FLOOR on noisy runners.
    """
    floor = float(os.environ.get("REPRO_SHARDED_SERVING_FLOOR", "5"))
    scalar, _compiled, universe, queries = serving_setup
    router, model = sharded_setup
    scalar_s = _best_of(lambda: _rank_batch(scalar, universe, queries), 5)
    sharded_s = _best_of(
        lambda: router.rank_many(model, queries, universe=universe, k=TOP_K),
        5,
    )
    speedup = scalar_s / sharded_s
    assert speedup >= floor, (
        f"sharded batched path only {speedup:.1f}x faster (floor {floor}x; "
        f"scalar {scalar_s * 1e3:.1f} ms, sharded {sharded_s * 1e3:.1f} ms)"
    )


def test_sharded_results_bit_identical(serving_setup, sharded_setup):
    """The sharded tier must merge to the unsharded compiled rankings."""
    _scalar, compiled, universe, queries = serving_setup
    router, model = sharded_setup
    sharded = router.rank_many(model, queries, universe=universe, k=TOP_K)
    unsharded = [model.rank(q, universe=universe, k=TOP_K) for q in queries]
    assert sharded == unsharded


@pytest.fixture(scope="module")
def serving_snapshot(tmp_path_factory):
    graph = serving_graph()
    catalog = MetagraphCatalog(
        [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "employer", "hobby")
        ],
        anchor_type="user",
    )
    vectors, index = build_vectors(graph, catalog)
    target = tmp_path_factory.mktemp("serving") / "snapshot"
    save_index(target, vectors, catalog, graph=graph, index=index)
    return target


def test_mmap_coldstart_speedup(serving_snapshot):
    """Acceptance floor: mmap sidecar cold start >= 2x over the npz path.

    The npz leg is what a pre-v2 worker did at boot: decompress
    ``arrays.npz``, replay the counts into dicts, re-freeze them into
    the CSR backend.  The mmap leg opens the format-v2 sidecar with
    ``mmap_mode="r"``.  Relax via REPRO_MMAP_COLDSTART_FLOOR on noisy
    runners.
    """
    floor = float(os.environ.get("REPRO_MMAP_COLDSTART_FLOOR", "2"))

    def npz_cold_start():
        return load_index(serving_snapshot, mmap=False).vectors.compile()

    def mmap_cold_start():
        return load_compiled(serving_snapshot)

    assert npz_cold_start().nnz == mmap_cold_start().nnz
    npz_s = _best_of(npz_cold_start, 3)
    mmap_s = _best_of(mmap_cold_start, 3)
    speedup = npz_s / mmap_s
    assert speedup >= floor, (
        f"mmap cold start only {speedup:.1f}x faster (floor {floor}x; "
        f"npz {npz_s * 1e3:.1f} ms, mmap {mmap_s * 1e3:.1f} ms)"
    )


def test_bench_backends_agree(serving_setup):
    """Cheap in-benchmark parity spot check on the serving graph."""
    scalar, compiled, universe, queries = serving_setup
    weights = np.asarray(scalar.weights)
    assert np.array_equal(weights, compiled.weights)
    for query in queries[:8]:
        a = scalar.rank(query, universe=universe, k=TOP_K)
        b = compiled.rank(query, universe=universe, k=TOP_K)
        assert [n for n, _ in a] == [n for n, _ in b]
        assert all(abs(x - y) < 1e-12 for (_, x), (_, y) in zip(a, b))
