"""Online-phase serving benchmark: the compiled scoring kernel.

Measures Sect. II-B's online ranking on a synthetic serving graph that
is larger than the experiment datasets (more anchor nodes, denser
partner sets), in the shapes a deployment cares about:

- single-query latency (one ``rank`` call, warm caches);
- batched throughput (one ranking per query over a query batch),
  single-process and through the shard router (4 shards, 4 workers).

There is one scoring path, so nothing here is timed against a second
one; that the kernel returns the reference rankings is the parity
suite's job (``tests/learning/test_rank_parity.py``,
``tests/serving/test_shards.py``), spot-checked on this graph by
``test_bench_backends_agree`` against the oracle in ``tests/oracles.py``.
No wall-clock floor is asserted here.
"""

from __future__ import annotations

import random
import time

import pytest

from repro.graph.typed_graph import TypedGraph
from repro.index.parallel import build_index
from repro.learning.model import ProximityModel, SortedUniverse, uniform_model
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from repro.serving import InProcessBackend, QueryRouter, ShardedVectors
from tests.oracles import ScalarModel

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
    vectors, _ = build_index(graph, catalog)
    compiled = uniform_model(vectors, name="compiled").compile()
    universe = SortedUniverse(graph.nodes_of_type("user"))
    queries = list(universe)[:BATCH]
    # warm the universe mask so the kernel is measured at steady state
    for query in queries:
        compiled.rank(query, universe=universe, k=TOP_K)
    return compiled, universe, queries


def _rank_batch(model: ProximityModel, universe, queries, k=TOP_K):
    return [model.rank(q, universe=universe, k=k) for q in queries]


def test_bench_compiled_single_query(benchmark, serving_setup):
    compiled, universe, queries = serving_setup
    benchmark(compiled.rank, queries[0], universe=universe, k=TOP_K)


def test_bench_compiled_batch(benchmark, serving_setup):
    compiled, universe, queries = serving_setup
    benchmark(_rank_batch, compiled, universe, queries)


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def sharded_setup(serving_setup):
    compiled_model, universe, queries = serving_setup
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
    compiled, universe, queries = serving_setup
    router, model = sharded_setup
    benchmark(router.rank_many, model, queries, universe=universe, k=TOP_K)


def test_sharded_results_bit_identical(serving_setup, sharded_setup):
    """The sharded tier must merge to the unsharded compiled rankings."""
    compiled, universe, queries = serving_setup
    router, model = sharded_setup
    sharded = router.rank_many(model, queries, universe=universe, k=TOP_K)
    unsharded = [model.rank(q, universe=universe, k=TOP_K) for q in queries]
    assert sharded == unsharded


def test_bench_backends_agree(serving_setup):
    """Cheap in-benchmark parity spot check on the serving graph."""
    compiled, universe, queries = serving_setup
    scalar = ScalarModel.like(compiled)
    for query in queries[:8]:
        a = scalar.rank(query, universe=universe, k=TOP_K)
        b = compiled.rank(query, universe=universe, k=TOP_K)
        assert [n for n, _ in a] == [n for n, _ in b]
        assert all(abs(x - y) < 1e-12 for (_, x), (_, y) in zip(a, b))
