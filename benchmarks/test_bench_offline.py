"""Offline-phase benchmarks: parallel builds and snapshot cold starts.

A synthetic offline workload (a serving-scale graph with square
patterns that dominate matching cost) guards the indexing subsystem:

- the 4-worker parallel build runs as a timed smoke of the pool path
  and must produce the sequential build's counts; how much faster it is
  depends on the machine's cores, so the number lives in the repo
  benchmark (``bench/``: ``op_p50_ms`` on ``offline_par`` vs
  ``offline_deep``) instead of a wall-clock assertion here;
- a persisted snapshot loads and saves under the ``pytest-benchmark``
  timers and must serve the counts it was built from; the cold-start
  ratio against a rebuild lives in ``bench/`` too
  (``search.coldstart_ms`` / ``index.persist.load_*_ms``).
"""

from __future__ import annotations

import os
import random
import time

import pytest

from repro.graph.typed_graph import TypedGraph
from repro.index.parallel import IndexBuildConfig, build_index
from repro.index.persist import load_index, save_index
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from tests.oracles import ledger

NUM_USERS = 400
GROUP_SIZE = 8
MEMBERSHIPS = 3  # groups each user joins per attribute type
PARALLEL_WORKERS = 4


def offline_graph(seed: int = 0) -> TypedGraph:
    """A serving-scale build workload: users in overlapping typed groups.

    Multiple memberships per type make the square patterns genuinely
    expensive to match (many partially-matching candidate pairs), which
    is what the parallel smoke and the snapshot timers need to measure.
    """
    rng = random.Random(seed)
    graph = TypedGraph(name="offline-bench")
    users = [f"u{i:03d}" for i in range(NUM_USERS)]
    for user in users:
        graph.add_node(user, "user")
    num_groups = NUM_USERS // GROUP_SIZE
    for attr_type in ("school", "employer", "hobby"):
        for g in range(num_groups):
            graph.add_node(f"{attr_type}{g}", attr_type)
        for user in users:
            for g in rng.sample(range(num_groups), MEMBERSHIPS):
                graph.add_edge(user, f"{attr_type}{g}")
    return graph


def offline_catalog() -> MetagraphCatalog:
    """Metapaths plus 4/5-node squares; the squares dominate matching cost.

    The double squares (two shared groups of one type) and the 5-node
    triple square are search-heavy but instance-light: they keep the
    build genuinely expensive without inflating the snapshot the load
    timer reads.
    """
    members = [
        metapath("user", t, "user", name=f"P-{t}")
        for t in ("school", "employer", "hobby")
    ]
    for a, b in (("school", "employer"), ("school", "hobby"), ("employer", "hobby")):
        members.append(
            Metagraph(
                ["user", a, b, "user"],
                [(0, 1), (0, 2), (3, 1), (3, 2)],
                name=f"S-{a}-{b}",
            )
        )
    for t in ("school", "employer", "hobby"):
        members.append(
            Metagraph(
                ["user", t, t, "user"],
                [(0, 1), (0, 2), (3, 1), (3, 2)],
                name=f"D-{t}",
            )
        )
    members.append(
        Metagraph(
            ["user", "school", "employer", "hobby", "user"],
            [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)],
            name="T-all",
        )
    )
    return MetagraphCatalog(members, anchor_type="user")


@pytest.fixture(scope="module")
def offline_workload(tmp_path_factory):
    """One timed sequential build + its snapshot, shared by every test."""
    graph = offline_graph()
    catalog = offline_catalog()
    start = time.perf_counter()
    vectors, index = build_index(graph, catalog)
    sequential_seconds = time.perf_counter() - start
    snapshot = tmp_path_factory.mktemp("offline") / "snapshot"
    save_index(snapshot, vectors, catalog, graph=graph, index=index)
    return {
        "graph": graph,
        "catalog": catalog,
        "vectors": vectors,
        "sequential_seconds": sequential_seconds,
        "snapshot": snapshot,
    }


def test_bench_snapshot_load(benchmark, offline_workload):
    benchmark(load_index, offline_workload["snapshot"])


def test_bench_snapshot_save(benchmark, offline_workload, tmp_path):
    workload = offline_workload
    benchmark(
        save_index,
        tmp_path / "resave",
        workload["vectors"],
        workload["catalog"],
        graph=workload["graph"],
    )


def test_parallel_build_speedup(offline_workload):
    """Smoke of the pool path: a 4-worker build, timed, same counts.

    The speedup is printed, not asserted: it is bounded by the cores
    the machine has (2 cores cap it near 1.5x), and ``bench/`` tracks
    it as ``op_p50_ms`` on ``offline_par`` vs ``offline_deep``.
    """
    workload = offline_workload
    start = time.perf_counter()
    vectors, _index = build_index(
        workload["graph"],
        workload["catalog"],
        IndexBuildConfig(workers=PARALLEL_WORKERS),
    )
    parallel_seconds = time.perf_counter() - start
    print(
        f"{PARALLEL_WORKERS}-worker build "
        f"{workload['sequential_seconds'] / parallel_seconds:.2f}x vs "
        f"sequential ({workload['sequential_seconds']:.2f} s -> "
        f"{parallel_seconds:.2f} s, {os.cpu_count()} cores)"
    )
    sequential = workload["vectors"]
    assert vectors.matched_ids == sequential.matched_ids
    assert ledger(vectors)[0] == ledger(sequential)[0]
    assert ledger(vectors)[1] == ledger(sequential)[1]


def test_loaded_snapshot_serves_same_counts(offline_workload):
    """Cheap in-benchmark parity spot check on the workload graph."""
    workload = offline_workload
    loaded = load_index(workload["snapshot"], graph=workload["graph"])
    vectors = workload["vectors"]
    assert loaded.vectors.matched_ids == vectors.matched_ids
    # what a reader sees of both stores: the compiled rows, all of them
    assert (
        loaded.vectors.compile().content_digest()
        == vectors.compile().content_digest()
    )
