"""Labeled/directed matching benchmarks: signature pruning vs blind matching.

The acceptance floor guards the point of threading edge kinds through
the matching stack: on a kinded graph (the reactions dataset), matching
a mined kinded pattern prunes candidates by edge signature, so the
per-pattern build cost must beat matching the same topology with kinds
stripped by >= 2x (``REPRO_LABELED_FLOOR`` relaxes it on noisy shared
runners, matching the other bench conventions).  Correctness of kinded
matching is proven by ``tests/matching/test_labeled_parity.py``; here a
cheap determinism assertion rides along — two independent kinded builds
must agree bit for bit.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.datasets import generate_reactions
from repro.graph.typed_graph import TypedGraph
from repro.index.parallel import build_index
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph
from repro.mining import MinerConfig, mine_catalog

REPEATS = 3  # builds per variant; medians absorb one slow outlier


def plain_projection(graph: TypedGraph) -> TypedGraph:
    """The same nodes and topology with every edge kind stripped."""
    plain = TypedGraph(name=f"{graph.name}-plain")
    for node in graph.nodes():
        plain.add_node(node, graph.node_type(node))
    for u, v in graph.edges():
        plain.add_edge(u, v)
    return plain


def stripped_catalog(catalog: MetagraphCatalog) -> MetagraphCatalog:
    """Kinds dropped from every pattern, deduped up to isomorphism.

    Stripping merges classes that differ only in edge roles (an in-star
    and an out-star collapse to one plain star), so the result is
    smaller than the input — the floor below is per pattern.
    """
    plain = MetagraphCatalog([], anchor_type="mol")
    for metagraph in catalog:
        plain.add_if_new(
            Metagraph(
                list(metagraph.types),
                [(u, v) for u, v in metagraph.edges],
                name=metagraph.name,
            )
        )
    return plain


def timed_builds(graph: TypedGraph, catalog: MetagraphCatalog) -> tuple[float, list]:
    """Median build seconds over ``REPEATS`` runs plus every build result."""
    seconds: list[float] = []
    results = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        results.append(build_index(graph, catalog))
        seconds.append(time.perf_counter() - start)
    seconds.sort()
    return seconds[len(seconds) // 2], results


@pytest.fixture(scope="module")
def labeled_workload():
    """Mined kinded catalog plus timed kinded and kind-stripped builds."""
    dataset = generate_reactions(scale="medium")
    graph = dataset.graph
    catalog = mine_catalog(
        graph, MinerConfig(max_nodes=4, min_support=2), anchor_type="mol"
    )
    assert len(catalog) > 0 and all(m.has_kinds for m in catalog)
    plain_graph = plain_projection(graph)
    plain_cat = stripped_catalog(catalog)
    kinded_seconds, kinded_builds = timed_builds(graph, catalog)
    plain_seconds, _ = timed_builds(plain_graph, plain_cat)
    return {
        "graph": graph,
        "catalog": catalog,
        "kinded_seconds": kinded_seconds,
        "kinded_builds": kinded_builds,
        "plain_seconds": plain_seconds,
        "plain_patterns": len(plain_cat),
    }


def test_bench_labeled_build(benchmark, labeled_workload):
    """Benchmark a full kinded index build on the reactions graph."""
    workload = labeled_workload
    benchmark(build_index, workload["graph"], workload["catalog"])


def test_labeled_per_pattern_speedup(labeled_workload):
    """Acceptance floor: signature pruning >= 2x per pattern.

    The kinded catalog is larger (stripping merges role-distinct
    classes), so the comparison normalises by pattern count: seconds
    per blind plain pattern over seconds per signature-pruned kinded
    pattern.
    """
    floor = float(os.environ.get("REPRO_LABELED_FLOOR", "2"))
    workload = labeled_workload
    per_kinded = workload["kinded_seconds"] / len(workload["catalog"])
    per_plain = workload["plain_seconds"] / workload["plain_patterns"]
    speedup = per_plain / per_kinded
    assert speedup >= floor, (
        f"labeled matching only {speedup:.1f}x faster per pattern than "
        f"kind-stripped matching (floor {floor}x; kinded "
        f"{per_kinded * 1e3:.1f} ms/pattern over {len(workload['catalog'])} "
        f"patterns, plain {per_plain * 1e3:.1f} ms/pattern over "
        f"{workload['plain_patterns']})"
    )


def test_kinded_builds_are_bit_identical(labeled_workload):
    """Every repeated kinded build must agree with the first exactly."""
    builds = labeled_workload["kinded_builds"]
    first_vectors, first_index = builds[0]
    for vectors, index in builds[1:]:
        assert vectors._node == first_vectors._node
        assert vectors._pair == first_vectors._pair
        assert index.matched_ids() == first_index.matched_ids()
        for mg_id in first_index.matched_ids():
            assert index.num_instances(mg_id) == first_index.num_instances(mg_id)
