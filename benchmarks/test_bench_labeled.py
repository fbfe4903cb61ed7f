"""Labeled/directed matching benchmark: a kinded build on the reactions graph.

On a kinded graph (the reactions dataset) matching a mined kinded
pattern prunes candidates by edge signature; the benchmark times a full
kinded index build.  Correctness of kinded matching is proven by
``tests/matching/test_labeled_parity.py``; here a cheap determinism
assertion rides along — independent kinded builds must agree bit for
bit.
"""

from __future__ import annotations

import pytest

from repro.datasets import generate_reactions
from repro.index.parallel import build_index
from repro.mining import MinerConfig, mine_catalog
from tests.oracles import ledger

REPEATS = 3  # independent kinded builds compared bit for bit


@pytest.fixture(scope="module")
def labeled_workload():
    """Mined kinded catalog plus repeated kinded builds."""
    dataset = generate_reactions(scale="medium")
    graph = dataset.graph
    catalog = mine_catalog(
        graph, MinerConfig(max_nodes=4, min_support=2), anchor_type="mol"
    )
    assert len(catalog) > 0 and all(m.has_kinds for m in catalog)
    return {
        "graph": graph,
        "catalog": catalog,
        "kinded_builds": [build_index(graph, catalog) for _ in range(REPEATS)],
    }


def test_bench_labeled_build(benchmark, labeled_workload):
    """Benchmark a full kinded index build on the reactions graph."""
    workload = labeled_workload
    benchmark(build_index, workload["graph"], workload["catalog"])


def test_kinded_builds_are_bit_identical(labeled_workload):
    """Every repeated kinded build must agree with the first exactly."""
    builds = labeled_workload["kinded_builds"]
    first_vectors, first_index = builds[0]
    for vectors, index in builds[1:]:
        assert ledger(vectors)[0] == ledger(first_vectors)[0]
        assert ledger(vectors)[1] == ledger(first_vectors)[1]
        assert index.matched_ids() == first_index.matched_ids()
        for mg_id in first_index.matched_ids():
            assert index.num_instances(mg_id) == first_index.num_instances(mg_id)
