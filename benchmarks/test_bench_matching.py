"""Matching-kernel benchmarks: the compiled CSR engine vs pure Python.

One offline build (matching + Eq. 1–2 counting for the whole catalog)
runs through the pure-Python ``SymISO`` reference and one through the
compiled integer-CSR kernel — the default engine.  How much faster the
kernel is depends on the machine, so the number lives in the repo
benchmark (``bench/``: ``matching.match_s``, ``index.build_index_s``)
instead of a wall-clock assertion here.

Exactness is pinned by the cross-matcher parity suite; a bit-identical
counts assertion on this workload rides along here so the timed kernel
can never be counting something different.
"""

from __future__ import annotations

import random

import pytest

from repro.graph.typed_graph import TypedGraph
from repro.index.vectors import build_vectors
from repro.matching import SymISOMatcher
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath

NUM_USERS = 600
GROUP_SIZE = 30
MEMBERSHIPS = 3  # groups each user joins per attribute type


def matching_graph(seed: int = 7) -> TypedGraph:
    """Dense overlapping typed groups: candidate lists are wide (~90
    members per group), which is exactly the regime the array kernel is
    built for and the per-candidate Python engines struggle with."""
    rng = random.Random(seed)
    graph = TypedGraph(name="matching-bench")
    users = [f"u{i:04d}" for i in range(NUM_USERS)]
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


def matching_catalog() -> MetagraphCatalog:
    """Metapaths, every 4-node square pair, and a 5-node triple square."""
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
    members.append(
        Metagraph(
            ["user", "school", "employer", "hobby", "user"],
            [(0, 1), (0, 2), (0, 3), (4, 1), (4, 2), (4, 3)],
            name="T-all",
        )
    )
    return MetagraphCatalog(members, anchor_type="user")


@pytest.fixture(scope="module")
def matching_workload():
    """One pure-Python build and one compiled build of the same catalog."""
    graph = matching_graph()
    catalog = matching_catalog()
    reference_vectors, reference_index = build_vectors(
        graph, catalog, matcher=SymISOMatcher()
    )
    compiled_vectors, compiled_index = build_vectors(graph, catalog)
    return {
        "graph": graph,
        "catalog": catalog,
        "reference_index": reference_index,
        "compiled_index": compiled_index,
        "reference_vectors": reference_vectors,
        "compiled_vectors": compiled_vectors,
    }


def test_bench_compiled_metagraph_match(benchmark, matching_workload):
    """Benchmark one square pattern end to end through the default kernel."""
    from repro.index.instance_index import match_and_count

    workload = matching_workload
    catalog = workload["catalog"]
    square_id = next(
        mg_id for mg_id in catalog.ids() if catalog[mg_id].name == "S-school-employer"
    )
    benchmark(match_and_count, workload["graph"], catalog[square_id])


def test_compiled_counts_bit_identical(matching_workload):
    """The compiled build counts exactly what the reference counts."""
    workload = matching_workload
    reference, compiled = workload["reference_index"], workload["compiled_index"]
    assert reference.matched_ids() == compiled.matched_ids()
    for mg_id in reference.matched_ids():
        assert reference.num_instances(mg_id) == compiled.num_instances(mg_id)
    assert (
        workload["reference_vectors"]._node == workload["compiled_vectors"]._node
    )
    assert (
        workload["reference_vectors"]._pair == workload["compiled_vectors"]._pair
    )
