"""Matching-kernel benchmarks: the compiled CSR engine vs pure Python.

One offline build (matching + Eq. 1–2 counting for the whole catalog)
runs through the compiled integer-CSR kernel, and the pure-Python
``SymISO`` engine counts the same catalog through the streamed
reference (:func:`tests.oracles.reference_counts`).  How much faster the
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

from repro.graph.csr import csr_view
from repro.graph.typed_graph import TypedGraph
from repro.index.instance_index import compiled_match_and_count
from repro.index.parallel import build_index
from repro.matching import SymISOMatcher
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from tests.oracles import ledger, ledger_column, reference_counts

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
    """Pure-Python reference counts and one compiled build of the same catalog."""
    graph = matching_graph()
    catalog = matching_catalog()
    reference = {
        mg_id: reference_counts(
            graph, catalog[mg_id], catalog.anchor_type, SymISOMatcher()
        )
        for mg_id in catalog.ids()
    }
    compiled_vectors, compiled_index = build_index(graph, catalog)
    return {
        "graph": graph,
        "catalog": catalog,
        "reference": reference,
        "compiled_index": compiled_index,
        "compiled_vectors": compiled_vectors,
    }


def test_bench_compiled_metagraph_match(benchmark, matching_workload):
    """Benchmark one square pattern end to end through the build's kernel."""
    workload = matching_workload
    catalog = workload["catalog"]
    square_id = next(
        mg_id for mg_id in catalog.ids() if catalog[mg_id].name == "S-school-employer"
    )
    benchmark(
        compiled_match_and_count, csr_view(workload["graph"]), catalog[square_id]
    )


def test_compiled_counts_bit_identical(matching_workload):
    """The compiled build counts exactly what the reference counts."""
    workload = matching_workload
    vectors, index = workload["compiled_vectors"], workload["compiled_index"]
    assert index.matched_ids() == frozenset(workload["reference"])
    for mg_id, reference in workload["reference"].items():
        assert index.num_instances(mg_id) == reference.num_instances
        assert ledger_column(ledger(vectors)[0], mg_id) == dict(reference.node_counts)
        assert ledger_column(ledger(vectors)[1], mg_id) == dict(reference.pair_counts)
