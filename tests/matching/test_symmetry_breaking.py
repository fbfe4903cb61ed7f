"""Complete symmetry breaking: each instance is enumerated exactly once.

The compiled kernel and the miner both enumerate under the
stabiliser-chain conditions of
:func:`~repro.metagraph.symmetry.symmetry_conditions`.  The gates:

- kernel: for every mined metagraph the embedding matrix holds one row
  per instance (no duplicate survives), its row count times |Aut(M)|
  equals the row count of the unbroken enumeration, and its instance
  set equals SymISO's;
- miner: its :class:`~repro.mining.grami.MiningResult` equals the one
  mined with the unbroken MNI support of ``tests/oracles.py``, on every
  registered dataset.

Graphs: LinkedIn-tiny, the kinded ``reactions`` dataset, and graphs
whose node ids sort differently by value and by ``repr``.
"""

import random
from unittest import mock

import numpy as np
import pytest

from repro.datasets import DATASET_GENERATORS, load_dataset
from repro.graph.csr import csr_view
from repro.graph.typed_graph import TypedGraph
from repro.matching import SymISOMatcher, find_instances
from repro.matching.compiled import (
    compiled_embedding_matrix,
    compiled_order,
    embedding_matrix,
)
from repro.matching.ordering import random_connected_order
from repro.matching.plan import MatchPlan
from repro.metagraph.canonical import canonical_form
from repro.metagraph.symmetry import automorphisms
from repro.mining import grami
from repro.mining.grami import GramiMiner, MinerConfig
from tests.oracles import unbroken_mni_support

ADVERSARIAL_IDS = {
    # value order puts 9 before 10, repr order puts "10" before "9"
    "ints 9/10": list(range(4, 14)),
    "mixed int/str": [9, "9", 10, "10", 1, "1", "u0", 0, "x", 11],
    "tuples": [("u", i) for i in range(8)] + [("u", "9"), (9,)],
}


def adversarial_graph(user_ids, seed: int) -> TypedGraph:
    """Users under the given ids, linked to four schools and each other."""
    rng = random.Random(seed)
    graph = TypedGraph(name=f"adversarial{seed}")
    for uid in user_ids:
        graph.add_node(uid, "user")
    schools = [("school", j) if j % 2 else 100 + j for j in range(4)]
    for sid in schools:
        graph.add_node(sid, "school")
    for uid in user_ids:
        for sid in schools:
            if rng.random() < 0.5:
                graph.add_edge(uid, sid)
    for i, u in enumerate(user_ids):
        for v in user_ids[i + 1 :]:
            if rng.random() < 0.3:
                graph.add_edge(u, v)
    return graph


#: graph -> largest mined pattern; 5-node patterns carry the large
#: automorphism groups (|Aut| = 24), but on LinkedIn-tiny matching them
#: with SymISO alone takes seconds
GATE_GRAPHS = {"linkedin": 4, "reactions": 5} | dict.fromkeys(ADVERSARIAL_IDS, 5)


def gate_graph(name: str) -> TypedGraph:
    if name in ADVERSARIAL_IDS:
        return adversarial_graph(ADVERSARIAL_IDS[name], seed=len(name))
    return load_dataset(name, scale="tiny").graph


@pytest.mark.parametrize("name", sorted(GATE_GRAPHS))
def test_kernel_enumerates_each_instance_once(name):
    graph = gate_graph(name)
    rng = random.Random(name)
    csr = csr_view(graph)
    node_ids = csr.node_ids
    config = MinerConfig(max_nodes=GATE_GRAPHS[name], min_support=2)
    patterns = GramiMiner(config).mine(graph).patterns
    assert patterns
    for mg in patterns:
        rows = compiled_embedding_matrix(csr, mg)
        # no duplicate instance survives: every row is its own node set
        keys = np.unique(np.sort(rows, axis=1), axis=0)
        assert keys.shape[0] == rows.shape[0], mg
        # Aut(M) acts freely: each kept row stands for |Aut(M)| embeddings
        unbroken = embedding_matrix(
            csr,
            MatchPlan(
                mg, compiled_order(csr, mg), induced=True, fixed=None
            ),
        )
        assert rows.shape[0] * len(automorphisms(mg)) == unbroken.shape[0], mg
        kernel = {frozenset(node_ids[v] for v in row) for row in rows.tolist()}
        symiso = {inst.nodes for inst in find_instances(SymISOMatcher(), graph, mg)}
        assert kernel == symiso, mg
        # the kept embedding of an instance does not depend on the
        # order; other orders check conditions as upper bounds too
        shuffled = embedding_matrix(
            csr,
            MatchPlan(
                mg,
                random_connected_order(mg, rng),
                induced=True,
                fixed=(),
            ),
        )
        assert sorted(shuffled.tolist()) == sorted(rows.tolist()), mg


def mining_summary(result) -> tuple:
    return (
        [canonical_form(m) for m in result.patterns],
        result.supports,
        result.candidates_tested,
        result.budget_hits,
    )


MINING_CASES = [(name, 4, 2) for name in sorted(DATASET_GENERATORS)] + [
    # 5-node patterns carry the large automorphism groups (|Aut| = 24)
    ("linkedin", 5, 3),
]


@pytest.mark.parametrize(("dataset", "max_nodes", "min_support"), MINING_CASES)
def test_miner_matches_unbroken_oracle(dataset, max_nodes, min_support):
    graph = load_dataset(dataset, scale="tiny").graph
    config = MinerConfig(max_nodes=max_nodes, min_support=min_support)
    broken = GramiMiner(config).mine(graph)
    with mock.patch.object(grami, "mni_support", unbroken_mni_support):
        unbroken = GramiMiner(config).mine(graph)
    assert mining_summary(broken) == mining_summary(unbroken)


def test_budget_counts_a_kept_row_as_its_orbit():
    # a triangle of users: Aut = S3 acts on its 6 embeddings, one kept
    graph = TypedGraph()
    for node in ("a", "b", "c"):
        graph.add_node(node, "user")
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("a", "c")
    triangle = GramiMiner(MinerConfig(max_nodes=3, min_support=1)).mine(graph)
    shape = max(triangle.patterns, key=lambda m: m.num_edges)
    assert len(automorphisms(shape)) == 6
    exact = grami.mni_support(graph, shape, threshold=10)
    assert (exact.support, exact.budget_hit) == (3, False)
    # the one kept row stands for its orbit of 6 embeddings: it spends
    # a budget of 1 at once, but already shows every image; the
    # unbroken enumeration stops after one embedding, one image each
    capped = grami.mni_support(graph, shape, threshold=10, embedding_budget=1)
    assert (capped.support, capped.budget_hit) == (3, True)
    oracle = unbroken_mni_support(graph, shape, threshold=10, embedding_budget=1)
    assert (oracle.support, oracle.budget_hit) == (1, True)
