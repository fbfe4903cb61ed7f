"""Kind-aware cross-matcher parity: labeled/directed graphs and patterns.

The edge-kind axis (label x direction) threads through candidate
generation, induced checks, symmetry breaking, and the compiled CSR
slices — so every engine must keep returning identical instance sets
when kinds are in play, exactly as the plain suite pins for unlabeled
graphs.  This suite extends the cross-matcher parity contract to:

- randomized graphs mixing plain, labeled-undirected, and directed
  edge kinds (Hypothesis-driven seeds, replayable);
- the reactions dataset's mined kind-aware catalog (the builder's
  compiled counts vs every engine's streamed reference counts, the
  acceptance gate);
- full index builds with workers in {1, 4}, which must produce
  bit-identical Eq. 1-2 count stores equal to every engine's counts.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.graph.typed_graph import PLAIN, EdgeKind, TypedGraph
from repro.index.parallel import IndexBuildConfig, build_index
from repro.matching import (
    ALL_ENGINES,
    backtrack_embeddings,
    deduplicate_instances,
    find_instances,
)
from repro.matching.ordering import rarest_type_order
from repro.matching.plan import MatchPlan
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph
from repro.mining import MinerConfig, mine_catalog
from tests.oracles import assert_counts_match_engine, ledger

SEEDS = st.integers(min_value=0, max_value=10_000)

#: the kind pool mixes the three axes: plain, labeled-undirected,
#: labeled-directed (two labels so direction and label both matter)
KIND_POOL = (
    PLAIN,
    EdgeKind("likes", False),
    EdgeKind("cites", True),
    EdgeKind("follows", True),
)


def random_kinded_graph(seed: int, num_users: int = 8) -> TypedGraph:
    """A random typed graph whose edges mix all three kind axes."""
    rng = random.Random(seed)
    g = TypedGraph(name=f"kinded{seed}")
    users = [f"u{i}" for i in range(num_users)]
    for u in users:
        g.add_node(u, "user")
    attrs = []
    for t in ("school", "hobby"):
        for j in range(3):
            attrs.append(f"{t}{j}")
            g.add_node(f"{t}{j}", t)
    for u in users:
        for a in attrs:
            if rng.random() < 0.4:
                kind = rng.choice(KIND_POOL)
                # directed kinds get a random orientation
                if kind.directed and rng.random() < 0.5:
                    g.add_edge(a, u, kind)
                else:
                    g.add_edge(u, a, kind)
    for i, u in enumerate(users):
        for v in users[i + 1 :]:
            if rng.random() < 0.25:
                g.add_edge(u, v, rng.choice(KIND_POOL))
    return g


def random_kinded_pattern(rng: random.Random, max_nodes: int = 4) -> Metagraph:
    """A random connected pattern with kinds from the same pool."""
    types_pool = ("user", "user", "school", "hobby", "ghost")
    n = rng.randint(1, max_nodes)
    types = [rng.choice(types_pool) for _ in range(n)]
    edges: dict[tuple[int, int], tuple[int, int, EdgeKind]] = {}
    def add(u: int, v: int) -> None:
        kind = rng.choice(KIND_POOL)
        if kind.directed and rng.random() < 0.5:
            u, v = v, u
        edges[(min(u, v), max(u, v))] = (u, v, kind)
    for i in range(1, n):  # random spanning tree keeps it connected
        add(rng.randrange(i), i)
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            add(u, v)
    return Metagraph(types, edges.values())


def all_instance_sets(graph, metagraph):
    """Instance node-sets per matching strategy, keyed by name."""
    result = {
        "backtracking/rarest": {
            inst.nodes
            for inst in deduplicate_instances(
                backtrack_embeddings(
                    graph,
                    MatchPlan(
                        metagraph,
                        rarest_type_order(graph, metagraph),
                        induced=True,
                        fixed=None,
                    ),
                )
            )
        }
    }
    for name, factory in ALL_ENGINES.items():
        result[name] = {
            inst.nodes for inst in find_instances(factory(), graph, metagraph)
        }
    return result


class TestKindedEngineParity:
    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_on_kinded_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_kinded_graph(seed)
        metagraph = random_kinded_pattern(rng)
        by_engine = all_instance_sets(graph, metagraph)
        reference = by_engine["backtracking/rarest"]
        for name, instances in by_engine.items():
            assert instances == reference, (
                f"{name} diverges on {metagraph!r} (seed {seed}): "
                f"missing={len(reference - instances)}, "
                f"extra={len(instances - reference)}"
            )
        catalog = MetagraphCatalog([metagraph])
        vectors, index = build_index(graph, catalog)
        for factory in ALL_ENGINES.values():
            assert_counts_match_engine(vectors, index, graph, catalog, factory())

    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_direction_flip_changes_no_engine_differently(self, seed):
        """Flipping a directed pattern edge moves every engine in lockstep."""
        rng = random.Random(seed)
        graph = random_kinded_graph(seed)
        kind = EdgeKind("cites", True)
        forward = Metagraph(["user", "school"], [(0, 1, kind)])
        backward = Metagraph(["user", "school"], [(1, 0, kind)])
        for pattern in (forward, backward):
            by_engine = all_instance_sets(graph, pattern)
            reference = by_engine["backtracking/rarest"]
            for name, instances in by_engine.items():
                assert instances == reference, (name, pattern, seed)


def reactions_catalog():
    dataset = load_dataset("reactions", scale="tiny")
    catalog = mine_catalog(
        dataset.graph,
        MinerConfig(max_nodes=4, min_support=2),
        anchor_type=dataset.anchor_type,
    )
    return dataset, catalog


class TestLabeledDatasetParity:
    """The acceptance gate: the builder vs every engine on the reactions catalog."""

    def test_symiso_compiled_counts_match_on_reactions(self):
        dataset, catalog = reactions_catalog()
        assert len(catalog) > 0, "reactions catalog must be non-empty"
        assert dataset.graph.has_kinds
        vectors, index = build_index(dataset.graph, catalog)
        assert index.matched_ids() == frozenset(catalog.ids())
        for factory in ALL_ENGINES.values():
            assert_counts_match_engine(
                vectors, index, dataset.graph, catalog, factory()
            )

    @pytest.mark.parametrize("engine", sorted(ALL_ENGINES))
    @pytest.mark.parametrize("workers", [1, 4])
    def test_index_builds_bit_identical_across_engines_and_workers(
        self, engine, workers
    ):
        dataset, catalog = reactions_catalog()
        reference_vectors, reference_index = build_index(
            dataset.graph, catalog, config=IndexBuildConfig(workers=1)
        )
        vectors, index = build_index(
            dataset.graph, catalog, config=IndexBuildConfig(workers=workers)
        )
        assert ledger(vectors)[0] == ledger(reference_vectors)[0]
        assert ledger(vectors)[1] == ledger(reference_vectors)[1]
        assert index.matched_ids() == reference_index.matched_ids()
        for mg_id in index.matched_ids():
            assert index.num_instances(mg_id) == reference_index.num_instances(mg_id)
        assert_counts_match_engine(
            vectors, index, dataset.graph, catalog, ALL_ENGINES[engine]()
        )
