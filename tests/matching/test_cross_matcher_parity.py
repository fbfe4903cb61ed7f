"""Cross-matcher parity: every engine returns the same instance sets.

The offline phase trusts whichever matcher it is handed, so engine
disagreement would silently corrupt the Eq. 1–2 counts.  This suite
pins the contract on randomized small typed graphs: for any pattern,
``backtracking`` (under several node orders), ``QuickSI``, ``TurboISO``,
``BoostISO`` and ``SymISO``/``SymISO-R`` must produce identical
deduplicated instance sets, and the offline builder's compiled counts
must equal each engine's streamed Eq. 1–2 reference counts.

Generators are seeded (Hypothesis drives the seed, the graphs and
patterns come from deterministic ``random.Random`` streams), so every
failure is replayable from its seed alone.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.typed_graph import TypedGraph
from repro.index.parallel import build_index
from repro.matching import (
    ALL_ENGINES,
    backtrack_embeddings,
    deduplicate_instances,
    find_instances,
)
from repro.matching.ordering import random_connected_order, rarest_type_order
from repro.matching.plan import MatchPlan
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph
from tests.conftest import random_typed_graph
from tests.oracles import assert_counts_match_engine

SEEDS = st.integers(min_value=0, max_value=10_000)


def random_pattern(rng: random.Random, max_nodes: int = 5) -> Metagraph:
    """A random connected typed pattern, biased toward symmetric shapes.

    ``user``-heavy type choices produce patterns with symmetric anchor
    pairs (the ones Eq. 1 cares about); the ``ghost`` type exercises
    type classes absent from the graph.
    """
    types_pool = ("user", "user", "school", "hobby", "employer", "ghost")
    n = rng.randint(1, max_nodes)
    types = [rng.choice(types_pool) for _ in range(n)]
    edges = set()
    for i in range(1, n):  # random spanning tree keeps it connected
        edges.add((rng.randrange(i), i))
    for _ in range(rng.randint(0, n + 2)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Metagraph(types, edges)


def adversarial_id_graph(seed: int, num_users: int = 8) -> TypedGraph:
    """A graph whose node ids mix ints, tuples and separator-laden strings."""
    rng = random.Random(seed)
    graph = TypedGraph(name=f"adversarial{seed}")
    users = []
    for i in range(num_users):
        uid = [i, ("u", i), f"u|{i}", f"u,{i}"][i % 4]
        users.append(uid)
        graph.add_node(uid, "user")
    attrs = []
    for node_type in ("school", "hobby"):
        for j in range(3):
            aid = (node_type, j) if j % 2 else f"{node_type}:{j}"
            attrs.append(aid)
            graph.add_node(aid, node_type)
    for user in users:
        for aid in attrs:
            if rng.random() < 0.5:
                graph.add_edge(user, aid)
    for i, u in enumerate(users):
        for v in users[i + 1 :]:
            if rng.random() < 0.3:
                graph.add_edge(u, v)
    return graph


def backtracking_instances(graph, metagraph, order):
    return {
        inst.nodes
        for inst in deduplicate_instances(
            backtrack_embeddings(
                graph,
                MatchPlan(metagraph, order, induced=True, fixed=None),
            )
        )
    }


def all_instance_sets(graph, metagraph, rng):
    """Instance node-sets per matching strategy, keyed by name."""
    result = {}
    result["backtracking/rarest"] = backtracking_instances(
        graph, metagraph, rarest_type_order(graph, metagraph)
    )
    result["backtracking/random"] = backtracking_instances(
        graph, metagraph, random_connected_order(metagraph, rng)
    )
    for name, factory in ALL_ENGINES.items():
        result[name] = {
            inst.nodes for inst in find_instances(factory(), graph, metagraph)
        }
    return result


def assert_builder_matches_engines(graph, catalog):
    """``build_index``'s store equals every engine's reference counts."""
    vectors, index = build_index(graph, catalog)
    assert index.matched_ids() == frozenset(catalog.ids())
    for factory in ALL_ENGINES.values():
        assert_counts_match_engine(vectors, index, graph, catalog, factory())


def assert_parity(graph, metagraph, rng):
    by_engine = all_instance_sets(graph, metagraph, rng)
    reference_name = "backtracking/rarest"
    reference = by_engine[reference_name]
    def show(instance_sets):
        # node ids mix types, so ordering must go through repr
        return sorted(
            (sorted(nodes, key=repr) for nodes in instance_sets), key=repr
        )[:3]

    for name, instances in by_engine.items():
        assert instances == reference, (
            f"{name} diverges from {reference_name} on {metagraph!r}: "
            f"missing={show(reference - instances)}, "
            f"extra={show(instances - reference)}"
        )


class TestCrossMatcherParity:
    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_engines_agree_on_random_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(
            seed,
            num_users=8,
            num_attrs_per_type=3,
            edge_prob=0.4,
            user_edge_prob=0.2,
        )
        pattern = random_pattern(rng)
        assert_parity(graph, pattern, rng)
        assert_builder_matches_engines(graph, MetagraphCatalog([pattern]))

    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_engines_agree_on_adversarial_node_ids(self, seed):
        """Mixed-type node ids force the repr-ordering fallbacks."""
        rng = random.Random(seed)
        graph = adversarial_id_graph(seed)
        pattern = random_pattern(rng)
        assert_parity(graph, pattern, rng)
        assert_builder_matches_engines(graph, MetagraphCatalog([pattern]))

    def test_engines_agree_on_toy_metagraphs(self, toy_graph, toy_metagraphs):
        rng = random.Random(0)
        for metagraph in toy_metagraphs.values():
            assert_parity(toy_graph, metagraph, rng)


class TestCompiledCountsParity:
    """The offline builder's compiled counts vs every engine's stream.

    :func:`build_index` counts each metagraph straight off the compiled
    kernel's embedding matrix, so this pins the acceptance contract
    directly: its store holds bit-identical
    :class:`MetagraphCounts` to every engine's streamed reference
    (:func:`tests.oracles.reference_counts`) across every metagraph of
    every dataset's mined catalog.
    """

    @pytest.mark.parametrize("dataset_name", ["linkedin", "facebook"])
    def test_compiled_counts_match_symiso_on_mined_catalogs(self, dataset_name):
        from repro.datasets import load_dataset
        from repro.mining import MinerConfig, mine_catalog

        dataset = load_dataset(dataset_name, scale="tiny")
        catalog = mine_catalog(
            dataset.graph,
            MinerConfig(max_nodes=4, min_support=3),
            anchor_type=dataset.anchor_type,
        )
        assert len(catalog) > 0
        assert_builder_matches_engines(dataset.graph, catalog)

    def test_compiled_counts_match_on_toy_catalog(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        assert_builder_matches_engines(toy_graph, catalog)
