"""Property suite for incremental index maintenance (repro.index.delta).

The anchor invariant: after any sequence of edits, the delta-maintained
:class:`MetagraphVectors` and :class:`InstanceIndex` must be
*bit-identical* to a from-scratch ``build_vectors`` on the mutated
graph — same sparse count dicts, same partner sets, same per-metagraph
instance totals.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import (
    DeltaError,
    DuplicateNodeError,
    EdgeError,
    NodeNotFoundError,
)
from repro.graph.typed_graph import TypedGraph
from repro.index.delta import (
    DeltaStats,
    GraphDelta,
    GraphEdit,
    affected_region,
    apply_delta,
    catalog_radius,
    pattern_diameter,
)
from repro.index.instance_index import MetagraphCounts
from repro.index.vectors import build_vectors
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from tests.oracles import nodes_with_counts, partners


def make_graph(seed: int = 0, users: int = 20, groups: int = 5) -> TypedGraph:
    """Random typed graph: users in groups plus user-user friendships."""
    rng = random.Random(seed)
    graph = TypedGraph(name=f"delta-{seed}")
    for i in range(users):
        graph.add_node(f"u{i}", "user")
    for group_type in ("school", "hobby"):
        for j in range(groups):
            graph.add_node(f"{group_type}{j}", group_type)
        for i in range(users):
            for j in rng.sample(range(groups), 2):
                graph.add_edge(f"u{i}", f"{group_type}{j}")
    for _ in range(12):
        a, b = rng.sample(range(users), 2)
        if not graph.has_edge(f"u{a}", f"u{b}"):
            graph.add_edge(f"u{a}", f"u{b}")
    return graph


@pytest.fixture
def catalog() -> MetagraphCatalog:
    """Metapaths, a square, a triangle, and an asymmetric pattern.

    The asymmetric ``user-school`` metapath has no symmetric anchor
    pair, so it exercises the |I(M)|-only counting path of the patcher.
    """
    return MetagraphCatalog(
        [
            metapath("user", "school", "user", name="P-school"),
            metapath("user", "hobby", "user", name="P-hobby"),
            metapath("user", "user", name="P-friend"),
            Metagraph(
                ["user", "school", "hobby", "user"],
                [(0, 1), (0, 2), (3, 1), (3, 2)],
                name="square",
            ),
            Metagraph(
                ["user", "user", "school"],
                [(0, 1), (0, 2), (1, 2)],
                name="triangle",
            ),
            metapath("user", "school", name="P-asym"),
        ],
        anchor_type="user",
    )


def assert_matches_fresh_build(graph, catalog, vectors, index) -> None:
    """The bit-identity oracle: delta state == from-scratch rebuild."""
    fresh_vectors, fresh_index = build_vectors(graph, catalog)
    assert vectors._matched == fresh_vectors._matched
    assert vectors._node == fresh_vectors._node
    assert vectors._pair == fresh_vectors._pair
    assert vectors.compile().content_digest() == fresh_vectors.compile().content_digest()
    for mg_id in fresh_index.matched_ids():
        assert index.num_instances(mg_id) == fresh_index.num_instances(mg_id)


def random_delta(graph: TypedGraph, rng: random.Random) -> GraphDelta:
    """A randomized edit sequence touching every mutation kind."""
    delta = GraphDelta()
    edges = sorted(graph.edges(), key=repr)
    for u, v in rng.sample(edges, min(5, len(edges))):
        delta.remove_edge(u, v)
    users = sorted(n for n in graph.nodes() if graph.node_type(n) == "user")
    schools = sorted(n for n in graph.nodes() if graph.node_type(n) == "school")
    new_user = f"u-new-{rng.randrange(1000)}"
    delta.add_node(new_user, "user")
    delta.add_edge(new_user, rng.choice(schools))
    delta.add_edge(new_user, rng.choice(users))
    victim = rng.choice(users)
    delta.remove_node(victim)
    survivor = rng.choice([u for u in users if u != victim])
    partner = rng.choice(schools)
    if graph.has_edge(survivor, partner):
        delta.remove_edge(survivor, partner)
    else:
        delta.add_edge(survivor, partner)
    return delta


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_rebuild(self, catalog, seed):
        graph = make_graph(seed)
        vectors, index = build_vectors(graph, catalog)
        delta = random_delta(graph, random.Random(seed + 100))
        stats = apply_delta(graph, catalog, vectors, delta, index=index)
        assert stats.edits_applied == len(delta)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    @pytest.mark.parametrize("seed", range(3))
    def test_consecutive_batches_compose(self, catalog, seed):
        graph = make_graph(seed, users=14, groups=4)
        vectors, index = build_vectors(graph, catalog)
        rng = random.Random(seed + 500)
        for _ in range(3):
            apply_delta(
                graph, catalog, vectors, random_delta(graph, rng), index=index
            )
        assert_matches_fresh_build(graph, catalog, vectors, index)


class TestSingleEdits:
    def test_remove_edge(self, catalog):
        graph = make_graph(1)
        vectors, index = build_vectors(graph, catalog)
        u, v = next(iter(graph.edges()))
        apply_delta(
            graph, catalog, vectors, GraphDelta().remove_edge(u, v), index=index
        )
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_add_edge_between_users(self, catalog):
        graph = make_graph(2)
        vectors, index = build_vectors(graph, catalog)
        users = sorted(n for n in graph.nodes() if graph.node_type(n) == "user")
        pair = next(
            (a, b)
            for a in users
            for b in users
            if a < b and not graph.has_edge(a, b)
        )
        apply_delta(
            graph, catalog, vectors, GraphDelta().add_edge(*pair), index=index
        )
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_remove_node_retires_all_its_instances(self, catalog):
        graph = make_graph(3)
        vectors, index = build_vectors(graph, catalog)
        victim = "u0"
        stats = apply_delta(
            graph, catalog, vectors, GraphDelta().remove_node(victim), index=index
        )
        assert stats.instances_added == 0
        assert victim not in nodes_with_counts(vectors)
        assert partners(vectors, victim) == frozenset()
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_isolated_add_node_changes_nothing(self, catalog):
        graph = make_graph(4)
        vectors, index = build_vectors(graph, catalog)
        stats = apply_delta(
            graph,
            catalog,
            vectors,
            GraphDelta().add_node("loner", "user"),
            index=index,
        )
        assert stats.instances_added == stats.instances_retired == 0
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_remove_then_readd_node_restores_counts(self, catalog):
        """Satellite: re-adding a node with its edges rematches exactly."""
        graph = make_graph(5)
        vectors, index = build_vectors(graph, catalog)
        reference, _ = build_vectors(graph.copy(), catalog)
        victim = "u1"
        incident = [(victim, nbr) for nbr in sorted(graph.neighbors(victim), key=repr)]
        node_type = graph.node_type(victim)
        apply_delta(
            graph, catalog, vectors, GraphDelta().remove_node(victim), index=index
        )
        rebuild = GraphDelta().add_node(victim, node_type)
        for u, v in incident:
            rebuild.add_edge(u, v)
        apply_delta(graph, catalog, vectors, rebuild, index=index)
        assert vectors._node == reference._node
        assert vectors._pair == reference._pair
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_partners_consistent_after_patching(self, catalog):
        """Satellite: the compiled adjacency mirrors the pair store after every patch."""
        graph = make_graph(6)
        vectors, index = build_vectors(graph, catalog)
        rng = random.Random(9)
        for u, v in rng.sample(sorted(graph.edges(), key=repr), 6):
            apply_delta(
                graph, catalog, vectors, GraphDelta().remove_edge(u, v), index=index
            )
            compiled = vectors.compile()
            adjacency = {
                (compiled.nodes[i], compiled.nodes[p])
                for i in range(compiled.num_nodes)
                for p in compiled.candidates_of(i)[0]
            }
            assert adjacency == {
                link for x, y in vectors._pair for link in ((x, y), (y, x))
            }
            for x, y in vectors._pair:
                assert y in partners(vectors, x) and x in partners(vectors, y)


class TestNoOpsAndValidation:
    def test_noop_edits_are_counted_not_applied(self, catalog):
        graph = make_graph(7)
        vectors, index = build_vectors(graph, catalog)
        u, v = next(iter(graph.edges()))
        before_version = graph.version
        stats = apply_delta(
            graph,
            catalog,
            vectors,
            GraphDelta().add_edge(u, v).add_node("u0", "user"),
            index=index,
        )
        assert stats.edits_applied == 0
        assert stats.edits_noop == 2
        assert graph.version == before_version

    @pytest.mark.parametrize(
        "delta, error",
        [
            (GraphDelta().remove_edge("u0", "u-nope"), NodeNotFoundError),
            (GraphDelta().remove_node("u-nope"), NodeNotFoundError),
            (GraphDelta().add_edge("u0", "u0"), EdgeError),
            (GraphDelta().add_node("u0", "school"), DuplicateNodeError),
        ],
    )
    def test_invalid_edit_raises_before_touching_counts(
        self, catalog, delta, error
    ):
        graph = make_graph(8)
        vectors, index = build_vectors(graph, catalog)
        with pytest.raises(error):
            apply_delta(graph, catalog, vectors, delta, index=index)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_remove_absent_edge_raises_edge_error(self, catalog):
        graph = make_graph(8)
        vectors, index = build_vectors(graph, catalog)
        users = sorted(n for n in graph.nodes() if graph.node_type(n) == "user")
        pair = next(
            (a, b)
            for a in users
            for b in users
            if a < b and not graph.has_edge(a, b)
        )
        with pytest.raises(EdgeError):
            apply_delta(
                graph, catalog, vectors, GraphDelta().remove_edge(*pair), index=index
            )

    def test_patch_going_negative_raises(self, catalog):
        graph = make_graph(8)
        vectors, _ = build_vectors(graph, catalog)
        bogus = MetagraphCounts(num_instances=10 ** 6)
        bogus.node_counts["u0"] = 10 ** 6
        with pytest.raises(DeltaError):
            vectors.patch_counts(0, bogus, MetagraphCounts())


class TestEditVocabulary:
    def test_unknown_op_rejected(self):
        with pytest.raises(DeltaError):
            GraphEdit("replace_node", "u0")

    def test_edge_edit_needs_both_endpoints(self):
        with pytest.raises(DeltaError):
            GraphEdit("add_edge", "u0")

    def test_add_node_needs_type(self):
        with pytest.raises(DeltaError):
            GraphEdit("add_node", "u0")

    def test_json_roundtrip_with_tuple_ids(self):
        delta = (
            GraphDelta()
            .add_node(("user", 7), "user")
            .add_edge(("user", 7), "school0")
            .remove_node("u3")
            .remove_edge("a", "b")
        )
        restored = GraphDelta.from_json_list(delta.to_json_list())
        assert [e for e in restored] == [e for e in delta]

    def test_malformed_record_rejected(self):
        with pytest.raises(DeltaError):
            GraphEdit.from_json_dict({"u": "x"})

    def test_apply_to_replays_mutations_only(self):
        graph = TypedGraph()
        graph.add_node("a", "user")
        delta = GraphDelta().add_node("s", "school").add_edge("a", "s")
        delta.apply_to(graph)
        assert graph.has_edge("a", "s")

    def test_stats_repr_mentions_edits(self):
        assert "edits" in repr(DeltaStats(edits_applied=2))


class TestAffectedRegion:
    def test_radius_zero_is_the_seeds(self):
        graph = make_graph(0)
        region = affected_region(graph, ["u0"], 0)
        assert region == {"user": {"u0"}}

    def test_radius_grows_ball(self):
        graph = TypedGraph()
        for i, t in enumerate(["user", "school", "user", "hobby"]):
            graph.add_node(f"n{i}", t)
        graph.add_edge("n0", "n1")
        graph.add_edge("n1", "n2")
        graph.add_edge("n2", "n3")
        assert affected_region(graph, ["n0"], 1) == {
            "user": {"n0"},
            "school": {"n1"},
        }
        assert affected_region(graph, ["n0"], 3)["hobby"] == {"n3"}

    def test_absent_seed_ignored(self):
        graph = make_graph(0)
        assert affected_region(graph, ["ghost"], 2) == {}

    def test_pattern_diameter(self):
        assert pattern_diameter(metapath("user", "school", "user")) == 2
        assert pattern_diameter(metapath("user")) == 0
        square = Metagraph(
            ["user", "school", "hobby", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        assert pattern_diameter(square) == 2

    def test_catalog_radius_is_max_diameter(self, catalog):
        assert catalog_radius(catalog) == max(
            pattern_diameter(m) for m in catalog
        )
