"""Property suite for incremental index maintenance (repro.index.delta).

The anchor invariant: after any sequence of edits, the delta-maintained
:class:`MetagraphVectors` and :class:`InstanceIndex` must be
*bit-identical* to a from-scratch ``build_index`` on the mutated
graph — same integer counts, same partner sets, same per-metagraph
instance totals — and the compiled snapshot spliced from the
pre-delta one must equal a cold compile array for array, dtypes
included.
"""

from __future__ import annotations

import random
import re
from unittest import mock

import pytest

from repro.exceptions import (
    DeltaError,
    DuplicateNodeError,
    EdgeError,
    NodeNotFoundError,
)
from repro.graph.csr import csr_view
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
from repro.index.compiled import CompiledVectors
from repro.index.parallel import build_index
from repro.matching.compiled import compiled_embedding_matrix
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.symmetry import automorphisms
from tests.oracles import ledger, make_counts, nodes_with_counts, partners

COMPILED_ARRAYS = (
    "node_indptr", "node_indices", "node_count", "node_data",
    "pair_indptr", "pair_indices", "pair_count", "pair_data",
    "pair_ptr", "partner_pos", "entry_pair",
)


def make_graph(
    seed: int = 0, users: int = 20, groups: int = 5, ids=None, friendships: int = 12
) -> TypedGraph:
    """Random typed graph: users in groups plus user-user friendships.

    ``ids`` names the users (default ``u0``, ``u1``, ...); user ``i``
    is ``ids[i]``.  ``friendships`` user pairs are drawn (repeats are
    skipped).
    """
    rng = random.Random(seed)
    user = list(ids) if ids is not None else [f"u{i}" for i in range(users)]
    users = len(user)
    graph = TypedGraph(name=f"delta-{seed}")
    for i in range(users):
        graph.add_node(user[i], "user")
    for group_type in ("school", "hobby"):
        for j in range(groups):
            graph.add_node(f"{group_type}{j}", group_type)
        for i in range(users):
            for j in rng.sample(range(groups), 2):
                graph.add_edge(user[i], f"{group_type}{j}")
    for _ in range(friendships):
        a, b = rng.sample(range(users), 2)
        if not graph.has_edge(user[a], user[b]):
            graph.add_edge(user[a], user[b])
    return graph


#: user-user edges drawn by the dense variant of ``make_graph``: each
#: seed the tests use holds several user triangles and induced 4-cycles
#: (12, the default, leaves at most one of each)
DENSE_FRIENDSHIPS = 40

# |Aut| 6, 6 and 8: an edited node or pair maps onto orbits of several
# pattern nodes or pairs, of which the delta path pins one each
LARGE_AUT_PATTERNS = (
    Metagraph(["user"] * 3, [(0, 1), (0, 2), (1, 2)], name="user-triangle"),
    Metagraph(["school"] + ["user"] * 3, [(0, 1), (0, 2), (0, 3)], name="school-star"),
    Metagraph(["user"] * 4, [(0, 1), (1, 2), (2, 3), (3, 0)], name="user-4-cycle"),
)


@pytest.fixture
def catalog() -> MetagraphCatalog:
    """Metapaths, a square, a triangle, an asymmetric pattern, and
    three patterns with larger automorphism groups.

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
            *LARGE_AUT_PATTERNS,
        ],
        anchor_type="user",
    )


def assert_same_compiled(got, want) -> None:
    """Two compiled snapshots are equal: node table, all eleven arrays, dtypes."""
    assert got.nodes == want.nodes
    assert got.catalog_size == want.catalog_size
    for name in COMPILED_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    assert got.content_digest() == want.content_digest()


def assert_matches_fresh_build(graph, catalog, vectors, index) -> None:
    """The bit-identity oracle: delta state == from-scratch rebuild."""
    fresh_vectors, fresh_index = build_index(graph, catalog)
    assert vectors.matched_ids == fresh_vectors.matched_ids
    assert ledger(vectors)[0] == ledger(fresh_vectors)[0]
    assert ledger(vectors)[1] == ledger(fresh_vectors)[1]
    assert_same_compiled(vectors.compile(), fresh_vectors.compile())
    for mg_id in fresh_index.matched_ids():
        assert index.num_instances(mg_id) == fresh_index.num_instances(mg_id)


def apply_spliced(graph, catalog, vectors, delta, index):
    """``apply_delta`` after a compile, so the next compile is a splice."""
    before = vectors.compile()
    stats = apply_delta(graph, catalog, vectors, delta, index=index)
    bases = []
    splice = CompiledVectors.splice

    def spy(base, *args, **kwargs):
        bases.append(base)
        return splice(base, *args, **kwargs)

    with mock.patch.object(CompiledVectors, "splice", spy):
        after = vectors.compile()
    # still current (no count changed), or the base of the splice
    assert bases == [before] if bases else after is before
    return stats


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


@pytest.mark.parametrize("pattern", LARGE_AUT_PATTERNS, ids=lambda m: m.name)
def test_large_aut_patterns_have_instances(pattern):
    """The larger groups are exercised, not vacuously matched."""
    assert len(automorphisms(pattern)) in (6, 8)
    for graph in (make_graph(1), make_graph(0, users=14, groups=4)):
        assert compiled_embedding_matrix(csr_view(graph), pattern).shape[0] > 0


class TestRandomizedSequences:
    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_rebuild(self, catalog, seed):
        graph = make_graph(seed)
        vectors, index = build_index(graph, catalog)
        delta = random_delta(graph, random.Random(seed + 100))
        stats = apply_spliced(graph, catalog, vectors, delta, index)
        assert stats.edits_applied == len(delta)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    @pytest.mark.parametrize("seed", range(6))
    def test_bit_identical_to_rebuild_dense(self, catalog, seed):
        """The same on a graph with enough friendships that every all-user
        pattern (the friend pair, the triangle, the induced 4-cycle) has
        instances for the delta to retire and re-add."""
        graph = make_graph(seed, friendships=DENSE_FRIENDSHIPS)
        csr = csr_view(graph)
        for pattern in catalog:
            if set(pattern.types) == {"user"}:
                assert compiled_embedding_matrix(csr, pattern).shape[0] >= 2, pattern.name
        vectors, index = build_index(graph, catalog)
        delta = random_delta(graph, random.Random(seed + 100))
        stats = apply_spliced(graph, catalog, vectors, delta, index)
        assert stats.edits_applied == len(delta)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    @pytest.mark.parametrize("seed", range(3))
    def test_consecutive_batches_compose(self, catalog, seed):
        graph = make_graph(seed, users=14, groups=4)
        vectors, index = build_index(graph, catalog)
        rng = random.Random(seed + 500)
        for _ in range(3):
            apply_spliced(graph, catalog, vectors, random_delta(graph, rng), index)
            assert_matches_fresh_build(graph, catalog, vectors, index)

    @pytest.mark.parametrize("seed", range(3))
    def test_batches_without_a_compile_between_compose(self, catalog, seed):
        """Dirty rows accumulate over several deltas into one splice."""
        graph = make_graph(seed, users=14, groups=4)
        vectors, index = build_index(graph, catalog)
        vectors.compile()
        rng = random.Random(seed + 700)
        for _ in range(3):
            apply_delta(graph, catalog, vectors, random_delta(graph, rng), index=index)
        assert_matches_fresh_build(graph, catalog, vectors, index)


class TestSingleEdits:
    def test_remove_edge(self, catalog):
        graph = make_graph(1)
        vectors, index = build_index(graph, catalog)
        u, v = next(iter(graph.edges()))
        apply_spliced(graph, catalog, vectors, GraphDelta().remove_edge(u, v), index)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_add_edge_between_users(self, catalog):
        graph = make_graph(2)
        vectors, index = build_index(graph, catalog)
        users = sorted(n for n in graph.nodes() if graph.node_type(n) == "user")
        pair = next(
            (a, b)
            for a in users
            for b in users
            if a < b and not graph.has_edge(a, b)
        )
        apply_spliced(graph, catalog, vectors, GraphDelta().add_edge(*pair), index)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_remove_node_retires_all_its_instances(self, catalog):
        graph = make_graph(3)
        vectors, index = build_index(graph, catalog)
        victim = "u0"
        assert victim in vectors.compile().nodes
        stats = apply_spliced(
            graph, catalog, vectors, GraphDelta().remove_node(victim), index
        )
        assert stats.instances_added == 0
        assert victim not in nodes_with_counts(vectors)
        assert partners(vectors, victim) == frozenset()
        assert_matches_fresh_build(graph, catalog, vectors, index)
        assert victim not in vectors.compile().nodes

    def test_isolated_add_node_changes_nothing(self, catalog):
        graph = make_graph(4)
        vectors, index = build_index(graph, catalog)
        before = vectors.compile()
        stats = apply_delta(
            graph,
            catalog,
            vectors,
            GraphDelta().add_node("loner", "user"),
            index=index,
        )
        assert stats.instances_added == stats.instances_retired == 0
        assert vectors.compile() is before
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_remove_then_readd_node_restores_counts(self, catalog):
        """Satellite: re-adding a node with its edges rematches exactly."""
        graph = make_graph(5)
        vectors, index = build_index(graph, catalog)
        reference, _ = build_index(graph.copy(), catalog)
        victim = "u1"
        incident = [(victim, nbr) for nbr in sorted(graph.neighbors(victim), key=repr)]
        node_type = graph.node_type(victim)
        apply_spliced(graph, catalog, vectors, GraphDelta().remove_node(victim), index)
        rebuild = GraphDelta().add_node(victim, node_type)
        for u, v in incident:
            rebuild.add_edge(u, v)
        apply_spliced(graph, catalog, vectors, rebuild, index)
        assert ledger(vectors)[0] == ledger(reference)[0]
        assert ledger(vectors)[1] == ledger(reference)[1]
        assert_matches_fresh_build(graph, catalog, vectors, index)
        assert_same_compiled(vectors.compile(), reference.compile())

    def test_partners_consistent_after_patching(self, catalog):
        """Satellite: the compiled adjacency mirrors the pair store after every patch."""
        graph = make_graph(6)
        vectors, index = build_index(graph, catalog)
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
                link for x, y in ledger(vectors)[1] for link in ((x, y), (y, x))
            }
            for x, y in ledger(vectors)[1]:
                assert y in partners(vectors, x) and x in partners(vectors, y)


ADVERSARIAL_IDS = {
    # repr order puts 10 before 9 and "u10" before "u9"
    "ints": list(range(14)),
    "mixed int/str": [9, "9", 10, "10", 1, "1", "u0", 0, "x", 11, "11", 2],
    "tuples": [("u", i) for i in range(12)] + [("u", "9"), (9,), ("u", 10, "x")],
}


class TestUniverseChanges:
    """Splices that move the anchor universe, not just rows inside it."""

    def test_user_gains_its_first_count(self, catalog):
        graph = make_graph(10)
        vectors, index = build_index(graph, catalog)
        apply_spliced(
            graph, catalog, vectors, GraphDelta().add_node("newbie", "user"), index
        )
        assert "newbie" not in vectors.compile().nodes
        apply_spliced(
            graph, catalog, vectors, GraphDelta().add_edge("newbie", "school0"), index
        )
        assert "newbie" in vectors.compile().nodes
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_user_loses_its_last_count(self, catalog):
        graph = make_graph(11)
        vectors, index = build_index(graph, catalog)
        loner = "u3"
        keep, *rest = sorted(graph.neighbors(loner), key=repr)
        prune = GraphDelta()
        for other in rest:
            prune.remove_edge(loner, other)
        apply_spliced(graph, catalog, vectors, prune, index)
        assert_matches_fresh_build(graph, catalog, vectors, index)
        apply_spliced(
            graph, catalog, vectors, GraphDelta().remove_edge(loner, keep), index
        )
        assert loner not in vectors.compile().nodes
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_node_leaves_and_reenters_in_one_splice(self, catalog):
        graph = make_graph(12)
        vectors, index = build_index(graph, catalog)
        vectors.compile()
        incident = sorted(graph.neighbors("u2"), key=repr)
        apply_delta(graph, catalog, vectors, GraphDelta().remove_node("u2"), index=index)
        back = GraphDelta().add_node("u2", "user")
        for other in incident:
            back.add_edge("u2", other)
        apply_delta(graph, catalog, vectors, back, index=index)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL_IDS))
    @pytest.mark.parametrize("seed", range(2))
    def test_adversarial_ids(self, catalog, kind, seed):
        ids = ADVERSARIAL_IDS[kind]
        graph = make_graph(seed, ids=ids)
        vectors, index = build_index(graph, catalog)
        rng = random.Random(seed)
        for step in range(4):
            delta = GraphDelta()
            edges = sorted(graph.edges(), key=repr)
            for u, v in rng.sample(edges, 3):
                delta.remove_edge(u, v)
            users = sorted(graph.nodes_of_type("user"), key=repr)
            victim = rng.choice(users)
            delta.remove_node(victim)
            delta.add_node(victim, "user").add_edge(victim, rng.choice(["school0", "hobby1"]))
            newcomer = (ids[step % len(ids)], "new") if kind == "tuples" else f"{step}"
            if newcomer not in graph:
                delta.add_node(newcomer, "user").add_edge(newcomer, "school1")
            apply_spliced(graph, catalog, vectors, delta, index)
            assert_matches_fresh_build(graph, catalog, vectors, index)


def test_concurrent_compiles_after_a_delta_agree(catalog):
    """Readers racing to compile the same patch all get the exact snapshot."""
    import sys
    import threading

    edited = make_graph(13)
    delta = random_delta(edited, random.Random(13))
    delta.apply_to(edited)
    expected = build_index(edited, catalog)[0].compile()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            graph = make_graph(13)
            vectors, index = build_index(graph, catalog)
            before = vectors.compile()
            apply_delta(graph, catalog, vectors, delta, index=index)
            # the patch stays pending until the readers race to splice it
            bases = []
            splice = CompiledVectors.splice

            def spy(base, *args, **kwargs):
                bases.append(base)
                return splice(base, *args, **kwargs)

            results: list = []
            threads = [
                threading.Thread(target=lambda: results.append(vectors.compile()))
                for _ in range(8)
            ]
            with mock.patch.object(CompiledVectors, "splice", spy):
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 8
            assert bases and all(base is before for base in bases)
            for compiled in results:
                assert_same_compiled(compiled, expected)
    finally:
        sys.setswitchinterval(interval)


class TestToggles:
    def test_toggled_counts_match_original(self):
        """Toggling edges off and back on round-trips counts and snapshot.

        A serving-scale workload (300 users in overlapping typed groups,
        metapaths plus 4-node squares); the snapshot is compiled between
        toggles, so every compile is a splice.
        """
        rng = random.Random(0)
        graph = TypedGraph(name="toggles")
        users = [f"u{i:03d}" for i in range(300)]
        for user in users:
            graph.add_node(user, "user")
        for attr_type in ("school", "employer", "hobby"):
            for g in range(300 // 8):
                graph.add_node(f"{attr_type}{g}", attr_type)
            for user in users:
                for g in rng.sample(range(300 // 8), 3):
                    graph.add_edge(user, f"{attr_type}{g}")
        members = [
            metapath("user", t, "user", name=f"P-{t}")
            for t in ("school", "employer", "hobby")
        ]
        for a, b in (("school", "employer"), ("school", "hobby"), ("employer", "hobby")):
            members.append(
                Metagraph(["user", a, b, "user"], [(0, 1), (0, 2), (3, 1), (3, 2)])
            )
        catalog = MetagraphCatalog(members, anchor_type="user")
        vectors, index = build_index(graph, catalog)
        original = vectors.compile()
        for u, v in random.Random(1).sample(sorted(graph.edges(), key=repr), 5):
            apply_spliced(graph, catalog, vectors, GraphDelta().remove_edge(u, v), index)
            apply_spliced(graph, catalog, vectors, GraphDelta().add_edge(u, v), index)
        assert_matches_fresh_build(graph, catalog, vectors, index)
        assert_same_compiled(vectors.compile(), original)


class TestNoOpsAndValidation:
    def test_noop_edits_are_counted_not_applied(self, catalog):
        graph = make_graph(7)
        vectors, index = build_index(graph, catalog)
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
        vectors, index = build_index(graph, catalog)
        with pytest.raises(error):
            apply_delta(graph, catalog, vectors, delta, index=index)
        assert_matches_fresh_build(graph, catalog, vectors, index)

    def test_remove_absent_edge_raises_edge_error(self, catalog):
        graph = make_graph(8)
        vectors, index = build_index(graph, catalog)
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
        """The error names the culprit row of a patch table of two rows:
        the first goes up, the second (its first entry) goes negative."""
        graph = make_graph(8)
        vectors, _ = build_index(graph, catalog)
        a, b, c = vectors.compile().nodes[:3]
        with pytest.raises(DeltaError, match=re.escape(f"node count for {b!r} went negative")):
            vectors.patch_counts(0, make_counts(1, {b: 10 ** 6}), make_counts(1, {a: 1}))
        with pytest.raises(
            DeltaError, match=re.escape(f"pair count for {(a, c)!r} went negative")
        ):
            vectors.patch_counts(
                0, make_counts(1, {}, {(a, c): 10 ** 6}), make_counts(1, {}, {(a, b): 1})
            )

    def test_failed_patch_changes_nothing(self, catalog):
        """A patch that would go negative leaves store and snapshot as they were,
        even when it also adds rows it listed first."""
        graph = make_graph(8)
        vectors, index = build_index(graph, catalog)
        before = vectors.compile()
        added = make_counts(1, {"z": 1}, {("u0", "z"): 1})
        retired = make_counts(1, {"u0": 10 ** 6})
        with pytest.raises(DeltaError):
            vectors.patch_counts(0, retired, added)
        assert "z" not in nodes_with_counts(vectors)
        assert vectors.compile() is before
        assert_matches_fresh_build(graph, catalog, vectors, index)
        # nor did "z" join the node table: the next patch adds only its own node
        vectors.patch_counts(0, make_counts(), make_counts(1, {"y": 1}))
        assert list(vectors.compile().nodes) == list(before.nodes) + ["y"]


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
