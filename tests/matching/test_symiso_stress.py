"""SymISO stress tests: one handcrafted pattern per branch of the engine.

SymISO (``repro.matching.symiso``) has four ways to match a pattern,
and each class below holds at least one pattern that reaches the one
it names:

- ``TestSingleFamily``: singleton reuse -- a twin family of single
  nodes (the common anchor-pair case) after fixed components, matched
  as ``i < j`` pairs of the representative's candidates;
- ``TestMultiNodeWings``: multi-node reuse -- wing components
  (M5-style) whose matchings are reused for the twin;
- ``TestTwoFamilies``: unsafe reuse -- a second twin family under one
  involution (after the first family binds, assigned nodes are moved
  by sigma, so the second family is matched directly);
- ``TestDegenerateCases``: the plain-backtracking fallback -- a
  pattern whose first match step is a twin family (no fixed node to
  anchor it), plus asymmetric patterns with no family at all.

The double squares in ``TestTwoFamilies`` hold two families but start
with one, so they take the fallback, not the unsafe path.
``TestKindedCrossEdges`` puts edge kinds on the edges between twins.

Each case is verified against QuickSI on graphs rich enough to contain
multiple overlapping instances.
"""

import pytest

from repro.graph.typed_graph import PLAIN, EdgeKind, TypedGraph
from repro.matching import (
    CompiledMatcher,
    QuickSIMatcher,
    SymISOMatcher,
    find_instances,
)
from repro.metagraph.decomposition import decompose
from repro.metagraph.metagraph import Metagraph, metapath


def dense_graph(friend_kinds=(PLAIN,) * 4) -> TypedGraph:
    """A graph with many overlapping attribute co-ownerships.

    ``friend_kinds`` gives the edge kind of each of the four user-user
    friendships, in the order they are listed below.
    """
    g = TypedGraph(name="dense")
    users = [f"u{i}" for i in range(8)]
    for u in users:
        g.add_node(u, "user")
    for j in range(3):
        g.add_node(f"s{j}", "school")
        g.add_node(f"m{j}", "major")
        g.add_node(f"h{j}", "hobby")
    # overlapping attribute memberships
    wiring = [
        ("u0", "s0"), ("u1", "s0"), ("u2", "s0"), ("u3", "s1"),
        ("u4", "s1"), ("u5", "s2"), ("u6", "s2"), ("u7", "s2"),
        ("u0", "m0"), ("u1", "m0"), ("u2", "m1"), ("u3", "m1"),
        ("u4", "m0"), ("u5", "m2"), ("u6", "m2"), ("u7", "m0"),
        ("u0", "h0"), ("u2", "h0"), ("u4", "h1"), ("u6", "h1"),
        ("u1", "h2"), ("u3", "h2"), ("u5", "h0"), ("u7", "h1"),
    ]
    for u, a in wiring:
        g.add_edge(u, a)
    # some direct user-user friendships
    friendships = [("u0", "u1"), ("u1", "u2"), ("u4", "u6"), ("u5", "u7")]
    for (u, v), kind in zip(friendships, friend_kinds):
        g.add_edge(u, v, kind)
    return g


def agree(graph, pattern) -> set:
    sym = {i.nodes for i in find_instances(SymISOMatcher(), graph, pattern)}
    ref = {i.nodes for i in find_instances(QuickSIMatcher(), graph, pattern)}
    assert sym == ref
    return ref


def agree_with_kernel(graph, pattern) -> set:
    """SymISO == QuickSI == the compiled kernel; returns the instances."""
    ref = agree(graph, pattern)
    assert {i.nodes for i in find_instances(CompiledMatcher(), graph, pattern)} == ref
    return ref


class TestSingleFamily:
    def test_anchor_pair_square(self):
        pattern = Metagraph(
            ["user", "school", "major", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        found = agree(dense_graph(), pattern)
        # u5/u6 share s2+m2 and are NOT friends -> instance;
        # u0/u1 share s0+m0 but ARE friends -> excluded (induced, Def. 2)
        assert frozenset({"u5", "s2", "m2", "u6"}) in found
        assert frozenset({"u0", "s0", "m0", "u1"}) not in found

    def test_adjacent_symmetric_users_triangle(self):
        # users adjacent to each other AND to a shared school
        pattern = Metagraph(["user", "user", "school"], [(0, 1), (0, 2), (1, 2)])
        found = agree(dense_graph(), pattern)
        assert frozenset({"u0", "u1", "s0"}) in found

    def test_long_symmetric_path(self):
        pattern = metapath("user", "hobby", "user", "hobby", "user")
        agree(dense_graph(), pattern)


class TestMultiNodeWings:
    def test_m5_style_wings(self):
        # centre school with two user-major wings
        pattern = Metagraph(
            ["user", "major", "school", "user", "major"],
            [(0, 1), (0, 2), (3, 2), (3, 4)],
        )
        decomp = decompose(pattern)
        assert any(len(decomp.components[f.representative]) == 2 for f in decomp.families)
        agree(dense_graph(), pattern)

    def test_wing_with_cross_edges(self):
        # wings additionally joined by a user-user edge
        pattern = Metagraph(
            ["user", "major", "school", "user", "major"],
            [(0, 1), (0, 2), (3, 2), (3, 4), (0, 3)],
        )
        agree(dense_graph(), pattern)


class TestTwoFamilies:
    def test_anchored_two_families_unsafe_reuse(self):
        """A fixed school, then two singleton families: the users (reused)
        and their hobbies, matched directly once the users are bound."""
        pattern = Metagraph(
            ["user", "hobby", "school", "user", "hobby"],
            [(0, 1), (0, 2), (3, 2), (3, 4), (0, 3)],
        )
        decomp = decompose(pattern)
        assert len(decomp.families) == 2
        assert any(decomp.sigma[u] == u for u in range(pattern.size))
        found = agree(dense_graph(), pattern)
        assert frozenset({"u0", "h0", "s0", "u1", "h2"}) in found
        assert len(found) == 3

    def test_double_square_two_families(self):
        """user pair + attribute pair both swapped by one involution.

        Every node is moved, so the first step is a family and SymISO
        takes the plain-backtracking fallback."""
        pattern = Metagraph(
            ["user", "school", "school", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        decomp = decompose(pattern)
        # the best involution swaps users AND schools -> two families
        if len(decomp.families) == 2:
            twins = {decomp.components[f.twin] for f in decomp.families}
            assert len(twins) == 2
        g = TypedGraph()
        for u in ("a", "b", "c"):
            g.add_node(u, "user")
        for s in ("s1", "s2", "s3"):
            g.add_node(s, "school")
        for u, s in [("a", "s1"), ("a", "s2"), ("b", "s1"), ("b", "s2"),
                     ("c", "s2"), ("c", "s3"), ("a", "s3")]:
            g.add_edge(u, s)
        found = agree(g, pattern)
        assert frozenset({"a", "b", "s1", "s2"}) in found

    def test_hobby_double_square_dense(self):
        pattern = Metagraph(
            ["user", "hobby", "hobby", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        agree(dense_graph(), pattern)


class TestDegenerateCases:
    def test_asymmetric_pattern_plain_backtracking(self):
        pattern = metapath("user", "school", "major")
        decomp = decompose(pattern)
        assert not decomp.is_symmetric
        agree(dense_graph(), pattern)

    def test_fully_symmetric_user_pair(self):
        pattern = metapath("user", "user")
        found = agree(dense_graph(), pattern)
        assert frozenset({"u0", "u1"}) in found

    def test_star_of_identical_leaves(self):
        # three user leaves around a school: orbit of size 3 — only a
        # pair is exploited, the rest deduplicated downstream.  In the
        # dense graph every school with 3 users has friend edges among
        # them, so the induced star never occurs — both engines must
        # agree on exactly that.
        pattern = Metagraph(
            ["school", "user", "user", "user"],
            [(0, 1), (0, 2), (0, 3)],
        )
        assert agree(dense_graph(), pattern) == set()
        # hobby stars do exist (h1: u4, u6, u7 with only u4-u6 friends —
        # still excluded; h0: u0, u2, u5 with no friend edges -> instance)
        hobby_star = Metagraph(
            ["hobby", "user", "user", "user"],
            [(0, 1), (0, 2), (0, 3)],
        )
        found = agree(dense_graph(), hobby_star)
        assert frozenset({"h0", "u0", "u2", "u5"}) in found

    def test_no_matching_type(self):
        pattern = metapath("user", "planet", "user")
        assert agree(dense_graph(), pattern) == set()


COLLEAGUE = EdgeKind("colleague", False)
FRIEND = EdgeKind("friend", False)
STUDIES = EdgeKind("studies", True)


class TestKindedCrossEdges:
    """Edge kinds on the edges between the two wings of a pattern.

    An edge joining two wings merges them into one moved component, so
    ``decompose`` splits them into singleton twin families.  A labelled
    edge between the twin users reaches the singleton-reuse pair check;
    directed edges from each user to the other wing's major reach the
    checks of the second family, matched directly.
    """

    def test_labelled_edge_between_twin_users(self):
        graph = dense_graph((COLLEAGUE, COLLEAGUE, FRIEND, FRIEND))
        pattern = Metagraph(
            ["user", "major", "school", "user", "major"],
            [(0, 1), (0, 2), (3, 2), (3, 4), (0, 3, COLLEAGUE)],
        )
        assert len(decompose(pattern).families) == 2
        # u5-u7 share s2 and distinct majors too, but are friends
        found = agree_with_kernel(graph, pattern)
        assert found == {frozenset({"u1", "m0", "s0", "u2", "m1"})}

    def test_directed_edges_across_wings(self):
        pattern = Metagraph(
            ["user", "major", "school", "user", "major"],
            [(0, 1), (0, 2), (3, 2), (3, 4), (0, 4, STUDIES), (3, 1, STUDIES)],
        )
        assert len(decompose(pattern).families) == 2
        g = TypedGraph()
        for school, a, b in (("s0", "a", "b"), ("s1", "c", "d")):
            g.add_node(school, "school")
            for user in (a, b):
                g.add_node(user, "user")
                g.add_node(f"m{user}", "major")
                g.add_edge(user, school)
                g.add_edge(user, f"m{user}")
        g.add_edge("a", "mb", STUDIES)
        g.add_edge("b", "ma", STUDIES)
        # the same wiring with one cross edge pointing the other way
        g.add_edge("c", "md", STUDIES)
        g.add_edge("mc", "d", STUDIES)
        found = agree_with_kernel(g, pattern)
        assert found == {frozenset({"a", "ma", "s0", "b", "mb"})}


@pytest.mark.parametrize("seed", range(6))
def test_symiso_r_agrees_across_seeds(seed):
    graph = dense_graph()
    pattern = Metagraph(
        ["user", "school", "major", "user"],
        [(0, 1), (0, 2), (3, 1), (3, 2)],
    )
    reference = {i.nodes for i in find_instances(QuickSIMatcher(), graph, pattern)}
    engine = SymISOMatcher(random_order=True, seed=seed)
    assert {i.nodes for i in find_instances(engine, graph, pattern)} == reference
