"""Tests for symmetric-component decomposition and structural similarity."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metagraph.decomposition import decompose
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.similarity import (
    functional_similarity,
    mcs_size,
    structural_similarity,
)
from tests.matching.test_cross_matcher_parity import random_pattern
from tests.metagraph.test_canonical_symmetry import random_metagraph


def mirrored_pattern(rng: random.Random) -> Metagraph:
    """Two copies of a random pattern hung off one hub, maybe cross-joined.

    The swap of the copies is an automorphism; a cross edge ``(i, j')``
    comes with ``(j, i')``, so it stays one.  Without cross edges each
    copy is one moved component and the two form a multi-node family.
    """
    half = random_pattern(rng, max_nodes=3)
    n = half.size
    types = ["school", *half.types, *half.types]
    hook = 1 + rng.randrange(n)
    edges = {(0, hook), (0, hook + n)}
    for u, v in half.edges:
        edges.update({(1 + u, 1 + v), (1 + n + u, 1 + n + v)})
    for _ in range(rng.choice((0, 0, 1, 2))):
        i, j = rng.randrange(n), rng.randrange(n)
        edges.update({(1 + i, 1 + n + j), (1 + j, 1 + n + i)})
    return Metagraph(types, edges)


class TestDecompose:
    def test_m3_decomposition(self):
        m3 = metapath("user", "address", "user")
        d = decompose(m3)
        assert d.is_symmetric
        # address fixed; the two users are singleton twins
        assert (1,) in d.components
        assert len(d.families) == 1
        family = d.families[0]
        assert d.components[family.representative] == (0,)
        assert d.components[family.twin] == (2,)

    def test_m1_decomposition(self, toy_metagraphs):
        d = decompose(toy_metagraphs["M1"])
        assert d.is_symmetric
        assert len(d.families) == 1
        rep = d.components[d.families[0].representative]
        twin = d.components[d.families[0].twin]
        assert {rep, twin} == {(0,), (3,)}

    def test_asymmetric_all_singletons(self):
        m = metapath("user", "school", "hobby")
        d = decompose(m)
        assert not d.is_symmetric
        assert d.families == ()
        assert len(d.components) == 3

    def test_m5_style_two_node_components(self):
        # user-major wings around a shared school:
        # 0:user-1:major, 4:user-5:major, school 2 adjacent to users,
        # centre user 3 adjacent to school and both majors
        m = Metagraph(
            ["user", "major", "school", "user", "user", "major"],
            [(0, 1), (0, 2), (3, 2), (3, 1), (3, 5), (4, 5), (4, 2)],
        )
        d = decompose(m)
        assert d.is_symmetric
        assert len(d.families) == 1
        rep = d.components[d.families[0].representative]
        twin = d.components[d.families[0].twin]
        assert {rep, twin} == {(0, 1), (4, 5)}
        # school and centre user are fixed singletons
        assert (2,) in d.components
        assert (3,) in d.components

    def test_adjacent_symmetric_users_split(self):
        # triangle user-user-school: users adjacent AND symmetric
        m = Metagraph(["user", "user", "school"], [(0, 1), (0, 2), (1, 2)])
        d = decompose(m)
        assert len(d.families) == 1
        rep = d.components[d.families[0].representative]
        twin = d.components[d.families[0].twin]
        assert {rep, twin} == {(0,), (1,)}

    def test_simplified_nodes_drop_twins(self):
        m3 = metapath("user", "address", "user")
        d = decompose(m3)
        assert d.simplified_nodes() == (0, 1)

    def test_component_of(self):
        m3 = metapath("user", "address", "user")
        d = decompose(m3)
        for node in range(3):
            comp = d.components[d.component_of(node)]
            assert node in comp

    def test_component_of_unknown_raises(self):
        d = decompose(metapath("user"))
        with pytest.raises(ValueError):
            d.component_of(99)

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=50, deadline=None)
    def test_components_partition_nodes(self, seed):
        m = random_metagraph(random.Random(seed))
        d = decompose(m)
        all_nodes = sorted(n for comp in d.components for n in comp)
        assert all_nodes == list(range(m.size))

    @given(st.integers(min_value=0, max_value=400))
    @settings(max_examples=50, deadline=None)
    def test_twins_are_sigma_images(self, seed):
        m = random_metagraph(random.Random(seed))
        d = decompose(m)
        for family in d.families:
            rep = d.components[family.representative]
            twin = d.components[family.twin]
            assert {d.sigma[u] for u in rep} == set(twin)
            assert not set(rep) & set(twin)


    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_no_edge_joins_a_multi_node_family(self, seed):
        """A representative with more than one node is a different moved
        component than its twin, so no pattern edge joins the two (an
        edge would have merged them into one component, which is split
        into singleton twins instead)."""
        rng = random.Random(seed)
        for m in (random_pattern(rng), mirrored_pattern(rng)):
            d = decompose(m)
            for family in d.families:
                rep = d.components[family.representative]
                twin = d.components[family.twin]
                if len(rep) > 1:
                    assert not any(m.has_edge(u, v) for u in rep for v in twin)


class TestStructuralSimilarity:
    def test_identity(self, toy_metagraphs):
        for m in toy_metagraphs.values():
            assert structural_similarity(m, m) == pytest.approx(1.0)

    def test_symmetric_arguments(self, toy_metagraphs):
        m1, m2 = toy_metagraphs["M1"], toy_metagraphs["M2"]
        assert structural_similarity(m1, m2) == pytest.approx(
            structural_similarity(m2, m1)
        )

    def test_range(self, toy_metagraphs):
        graphs = list(toy_metagraphs.values())
        for a in graphs:
            for b in graphs:
                s = structural_similarity(a, b)
                assert 0.0 <= s <= 1.0

    def test_path_inside_larger(self):
        # M3 (user-address-user) is an induced subgraph of M4
        m3 = metapath("user", "address", "user")
        m4 = Metagraph(
            ["user", "surname", "address", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        v, e = mcs_size(m3, m4)
        assert (v, e) == (3, 2)
        expected = (3 + 2) ** 2 / ((3 + 2) * (4 + 4))
        assert structural_similarity(m3, m4) == pytest.approx(expected)

    def test_disjoint_types_small_overlap(self):
        a = metapath("user", "school", "user")
        b = metapath("hobby", "employer", "hobby")
        v, e = mcs_size(a, b)
        assert v == 0 and e == 0
        assert structural_similarity(a, b) == 0.0

    def test_shared_single_node(self):
        a = metapath("user", "school", "user")
        b = metapath("user", "hobby", "user")
        v, e = mcs_size(a, b)
        assert (v, e) == (1, 0)  # only a lone user node in common

    def test_similar_shapes_higher_than_dissimilar(self, toy_metagraphs):
        m1 = toy_metagraphs["M1"]  # user(school,major)user square
        m2 = toy_metagraphs["M2"]  # user(employer,hobby)user square
        m3 = toy_metagraphs["M3"]  # user-address-user path
        # m1/m2 share a bigger common shape (user-x-user with 2 users) than
        # either shares with the short path? They share user-user via one
        # attribute? No common attribute type, so the MCS is a single user.
        assert structural_similarity(m1, m2) < structural_similarity(m1, m1)
        assert structural_similarity(m1, m3) < 1.0

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=30, deadline=None)
    def test_random_symmetry_and_range(self, seed):
        rng = random.Random(seed)
        a = random_metagraph(rng, max_nodes=4)
        b = random_metagraph(rng, max_nodes=4)
        s_ab = structural_similarity(a, b)
        s_ba = structural_similarity(b, a)
        assert s_ab == pytest.approx(s_ba)
        assert 0.0 <= s_ab <= 1.0


class TestFunctionalSimilarity:
    def test_equal_weights(self):
        assert functional_similarity(0.7, 0.7) == 1.0

    def test_extreme_difference(self):
        assert functional_similarity(1.0, 0.0) == 0.0

    def test_clipped(self):
        assert functional_similarity(1.5, 0.0) == 0.0
        assert 0.0 <= functional_similarity(-0.2, 0.9) <= 1.0
