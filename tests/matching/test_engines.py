"""Matching-engine tests: correctness on the toy graph and engine agreement."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import (
    ALL_ENGINES,
    BoostISOMatcher,
    QuickSIMatcher,
    SymISOMatcher,
    TurboISOMatcher,
    candidate_regions,
    count_instances,
    find_instances,
    is_valid_embedding,
)
from repro.metagraph.metagraph import Metagraph, metapath
from tests.conftest import random_typed_graph
from tests.metagraph.test_canonical_symmetry import random_metagraph
from tests.oracles import profile_regions

ENGINE_FACTORIES = list(ALL_ENGINES.items())


def instance_sets(graph, metagraph):
    """Instance node-sets per engine, for agreement checks."""
    result = {}
    for name, factory in ENGINE_FACTORIES:
        engine = factory()
        result[name] = {inst.nodes for inst in find_instances(engine, graph, metagraph)}
    return result


class TestToyGraphInstances:
    """Ground-truth instance counts hand-derived from Fig. 1."""

    def test_m3_user_address_user(self, toy_graph, toy_metagraphs):
        # Alice-123GreenSt-Bob and Kate-456WhiteSt-Jay
        instances = find_instances(SymISOMatcher(), toy_graph, toy_metagraphs["M3"])
        nodes = {inst.nodes for inst in instances}
        assert nodes == {
            frozenset({"Alice", "123 Green St", "Bob"}),
            frozenset({"Kate", "456 White St", "Jay"}),
        }

    def test_m1_school_major_square(self, toy_graph, toy_metagraphs):
        # Kate/Jay share College B + Economics; Bob/Tom share College A + Physics
        instances = find_instances(SymISOMatcher(), toy_graph, toy_metagraphs["M1"])
        nodes = {inst.nodes for inst in instances}
        assert nodes == {
            frozenset({"Kate", "College B", "Economics", "Jay"}),
            frozenset({"Bob", "College A", "Physics", "Tom"}),
        }

    def test_m2_employer_hobby_square(self, toy_graph, toy_metagraphs):
        instances = find_instances(SymISOMatcher(), toy_graph, toy_metagraphs["M2"])
        nodes = {inst.nodes for inst in instances}
        assert nodes == {frozenset({"Kate", "Company X", "Music", "Alice"})}

    def test_m4_family_square(self, toy_graph, toy_metagraphs):
        instances = find_instances(SymISOMatcher(), toy_graph, toy_metagraphs["M4"])
        nodes = {inst.nodes for inst in instances}
        assert nodes == {frozenset({"Alice", "Clinton", "123 Green St", "Bob"})}

    @pytest.mark.parametrize("engine_name", [n for n, _ in ENGINE_FACTORIES])
    def test_all_engines_match_toy_ground_truth(
        self, toy_graph, toy_metagraphs, engine_name
    ):
        engine = ALL_ENGINES[engine_name]()
        instances = find_instances(engine, toy_graph, toy_metagraphs["M1"])
        assert len(instances) == 2

    def test_no_instances_for_absent_pattern(self, toy_graph):
        # nobody shares a hobby AND an address in the toy graph
        m = Metagraph(
            ["user", "hobby", "address", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        assert count_instances(SymISOMatcher(), toy_graph, m) == 0

    def test_unknown_type_yields_nothing(self, toy_graph):
        m = metapath("user", "planet", "user")
        for name, factory in ENGINE_FACTORIES:
            assert count_instances(factory(), toy_graph, m) == 0, name


class TestEmbeddingValidity:
    @pytest.mark.parametrize("engine_name", [n for n, _ in ENGINE_FACTORIES])
    def test_embeddings_satisfy_def2(self, toy_graph, toy_metagraphs, engine_name):
        engine = ALL_ENGINES[engine_name]()
        for mg in toy_metagraphs.values():
            for emb in engine.find_embeddings(toy_graph, mg):
                assert is_valid_embedding(toy_graph, mg, emb)

    def test_induced_semantics_excludes_extra_edges(self):
        # pattern: path user-user-user; graph: triangle of users.
        # Induced semantics -> triangle contains NO instance of the path.
        from repro.graph.typed_graph import TypedGraph

        g = TypedGraph()
        for n in ("a", "b", "c"):
            g.add_node(n, "user")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        path = metapath("user", "user", "user")
        for name, factory in ENGINE_FACTORIES:
            assert count_instances(factory(), g, path) == 0, name

    def test_triangle_pattern_matches_triangle(self):
        from repro.graph.typed_graph import TypedGraph

        g = TypedGraph()
        for n in ("a", "b", "c"):
            g.add_node(n, "user")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        triangle = Metagraph(["user"] * 3, [(0, 1), (1, 2), (0, 2)])
        for name, factory in ENGINE_FACTORIES:
            assert count_instances(factory(), g, triangle) == 1, name


class TestEngineAgreement:
    """All five engines must produce identical instance sets."""

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_engines_agree_on_random_inputs(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        metagraph = random_metagraph(rng, max_nodes=4)
        if not graph.types >= set(metagraph.types):
            # pattern references types absent from the graph: all engines
            # must simply return nothing
            for name, factory in ENGINE_FACTORIES:
                assert count_instances(factory(), graph, metagraph) == 0, name
            return
        sets = instance_sets(graph, metagraph)
        reference = sets["QuickSI"]
        for name, found in sets.items():
            assert found == reference, f"{name} disagrees with QuickSI"

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_engines_agree_on_five_node_patterns(self, seed):
        rng = random.Random(seed + 31337)
        graph = random_typed_graph(seed, num_users=7, num_attrs_per_type=3)
        metagraph = random_metagraph(rng, max_nodes=5)
        sets = instance_sets(graph, metagraph)
        reference = sets["QuickSI"]
        for name, found in sets.items():
            assert found == reference, f"{name} disagrees with QuickSI"

    def test_symiso_r_seed_changes_order_not_result(self, toy_graph, toy_metagraphs):
        m1 = toy_metagraphs["M1"]
        base = {
            i.nodes for i in find_instances(SymISOMatcher(), toy_graph, m1)
        }
        for seed in range(5):
            engine = SymISOMatcher(random_order=True, seed=seed)
            found = {i.nodes for i in find_instances(engine, toy_graph, m1)}
            assert found == base


class TestCandidateRegions:
    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_regions_equal_the_per_node_profile_loop(self, seed):
        """TurboISO's regions are the kernel's profile filter read as node
        ids; on plain graphs that is the per-node loop's answer."""
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        metagraph = random_metagraph(random.Random(seed), max_nodes=4)
        assert candidate_regions(graph, metagraph) == profile_regions(graph, metagraph)

    def test_absent_type_has_no_region(self, toy_graph):
        assert candidate_regions(toy_graph, metapath("user", "planet")) is None


class TestSymISOInternals:
    def test_fewer_embeddings_than_plain_backtracking(self, toy_graph, toy_metagraphs):
        """SymISO prunes automorphic duplicates at the source."""
        m1 = toy_metagraphs["M1"]
        plain = sum(1 for _ in QuickSIMatcher().find_embeddings(toy_graph, m1))
        sym = sum(1 for _ in SymISOMatcher().find_embeddings(toy_graph, m1))
        assert sym < plain
        assert sym == 2  # one embedding per instance here
        assert plain == 4  # |Aut(M1)| = 2 embeddings per instance

    def test_engine_names(self):
        assert SymISOMatcher().name == "SymISO"
        assert SymISOMatcher(random_order=True).name == "SymISO-R"
        assert QuickSIMatcher().name == "QuickSI"
        assert TurboISOMatcher().name == "TurboISO"
        assert BoostISOMatcher().name == "BoostISO"

    def test_single_node_pattern(self, toy_graph):
        m = metapath("user")
        instances = find_instances(SymISOMatcher(), toy_graph, m)
        assert len(instances) == 5

    def test_user_user_edge_pattern(self, toy_graph):
        # no direct user-user edges in the toy graph
        m = metapath("user", "user")
        assert count_instances(SymISOMatcher(), toy_graph, m) == 0
