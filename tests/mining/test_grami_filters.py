"""Tests for the GraMi-style miner and the paper's metagraph filters."""

import pytest

from repro.metagraph.canonical import canonical_form
from repro.metagraph.metagraph import Metagraph, metapath
from repro.mining import mine_catalog
from repro.mining.filters import (
    build_catalog,
    filter_metagraphs,
    passes_paper_filters,
)
from repro.mining.grami import GramiMiner, MinerConfig, mni_support
from tests.conftest import random_typed_graph


class TestMNISupport:
    def test_simple_edge_support(self, toy_graph):
        # user-school edges: 4 users touch schools, 2 schools
        pattern = metapath("user", "school")
        est = mni_support(toy_graph, pattern, threshold=10)
        assert est.support == 2  # min(4 users, 2 schools) = 2
        assert not est.budget_hit

    def test_threshold_short_circuit(self, toy_graph):
        pattern = metapath("user", "school")
        est = mni_support(toy_graph, pattern, threshold=2)
        assert est.support == 2
        assert est.is_frequent(2)

    def test_zero_support_for_absent_pattern(self, toy_graph):
        pattern = metapath("user", "user")
        est = mni_support(toy_graph, pattern, threshold=1)
        assert est.support == 0
        assert not est.is_frequent(1)

    def test_non_induced_semantics(self):
        """MNI uses standard embeddings: a triangle supports a path."""
        from repro.graph.typed_graph import TypedGraph

        g = TypedGraph()
        for n in ("a", "b", "c"):
            g.add_node(n, "user")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        path = metapath("user", "user", "user")
        est = mni_support(g, path, threshold=5)
        assert est.support == 3  # every node appears in every role

    def test_budget_hit_reported(self, toy_graph):
        pattern = metapath("user", "school")
        est = mni_support(
            toy_graph, pattern, threshold=100, embedding_budget=1
        )
        assert est.budget_hit
        assert est.is_frequent(100)  # budget hits count as frequent


class TestGramiMiner:
    def test_toy_mining_finds_fig2_metagraphs(self, toy_graph, toy_metagraphs):
        miner = GramiMiner(MinerConfig(max_nodes=4, min_support=2))
        result = miner.mine(toy_graph)
        forms = {canonical_form(m) for m in result.patterns}
        # M1 (school+major square) occurs twice in the toy graph -> support 2
        assert canonical_form(toy_metagraphs["M1"]) in forms
        # M3 (shared address) occurs twice -> support 2
        assert canonical_form(toy_metagraphs["M3"]) in forms

    def test_infrequent_pattern_absent(self, toy_graph, toy_metagraphs):
        miner = GramiMiner(MinerConfig(max_nodes=4, min_support=2))
        result = miner.mine(toy_graph)
        forms = {canonical_form(m) for m in result.patterns}
        # M2 (employer+hobby square) occurs once; each node role has
        # only 1 image -> support 1 < 2
        assert canonical_form(toy_metagraphs["M2"]) not in forms

    def test_supports_recorded(self, toy_graph):
        miner = GramiMiner(MinerConfig(max_nodes=3, min_support=2))
        result = miner.mine(toy_graph)
        for pattern in result.patterns:
            assert result.support_of(pattern) >= 2

    def test_anti_monotone_growth(self, toy_graph):
        # every mined pattern's sub-edge count is within bounds and
        # every pattern is connected (constructor guarantees)
        miner = GramiMiner(MinerConfig(max_nodes=4, min_support=2))
        result = miner.mine(toy_graph)
        assert all(m.size <= 4 for m in result.patterns)
        assert result.candidates_tested >= len(result.patterns)

    def test_empty_graph(self):
        from repro.graph.typed_graph import TypedGraph

        result = GramiMiner().mine(TypedGraph())
        assert result.patterns == []

    def test_deterministic(self, toy_graph):
        cfg = MinerConfig(max_nodes=4, min_support=2)
        a = GramiMiner(cfg).mine(toy_graph)
        b = GramiMiner(cfg).mine(toy_graph)
        assert [canonical_form(m) for m in a.patterns] == [
            canonical_form(m) for m in b.patterns
        ]

    def test_random_graph_smoke(self):
        graph = random_typed_graph(3, num_users=10, num_attrs_per_type=3)
        result = GramiMiner(MinerConfig(max_nodes=3, min_support=3)).mine(graph)
        assert result.patterns  # something frequent must exist


class TestMinerConfigValidation:
    @pytest.mark.parametrize(
        ("knobs", "message"),
        [
            ({"max_nodes": 1}, "max_nodes must be >= 2"),
            ({"max_nodes": 0}, "max_nodes must be >= 2"),
            ({"max_edges": 0}, "max_edges must be None or >= 1"),
            ({"min_support": 0}, "min_support must be >= 1"),
            ({"min_support": -3}, "min_support must be >= 1"),
            ({"embedding_budget": 0}, "embedding_budget must be >= 1"),
        ],
    )
    def test_nonsense_knobs_rejected(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            MinerConfig(**knobs)

    def test_smallest_valid_bounds_accepted(self, toy_graph):
        config = MinerConfig(
            max_nodes=2, max_edges=1, min_support=1, embedding_budget=1
        )
        result = GramiMiner(config).mine(toy_graph)
        assert result.patterns
        assert all(m.size == 2 and m.num_edges == 1 for m in result.patterns)

    def test_index_build_rejects_max_nodes_1(self, tmp_path, capsys):
        from repro.cli import main

        target = tmp_path / "idx"
        assert main(["index", "build", "--max-nodes", "1", "--out", str(target)]) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["[index] invalid miner settings: max_nodes must be >= 2, got 1"]
        assert not target.exists()


class TestPaperFilters:
    def test_symmetric_anchor_pattern_passes(self, toy_metagraphs):
        assert passes_paper_filters(toy_metagraphs["M1"])
        assert passes_paper_filters(toy_metagraphs["M3"])

    def test_single_user_fails(self):
        assert not passes_paper_filters(metapath("user", "school"))

    def test_all_users_fails(self):
        m = metapath("user", "user", "user")
        assert not passes_paper_filters(m)

    def test_asymmetric_fails(self):
        m = Metagraph(
            ["user", "school", "user", "hobby"],
            [(0, 1), (1, 2), (2, 3)],
        )
        # users are NOT at symmetric positions (one has a hobby side)
        assert not passes_paper_filters(m)

    def test_oversized_fails(self):
        m = metapath("user", "hobby", "user", "hobby", "user", name="big")
        assert passes_paper_filters(m, max_nodes=5)
        assert not passes_paper_filters(m, max_nodes=4)

    def test_anchor_type_parameter(self):
        m = metapath("hobby", "user", "hobby")
        assert not passes_paper_filters(m, anchor_type="user")
        assert passes_paper_filters(m, anchor_type="hobby")

    def test_filter_metagraphs(self, toy_metagraphs):
        kept = filter_metagraphs(toy_metagraphs.values())
        assert len(kept) == 4  # all of M1-M4 qualify

    def test_build_catalog_dedupes(self, toy_metagraphs):
        doubled = list(toy_metagraphs.values()) * 2
        catalog = build_catalog(doubled)
        assert len(catalog) == 4


class TestMineCatalog:
    def test_end_to_end_toy(self, toy_graph, toy_metagraphs):
        catalog = mine_catalog(
            toy_graph, MinerConfig(max_nodes=4, min_support=2)
        )
        assert len(catalog) > 0
        assert toy_metagraphs["M1"] in catalog
        assert toy_metagraphs["M3"] in catalog
        # metapath seeds exist
        assert catalog.metapath_ids()

    def test_catalog_members_all_pass_filters(self, toy_graph):
        catalog = mine_catalog(
            toy_graph, MinerConfig(max_nodes=4, min_support=2)
        )
        assert all(passes_paper_filters(m, max_nodes=4) for m in catalog)


@pytest.mark.parametrize("max_nodes", [2, 3])
def test_miner_respects_max_nodes(toy_graph, max_nodes):
    result = GramiMiner(MinerConfig(max_nodes=max_nodes, min_support=1)).mine(
        toy_graph
    )
    assert all(m.size <= max_nodes for m in result.patterns)
