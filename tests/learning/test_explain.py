"""Tests for proximity explanations (Fig. 1(b)'s explanation column)."""

import numpy as np
import pytest

from repro.index.vectors import build_vectors
from repro.learning.model import ProximityModel
from repro.metagraph.catalog import MetagraphCatalog
from tests.oracles import ScalarModel


@pytest.fixture
def model(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, _ = build_vectors(toy_graph, catalog)
    return catalog, ProximityModel(np.ones(4), vectors)


class TestExplain:
    def test_contributions_sum_to_proximity(self, model):
        _catalog, m = model
        for x, y in [("Kate", "Alice"), ("Bob", "Alice"), ("Kate", "Jay")]:
            contributions = m.explain(x, y, k=10)
            total = sum(c for _i, c in contributions)
            assert total == pytest.approx(m.proximity(x, y), abs=1e-12)
            # and each summand is the dict-walking oracle's
            assert dict(contributions) == pytest.approx(
                ScalarModel.like(m).explain(x, y), abs=1e-12
            )

    def test_family_pair_explained_by_family_metagraphs(self, model):
        catalog, m = model
        contributions = m.explain("Bob", "Alice", k=10)
        explained_types = {
            t for mg_id, _c in contributions for t in catalog[mg_id].types
        }
        # Bob-Alice share surname+address (M4) and address (M3)
        assert "surname" in explained_types
        assert "address" in explained_types

    def test_sorted_descending(self, model):
        _catalog, m = model
        contributions = m.explain("Kate", "Alice", k=10)
        values = [c for _i, c in contributions]
        assert values == sorted(values, reverse=True)

    def test_self_pair_empty(self, model):
        _catalog, m = model
        assert m.explain("Kate", "Kate") == []

    def test_unrelated_pair_empty_or_zero(self, model):
        _catalog, m = model
        assert m.explain("Alice", "Tom") == []

    def test_k_truncates(self, model):
        _catalog, m = model
        assert len(m.explain("Bob", "Alice", k=1)) == 1

    def test_zero_weight_excluded(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog)
        m4_only = np.zeros(4)
        m4_only[catalog.id_of(toy_metagraphs["M4"])] = 1.0
        model = ProximityModel(m4_only, vectors)
        contributions = model.explain("Bob", "Alice", k=10)
        assert len(contributions) == 1  # only M4 contributes
