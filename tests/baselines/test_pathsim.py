"""Tests for the PathSim reference baseline."""

import pytest

from repro.baselines.pathsim import pathsim_model, select_pathsim
from repro.exceptions import LearningError
from repro.index.parallel import build_index
from repro.index.vectors import MetagraphVectors
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath

USERS = ["Alice", "Bob", "Kate", "Jay", "Tom"]


@pytest.fixture
def setup(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, _ = build_index(toy_graph, catalog)
    return catalog, vectors


class TestPathsimModel:
    def test_manual_metapath(self, setup):
        catalog, vectors = setup
        model = pathsim_model(catalog, vectors, metapath("user", "address", "user"))
        # Alice-123GreenSt-Bob: proximity 1 (one shared address each side)
        assert model.proximity("Alice", "Bob") == pytest.approx(1.0)
        assert model.proximity("Alice", "Tom") == 0.0

    def test_non_path_rejected(self, setup, toy_metagraphs):
        catalog, vectors = setup
        with pytest.raises(LearningError):
            pathsim_model(catalog, vectors, toy_metagraphs["M1"])

    def test_unknown_path_rejected(self, setup):
        catalog, vectors = setup
        from repro.exceptions import MetagraphError

        with pytest.raises(MetagraphError):
            pathsim_model(catalog, vectors, metapath("user", "planet", "user"))


class TestSelectPathsim:
    def test_selects_discriminative_path(self, setup):
        catalog, vectors = setup
        # toy catalog has one metapath: M3 (user-address-user)
        labels = {"Bob": frozenset({"Alice"}), "Alice": frozenset({"Bob"})}
        model = select_pathsim(catalog, vectors, ["Bob"], labels, USERS)
        m3_id = catalog.metapath_ids()[0]
        assert model.weights[m3_id] == 1.0

    def test_empty_matched_paths_raises(self, setup):
        catalog, _vectors = setup
        empty = MetagraphVectors(len(catalog))
        with pytest.raises(LearningError):
            select_pathsim(catalog, empty, [], {}, USERS)
