"""Failure-injection tests: every subsystem must fail loudly and early.

The library's error contract: malformed inputs raise a typed exception
from :mod:`repro.exceptions` (never a bare KeyError/IndexError from deep
inside, never silent wrong answers).
"""

import numpy as np
import pytest

from repro.exceptions import (
    CatalogMismatchError,
    DatasetError,
    InvalidMetagraphError,
    LearningError,
    MetagraphError,
    ReproError,
    TrainingDataError,
)
from repro.index.instance_index import InstanceIndex
from repro.index.parallel import build_index
from repro.index.vectors import MetagraphVectors
from repro.learning.model import ProximityModel
from repro.learning.trainer import Trainer
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath


class TestExceptionHierarchy:
    def test_all_library_errors_are_repro_errors(self):
        for exc_type in (
            CatalogMismatchError,
            DatasetError,
            InvalidMetagraphError,
            LearningError,
            MetagraphError,
            TrainingDataError,
        ):
            assert issubclass(exc_type, ReproError)

    def test_dual_inheritance_for_value_errors(self):
        # callers catching stdlib ValueError still see our failures
        assert issubclass(InvalidMetagraphError, ValueError)
        assert issubclass(CatalogMismatchError, ValueError)


class TestCatalogMismatches:
    def test_vectors_reject_foreign_catalog(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog)
        smaller = catalog.subset([0, 1])
        with pytest.raises(CatalogMismatchError):
            vectors.verify_catalog(smaller)

    def test_build_index_rejects_stale_store(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        stale = MetagraphVectors(catalog_size=2)
        with pytest.raises(CatalogMismatchError, match="built against 2"):
            build_index(toy_graph, catalog, vectors=stale, index=InstanceIndex(2))

    def test_model_rejects_mismatched_weights(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog)
        with pytest.raises(LearningError):
            ProximityModel(np.ones(99), vectors)


class TestCatalogAbuse:
    def test_duplicate_member_rejected(self, toy_metagraphs):
        catalog = MetagraphCatalog([toy_metagraphs["M1"]])
        relabelled = toy_metagraphs["M1"].relabeled([3, 1, 2, 0])
        with pytest.raises(MetagraphError):
            catalog.add(relabelled)  # isomorphic duplicate

    def test_lookup_of_absent_member(self, toy_metagraphs):
        catalog = MetagraphCatalog([toy_metagraphs["M1"]])
        with pytest.raises(MetagraphError):
            catalog.id_of(toy_metagraphs["M2"])


class TestTrainingAbuse:
    def test_triplet_with_unknown_nodes_yields_zero_vectors(
        self, toy_graph, toy_metagraphs
    ):
        # unknown nodes are not an error (vectors are simply zero), but
        # training on only-unknown nodes must still converge harmlessly
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog)
        ghost_triplets = [("ghost1", "ghost2", "ghost3")] * 4
        weights = Trainer().train(ghost_triplets, vectors)
        assert np.all(weights >= 0)

    def test_empty_triplets(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog)
        with pytest.raises(TrainingDataError):
            Trainer().train([], vectors)


class TestMetagraphValidation:
    @pytest.mark.parametrize(
        "types,edges",
        [
            ([], []),
            (["user"], [(0, 0)]),
            (["user", "user"], [(0, 5)]),
            (["user", "user", "user"], [(0, 1)]),  # disconnected
            ([""], []),
        ],
    )
    def test_invalid_constructions(self, types, edges):
        with pytest.raises(InvalidMetagraphError):
            Metagraph(types, edges)

    def test_metapath_of_nothing(self):
        with pytest.raises(InvalidMetagraphError):
            metapath()
