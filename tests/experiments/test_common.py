"""Tests for the shared accuracy-experiment helpers."""

import numpy as np
import pytest

from repro.datasets.toy import toy_dataset, toy_metagraphs
from repro.experiments.common import (
    evaluate_weights,
    splits_for,
    triplets_for_split,
)
from repro.index.parallel import build_index
from repro.metagraph.catalog import MetagraphCatalog


@pytest.fixture(scope="module")
def setup():
    ds = toy_dataset()
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    vectors, _ = build_index(ds.graph, catalog)
    return ds, catalog, vectors


class TestSplitsFor:
    def test_paper_fraction(self, setup):
        ds, _catalog, _vectors = setup
        splits = splits_for(ds, "classmates", num_splits=3, seed=0)
        assert len(splits) == 3
        for split in splits:
            assert set(split.train) | set(split.test) == set(
                ds.queries("classmates")
            )

    def test_seeded(self, setup):
        ds, _c, _v = setup
        a = splits_for(ds, "classmates", 2, seed=5)
        b = splits_for(ds, "classmates", 2, seed=5)
        assert a == b


class TestTripletsForSplit:
    def test_triplets_use_train_queries_only(self, setup):
        ds, _c, _v = setup
        split = splits_for(ds, "classmates", 1, seed=0)[0]
        triplets = triplets_for_split(ds, "classmates", split, 20, seed=0)
        assert len(triplets) == 20
        train = set(split.train)
        assert all(q in train for q, _x, _y in triplets)

    def test_positives_are_class_members(self, setup):
        ds, _c, _v = setup
        labels = ds.class_labels("classmates")
        split = splits_for(ds, "classmates", 1, seed=0)[0]
        for q, x, y in triplets_for_split(ds, "classmates", split, 20, seed=0):
            assert x in labels[q]
            assert y not in labels[q]


class TestEvaluateWeights:
    def test_perfect_weights_score_high(self, setup):
        ds, catalog, vectors = setup
        m1_id = catalog.id_of(toy_metagraphs()["M1"])
        weights = np.zeros(len(catalog))
        weights[m1_id] = 1.0
        result = evaluate_weights(
            weights, vectors, ds, "classmates",
            test_queries=ds.queries("classmates"),
        )
        assert result.ndcg == pytest.approx(1.0)
        assert result.num_queries == 4

    def test_wrong_weights_score_low(self, setup):
        ds, catalog, vectors = setup
        m4_id = catalog.id_of(toy_metagraphs()["M4"])
        weights = np.zeros(len(catalog))
        weights[m4_id] = 1.0  # family metagraph, classmate queries
        result = evaluate_weights(
            weights, vectors, ds, "classmates",
            test_queries=ds.queries("classmates"),
        )
        # clearly below the perfect-weights score (ties at proximity 0
        # still land inside the top-10 on a 5-user graph, so the floor
        # is well above zero)
        assert result.ndcg < 0.8
        assert result.map < 0.6
