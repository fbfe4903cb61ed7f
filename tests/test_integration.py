"""Cross-module integration tests: the full Fig. 3 pipeline.

These tests run mine -> match -> index -> learn -> rank end to end on
the tiny datasets and assert semantic outcomes (the planted structure is
recovered), not just types and shapes.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.eval.harness import evaluate_ranker, model_ranker
from repro.eval.splits import split_queries
from repro.index.persist import load_index, save_index
from repro.index.parallel import build_index
from repro.learning.dual_stage import dual_stage_train
from repro.learning.examples import generate_triplets
from repro.learning.model import ProximityModel
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.metagraph import Metagraph, metapath
from repro.mining import MinerConfig, mine_catalog

TRAINER = Trainer(TrainerConfig(restarts=3, max_iterations=400, seed=0))


@pytest.fixture(scope="module")
def linkedin():
    dataset = load_dataset("linkedin", scale="tiny")
    catalog = mine_catalog(dataset.graph, MinerConfig(max_nodes=4, min_support=3))
    vectors, index = build_index(dataset.graph, catalog)
    return dataset, catalog, vectors, index


@pytest.fixture(scope="module")
def facebook():
    dataset = load_dataset("facebook", scale="tiny")
    catalog = mine_catalog(dataset.graph, MinerConfig(max_nodes=4, min_support=3))
    vectors, index = build_index(dataset.graph, catalog)
    return dataset, catalog, vectors, index


def train_class(dataset, vectors, class_name, seed=0, num_examples=150):
    labels = dataset.class_labels(class_name)
    split = split_queries(dataset.queries(class_name), 0.2, 1, seed=seed)[0]
    triplets = generate_triplets(
        split.train, labels, dataset.universe, num_examples, seed=seed
    )
    weights = TRAINER.train(triplets, vectors)
    return weights, split, labels


class TestLinkedInPipeline:
    def test_learned_model_beats_uniform(self, linkedin):
        dataset, _catalog, vectors, _index = linkedin
        weights, split, labels = train_class(dataset, vectors, "college")
        learned = ProximityModel(weights, vectors)
        uniform = ProximityModel(
            np.ones(vectors.catalog_size), vectors
        )
        learned_eval = evaluate_ranker(
            model_ranker(learned, dataset.universe), split.test, labels
        )
        uniform_eval = evaluate_ranker(
            model_ranker(uniform, dataset.universe), split.test, labels
        )
        assert learned_eval.ndcg > uniform_eval.ndcg

    def test_college_class_weights_involve_college_type(self, linkedin):
        dataset, catalog, vectors, _index = linkedin
        weights, _split, _labels = train_class(dataset, vectors, "college")
        top_ids = np.argsort(-weights)[:3]
        assert any("college" in catalog[int(i)].types for i in top_ids)

    def test_different_classes_learn_different_weights(self, linkedin):
        dataset, catalog, vectors, _index = linkedin
        w_college, _s, _l = train_class(dataset, vectors, "college")
        w_coworker, _s, _l = train_class(dataset, vectors, "coworker")
        # The college+employer square legitimately characterises BOTH
        # classes (it satisfies both conjunctive rules), so the argmax
        # may coincide; the class difference shows in how the weight
        # mass distributes over college-only vs employer-only shapes.
        def mass(weights, required_type: str) -> float:
            return sum(
                float(weights[i])
                for i in catalog.ids()
                if required_type in catalog[i].types
            )

        assert mass(w_college, "college") > 0
        assert mass(w_coworker, "employer") > 0
        # and the full vectors must not be (near-)identical
        assert not np.allclose(w_college, w_coworker, atol=0.05)

    def test_reasonable_absolute_accuracy(self, linkedin):
        dataset, _catalog, vectors, _index = linkedin
        weights, split, labels = train_class(dataset, vectors, "coworker")
        model = ProximityModel(weights, vectors)
        result = evaluate_ranker(
            model_ranker(model, dataset.universe), split.test, labels
        )
        assert result.ndcg > 0.5  # far above chance on planted data


class TestFacebookPipeline:
    def test_family_class_uses_surname(self, facebook):
        dataset, catalog, vectors, _index = facebook
        weights, _split, _labels = train_class(dataset, vectors, "family")
        top_ids = np.argsort(-weights)[:5]
        assert any("surname" in catalog[int(i)].types for i in top_ids)

    def test_classmate_class_uses_school(self, facebook):
        dataset, catalog, vectors, _index = facebook
        weights, _split, _labels = train_class(dataset, vectors, "classmate")
        top_ids = np.argsort(-weights)[:5]
        top_types = {t for i in top_ids for t in catalog[int(i)].types}
        assert top_types & {"school", "degree", "major"}


class TestDualStageMatchesFullTraining:
    def test_dual_stage_accuracy_close_to_full(self, linkedin):
        """Fig. 8's headline at test scale: small |K|, near-full accuracy."""
        dataset, catalog, vectors, _index = linkedin
        class_name = "college"
        labels = dataset.class_labels(class_name)
        split = split_queries(dataset.queries(class_name), 0.2, 1, seed=0)[0]
        triplets = generate_triplets(
            split.train, labels, dataset.universe, 150, seed=0
        )
        full_weights = TRAINER.train(triplets, vectors)
        full_eval = evaluate_ranker(
            model_ranker(ProximityModel(full_weights, vectors), dataset.universe),
            split.test, labels,
        )
        result = dual_stage_train(
            dataset.graph, catalog, triplets,
            num_candidates=max(2, len(catalog) // 3), trainer=TRAINER,
        )
        dual_eval = evaluate_ranker(
            model_ranker(
                ProximityModel(result.weights, result.vectors), dataset.universe
            ),
            split.test, labels,
        )
        assert dual_eval.ndcg >= full_eval.ndcg - 0.1
        assert len(result.matched_ids) < len(catalog)


class TestArtefactRoundTrip:
    def test_save_load_preserves_ranking(self, linkedin, tmp_path):
        dataset, catalog, vectors, _index = linkedin
        weights, split, _labels = train_class(dataset, vectors, "college")
        model = ProximityModel(weights, vectors, name="college")
        save_index(
            tmp_path / "snapshot", vectors, catalog,
            models={"college": model.weights},
        )
        loaded = load_index(tmp_path / "snapshot")
        restored = ProximityModel(
            loaded.models["college"], loaded.vectors, name="college"
        )
        query = split.test[0]
        assert restored.rank(query, k=10) == model.rank(query, k=10)


class TestMinedCatalogContainsExpectedShapes:
    def test_squares_present(self, linkedin):
        _dataset, catalog, _vectors, _index = linkedin
        square = Metagraph(
            ["user", "college", "location", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        assert square in catalog

    def test_metapaths_present(self, linkedin):
        _dataset, catalog, _vectors, _index = linkedin
        assert metapath("user", "college", "user") in catalog
        assert metapath("user", "employer", "user") in catalog
