"""Tests for the objective, trainer, examples, and ProximityModel."""

import numpy as np
import pytest

from repro.exceptions import LearningError, TrainingDataError
from repro.index.parallel import build_index
from repro.learning.examples import generate_triplets
from repro.learning.model import (
    ProximityModel,
    restrict_weights,
    single_metagraph_model,
    uniform_model,
)
from repro.learning.objective import (
    TripletMatrices,
    example_probabilities,
    log_likelihood,
    log_likelihood_gradient,
)
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from tests.oracles import triplet_rows

USERS = ["Alice", "Bob", "Kate", "Jay", "Tom"]


@pytest.fixture
def toy_setup(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, _ = build_index(toy_graph, catalog)
    return catalog, vectors


# family class: Bob<->Alice
FAMILY_TRIPLETS = [
    ("Bob", "Alice", "Tom"),
    ("Bob", "Alice", "Kate"),
    ("Bob", "Alice", "Jay"),
    ("Alice", "Bob", "Tom"),
    ("Alice", "Bob", "Jay"),
]

# classmate class: Bob<->Tom, Kate<->Jay
CLASSMATE_TRIPLETS = [
    ("Bob", "Tom", "Alice"),
    ("Bob", "Tom", "Kate"),
    ("Kate", "Jay", "Alice"),
    ("Kate", "Jay", "Tom"),
    ("Jay", "Kate", "Bob"),
]


class TestTripletMatrices:
    def test_shapes(self, toy_setup):
        _catalog, vectors = toy_setup
        matrices = TripletMatrices(FAMILY_TRIPLETS, vectors, [0, 1, 2, 3])
        assert matrices.m_qx.shape == (5, 4)
        assert matrices.num_triplets == 5
        assert matrices.dim == 4

    def test_active_subset(self, toy_setup):
        _catalog, vectors = toy_setup
        matrices = TripletMatrices(FAMILY_TRIPLETS, vectors, [1, 3])
        assert matrices.dim == 2

    def test_empty_triplets_rejected(self, toy_setup):
        _catalog, vectors = toy_setup
        with pytest.raises(TrainingDataError):
            TripletMatrices([], vectors, [0])

    def test_empty_active_rejected(self, toy_setup):
        _catalog, vectors = toy_setup
        with pytest.raises(TrainingDataError):
            TripletMatrices(FAMILY_TRIPLETS, vectors, [])

    def test_degenerate_triplet_rejected(self, toy_setup):
        _catalog, vectors = toy_setup
        with pytest.raises(TrainingDataError):
            TripletMatrices([("Bob", "Bob", "Tom")], vectors, [0])

    def test_duplicate_active_ids_rejected(self, toy_setup):
        _catalog, vectors = toy_setup
        with pytest.raises(TrainingDataError):
            TripletMatrices(FAMILY_TRIPLETS, vectors, [0, 0])

    @pytest.mark.parametrize(
        "matched, active",
        [
            (None, [0, 1, 2, 3]),  # the full store
            (None, [1, 3]),
            # a partial store, as dual-stage's seed stage trains on
            ([0, 2], [0, 2]),
            ([0, 2], [2]),
        ],
    )
    def test_compiled_rows_equal_dict_rows(
        self, toy_graph, toy_metagraphs, matched, active
    ):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog, mg_ids=matched)
        # "Zoe" has no counts at all: every stack gets a zero row for her
        triplets = FAMILY_TRIPLETS + CLASSMATE_TRIPLETS + [
            ("Bob", "Alice", "Zoe"),
            ("Zoe", "Bob", "Alice"),
        ]
        matrices = TripletMatrices(triplets, vectors, active)
        for name, expected in triplet_rows(triplets, vectors, active).items():
            stack = getattr(matrices, name)
            assert stack.dtype == expected.dtype
            assert np.array_equal(stack, expected), name
        assert not matrices.m_y[-2].any() and not matrices.m_qx[-1].any()

    def test_expand(self, toy_setup):
        _catalog, vectors = toy_setup
        matrices = TripletMatrices(FAMILY_TRIPLETS, vectors, [1, 3])
        full = matrices.expand(np.array([0.5, 0.9]), 4)
        assert list(full) == [0.0, 0.5, 0.0, 0.9]


class TestObjective:
    def test_probabilities_in_unit_interval(self, toy_setup):
        _catalog, vectors = toy_setup
        matrices = TripletMatrices(FAMILY_TRIPLETS, vectors, range(4))
        probs = example_probabilities(matrices, np.ones(4), mu=5.0)
        assert np.all(probs > 0) and np.all(probs < 1)

    def test_likelihood_increases_along_gradient(self, toy_setup):
        _catalog, vectors = toy_setup
        matrices = TripletMatrices(FAMILY_TRIPLETS, vectors, range(4))
        w = np.full(4, 0.5)
        base = log_likelihood(matrices, w, mu=5.0)
        grad = log_likelihood_gradient(matrices, w, mu=5.0)
        stepped = log_likelihood(matrices, np.clip(w + 1e-3 * grad, 0, 1), mu=5.0)
        assert stepped >= base

    def test_gradient_finite_difference(self, toy_setup):
        _catalog, vectors = toy_setup
        matrices = TripletMatrices(FAMILY_TRIPLETS, vectors, range(4))
        w = np.array([0.3, 0.6, 0.4, 0.8])
        grad = log_likelihood_gradient(matrices, w, mu=5.0)
        eps = 1e-6
        for i in range(4):
            hi, lo = w.copy(), w.copy()
            hi[i] += eps
            lo[i] -= eps
            numeric = (
                log_likelihood(matrices, hi, 5.0)
                - log_likelihood(matrices, lo, 5.0)
            ) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, abs=1e-4)


class TestTrainer:
    def test_family_training_upweights_m4(self, toy_setup, toy_metagraphs):
        catalog, vectors = toy_setup
        trainer = Trainer(TrainerConfig(restarts=3, max_iterations=400, seed=1))
        weights = trainer.train(FAMILY_TRIPLETS, vectors)
        m4_id = catalog.id_of(toy_metagraphs["M4"])
        m1_id = catalog.id_of(toy_metagraphs["M1"])
        # the family-characteristic metagraphs must dominate classmate ones
        assert weights[m4_id] > weights[m1_id]

    def test_classmate_training_upweights_m1(self, toy_setup, toy_metagraphs):
        catalog, vectors = toy_setup
        trainer = Trainer(TrainerConfig(restarts=3, max_iterations=400, seed=1))
        weights = trainer.train(CLASSMATE_TRIPLETS, vectors)
        m1_id = catalog.id_of(toy_metagraphs["M1"])
        m4_id = catalog.id_of(toy_metagraphs["M4"])
        assert weights[m1_id] > weights[m4_id]

    def test_weights_in_unit_box(self, toy_setup):
        _catalog, vectors = toy_setup
        weights = Trainer(TrainerConfig(restarts=2, max_iterations=200)).train(
            FAMILY_TRIPLETS, vectors
        )
        assert np.all(weights >= 0) and np.all(weights <= 1)

    def test_active_subset_zeroes_inactive(self, toy_setup):
        _catalog, vectors = toy_setup
        trainer = Trainer(TrainerConfig(restarts=1, max_iterations=100))
        weights = trainer.train(FAMILY_TRIPLETS, vectors, active_ids=[0, 2])
        assert weights[1] == 0.0 and weights[3] == 0.0

    def test_deterministic_given_seed(self, toy_setup):
        _catalog, vectors = toy_setup
        cfg = TrainerConfig(restarts=2, max_iterations=150, seed=42)
        w1 = Trainer(cfg).train(FAMILY_TRIPLETS, vectors)
        w2 = Trainer(cfg).train(FAMILY_TRIPLETS, vectors)
        assert np.array_equal(w1, w2)

    def test_last_run_diagnostics(self, toy_setup):
        _catalog, vectors = toy_setup
        trainer = Trainer(TrainerConfig(restarts=1, max_iterations=100))
        trainer.train(FAMILY_TRIPLETS, vectors)
        run = trainer.last_run
        assert run is not None
        assert run.iterations >= 1
        assert run.history  # log-likelihood trace kept
        assert run.history[-1] >= run.history[0]

    def test_empty_store_raises(self, toy_setup):
        from repro.index.vectors import MetagraphVectors

        empty = MetagraphVectors(4)
        with pytest.raises(TrainingDataError):
            Trainer().train(FAMILY_TRIPLETS, empty)


class TestExamples:
    def test_generate_shapes(self):
        labels = {"q1": frozenset({"a"}), "q2": frozenset({"b"})}
        triplets = generate_triplets(
            ["q1", "q2"], labels, ["a", "b", "c", "d"], num_examples=20, seed=0
        )
        assert len(triplets) == 20
        for q, x, y in triplets:
            assert x in labels[q]
            assert y not in labels[q] and y != q

    def test_deterministic(self):
        labels = {"q": frozenset({"a"})}
        args = (["q"], labels, ["a", "b", "c"], 10)
        assert generate_triplets(*args, seed=3) == generate_triplets(*args, seed=3)
        assert generate_triplets(*args, seed=3) != generate_triplets(*args, seed=4)

    def test_query_without_positives_skipped(self):
        labels = {"q1": frozenset(), "q2": frozenset({"a"})}
        triplets = generate_triplets(
            ["q1", "q2"], labels, ["a", "b"], num_examples=5, seed=0
        )
        assert all(q == "q2" for q, _x, _y in triplets)

    def test_no_usable_queries_raises(self):
        with pytest.raises(TrainingDataError):
            generate_triplets(["q"], {"q": frozenset()}, ["a"], 5)

    def test_nonpositive_count_raises(self):
        with pytest.raises(TrainingDataError):
            generate_triplets(["q"], {"q": frozenset({"a"})}, ["a", "b"], 0)


class TestProximityModel:
    def test_rank_family_query(self, toy_setup, toy_metagraphs):
        catalog, vectors = toy_setup
        m4_id = catalog.id_of(toy_metagraphs["M4"])
        w = np.zeros(4)
        w[m4_id] = 1.0
        model = ProximityModel(w, vectors, name="family")
        ranking = model.rank("Bob", universe=USERS)
        assert ranking[0][0] == "Alice"
        assert len(ranking) == 4  # everyone but the query

    def test_rank_without_universe_only_partners(self, toy_setup):
        _catalog, vectors = toy_setup
        model = uniform_model(vectors)
        ranking = model.rank("Tom")
        assert all(score > 0 for _n, score in ranking)

    def test_rank_top_k(self, toy_setup):
        _catalog, vectors = toy_setup
        model = uniform_model(vectors)
        assert len(model.rank("Bob", universe=USERS, k=2)) == 2

    def test_negative_weights_rejected(self, toy_setup):
        _catalog, vectors = toy_setup
        # NaN passes a bare `weights < 0` test and inf makes the
        # kernel divide inf by inf: neither is a weight vector
        for bad in ([-1.0, 0, 0, 0], [np.nan, 1.0, 0, 0], [np.inf, 1.0, 0, 0]):
            with pytest.raises(LearningError):
                ProximityModel(np.array(bad), vectors)

    def test_wrong_length_rejected(self, toy_setup):
        _catalog, vectors = toy_setup
        with pytest.raises(LearningError):
            ProximityModel(np.ones(3), vectors)

    def test_top_metagraphs(self, toy_setup):
        _catalog, vectors = toy_setup
        model = ProximityModel(np.array([0.1, 0.9, 0.5, 0.0]), vectors)
        top = model.top_metagraphs(k=2)
        assert top[0] == (1, 0.9)
        assert top[1] == (2, 0.5)

    def test_weight_persistence(self, toy_setup, tmp_path):
        from repro.index.persist import load_index, save_index

        catalog, vectors = toy_setup
        model = ProximityModel(np.array([0.1, 0.9, 0.5, 0.0]), vectors, name="c")
        save_index(tmp_path / "s", vectors, catalog, models={"c": model.weights})
        loaded = load_index(tmp_path / "s")
        assert np.array_equal(loaded.models["c"], model.weights)

    def test_non_finite_weights_never_persist(self, toy_setup, tmp_path):
        import json

        from repro.exceptions import SnapshotError
        from repro.index import persist

        catalog, vectors = toy_setup
        for bad in (np.array([np.nan, 1.0, 0, 0]), np.array([np.inf, 1.0, 0, 0])):
            with pytest.raises(SnapshotError, match="not finite"):
                persist.save_index(
                    tmp_path / "refused", vectors, catalog, models={"c": bad}
                )
        # a snapshot that carries one anyway (written by other means,
        # digests consistent) is refused on the way in too
        target = persist.save_index(
            tmp_path / "s", vectors, catalog, models={"c": np.ones(4)}
        )
        manifest = json.loads((target / persist.MANIFEST_FILE).read_text())
        manifest["models"]["c"] = [np.inf, 1.0, 0.0, 0.0]
        del manifest["manifest_sha256"]
        manifest["manifest_sha256"] = persist._manifest_digest(manifest)
        (target / persist.MANIFEST_FILE).write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="not finite"):
            persist.load_index(target)

    def test_uniform_model(self, toy_setup):
        _catalog, vectors = toy_setup
        model = uniform_model(vectors)
        assert np.array_equal(model.weights, np.ones(4))

    def test_single_metagraph_model(self, toy_setup):
        _catalog, vectors = toy_setup
        model = single_metagraph_model(vectors, 2)
        assert model.weights[2] == 1.0
        assert model.weights.sum() == 1.0

    def test_restrict_weights(self):
        w = np.array([0.5, 0.6, 0.7])
        restricted = restrict_weights(w, [1])
        assert list(restricted) == [0.0, 0.6, 0.0]
        assert list(w) == [0.5, 0.6, 0.7]  # original untouched


class TestPinnedWeights:
    """Trained weights, pinned to the bytes the dict-backed store produced.

    The trainer's triplet stacks now come from compiled CSR rows; the
    values are the same ``transform(count)`` float64s, so gradient
    ascent must land on the identical vector.  Digests were computed at
    the commit before the dict vectors were deleted.
    """

    TOY = {
        "classmates": "41e57a811ac9776a5931d1ac2f1f354df344c042329b13e20b4b516db8b78410",
        "close friends": "2aaa85682f3960580ee218acd787a01541935d7ce01cd255143af188300329f9",
        "family": "c2678240d4475ab3b5f7904bbe2a167b44f4282b8ac4cf80b7e7b87ee210b2b5",
    }
    QUICK_LINKEDIN = {
        "college": "01a565e5cd527579bb8487f6fb69f15ee5f13f0bcff5b06637a0148cd1ea641a",
        "coworker": "6234231fb909fb322302874ca351cd17de9ca318994329edc515470a41756af7",
    }

    @staticmethod
    def digests(engine, dataset, num_examples):
        import hashlib

        return {
            name: hashlib.sha256(
                engine.fit(
                    name,
                    labels=dataset.class_labels(name),
                    num_examples=num_examples,
                ).weights.tobytes()
            ).hexdigest()
            for name in sorted(dataset.classes)
        }

    def test_toy(self):
        from repro import SemanticProximitySearch
        from repro.datasets.toy import toy_dataset, toy_metagraphs

        dataset = toy_dataset()
        engine = SemanticProximitySearch(
            dataset.graph,
            trainer_config=TrainerConfig(restarts=2, max_iterations=300, seed=0),
        )
        engine.prepare(
            catalog=MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
        )
        assert self.digests(engine, dataset, 40) == self.TOY

    def test_quick_linkedin(self):
        from repro import SemanticProximitySearch
        from repro.datasets import load_dataset
        from repro.experiments.config import QUICK_CONFIG as cfg

        dataset = load_dataset("linkedin", scale=cfg.scale)
        engine = SemanticProximitySearch(
            dataset.graph,
            miner_config=cfg.miner_config("linkedin"),
            trainer_config=TrainerConfig(
                restarts=cfg.trainer_restarts,
                max_iterations=cfg.trainer_max_iterations,
                seed=0,
            ),
        )
        engine.prepare()
        assert self.digests(engine, dataset, 50) == self.QUICK_LINKEDIN
