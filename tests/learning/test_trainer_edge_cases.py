"""Edge-case tests for the gradient-ascent trainer."""

import numpy as np
import pytest

from repro.index.parallel import build_index
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog


@pytest.fixture
def vectors(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    store, _ = build_index(toy_graph, catalog)
    return store

TRIPLETS = [("Bob", "Alice", "Tom"), ("Alice", "Bob", "Kate")]


class TestOvershootHandling:
    def test_huge_learning_rate_still_converges(self, vectors):
        """The halving-on-overshoot loop must tame absurd learning rates."""
        trainer = Trainer(
            TrainerConfig(learning_rate=1e6, restarts=1, max_iterations=300)
        )
        weights = trainer.train(TRIPLETS, vectors)
        run = trainer.last_run
        assert run is not None
        # likelihood never decreased along the accepted steps
        assert all(
            b >= a - 1e-12 for a, b in zip(run.history, run.history[1:])
        )
        assert np.all((0 <= weights) & (weights <= 1))

    def test_tiny_learning_rate_flags_convergence(self, vectors):
        trainer = Trainer(
            TrainerConfig(learning_rate=1e-12, restarts=1, max_iterations=50)
        )
        trainer.train(TRIPLETS, vectors)
        assert trainer.last_run is not None
        # with a vanishing step the relative-change criterion fires fast
        assert trainer.last_run.converged

    def test_zero_max_iterations_returns_initial(self, vectors):
        trainer = Trainer(TrainerConfig(restarts=1, max_iterations=0))
        weights = trainer.train(TRIPLETS, vectors)
        assert np.all((0 <= weights) & (weights <= 1))


class TestRestarts:
    def test_best_restart_kept(self, vectors):
        single = Trainer(TrainerConfig(restarts=1, max_iterations=200, seed=0))
        multi = Trainer(TrainerConfig(restarts=5, max_iterations=200, seed=0))
        single.train(TRIPLETS, vectors)
        multi.train(TRIPLETS, vectors)
        assert (
            multi.last_run.log_likelihood >= single.last_run.log_likelihood - 1e-9
        )

    def test_restart_count_reported(self, vectors):
        trainer = Trainer(TrainerConfig(restarts=3, max_iterations=50))
        trainer.train(TRIPLETS, vectors)
        assert trainer.last_run.restarts_run == 3


class TestDecaySchedule:
    def test_decay_changes_trajectory_not_correctness(self, vectors):
        fast_decay = Trainer(
            TrainerConfig(restarts=1, max_iterations=300, decay=0.5, decay_every=10)
        )
        no_decay = Trainer(
            TrainerConfig(restarts=1, max_iterations=300, decay=1.0, decay_every=10)
        )
        w1 = fast_decay.train(TRIPLETS, vectors)
        w2 = no_decay.train(TRIPLETS, vectors)
        for w in (w1, w2):
            assert np.all((0 <= w) & (w <= 1))
