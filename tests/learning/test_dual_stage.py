"""Tests for dual-stage training (Alg. 1) and the candidate heuristic."""

import hashlib

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.exceptions import LearningError
from repro.learning.dual_stage import (
    candidate_heuristic_scores,
    dual_stage_train,
    multi_stage_train,
    select_candidates,
)
from repro.learning.examples import generate_triplets
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from repro.mining import MinerConfig, mine_catalog


@pytest.fixture(scope="module")
def linkedin_setup():
    ds = load_dataset("linkedin", scale="tiny")
    catalog = mine_catalog(ds.graph, MinerConfig(max_nodes=4, min_support=3))
    labels = ds.class_labels("college")
    queries = ds.queries("college")[:12]
    triplets = generate_triplets(
        queries, labels, ds.universe, num_examples=80, seed=0
    )
    return ds, catalog, triplets


FAST_TRAINER = Trainer(TrainerConfig(restarts=2, max_iterations=200, seed=0))


class TestCandidateHeuristic:
    def test_scores_cover_non_seeds(self):
        catalog = MetagraphCatalog(
            [
                metapath("user", "school", "user"),
                Metagraph(
                    ["user", "school", "major", "user"],
                    [(0, 1), (0, 2), (3, 1), (3, 2)],
                ),
                Metagraph(
                    ["user", "employer", "hobby", "user"],
                    [(0, 1), (0, 2), (3, 1), (3, 2)],
                ),
            ],
            anchor_type="user",
        )
        seeds = catalog.metapath_ids()
        w0 = np.array([0.9, 0.0, 0.0])
        scores = candidate_heuristic_scores(catalog, seeds, w0)
        assert set(scores) == {1, 2}
        # the school square shares more structure with the school path
        assert scores[1] > scores[2]

    def test_zero_seed_weight_means_zero_scores(self):
        catalog = MetagraphCatalog(
            [
                metapath("user", "school", "user"),
                Metagraph(
                    ["user", "school", "major", "user"],
                    [(0, 1), (0, 2), (3, 1), (3, 2)],
                ),
            ],
            anchor_type="user",
        )
        scores = candidate_heuristic_scores(
            catalog, catalog.metapath_ids(), np.zeros(2)
        )
        assert scores[1] == 0.0

    def test_select_top(self):
        scores = {1: 0.9, 2: 0.5, 3: 0.7}
        assert select_candidates(scores, 2) == [1, 3]

    def test_select_reverse(self):
        scores = {1: 0.9, 2: 0.5, 3: 0.7}
        assert select_candidates(scores, 2, reverse=True) == [2, 3]

    def test_select_more_than_available(self):
        assert select_candidates({1: 0.5}, 10) == [1]


class TestDualStage:
    def test_alg1_end_to_end(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        result = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=5, trainer=FAST_TRAINER
        )
        assert set(result.seed_ids) == set(catalog.metapath_ids())
        assert len(result.candidate_ids) == min(
            5, len(catalog) - len(result.seed_ids)
        )
        # only matched metagraphs may carry weight
        unmatched = set(catalog.ids()) - set(result.matched_ids)
        assert all(result.weights[i] == 0.0 for i in unmatched)
        assert result.total_match_seconds > 0

    def test_matches_far_fewer_than_catalog(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        result = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=3, trainer=FAST_TRAINER
        )
        assert len(result.matched_ids) < len(catalog)

    def test_college_metapath_gets_high_seed_weight(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        result = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=3, trainer=FAST_TRAINER
        )
        ucu = metapath("user", "college", "user")
        ueu = metapath("user", "location", "user")
        ucu_id = catalog.id_of(ucu)
        ueu_id = catalog.id_of(ueu)
        assert result.seed_weights[ucu_id] > result.seed_weights[ueu_id]

    def test_reverse_heuristic_selects_different_candidates(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        ch = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=3, trainer=FAST_TRAINER
        )
        rch = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=3,
            trainer=FAST_TRAINER, reverse_heuristic=True,
        )
        assert set(ch.candidate_ids) != set(rch.candidate_ids)

    def test_zero_candidates_seeds_only(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        result = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=0, trainer=FAST_TRAINER
        )
        assert result.candidate_ids == ()
        assert set(result.matched_ids) == set(catalog.metapath_ids())

    def test_no_metapaths_raises(self, linkedin_setup):
        ds, _catalog, triplets = linkedin_setup
        square_only = MetagraphCatalog(
            [
                Metagraph(
                    ["user", "college", "employer", "user"],
                    [(0, 1), (0, 2), (3, 1), (3, 2)],
                )
            ],
            anchor_type="user",
        )
        with pytest.raises(LearningError):
            dual_stage_train(ds.graph, square_only, triplets, 1)


class TestMultiStage:
    def test_stops_on_callback(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        stages_seen = []

        def stop(_weights, stage):
            stages_seen.append(stage)
            return stage >= 2

        result = multi_stage_train(
            ds.graph, catalog, triplets, batch_size=2, max_stages=5,
            stop=stop, trainer=FAST_TRAINER,
        )
        assert max(stages_seen) == 2
        assert len(result.candidate_ids) == 4  # two stages of two
        assert len(set(result.candidate_ids)) == 4

    def test_exhausts_catalog_gracefully(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        result = multi_stage_train(
            ds.graph, catalog, triplets, batch_size=1000, max_stages=3,
            stop=lambda _w, _s: False, trainer=FAST_TRAINER,
        )
        assert set(result.matched_ids) == set(catalog.ids())


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()


class TestPinnedStagedOutputs:
    """Every number the staged trainers produce on ``linkedin_setup``.

    Each stage extends one store through the offline builder; the
    digests pin that matching a subset of ids, stage by stage, gives the
    same weights however the builder orders or batches the work.
    """

    SEED_WEIGHTS = "d12aeae94aacf42beb35a5fb53626edf372564db271e49281a888dcee1148561"

    @pytest.mark.parametrize(
        ("reverse", "weights", "candidates", "matched"),
        [
            (
                False,
                "4d386f9e14586783b8bcd36947d0d4c14a11862d955244ac489bbee9d6aeba53",
                (3, 6, 7, 4, 5),
                (0, 1, 2, 3, 4, 5, 6, 7),
            ),
            (
                True,
                "64dd66d8b349bdf3d377155a4ace87f03d2b1ad5150d2ac2d77debabf79fc6e6",
                (8, 5, 4, 7, 6),
                (0, 1, 2, 4, 5, 6, 7, 8),
            ),
        ],
        ids=["CH", "RCH"],
    )
    def test_dual_stage(self, linkedin_setup, reverse, weights, candidates, matched):
        ds, catalog, triplets = linkedin_setup
        result = dual_stage_train(
            ds.graph, catalog, triplets, num_candidates=5,
            trainer=FAST_TRAINER, reverse_heuristic=reverse,
        )
        assert _sha256(result.weights) == weights
        assert _sha256(result.seed_weights) == self.SEED_WEIGHTS
        assert result.candidate_ids == candidates
        assert result.matched_ids == matched

    def test_multi_stage(self, linkedin_setup):
        ds, catalog, triplets = linkedin_setup
        result = multi_stage_train(
            ds.graph, catalog, triplets, batch_size=2, max_stages=3,
            stop=lambda _w, _s: False, trainer=FAST_TRAINER,
        )
        assert _sha256(result.weights) == (
            "4d386f9e14586783b8bcd36947d0d4c14a11862d955244ac489bbee9d6aeba53"
        )
        assert _sha256(result.seed_weights) == self.SEED_WEIGHTS
        assert result.candidate_ids == (3, 6, 7, 4, 5, 8)
        assert result.matched_ids == tuple(range(9))
