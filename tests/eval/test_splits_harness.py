"""Tests for query splits and the evaluation harness."""

import pytest

from repro.exceptions import DatasetError
from repro.eval.harness import (
    EvalResult,
    average_results,
    evaluate_ranker,
    model_ranker,
)
from repro.eval.splits import split_queries


class TestSplits:
    QUERIES = [f"q{i}" for i in range(20)]

    def test_paper_protocol_shape(self):
        splits = split_queries(self.QUERIES, 0.2, num_splits=10, seed=0)
        assert len(splits) == 10
        for split in splits:
            assert len(split.train) == 4
            assert len(split.test) == 16
            assert not set(split.train) & set(split.test)
            assert set(split.train) | set(split.test) == set(self.QUERIES)

    def test_deterministic(self):
        a = split_queries(self.QUERIES, 0.2, 5, seed=1)
        b = split_queries(self.QUERIES, 0.2, 5, seed=1)
        assert a == b

    def test_different_seeds_differ(self):
        a = split_queries(self.QUERIES, 0.2, 5, seed=1)
        b = split_queries(self.QUERIES, 0.2, 5, seed=2)
        assert a != b

    def test_minimum_one_train(self):
        splits = split_queries(["a", "b"], 0.2, 1, seed=0)
        assert len(splits[0].train) == 1
        assert len(splits[0].test) == 1

    def test_empty_rejected(self):
        with pytest.raises(DatasetError):
            split_queries([], 0.2, 1)

    def test_bad_fraction_rejected(self):
        with pytest.raises(DatasetError):
            split_queries(["a"], 1.5, 1)

    def test_bad_count_rejected(self):
        with pytest.raises(DatasetError):
            split_queries(["a"], 0.2, 0)


class TestHarness:
    LABELS = {
        "q1": frozenset({"a", "b"}),
        "q2": frozenset({"c"}),
        "q3": frozenset(),  # no positives -> skipped
    }

    def test_perfect_ranker(self):
        def ranker(q):
            return sorted(self.LABELS[q]) + ["z1", "z2"]

        result = evaluate_ranker(ranker, ["q1", "q2", "q3"], self.LABELS)
        assert result.ndcg == pytest.approx(1.0)
        assert result.map == pytest.approx(1.0)
        assert result.num_queries == 2  # q3 skipped

    def test_awful_ranker(self):
        def ranker(_q):
            return [f"z{i}" for i in range(10)]

        result = evaluate_ranker(ranker, ["q1", "q2"], self.LABELS)
        assert result.ndcg == 0.0
        assert result.map == 0.0

    def test_query_not_counted_as_relevant_to_itself(self):
        labels = {"q": frozenset({"q", "a"})}

        def ranker(_q):
            return ["a"]

        result = evaluate_ranker(ranker, ["q"], labels)
        assert result.ndcg == pytest.approx(1.0)

    def test_average_results(self):
        pooled = average_results(
            [EvalResult(0.5, 0.4, 10), EvalResult(0.7, 0.6, 10)]
        )
        assert pooled.ndcg == pytest.approx(0.6)
        assert pooled.map == pytest.approx(0.5)
        assert pooled.num_queries == 20

    def test_average_results_empty(self):
        assert average_results([]) == EvalResult(0.0, 0.0, 0)

    def test_add_weighted(self):
        combined = EvalResult(1.0, 1.0, 1) + EvalResult(0.0, 0.0, 3)
        assert combined.ndcg == pytest.approx(0.25)
        assert combined.num_queries == 4


class TestModelRanker:
    def test_adapts_proximity_model(self, toy_graph, toy_metagraphs):
        import numpy as np

        from repro.index.parallel import build_index
        from repro.learning.model import ProximityModel
        from repro.metagraph.catalog import MetagraphCatalog

        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog)
        model = ProximityModel(np.ones(4), vectors)
        users = ["Alice", "Bob", "Kate", "Jay", "Tom"]
        ranker = model_ranker(model, users)
        ranked = ranker("Bob")
        assert "Bob" not in ranked
        assert set(ranked) == set(users) - {"Bob"}
