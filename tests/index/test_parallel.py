"""Parallel offline builder: exactness and configuration."""

import pytest

from repro.exceptions import MatchingError
from repro.index.parallel import IndexBuildConfig, build_index
from repro.index.vectors import build_vectors
from repro.matching import make_matcher
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from tests.conftest import random_typed_graph


def assert_stores_equal(actual, expected):
    assert actual._node == expected._node
    assert actual._pair == expected._pair
    assert actual.matched_ids == expected.matched_ids


class TestBuildIndex:
    @pytest.fixture
    def catalog(self, toy_metagraphs):
        # M1/M2/M4 are 4-node symmetric squares; user-school has no
        # symmetric anchor pair, so only its |I(M)| is counted
        return MetagraphCatalog(
            [*toy_metagraphs.values(), metapath("user", "school")],
            anchor_type="user",
        )

    def test_workers_1_is_sequential_reference(self, toy_graph, catalog):
        sequential, seq_index = build_vectors(toy_graph, catalog)
        built, index = build_index(toy_graph, catalog, IndexBuildConfig(workers=1))
        assert_stores_equal(built, sequential)
        assert index.matched_ids() == seq_index.matched_ids()

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_matches_sequential(self, toy_graph, catalog, workers):
        for matcher in ("compiled", "symiso"):
            sequential, seq_index = build_vectors(
                toy_graph, catalog, matcher=make_matcher(matcher)
            )
            built, index = build_index(
                toy_graph, catalog, IndexBuildConfig(workers=workers, matcher=matcher)
            )
            assert_stores_equal(built, sequential)
            assert index.matched_ids() == seq_index.matched_ids()
            for mg_id in seq_index.matched_ids():
                assert index.num_instances(mg_id) == seq_index.num_instances(mg_id)

    def test_pool_matches_sequential_on_random_graph(self):
        graph = random_typed_graph(3, num_users=10, num_attrs_per_type=3)
        catalog = MetagraphCatalog(
            [
                metapath("user", "school", "user"),
                metapath("user", "hobby", "user"),
                Metagraph(
                    ["user", "school", "hobby", "user"],
                    [(0, 1), (0, 2), (3, 1), (3, 2)],
                ),
                Metagraph(
                    ["user", "school", "employer", "user"],
                    [(0, 1), (0, 2), (3, 1), (3, 2)],
                ),
            ],
            anchor_type="user",
        )
        sequential, _ = build_vectors(graph, catalog)
        built, _ = build_index(graph, catalog, IndexBuildConfig(workers=2))
        assert_stores_equal(built, sequential)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            IndexBuildConfig(workers=workers)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unknown_matcher_fails_before_any_worker_starts(
        self, toy_graph, catalog, workers, monkeypatch
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("pool started for an unknown matcher")

        monkeypatch.setattr("repro.index.parallel.ProcessPoolExecutor", no_pool)
        with pytest.raises(MatchingError, match="unknown matcher 'nope'"):
            build_index(
                toy_graph, catalog, IndexBuildConfig(workers=workers, matcher="nope")
            )

    def test_per_metagraph_timings_reported(self, toy_graph, catalog):
        seconds: dict[int, float] = {}
        build_index(
            toy_graph,
            catalog,
            IndexBuildConfig(workers=2),
            on_metagraph=lambda mg_id, sec: seconds.__setitem__(mg_id, sec),
        )
        assert set(seconds) == set(catalog.ids())
        assert all(sec >= 0.0 for sec in seconds.values())
