"""The offline builder: exactness, configuration and staged builds."""

import pytest

from repro.exceptions import CatalogMismatchError
from repro.index.parallel import IndexBuildConfig, build_index
from repro.matching import SymISOMatcher
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from tests.conftest import random_typed_graph
from tests.index.test_delta import assert_same_compiled
from tests.oracles import assert_counts_match_engine, ledger

def assert_stores_equal(actual, expected):
    assert ledger(actual)[0] == ledger(expected)[0]
    assert ledger(actual)[1] == ledger(expected)[1]
    assert actual.matched_ids == expected.matched_ids


def assert_builds_equal(actual, expected):
    """Same ledger, same compiled snapshot (dtypes included), same |I(M)|."""
    (vectors, index), (ref_vectors, ref_index) = actual, expected
    assert_stores_equal(vectors, ref_vectors)
    assert_same_compiled(vectors.compile(), ref_vectors.compile())
    assert index.matched_ids() == ref_index.matched_ids()
    for mg_id in ref_index.matched_ids():
        assert index.num_instances(mg_id) == ref_index.num_instances(mg_id)


@pytest.fixture
def catalog(toy_metagraphs):
    # M1/M2/M4 are 4-node symmetric squares; user-school has no
    # symmetric anchor pair, so only its |I(M)| is counted
    return MetagraphCatalog(
        [*toy_metagraphs.values(), metapath("user", "school")],
        anchor_type="user",
    )


def no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


class TestBuildIndex:
    def test_workers_1_is_sequential_reference(self, toy_graph, catalog, monkeypatch):
        # one worker maps the tasks in-process: no pool is ever started
        monkeypatch.setattr("repro.index.parallel.ProcessPoolExecutor", no_pool)
        built, index = build_index(toy_graph, catalog, IndexBuildConfig(workers=1))
        assert index.matched_ids() == frozenset(catalog.ids())
        assert_counts_match_engine(built, index, toy_graph, catalog, SymISOMatcher())

    @pytest.mark.parametrize("workers", [2, 4])
    def test_pool_matches_sequential(self, toy_graph, catalog, workers):
        sequential = build_index(toy_graph, catalog)
        pooled = build_index(toy_graph, catalog, IndexBuildConfig(workers=workers))
        assert_builds_equal(pooled, sequential)
        assert_counts_match_engine(*pooled, toy_graph, catalog, SymISOMatcher())

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
        sequential, _ = build_index(graph, catalog)
        built, _ = build_index(graph, catalog, IndexBuildConfig(workers=2))
        assert_stores_equal(built, sequential)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_worker_count_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            IndexBuildConfig(workers=workers)

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


class TestStagedBuild:
    """Dual-stage training's use: match a subset, then extend in place."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_staged_equals_one_shot(self, toy_graph, catalog, workers):
        config = IndexBuildConfig(workers=workers)
        first, second = [3, 1], [1, 4, 0]  # overlapping, unsorted
        vectors, index = build_index(toy_graph, catalog, config, mg_ids=first)
        staged = build_index(
            toy_graph, catalog, config, mg_ids=second, vectors=vectors, index=index
        )
        assert staged == (vectors, index)  # extended in place
        one_shot = build_index(
            toy_graph, catalog, config, mg_ids=sorted(set(first) | set(second))
        )
        assert_builds_equal(staged, one_shot)

    def test_ids_fold_ascending_and_duplicates_collapse(self, toy_graph, catalog):
        seen: list[int] = []
        vectors, _ = build_index(
            toy_graph, catalog, mg_ids=[4, 2, 4, 0, 2],
            on_metagraph=lambda mg_id, _sec: seen.append(mg_id),
        )
        assert seen == [0, 2, 4]
        assert vectors.matched_ids == frozenset({0, 2, 4})

    @pytest.mark.parametrize("bad", [-1, 5])
    def test_out_of_range_id_raises_before_matching(
        self, toy_graph, catalog, monkeypatch, bad
    ):
        # -1 must not wrap around to the last metagraph, and neither id
        # may cost a match before the typed error
        def no_match(*args, **kwargs):
            raise AssertionError("matched before validating the ids")

        monkeypatch.setattr("repro.index.parallel.compiled_match_and_count", no_match)
        with pytest.raises(CatalogMismatchError, match=rf"\[{bad}\]"):
            build_index(toy_graph, catalog, mg_ids=[0, bad])

    def test_vectors_without_index_rejected(self, toy_graph, catalog):
        vectors, index = build_index(toy_graph, catalog, mg_ids=[0])
        with pytest.raises(CatalogMismatchError, match="together"):
            build_index(toy_graph, catalog, mg_ids=[0, 1], vectors=vectors)
        with pytest.raises(CatalogMismatchError, match="together"):
            build_index(toy_graph, catalog, mg_ids=[0, 1], index=index)
        assert vectors.matched_ids == index.matched_ids() == frozenset({0})

    def test_disagreeing_vectors_and_index_rejected(self, toy_graph, catalog):
        vectors, _ = build_index(toy_graph, catalog, mg_ids=[1])
        _, index = build_index(toy_graph, catalog, mg_ids=[0])
        with pytest.raises(CatalogMismatchError, match="index records"):
            build_index(
                toy_graph, catalog, mg_ids=[0, 1, 2], vectors=vectors, index=index
            )
        assert vectors.matched_ids == frozenset({1})
        assert index.matched_ids() == frozenset({0})
