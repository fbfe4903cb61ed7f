"""Tests for Fig. 11's per-size metagraph sampling and engine timing."""

from repro.experiments.fig11 import sample_by_size, time_engine
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath


def _catalog() -> MetagraphCatalog:
    return MetagraphCatalog(
        [
            metapath("user", "school", "user"),
            metapath("user", "hobby", "user"),
            metapath("user", "employer", "user"),
            Metagraph(
                ["user", "school", "major", "user"],
                [(0, 1), (0, 2), (3, 1), (3, 2)],
            ),
            metapath("user", "hobby", "user", "hobby", "user"),
        ],
        anchor_type="user",
    )


class TestSampleBySize:
    def test_buckets_by_node_count(self):
        samples = sample_by_size(_catalog(), per_size=8)
        assert set(samples) == {3, 4, 5}
        assert len(samples[3]) == 3
        assert len(samples[4]) == 1
        assert len(samples[5]) == 1

    def test_per_size_cap(self):
        samples = sample_by_size(_catalog(), per_size=2)
        assert len(samples[3]) == 2

    def test_sizes_below_three_excluded(self):
        catalog = MetagraphCatalog(
            [metapath("user", "user"), metapath("user", "school", "user")],
            anchor_type="user",
        )
        samples = sample_by_size(catalog, per_size=5)
        assert 2 not in samples


class TestTimeEngine:
    def test_returns_time_and_count(self, toy_graph, toy_metagraphs):
        seconds, count = time_engine("SymISO", toy_graph, toy_metagraphs["M1"])
        assert seconds >= 0.0
        assert count == 2

    def test_engines_counts_agree(self, toy_graph, toy_metagraphs):
        counts = {
            name: time_engine(name, toy_graph, toy_metagraphs["M3"])[1]
            for name in ("SymISO", "SymISO-R", "BoostISO", "TurboISO", "QuickSI")
        }
        assert len(set(counts.values())) == 1
