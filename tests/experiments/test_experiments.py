"""Tests for the experiment harness (quick scale).

Each experiment must regenerate its table/figure rows with the paper's
qualitative shape.  The heavy offline phase is shared module-wide.
"""

import hashlib

import pytest

from repro.datasets import DATASET_GENERATORS, load_dataset
from repro.experiments import (
    EXPERIMENTS,
    QUICK_CONFIG,
    OfflineRunner,
    fig4,
    fig6_7,
    fig8,
    fig9,
    fig10,
    fig11,
    table2,
    table3,
)
from repro.metagraph.canonical import canonical_form
from repro.metagraph.similarity import structural_similarity
from repro.mining import build_catalog
from repro.mining.grami import GramiMiner


@pytest.fixture(scope="module")
def runner():
    shared = OfflineRunner(QUICK_CONFIG)
    shared.offline("linkedin")
    shared.offline("facebook")
    return shared


class TestRunnerCaching:
    def test_offline_cached(self, runner):
        a = runner.offline("linkedin")
        b = runner.offline("linkedin")
        assert a is b

    def test_offline_artifacts_consistent(self, runner):
        phase = runner.offline("linkedin")
        assert phase.vectors.matched_ids == frozenset(phase.catalog.ids())
        assert set(phase.per_metagraph_seconds) == set(phase.catalog.ids())

    def test_trainer_config_applied(self, runner):
        trainer = runner.trainer()
        assert trainer.config.restarts == QUICK_CONFIG.trainer_restarts


class TestTable2:
    def test_rows(self, runner):
        rows = table2.run(QUICK_CONFIG, runner)
        assert [row["dataset"] for row in rows] == ["linkedin", "facebook"]
        li, fb = rows
        assert fb["#Types"] == 10 and li["#Types"] == 4
        # Table II shape: Facebook's richer schema yields more metagraphs
        assert fb["#Metagraphs"] > li["#Metagraphs"]

    def test_render(self, runner):
        text = table2.main(QUICK_CONFIG, runner)
        assert "Table II" in text and "linkedin" in text


class TestTable3:
    def test_shape(self, runner):
        rows = table3.run(QUICK_CONFIG, runner)
        for row in rows:
            # online testing is orders of magnitude below offline work
            assert float(row["Testing per query (s)"]) < row["Matching (s)"]


class TestFig4:
    def test_long_tail(self, runner):
        rows = fig4.run(QUICK_CONFIG, runner)
        assert len(rows) == 4
        for row in rows:
            assert row["#w<0.1"] > row["|M|"] // 2  # majority insignificant

    def test_series_lengths(self, runner):
        series = fig4.ranked_weight_series(QUICK_CONFIG, runner)
        assert len(series) == 4
        for points in series.values():
            ranks = [r for r, _w in points]
            assert ranks == sorted(ranks)
            weights = [w for _r, w in points]
            assert weights == sorted(weights, reverse=True)


class TestFig6_7:
    def test_panel_shape(self, runner):
        ndcg, map_ = fig6_7.run_panel(runner, "linkedin", "college")
        assert set(ndcg) == set(fig6_7.ALGORITHMS)
        for series in (ndcg, map_):
            for algorithm, points in series.items():
                assert [x for x, _ in points] == list(QUICK_CONFIG.omega_sizes)
                assert all(0.0 <= y <= 1.0 for _x, y in points)

    def test_mgp_beats_uniform(self, runner):
        ndcg, _map = fig6_7.run_panel(runner, "linkedin", "college")
        top = dict(ndcg["MGP"])[max(QUICK_CONFIG.omega_sizes)]
        uniform = dict(ndcg["MGP-U"])[max(QUICK_CONFIG.omega_sizes)]
        assert top > uniform


class TestFig8:
    def test_anchors_present(self, runner):
        rows = fig8.run(QUICK_CONFIG, runner)
        k_values = {row["|K|"] for row in rows}
        assert 0 in k_values and "all" in k_values

    def test_time_increases_with_k(self, runner):
        rows = [r for r in fig8.run(QUICK_CONFIG, runner)
                if r["dataset"] == "facebook" and r["class"] == "family"]
        numeric = [
            float(r["Time incr"].rstrip("%"))
            for r in rows
            if isinstance(r["|K|"], int)
        ]
        assert numeric == sorted(numeric)


class TestFig9:
    def test_bins_in_range(self, runner):
        rows = fig9.run(QUICK_CONFIG, runner)
        for row in rows:
            values = [v for k, v in row.items() if k.startswith("SS ")]
            for value in values:
                if value != "n/a":
                    assert 0.0 <= value <= 1.0


class TestFig10:
    def test_ch_at_least_rch_on_average(self, runner):
        rows = fig10.run(QUICK_CONFIG, runner)
        ch = sum(row["CH NDCG"] for row in rows)
        rch = sum(row["RCH NDCG"] for row in rows)
        assert ch >= rch - 1e-9


class TestFig11:
    @pytest.fixture(scope="class")
    def rows(self, runner):
        import dataclasses

        # these tests check counts and sizes, never wall-clock
        # stability, so a single timing repeat is enough (and one
        # shared run covers both assertions)
        config = dataclasses.replace(QUICK_CONFIG, fig11_repeats=1)
        return fig11.run(config, runner)

    def test_engines_agree_column(self, rows):
        assert rows
        assert all(row["engines agree"] for row in rows)

    def test_sizes_in_catalog_range(self, rows):
        assert all(3 <= row["|V_M|"] <= QUICK_CONFIG.max_nodes for row in rows)


class TestRegistry:
    def test_all_registered(self):
        expected = {
            "table2", "table3", "fig4", "fig6", "fig7", "fig6_7",
            "fig8", "fig9", "fig10", "fig11",
        }
        assert expected == set(EXPERIMENTS)

    @pytest.mark.parametrize("name", ["table2", "fig9"])
    def test_renderers_return_text(self, runner, name):
        text = EXPERIMENTS[name](QUICK_CONFIG, runner)
        assert isinstance(text, str) and text


def sha256_of(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


class TestPinnedCatalogs:
    """sha256 pins on the pattern-level facts every later stage keys on.

    The miner's raw output (forms in order, supports, candidates tested,
    budget hits), each catalog's JSON, and the bits of Eq. 7's SS matrix
    all read canonical forms, Aut(M) and the MCS.  A rewrite of those
    must leave every pin unchanged; re-pin only on purpose, with the
    reason recorded in CHANGES.md.
    """

    MINED = {
        "facebook": "c1127faabae4d94721c190a0c96e23a535aeac68504137bc7d7a1cbb3dfc5ea2",
        "linkedin": "6a1c25a8b3c514659ebc3175291fee88c05c585a3cfde96b1a960a21dacb9bc5",
        "reactions": "668b7c20e977171182eb747d45942a140a50ec98dd5186a0d557d8cf55534b61",
    }
    CATALOG_JSON = {
        "facebook": "4aa0f51586faf2a032aff850c85d0381160c4d49eec4ebb4fea49eac4f3b94f6",
        "linkedin": "a2362725c89e27c3e293e2f889b29313c6ca78ff003cbbde344e5502981dca6c",
        "reactions": "dc9fcbf2fd324ed96b93bba0063edb76a3a900e18f7c9141869e948ebeef5544",
    }
    SS_MATRIX = {
        "linkedin": "5508f69bbef348136c28ace9055b64432f731399e98175fc11d262dda6720af9",
        "reactions": "d6f4539ef3fae69f7226a3dcce7a885a75b045694d8d2431a1108b48aac6c477",
    }

    @pytest.fixture(scope="class")
    def catalogs(self, runner):
        """linkedin and facebook from the shared runner; reactions built
        from its mining result the way the runner builds the others."""
        dataset = load_dataset("reactions", scale=QUICK_CONFIG.scale)
        mined = GramiMiner(QUICK_CONFIG.miner_config("reactions")).mine(dataset.graph)
        reactions = build_catalog(
            mined.patterns,
            anchor_type=dataset.anchor_type,
            max_nodes=QUICK_CONFIG.max_nodes,
        )
        return {
            "facebook": runner.offline("facebook").catalog,
            "linkedin": runner.offline("linkedin").catalog,
            "reactions": reactions,
        }

    def test_registered_datasets_pinned(self):
        assert set(self.MINED) == set(DATASET_GENERATORS)

    @pytest.mark.parametrize("name", sorted(MINED))
    def test_mining_result(self, runner, name):
        if name in ("facebook", "linkedin"):
            graph = runner.dataset(name).graph
        else:
            graph = load_dataset(name, scale=QUICK_CONFIG.scale).graph
        result = GramiMiner(QUICK_CONFIG.miner_config(name)).mine(graph)
        forms = [canonical_form(m) for m in result.patterns]
        digest = sha256_of(
            (
                forms,
                [result.supports[form] for form in forms],
                result.candidates_tested,
                result.budget_hits,
            )
        )
        assert digest == self.MINED[name]

    @pytest.mark.parametrize("name", sorted(CATALOG_JSON))
    def test_catalog_json(self, catalogs, name):
        text = catalogs[name].to_json()
        assert hashlib.sha256(text.encode()).hexdigest() == self.CATALOG_JSON[name]

    @pytest.mark.parametrize("name", sorted(SS_MATRIX))
    def test_structural_similarity_bits(self, catalogs, name):
        catalog = catalogs[name]
        matrix = [
            [structural_similarity(a, b).hex() for b in catalog] for a in catalog
        ]
        assert sha256_of(matrix) == self.SS_MATRIX[name]
