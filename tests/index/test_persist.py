"""Snapshot persistence: roundtrip fidelity and rejection paths."""

import json

import numpy as np
import pytest

from repro.exceptions import SnapshotError, StaleSnapshotError
from repro.graph.typed_graph import TypedGraph
from repro.index.persist import (
    ARRAYS_FILE,
    CATALOG_FILE,
    FORMAT_VERSION,
    MANIFEST_FILE,
    SUPPORTED_FORMAT_VERSIONS,
    graph_fingerprint,
    load_index,
    save_index,
    snapshot_digest,
)
from repro.index.transform import log1p
from repro.index.vectors import build_vectors
from repro.metagraph.catalog import MetagraphCatalog
from repro.mining import MinerConfig
from repro.search import SemanticProximitySearch
from tests.oracles import node_vector, pair_vector, partners

CLASS_LABELS = {
    "Kate": frozenset({"Jay"}),
    "Jay": frozenset({"Kate"}),
    "Bob": frozenset({"Tom"}),
}


@pytest.fixture
def offline(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, index = build_vectors(toy_graph, catalog)
    return toy_graph, catalog, vectors, index


@pytest.fixture
def snapshot_dir(offline, tmp_path):
    graph, catalog, vectors, index = offline
    path = tmp_path / "snapshot"
    save_index(path, vectors, catalog, graph=graph, index=index)
    return path


class TestRoundTrip:
    def test_counts_survive(self, offline, snapshot_dir):
        graph, _catalog, vectors, _index = offline
        loaded = load_index(snapshot_dir, graph=graph)
        for user in ("Alice", "Bob", "Kate", "Jay", "Tom"):
            assert np.array_equal(
                node_vector(loaded.vectors, user), node_vector(vectors, user)
            )
            assert partners(loaded.vectors, user) == partners(vectors, user)
        assert np.array_equal(
            pair_vector(loaded.vectors, "Kate", "Jay"),
            pair_vector(vectors, "Kate", "Jay"),
        )
        assert loaded.vectors.matched_ids == vectors.matched_ids

    def test_instance_index_reconstructed(self, offline, snapshot_dir):
        graph, _catalog, _vectors, index = offline
        restored = load_index(snapshot_dir, graph=graph).instance_index()
        assert restored.matched_ids() == index.matched_ids()
        for mg_id in index.matched_ids():
            assert restored.num_instances(mg_id) == index.num_instances(mg_id)

    def test_catalog_survives(self, offline, snapshot_dir):
        graph, catalog, _vectors, _index = offline
        loaded = load_index(snapshot_dir, graph=graph)
        assert len(loaded.catalog) == len(catalog)
        assert [m.name for m in loaded.catalog] == [m.name for m in catalog]

    def test_update_log_recorded_and_restored(self, offline, tmp_path):
        graph, catalog, vectors, index = offline
        log = [
            {"op": "remove_edge", "u": "Kate", "v": "Music"},
            {"op": "add_node", "u": "Mia", "node_type": "user"},
        ]
        target = save_index(
            tmp_path / "with-log", vectors, catalog, graph=graph,
            index=index, update_log=log,
        )
        loaded = load_index(target, graph=graph)
        assert loaded.manifest["update_log"] == log
        # the log is part of the digested manifest core: tampering trips
        manifest_path = target / MANIFEST_FILE
        doc = json.loads(manifest_path.read_text(encoding="utf-8"))
        doc["update_log"] = []
        manifest_path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(SnapshotError):
            load_index(target)

    def test_update_log_defaults_empty(self, snapshot_dir):
        loaded = load_index(snapshot_dir)
        assert loaded.manifest["update_log"] == []

    def test_load_without_graph_skips_fingerprint_check(self, snapshot_dir):
        assert load_index(snapshot_dir).vectors.matched_ids

    def test_named_transform_restored(self, toy_graph, toy_metagraphs, tmp_path):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, index = build_vectors(toy_graph, catalog, transform=log1p)
        path = save_index(tmp_path / "s", vectors, catalog, graph=toy_graph)
        loaded = load_index(path)
        assert loaded.vectors.transform is log1p
        assert np.array_equal(
            pair_vector(loaded.vectors, "Kate", "Jay"),
            pair_vector(vectors, "Kate", "Jay"),
        )

    def test_custom_transform_must_be_passed(
        self, toy_graph, toy_metagraphs, tmp_path
    ):
        def doubled(count: float) -> float:
            return 2.0 * count

        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_vectors(toy_graph, catalog, transform=doubled)
        path = save_index(tmp_path / "s", vectors, catalog, graph=toy_graph)
        with pytest.raises(SnapshotError, match="custom transform"):
            load_index(path)
        loaded = load_index(path, transform=doubled)
        assert np.array_equal(
            node_vector(loaded.vectors, "Kate"), node_vector(vectors, "Kate")
        )


class TestRejection:
    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError, match="missing manifest"):
            load_index(tmp_path / "nowhere")

    def test_version_mismatch(self, snapshot_dir):
        manifest_path = snapshot_dir / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = max(SUPPORTED_FORMAT_VERSIONS) + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            load_index(snapshot_dir)

    def test_corrupt_arrays(self, snapshot_dir):
        arrays_path = snapshot_dir / ARRAYS_FILE
        blob = bytearray(arrays_path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="arrays.npz"):
            load_index(snapshot_dir)

    def test_truncated_arrays(self, snapshot_dir):
        arrays_path = snapshot_dir / ARRAYS_FILE
        arrays_path.write_bytes(arrays_path.read_bytes()[:64])
        with pytest.raises(SnapshotError):
            load_index(snapshot_dir)

    def test_tampered_catalog(self, snapshot_dir):
        catalog_path = snapshot_dir / CATALOG_FILE
        doc = json.loads(catalog_path.read_text())
        doc["metagraphs"] = doc["metagraphs"][:-1]
        catalog_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="catalog.json"):
            load_index(snapshot_dir)

    def test_unreadable_manifest(self, snapshot_dir):
        (snapshot_dir / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(SnapshotError, match="unreadable"):
            load_index(snapshot_dir)

    def test_tampered_manifest_node_table(self, snapshot_dir):
        """The manifest is the root of trust — it carries its own digest."""
        manifest_path = snapshot_dir / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["nodes"][0] = "Imposter"
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="digest"):
            load_index(snapshot_dir)

    def test_tampered_manifest_model_list(self, snapshot_dir):
        manifest_path = snapshot_dir / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["models"] = ["phantom"]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="digest"):
            load_index(snapshot_dir)

    def test_wrong_graph_fingerprint(self, snapshot_dir, toy_graph):
        other = toy_graph.copy()
        other.add_node("Zed", "user")
        other.add_edge("Zed", "Music")
        with pytest.raises(StaleSnapshotError, match="different graph"):
            load_index(snapshot_dir, graph=other)

    def test_snapshot_round_trips_adversarial_node_ids(self, tmp_path):
        graph = TypedGraph(name="adversarial")
        users = ["u|0", ("u", 1), (("deep",), 2), 3]
        for uid in users:
            graph.add_node(uid, "user")
        graph.add_node(("s", 0), "school")
        for uid in users:
            graph.add_edge(uid, ("s", 0))
        from repro.metagraph.metagraph import metapath

        catalog = MetagraphCatalog(
            [metapath("user", "school", "user")], anchor_type="user"
        )
        vectors, index = build_vectors(graph, catalog)
        path = save_index(tmp_path / "s", vectors, catalog, graph=graph, index=index)
        loaded = load_index(path, graph=graph)
        for uid in users:
            assert partners(loaded.vectors, uid) == partners(vectors, uid)

    def test_fingerprint_sensitive_to_edges_only_changes(self, toy_graph):
        baseline = graph_fingerprint(toy_graph)
        other = toy_graph.copy()
        other.remove_edge("Kate", "Music")
        other.add_edge("Jay", "Music")
        assert graph_fingerprint(other) != baseline
        assert graph_fingerprint(toy_graph.copy()) == baseline


class TestFacadeRoundTrip:
    @pytest.fixture
    def engine(self, toy_graph, toy_metagraphs):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        engine = SemanticProximitySearch(
            toy_graph, miner_config=MinerConfig(max_nodes=4, min_support=1)
        ).prepare(catalog=catalog)
        engine.fit("classmate", CLASS_LABELS)
        return engine

    def test_query_many_rank_parity(self, engine, toy_graph, tmp_path):
        path = engine.save_index(tmp_path / "snap")
        cold = SemanticProximitySearch.from_index(path, toy_graph)
        assert cold.classes == engine.classes
        queries = ["Kate", "Bob", "Alice"]
        assert cold.query_many("classmate", queries, k=4) == engine.query_many(
            "classmate", queries, k=4
        )
        assert cold.query("classmate", "Kate", k=3) == engine.query(
            "classmate", "Kate", k=3
        )

    def test_serving_digest_follows_resave_to_same_directory(
        self, engine, toy_graph, tmp_path
    ):
        # the directory stays, its manifest moves: the engine must not
        # keep reporting the first save's digest
        path = engine.save_index(tmp_path / "snap")
        first = engine.serving_digest()
        assert first == snapshot_digest(path)
        engine.fit("family", {"Alice": frozenset({"Bob"})})
        assert engine.save_index(path) == path
        assert snapshot_digest(path) != first
        assert engine.serving_digest() == snapshot_digest(path)
        # and a second engine on the same snapshot agrees on identity
        cold = SemanticProximitySearch.from_index(path, toy_graph)
        assert cold.serving_digest() == engine.serving_digest()

    def test_save_requires_prepared(self, toy_graph, tmp_path):
        from repro.exceptions import LearningError

        with pytest.raises(LearningError, match="prepare"):
            SemanticProximitySearch(toy_graph).save_index(tmp_path / "s")

    def test_from_index_rejects_other_graph(self, engine, tmp_path):
        path = engine.save_index(tmp_path / "snap")
        other = TypedGraph(name="other")
        other.add_node("solo", "user")
        with pytest.raises(StaleSnapshotError):
            SemanticProximitySearch.from_index(path, other)

    def test_prepare_cache_dir_skips_mining(
        self, engine, toy_graph, tmp_path, monkeypatch
    ):
        cache = tmp_path / "cache"
        engine.save_index(cache)
        import repro.search

        def exploding_mine(*args, **kwargs):
            raise AssertionError("mining should have been skipped")

        monkeypatch.setattr(repro.search, "mine_catalog", exploding_mine)
        warm = SemanticProximitySearch(toy_graph).prepare(cache_dir=cache)
        assert warm.classes == ("classmate",)  # snapshot classes restored
        assert warm.query("classmate", "Kate", k=3) == engine.query(
            "classmate", "Kate", k=3
        )

    def test_prepare_cache_dir_rebuilds_stale_snapshot(
        self, engine, toy_graph, tmp_path
    ):
        cache = tmp_path / "cache"
        engine.save_index(cache)
        grown = toy_graph.copy()
        grown.add_node("Zed", "user")
        grown.add_edge("Zed", "Music")
        with pytest.warns(UserWarning, match="rebuilding index cache"):
            rebuilt = SemanticProximitySearch(
                grown, miner_config=MinerConfig(max_nodes=3, min_support=1)
            ).prepare(cache_dir=cache)
        assert rebuilt.vectors is not None
        # the cache now carries the new graph's fingerprint
        reloaded = load_index(cache, graph=grown)
        assert reloaded.manifest["graph_fingerprint"] == graph_fingerprint(grown)

    def test_prepare_cache_dir_rebuilds_on_miner_config_change(
        self, toy_graph, tmp_path
    ):
        """A cached catalog mined under different knobs must not be reused."""
        cache = tmp_path / "cache"
        SemanticProximitySearch(
            toy_graph, miner_config=MinerConfig(max_nodes=3, min_support=1)
        ).prepare(cache_dir=cache)
        first = load_index(cache).manifest["extra"]["miner_config"]
        assert first["max_nodes"] == 3
        with pytest.warns(UserWarning, match="mined with"):
            SemanticProximitySearch(
                toy_graph, miner_config=MinerConfig(max_nodes=4, min_support=1)
            ).prepare(cache_dir=cache)
        rebuilt = load_index(cache).manifest["extra"]["miner_config"]
        assert rebuilt["max_nodes"] == 4

    def test_prepare_cache_dir_rejects_transform_mismatch(
        self, engine, toy_graph, toy_metagraphs, tmp_path
    ):
        cache = tmp_path / "cache"
        engine.save_index(cache)  # identity counts
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        with pytest.warns(UserWarning, match="transform"):
            log_engine = SemanticProximitySearch(
                toy_graph, transform=log1p
            ).prepare(catalog=catalog, cache_dir=cache)
        # must have rebuilt with its own transform, not adopted raw counts
        assert load_index(cache).manifest["transform"] == "log1p"
        assert log_engine.vectors.transform is log1p
