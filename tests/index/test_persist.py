"""Snapshot persistence: roundtrip fidelity and rejection paths."""

import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.exceptions import CatalogMismatchError, SnapshotError, StaleSnapshotError
from repro.graph.typed_graph import TypedGraph
from repro.index.delta import GraphDelta
from repro.index.persist import (
    FORMAT_VERSION,
    MANIFEST_FILE,
    manifest_digest,
    catalog_fingerprint,
    graph_fingerprint,
    load_compiled,
    load_index,
    save_index,
    snapshot_digest,
)
from repro.index.transform import identity, log1p, sqrt
from repro.index.parallel import build_index
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from repro.mining import MinerConfig
from repro.search import SemanticProximitySearch
from tests.oracles import ledger, node_vector, pair_vector, partners

CLASS_LABELS = {
    "Kate": frozenset({"Jay"}),
    "Jay": frozenset({"Kate"}),
    "Bob": frozenset({"Tom"}),
}

# users whose ids stress the snapshot's node table and pair-key order:
# repr order puts 10 before 9, and mixed types only compare by repr
ADVERSARIAL_USERS = ["u|0", ("u", 1), (("deep",), 2), 3]
STORE_USERS = {
    "int-9-10": [9, 10, 2],
    "mixed": [3, "a", ("t", 1), "10"],
    "adversarial": ADVERSARIAL_USERS,
    "no-counts": ["lonely"],
}


def doubled(count: float) -> float:
    return 2.0 * count


@pytest.fixture
def offline(toy_graph, toy_metagraphs):
    catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
    vectors, index = build_index(toy_graph, catalog)
    return toy_graph, catalog, vectors, index


@pytest.fixture
def snapshot_dir(offline, tmp_path):
    graph, catalog, vectors, index = offline
    path = tmp_path / "snapshot"
    save_index(path, vectors, catalog, graph=graph, index=index)
    return path


def user_school_store(users):
    """A one-metapath store over ``users`` who all share two schools."""
    graph = TypedGraph(name="users")
    for uid in users:
        graph.add_node(uid, "user")
    for school in (("s", 0), "s|1"):
        graph.add_node(school, "school")
        if len(users) > 1:
            for uid in users:
                graph.add_edge(uid, school)
    catalog = MetagraphCatalog(
        [metapath("user", "school", "user")], anchor_type="user"
    )
    vectors, index = build_index(graph, catalog)
    return graph, catalog, vectors, index


def member(snapshot: Path, name: str) -> Path:
    """The digest-suffixed file of one payload member."""
    return next((snapshot / "compiled").glob(f"{name}-*.npy"))


def rewrite_manifest(snapshot: Path, change) -> None:
    """Apply ``change`` to the manifest and re-seal its self-digest."""
    manifest_path = snapshot / MANIFEST_FILE
    manifest = json.loads(manifest_path.read_text())
    change(manifest)
    manifest["manifest_sha256"] = manifest_digest(manifest)
    manifest_path.write_text(json.dumps(manifest))


def rewrite_member(snapshot: Path, name: str, change) -> None:
    """Replace one payload member by ``change(array)``, digests and all."""
    old = member(snapshot, name)
    array = np.array(np.load(old))
    change(array)
    buffer = io.BytesIO()
    np.save(buffer, array, allow_pickle=False)
    payload = buffer.getvalue()
    digest = hashlib.sha256(payload).hexdigest()
    old.unlink()
    (old.parent / f"{name}-{digest[:12]}.npy").write_bytes(payload)

    def reseal(manifest):
        manifest["compiled_arrays"][name] = {"bytes": len(payload), "sha256": digest}

    rewrite_manifest(snapshot, reseal)


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

    @pytest.mark.parametrize("store", sorted(STORE_USERS))
    def test_ledger_round_trips_dict_for_dict(self, store, tmp_path):
        graph, catalog, vectors, index = user_school_store(STORE_USERS[store])
        path = save_index(tmp_path / "s", vectors, catalog, graph=graph, index=index)
        saved = vectors.compile()
        for mmap in (True, False):
            loaded = load_index(path, graph=graph, mmap=mmap)
            restored = loaded.vectors.compile()
            # the same node table and the same integer arrays, dtypes included
            assert restored.nodes == saved.nodes
            for name in ("node_indptr", "node_indices", "node_count",
                         "pair_indptr", "pair_indices", "pair_count", "entry_pair"):
                got, want = getattr(restored, name), getattr(saved, name)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), name
            # and the same counts under the same ids, pair orientation included
            assert ledger(loaded.vectors) == ledger(vectors)
            assert loaded.vectors.matched_ids == vectors.matched_ids
            assert loaded.instance_index().matched_ids() == index.matched_ids()
        if store == "no-counts":
            assert vectors.matched_ids and not ledger(vectors)[0]

    def test_save_rejects_an_index_of_other_metagraphs(self, offline, tmp_path):
        graph, catalog, vectors, _index = offline
        other, other_index = build_index(graph, catalog, mg_ids=[0])
        with pytest.raises(CatalogMismatchError, match="index records"):
            save_index(tmp_path / "s", vectors, catalog, graph=graph, index=other_index)
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize(
        "built, loaded_with",
        [
            (identity, None),
            (log1p, None),
            (sqrt, None),
            (doubled, doubled),
            (identity, log1p),  # a transform= override
        ],
        ids=["identity", "log1p", "sqrt", "custom", "override"],
    )
    def test_float_view_bit_identical_to_compile(
        self, toy_graph, toy_metagraphs, tmp_path, built, loaded_with
    ):
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog, transform=built)
        path = save_index(tmp_path / "s", vectors, catalog, graph=toy_graph)
        loaded = load_index(path, transform=loaded_with)
        reference, _ = build_index(
            toy_graph, catalog, transform=loaded_with or built
        )
        expected = reference.compile()
        for view in (loaded.vectors.compile(),):
            assert view.node_data.tobytes() == expected.node_data.tobytes()
            assert view.pair_data.tobytes() == expected.pair_data.tobytes()
            assert view.content_digest() == expected.content_digest()
        # the recorded table (what shard workers use) holds the saved floats
        assert load_compiled(path).content_digest() == vectors.compile().content_digest()
        assert loaded.floats_as_recorded == (loaded_with in (None, built))

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
        vectors, index = build_index(toy_graph, catalog, transform=log1p)
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
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(toy_graph, catalog, transform=doubled)
        path = save_index(tmp_path / "s", vectors, catalog, graph=toy_graph)
        with pytest.raises(SnapshotError, match="custom transform"):
            load_index(path)
        loaded = load_index(path, transform=doubled)
        assert np.array_equal(
            node_vector(loaded.vectors, "Kate"), node_vector(vectors, "Kate")
        )

    def test_interrupted_resave_keeps_previous_snapshot(
        self, offline, snapshot_dir, monkeypatch
    ):
        # the manifest write dies halfway through a re-save of other
        # counts: the directory must still load as the previous snapshot
        graph, catalog, vectors, _index = offline
        before = snapshot_digest(snapshot_dir)
        smaller = graph.copy()
        smaller.remove_edge("Kate", "Music")
        other, other_index = build_index(smaller, catalog)

        def torn(write):
            def wrapper(path, data, *args, **kwargs):
                if path.name.startswith(MANIFEST_FILE):
                    write(path, data[: len(data) // 2], *args, **kwargs)
                    raise OSError("disk full")
                return write(path, data, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(Path, "write_text", torn(Path.write_text))
        monkeypatch.setattr(Path, "write_bytes", torn(Path.write_bytes))
        with pytest.raises(OSError, match="disk full"):
            save_index(snapshot_dir, other, catalog, graph=smaller, index=other_index)
        monkeypatch.undo()
        loaded = load_index(snapshot_dir, graph=graph)
        assert snapshot_digest(loaded.manifest) == before
        assert ledger(loaded.vectors)[1] == ledger(vectors)[1]
        # and the next save goes through, leaving only what it names:
        # the manifest, the catalog and the nine payload members
        save_index(snapshot_dir, other, catalog, graph=smaller, index=other_index)
        assert ledger(load_index(snapshot_dir, graph=smaller).vectors)[1] == ledger(other)[1]
        assert len(list(snapshot_dir.rglob("*.*"))) == 11


class TestRejection:
    def test_missing_snapshot(self, tmp_path):
        with pytest.raises(SnapshotError, match="missing manifest"):
            load_index(tmp_path / "nowhere")

    def test_version_mismatch(self, snapshot_dir):
        manifest_path = snapshot_dir / MANIFEST_FILE
        manifest = json.loads(manifest_path.read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(SnapshotError, match="format version"):
            load_index(snapshot_dir)

    def test_corrupt_arrays(self, snapshot_dir):
        arrays_path = member(snapshot_dir, "node_count")
        blob = bytearray(arrays_path.read_bytes())
        blob[-1] ^= 0xFF
        arrays_path.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError, match="node_count.*digest"):
            load_index(snapshot_dir)

    def test_truncated_arrays(self, snapshot_dir):
        arrays_path = member(snapshot_dir, "pair_count")
        arrays_path.write_bytes(arrays_path.read_bytes()[:64])
        with pytest.raises(SnapshotError):
            load_index(snapshot_dir)

    def test_tampered_catalog(self, snapshot_dir):
        catalog_path = next(snapshot_dir.glob("catalog-*.json"))
        doc = json.loads(catalog_path.read_text())
        doc["metagraphs"] = doc["metagraphs"][:-1]
        catalog_path.write_text(json.dumps(doc))
        with pytest.raises(SnapshotError, match="catalog-.*digest"):
            load_index(snapshot_dir)

    def test_unreadable_manifest(self, snapshot_dir):
        (snapshot_dir / MANIFEST_FILE).write_text("{not json")
        with pytest.raises(SnapshotError, match="unreadable"):
            load_index(snapshot_dir)

    @pytest.mark.parametrize("doc", ["[]", "null", "3", "no-nodes"])
    def test_malformed_manifest(self, snapshot_dir, doc, capsys):
        manifest_path = snapshot_dir / MANIFEST_FILE
        if doc == "no-nodes":
            # well-formed JSON object, self-digest intact, a key missing
            manifest = json.loads(manifest_path.read_text())
            del manifest["nodes"]
            manifest["manifest_sha256"] = manifest_digest(manifest)
            doc = json.dumps(manifest)
        manifest_path.write_text(doc)
        for load in (load_index, load_compiled):
            with pytest.raises(SnapshotError):
                load(snapshot_dir)
        assert cli_main(["index", "info", str(snapshot_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("[index] invalid snapshot") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("matched_ids", [0, 1, 2, 7]),
            ("matched_ids", [-1, 0, 1, 2]),
            ("matched_ids", [0, 0, 1, 2]),
            ("matched_ids", [0, 1, 2, [3]]),
            ("instance_totals", [[0, 2], [1, 2], [2, 1], [3, -1]]),
            ("instance_totals", [[0, 2], [1, 2], [2, 1]]),
            ("instance_totals", [[0, 2], [1, 2], [2, 1], [5, 1]]),
        ],
        ids=[
            "id-past-catalog", "negative-id", "repeated-id", "list-id",
            "negative-total", "total-missing", "total-of-unmatched-id",
        ],
    )
    def test_resealed_manifest_with_bad_ids(self, snapshot_dir, toy_graph, field, value):
        def change(manifest):
            assert manifest["catalog_size"] == 4
            manifest[field] = value

        rewrite_manifest(snapshot_dir, change)
        with pytest.raises(SnapshotError):
            load_index(snapshot_dir)
        with pytest.raises(SnapshotError):
            SemanticProximitySearch.from_index(snapshot_dir, toy_graph)

    @pytest.mark.parametrize(
        "name, position, value",
        [
            ("node_indices", 0, 4),
            ("pair_indices", -1, 9),
            ("node_indices", 0, -1),
            ("node_count", 0, 0),
            ("pair_count", -1, -3),
            ("node_count", -1, 1000),
        ],
        ids=[
            "node-column-past-catalog", "pair-column-past-catalog",
            "negative-column", "zero-count", "negative-count", "count-not-in-table",
        ],
    )
    def test_resealed_payload_with_bad_counts(self, snapshot_dir, name, position, value):
        def change(array):
            array[position] = value

        rewrite_member(snapshot_dir, name, change)
        for load in (load_index, load_compiled):
            with pytest.raises(SnapshotError, match="inconsistent"):
                load(snapshot_dir)
        with pytest.raises(SnapshotError, match="inconsistent"):
            load_compiled(snapshot_dir, mmap=False)

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
        graph, catalog, vectors, index = user_school_store(ADVERSARIAL_USERS)
        path = save_index(tmp_path / "s", vectors, catalog, graph=graph, index=index)
        loaded = load_index(path, graph=graph)
        for uid in ADVERSARIAL_USERS:
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

    def test_apply_updates_after_from_index_matches_rebuild(
        self, engine, toy_graph, tmp_path
    ):
        path = engine.save_index(tmp_path / "snap")
        warm = SemanticProximitySearch.from_index(path, toy_graph.copy())
        warm.apply_updates(
            GraphDelta()
            .remove_edge("Kate", "Music")
            .add_node("Mia", "user")
            .add_edge("Mia", "College A")
        )
        cold = SemanticProximitySearch(warm.graph.copy()).prepare(
            catalog=engine.catalog
        )
        assert ledger(warm.vectors)[0] == ledger(cold.vectors)[0]
        assert ledger(warm.vectors)[1] == ledger(cold.vectors)[1]
        assert (
            warm.vectors.compile().content_digest()
            == cold.vectors.compile().content_digest()
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


class TestSnapshotLifecycle:
    """Every load pins the snapshot and keeps its manifest provenance."""

    def test_update_and_resave_keep_cli_provenance(self, tmp_path):
        from repro.datasets import load_dataset

        snap = tmp_path / "fb"
        assert cli_main(
            ["index", "build", "--dataset", "facebook", "--scale", "tiny",
             "--out", str(snap)]
        ) == 0
        recorded = load_index(snap).manifest["extra"]
        assert recorded["dataset"] == "facebook"
        assert recorded["miner_config"]["max_nodes"] == 4
        graph = load_dataset("facebook", scale="tiny").graph
        engine = SemanticProximitySearch.from_index(snap, graph, mmap=False)
        u, v = sorted(graph.edges(), key=repr)[0]
        engine.apply_updates(GraphDelta().remove_edge(u, v))
        engine.save_index(snap)
        assert load_index(snap).manifest["extra"] == recorded

    def test_prepare_cache_dir_remines_over_resaved_snapshot(
        self, toy_graph, tmp_path
    ):
        # a from_index engine carries no miner knobs of its own: its
        # re-save must keep the snapshot's, so the default-knob engine
        # sees a catalog mined under other knobs and re-mines
        cache = tmp_path / "cache"
        SemanticProximitySearch(
            toy_graph, miner_config=MinerConfig(max_nodes=3, min_support=1)
        ).prepare(cache_dir=cache)
        SemanticProximitySearch.from_index(cache, toy_graph).save_index(cache)
        assert load_index(cache).manifest["extra"]["miner_config"]["max_nodes"] == 3
        with pytest.warns(UserWarning, match="mined with"):
            engine = SemanticProximitySearch(toy_graph).prepare(cache_dir=cache)
        mined = SemanticProximitySearch(toy_graph).prepare().catalog
        assert catalog_fingerprint(engine.catalog) == catalog_fingerprint(mined)
        recorded = load_index(cache).manifest["extra"]["miner_config"]
        assert recorded == MinerConfig().to_json_dict()

    def test_prepare_cache_dir_pins_the_snapshot(self, toy_graph, tmp_path):
        cache = tmp_path / "cache"
        SemanticProximitySearch(
            toy_graph, miner_config=MinerConfig(max_nodes=3, min_support=1)
        ).prepare(cache_dir=cache)
        warm = SemanticProximitySearch(
            toy_graph, miner_config=MinerConfig(max_nodes=3, min_support=1)
        ).prepare(cache_dir=cache)
        assert warm.serving_digest() == snapshot_digest(cache)
        cold = SemanticProximitySearch.from_index(cache, toy_graph)
        assert warm.serving_digest() == cold.serving_digest()
