"""Tests for vector-store persistence through index snapshots."""

import numpy as np
import pytest

from repro.exceptions import SnapshotError
from repro.graph.typed_graph import TypedGraph
from repro.index.persist import load_index, save_index
from repro.index.transform import log1p
from repro.index.vectors import (
    MetagraphVectors,
    build_vectors,
    decode_node_id,
    encode_node_id,
)
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import metapath
from tests.oracles import node_vector, nodes_with_counts, pair_vector, partners


@pytest.fixture
def catalog(toy_metagraphs):
    return MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")


@pytest.fixture
def store(toy_graph, catalog):
    vectors, _ = build_vectors(toy_graph, catalog)
    return vectors


@pytest.fixture
def snapshot(store, catalog, tmp_path):
    return save_index(tmp_path / "snapshot", store, catalog)


class TestPersistence:
    def test_round_trip_vectors(self, store, snapshot):
        restored = load_index(snapshot).vectors
        assert restored.catalog_size == store.catalog_size
        assert restored.anchor_type == store.anchor_type
        assert restored.matched_ids == store.matched_ids
        for user in ("Alice", "Bob", "Kate", "Jay", "Tom"):
            assert np.array_equal(
                node_vector(restored, user), node_vector(store, user)
            )
        assert np.array_equal(
            pair_vector(restored, "Alice", "Bob"),
            pair_vector(store, "Alice", "Bob"),
        )

    def test_partners_restored(self, store, snapshot):
        restored = load_index(snapshot).vectors
        for user in ("Alice", "Bob", "Kate"):
            assert partners(restored, user) == partners(store, user)

    def test_transform_reapplied_on_load(self, store, snapshot):
        restored = load_index(snapshot, transform=log1p).vectors
        raw = pair_vector(store, "Alice", "Bob")
        transformed = pair_vector(restored, "Alice", "Bob")
        nonzero = raw > 0
        assert np.allclose(transformed[nonzero], np.log1p(raw[nonzero]))

    def test_loaded_store_usable_by_model(self, snapshot):
        from repro.learning.model import ProximityModel

        restored = load_index(snapshot).vectors
        model = ProximityModel(np.ones(restored.catalog_size), restored)
        ranking = model.rank("Bob", universe=["Alice", "Kate", "Jay", "Tom"])
        assert ranking[0][1] > 0


class TestAdversarialNodeIds:
    """Regression: node ids must round-trip whatever their shape.

    A JSON encoding once converted only the *top* level of a tuple id
    back from its array form, so nested tuples came back with
    unhashable list components and crashed the load; separator-laden
    strings relied on luck.  Ids now go through an explicit codec that
    round-trips scalars and (nested) tuples and rejects everything else
    at save time.
    """

    ADVERSARIAL_IDS = [
        "plain",
        "with|pipe",
        "with,comma",
        'looks like ["json", 1]',
        "('a', 'b')",  # repr of a tuple, as a string
        7,
        ("tuple", 3),
        (("nested", 1), "deep"),
        ((("twice",), "nested"), 2),
    ]

    CATALOG = MetagraphCatalog(
        [metapath("user", "school", "user")], anchor_type="user"
    )

    def adversarial_store(self):
        graph = TypedGraph(name="adversarial")
        for uid in self.ADVERSARIAL_IDS:
            graph.add_node(uid, "user")
        graph.add_node(("attr", 0), "school")
        graph.add_node("school|B", "school")
        for uid in self.ADVERSARIAL_IDS:
            graph.add_edge(uid, ("attr", 0))
            graph.add_edge(uid, "school|B")
        vectors, _ = build_vectors(graph, self.CATALOG)
        return vectors

    def test_codec_round_trips_every_id(self):
        for node in self.ADVERSARIAL_IDS:
            assert decode_node_id(encode_node_id(node)) == node

    def test_codec_rejects_unsupported_ids(self):
        with pytest.raises(SnapshotError, match="frozenset"):
            encode_node_id(frozenset({"a"}))

    def test_snapshot_round_trip_with_adversarial_ids(self, tmp_path):
        store = self.adversarial_store()
        path = save_index(tmp_path / "snapshot", store, self.CATALOG)
        restored = load_index(path).vectors
        assert nodes_with_counts(restored) == nodes_with_counts(store)
        for node in self.ADVERSARIAL_IDS:
            assert partners(restored, node) == partners(store, node)
            assert np.array_equal(
                node_vector(restored, node), node_vector(store, node)
            )
        assert np.array_equal(
            pair_vector(restored, ("tuple", 3), (("nested", 1), "deep")),
            pair_vector(store, ("tuple", 3), (("nested", 1), "deep")),
        )

    def test_unsupported_id_rejected_at_save_time(self, tmp_path):
        store = MetagraphVectors(1, anchor_type="user")
        from repro.index.instance_index import MetagraphCounts

        counts = MetagraphCounts(num_instances=1)
        counts.node_counts[frozenset({"x"})] = 1
        store.add_counts(0, counts)
        with pytest.raises(SnapshotError, match="cannot be persisted"):
            save_index(tmp_path / "snapshot", store, self.CATALOG)
