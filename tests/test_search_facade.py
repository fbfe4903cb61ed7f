"""Tests for the SemanticProximitySearch facade."""

import pytest

from repro import SemanticProximitySearch
from repro.datasets.toy import toy_dataset, toy_metagraphs
from repro.exceptions import LearningError, StaleIndexError
from repro.index.delta import GraphDelta
from repro.index.parallel import build_index
from repro.learning.trainer import TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.mining import MinerConfig
from tests.oracles import ScalarModel, ledger


@pytest.fixture(scope="module")
def engine():
    ds = toy_dataset()
    spx = SemanticProximitySearch(
        ds.graph,
        miner_config=MinerConfig(max_nodes=4, min_support=1),
        trainer_config=TrainerConfig(restarts=2, max_iterations=300, seed=0),
    )
    # use the known Fig. 2 catalog rather than mining (deterministic)
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    spx.prepare(catalog=catalog)
    return spx, ds


class TestLifecycle:
    def test_unprepared_fit_raises(self):
        ds = toy_dataset()
        spx = SemanticProximitySearch(ds.graph)
        with pytest.raises(LearningError):
            spx.fit("family", labels=ds.class_labels("family"))

    def test_unknown_class_raises(self, engine):
        spx, _ds = engine
        with pytest.raises(LearningError):
            spx.model("ghost-class")

    def test_fit_requires_labels_or_triplets(self, engine):
        spx, _ds = engine
        with pytest.raises(LearningError):
            spx.fit("broken")

    def test_prepare_mines_when_no_catalog(self):
        ds = toy_dataset()
        spx = SemanticProximitySearch(
            ds.graph, miner_config=MinerConfig(max_nodes=3, min_support=2)
        )
        spx.prepare()
        assert spx.catalog is not None and len(spx.catalog) > 0


class TestQueries:
    def test_fit_and_query_family(self, engine):
        spx, ds = engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        ranking = spx.query("family", "Bob", k=3)
        assert ranking[0][0] == "Alice"

    def test_fit_from_triplets(self, engine):
        spx, _ds = engine
        triplets = [("Kate", "Jay", "Alice"), ("Bob", "Tom", "Alice")]
        model = spx.fit("classmates", triplets=triplets)
        assert spx.proximity("classmates", "Kate", "Jay") > 0
        assert model.name == "classmates"

    def test_classes_listing(self, engine):
        spx, ds = engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        assert "family" in spx.classes

    def test_explain_returns_metagraphs(self, engine):
        spx, ds = engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        explanation = spx.explain("family", "Bob", "Alice", k=3)
        assert explanation
        types_seen = {t for mg, _c in explanation for t in mg.types}
        assert "surname" in types_seen or "address" in types_seen

    def test_proximity_symmetry(self, engine):
        spx, ds = engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        assert spx.proximity("family", "Bob", "Alice") == spx.proximity(
            "family", "Alice", "Bob"
        )

    def test_repr(self, engine):
        spx, _ds = engine
        assert "prepared=True" in repr(spx)


class TestCompiledServing:
    def test_prepare_compiles_vectors(self, engine):
        spx, _ds = engine
        assert spx.vectors.compile() is spx.vectors.compile()

    def test_fitted_models_use_compiled_backend(self, engine):
        spx, ds = engine
        model = spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        assert model.compiled is spx.vectors.compile()

    def test_universe_cached(self, engine):
        spx, _ds = engine
        assert spx.universe() is spx.universe()
        assert list(spx.universe()) == sorted(
            spx.graph.nodes_of_type("user"), key=repr
        )

    def test_query_many_matches_single_queries(self, engine):
        spx, ds = engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        queries = ["Bob", "Kate", "Alice"]
        batched = spx.query_many("family", queries, k=3)
        assert batched == [spx.query("family", q, k=3) for q in queries]

    def test_query_many_unknown_class_raises(self, engine):
        spx, _ds = engine
        with pytest.raises(LearningError):
            spx.query_many("ghost-class", ["Bob"])

    def test_reprepare_drops_fitted_models(self):
        ds = toy_dataset()
        spx = SemanticProximitySearch(
            ds.graph, trainer_config=TrainerConfig(restarts=2, max_iterations=200)
        )
        catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
        spx.prepare(catalog=catalog)
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        # models trained on the replaced store must not survive
        spx.prepare(catalog=catalog)
        assert spx.classes == ()
        with pytest.raises(LearningError):
            spx.query("family", "Bob")

    def test_facade_matches_uncompiled_reference(self):
        ds = toy_dataset()
        spx = SemanticProximitySearch(ds.graph)
        catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
        spx.prepare(catalog=catalog)
        model = spx.fit(
            "family",
            labels=ds.class_labels("family"),
            num_examples=40,
        )
        assert model.compiled is spx.vectors.compile()
        # the scalar reference: dict rows, one dense mgp() per candidate
        reference = ScalarModel.like(model)
        for query in spx.universe():
            assert spx.query("family", query, k=3) == reference.rank(
                query, universe=spx.universe(), k=3
            )


@pytest.fixture
def fresh_engine():
    """A function-scoped engine whose graph the test may mutate."""
    ds = toy_dataset()
    spx = SemanticProximitySearch(
        ds.graph,
        trainer_config=TrainerConfig(restarts=2, max_iterations=300, seed=0),
    )
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    spx.prepare(catalog=catalog)
    return spx, ds


class TestDynamicUpdates:
    def test_apply_updates_matches_rebuild(self, fresh_engine):
        spx, _ds = fresh_engine
        delta = (
            GraphDelta()
            .add_node("Mia", "user")
            .add_edge("Mia", "College A")
            .add_edge("Mia", "Physics")
            .remove_edge("Kate", "Music")
        )
        stats = spx.apply_updates(delta)
        assert stats.edits_applied == 4
        fresh, _idx = build_index(spx.graph, spx.catalog)
        assert ledger(spx.vectors)[0] == ledger(fresh)[0]
        assert ledger(spx.vectors)[1] == ledger(fresh)[1]

    def test_updates_change_rankings(self, fresh_engine):
        spx, ds = fresh_engine
        spx.fit("classmates", labels=ds.class_labels("classmates"), num_examples=40)
        before = dict(spx.query("classmates", "Bob", k=None))
        # Mia joins Bob's school and major: she must start scoring > 0
        spx.apply_updates(
            GraphDelta()
            .add_node("Mia", "user")
            .add_edge("Mia", "College A")
            .add_edge("Mia", "Physics")
        )
        after = dict(spx.query("classmates", "Bob", k=None))
        assert "Mia" not in before
        assert after["Mia"] > 0

    def test_compiled_and_scalar_agree_after_updates(self, fresh_engine):
        spx, ds = fresh_engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        spx.apply_updates(GraphDelta().remove_edge("Kate", "Music"))
        model = spx.model("family")
        compiled = model.rank("Bob", universe=spx.universe(), k=5)
        scalar = ScalarModel.like(model).rank("Bob", spx.universe(), 5)
        assert compiled == scalar

    def test_universe_tracks_anchor_mutations(self, fresh_engine):
        spx, _ds = fresh_engine
        assert "Mia" not in spx.universe()
        spx.apply_updates(GraphDelta().add_node("Mia", "user"))
        assert "Mia" in spx.universe()
        spx.apply_updates(GraphDelta().remove_node("Mia"))
        assert "Mia" not in spx.universe()

    def test_universe_invalidated_by_direct_mutation(self, fresh_engine):
        # the universe is correctness-critical even without an index: it
        # re-sorts itself off the graph version, no prepare() needed
        spx, _ds = fresh_engine
        spx.universe()
        spx.graph.add_node("Zoe", "user")
        assert "Zoe" in spx.universe()

    def test_direct_mutation_makes_query_raise(self, fresh_engine):
        spx, ds = fresh_engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        spx.graph.remove_edge("Kate", "Music")
        with pytest.raises(StaleIndexError):
            spx.query("family", "Bob")
        with pytest.raises(StaleIndexError):
            spx.query_many("family", ["Bob"])
        with pytest.raises(StaleIndexError):
            spx.proximity("family", "Bob", "Alice")

    def test_prepare_clears_staleness(self, fresh_engine):
        spx, ds = fresh_engine
        spx.graph.remove_edge("Kate", "Music")
        catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
        spx.prepare(catalog=catalog)
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        assert spx.query("family", "Bob", k=3)

    def test_apply_updates_after_direct_mutation_rejected(self, fresh_engine):
        spx, _ds = fresh_engine
        spx.graph.remove_edge("Kate", "Music")
        with pytest.raises(StaleIndexError):
            spx.apply_updates(GraphDelta().add_node("Mia", "user"))

    def test_save_index_refuses_stale_engine(self, fresh_engine, tmp_path):
        # saving would stamp the mutated graph's fingerprint onto
        # pre-mutation counts, laundering staleness past from_index
        spx, _ds = fresh_engine
        spx.graph.remove_edge("Kate", "Music")
        with pytest.raises(StaleIndexError):
            spx.save_index(tmp_path / "stale-snap")

    def test_apply_updates_requires_prepare(self):
        ds = toy_dataset()
        spx = SemanticProximitySearch(ds.graph)
        with pytest.raises(LearningError):
            spx.apply_updates(GraphDelta().add_node("Mia", "user"))

    def test_noop_delta_keeps_compiled_snapshot(self, fresh_engine):
        spx, _ds = fresh_engine
        compiled = spx.vectors.compile()
        stats = spx.apply_updates(GraphDelta().add_edge("Kate", "Music"))
        assert stats.edits_noop == 1
        assert spx.vectors.compile() is compiled

    def test_failed_edit_mid_batch_keeps_engine_consistent(self, fresh_engine):
        spx, _ds = fresh_engine
        from repro.exceptions import NodeNotFoundError

        delta = (
            GraphDelta()
            .remove_edge("Kate", "Music")  # applies
            .remove_node("ghost")  # raises
            .remove_edge("Alice", "Music")  # never reached
        )
        with pytest.raises(NodeNotFoundError):
            spx.apply_updates(delta)
        # the applied prefix is versioned and logged; serving still works
        assert not spx.graph.has_edge("Kate", "Music")
        assert spx.graph.has_edge("Alice", "Music")
        assert len(spx._update_log) == 1
        fresh, _idx = build_index(spx.graph, spx.catalog)
        assert ledger(spx.vectors)[1] == ledger(fresh)[1]

    def test_updates_on_totals_free_snapshot(self, fresh_engine, tmp_path):
        # a manually-saved snapshot without |I(M)| totals must restore to
        # an engine whose updates patch the vectors, not a zero-totals
        # index that the first retirement would drive negative
        from repro.index import save_index

        spx, _ds = fresh_engine
        target = tmp_path / "no-totals"
        save_index(target, spx.vectors, spx.catalog, graph=spx.graph)
        # a structural copy fingerprints identically but mutates
        # independently of spx's graph
        twin = spx.graph.copy()
        restored = SemanticProximitySearch.from_index(target, twin)
        assert restored.index is None
        restored.apply_updates(GraphDelta().remove_edge("Kate", "Music"))
        spx.apply_updates(GraphDelta().remove_edge("Kate", "Music"))
        assert ledger(restored.vectors)[1] == ledger(spx.vectors)[1]
        # re-saving keeps the snapshot totals-free rather than stamping
        # deltas as authoritative totals
        restored.save_index(target)
        assert SemanticProximitySearch.from_index(target, twin).index is None

    def test_rejected_reload_leaves_engine_untouched(self, fresh_engine, tmp_path):
        # regression: the snapshot's update-log suffix used to be
        # replayed onto the live graph *before* the snapshot validated,
        # so a corrupt snapshot bumped graph.version and every later
        # query raised StaleIndexError forever
        from repro.exceptions import SnapshotError

        spx, ds = fresh_engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        publisher = SemanticProximitySearch.from_index(
            spx.save_index(tmp_path / "base"), spx.graph.copy()
        )
        publisher.apply_updates(GraphDelta().remove_edge("Kate", "Music"))
        published = publisher.save_index(tmp_path / "published")
        arrays = next((published / "compiled").glob("pair_count-*.npy"))
        good = arrays.read_bytes()
        arrays.write_bytes(good[:100] + bytes([good[100] ^ 0xFF]) + good[101:])

        def state():
            return (
                spx.graph.version,
                spx.graph.has_edge("Kate", "Music"),
                spx.serving_digest(),
                spx.query_many("family", list(spx.universe()), k=None),
            )

        before = state()
        with pytest.raises(SnapshotError):
            spx.reload_index(published)
        assert state() == before
        # the same snapshot, undamaged, still reloads — suffix and all
        arrays.write_bytes(good)
        assert spx.reload_index(published) == publisher.serving_digest()
        assert not spx.graph.has_edge("Kate", "Music")
        assert spx.query("family", "Kate", k=None) == publisher.query(
            "family", "Kate", k=None
        )

    def test_update_log_survives_snapshot_roundtrip(self, fresh_engine, tmp_path):
        spx, ds = fresh_engine
        spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
        spx.apply_updates(
            GraphDelta().add_node("Mia", "user").add_edge("Mia", "College A")
        )
        target = tmp_path / "snapshot"
        spx.save_index(target)
        restored = SemanticProximitySearch.from_index(target, spx.graph)
        assert restored._update_log == spx._update_log
        assert restored.query("family", "Bob", k=3) == spx.query(
            "family", "Bob", k=3
        )
