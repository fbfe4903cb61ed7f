"""Snapshot payload: mmap loading, integrity, derived floats, determinism."""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import SemanticProximitySearch
from repro.datasets.toy import toy_dataset, toy_metagraphs
from repro.exceptions import SnapshotError
from repro.index.persist import (
    COMPILED_DIR,
    MANIFEST_FILE,
    _MEMBERS,
    _manifest_digest,
    load_compiled,
    load_index,
    save_index,
)
from repro.index.transform import sqrt
from repro.index.parallel import build_index
from repro.metagraph.catalog import MetagraphCatalog
from tests.oracles import ledger

# every array a CompiledVectors holds: the stored structure arrays and
# counts plus the two float views derived from the counts
COMPILED_ARRAY_NAMES = (
    "node_indptr", "node_indices", "node_count", "node_data",
    "pair_indptr", "pair_indices", "pair_count", "pair_data",
    "pair_ptr", "partner_pos", "entry_pair",
)


def member_path(target: Path, name: str) -> Path:
    """The digest-suffixed file of one payload member."""
    return next((target / COMPILED_DIR).glob(f"{name}-*.npy"))


@pytest.fixture()
def snapshot(tmp_path):
    ds = toy_dataset()
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    vectors, index = build_index(ds.graph, catalog)
    target = tmp_path / "snap"
    save_index(target, vectors, catalog, graph=ds.graph, index=index)
    return target, ds, vectors


class TestSidecarRoundtrip:
    def test_sidecar_members_written(self, snapshot):
        target, _ds, _vectors = snapshot
        members = sorted(p.name for p in (target / COMPILED_DIR).glob("*.npy"))
        assert len(members) == len(_MEMBERS)
        for name in _MEMBERS:
            # filenames carry the content digest so a manifest and
            # members from different builds can never silently pair up
            assert member_path(target, name).name.endswith(".npy")
        # the counts are stored as integers, once
        assert np.load(member_path(target, "pair_count")).dtype == np.int64
        assert not list((target / COMPILED_DIR).glob("*_data-*"))

    def test_mmap_load_matches_compile(self, snapshot):
        target, _ds, vectors = snapshot
        reference = vectors.compile()
        loaded = load_compiled(target)
        assert loaded.nodes == reference.nodes
        assert loaded.catalog_size == reference.catalog_size
        assert loaded.nnz == reference.nnz
        for name in COMPILED_ARRAY_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(reference, name))

    def test_mmap_arrays_are_memory_mapped(self, snapshot):
        target, _ds, _vectors = snapshot
        loaded = load_compiled(target)
        assert isinstance(loaded.node_indices, np.memmap)
        assert not loaded.node_indices.flags.writeable
        # the floats are derived from the mapped counts, read-only too
        assert not loaded.node_data.flags.writeable

    def test_verifying_load_checks_digests(self, snapshot):
        target, _ds, vectors = snapshot
        loaded = load_compiled(target, mmap=False)
        assert not isinstance(loaded.node_indices, np.memmap)
        assert np.array_equal(loaded.node_data, vectors.compile().node_data)

    def test_load_index_attaches_compiled(self, snapshot):
        target, ds, _vectors = snapshot
        for mmap in (True, False):
            loaded = load_index(target, graph=ds.graph, mmap=mmap)
            compiled = loaded.vectors.compile()
            assert isinstance(compiled.node_indices, np.memmap) == mmap
            assert isinstance(compiled.node_count, np.memmap) == mmap
            assert compiled.nodes == tuple(
                sorted(ledger(loaded.vectors)[0], key=repr)
            )

    def test_from_index_adopts_mmap_snapshot(self, snapshot):
        target, ds, _vectors = snapshot
        engine = SemanticProximitySearch.from_index(target, ds.graph)
        compiled = engine.vectors.compile()
        assert isinstance(compiled.node_indices, np.memmap)
        # ranking through the adopted snapshot matches a fresh compile
        rebuilt = SemanticProximitySearch.from_index(
            target, ds.graph, mmap=False
        )
        assert not isinstance(rebuilt.vectors.compile().node_indices, np.memmap)
        assert engine.vectors.compile().nnz == rebuilt.vectors.compile().nnz

    def test_mmap_engine_rankings_match_rebuilt(self, snapshot):
        target, ds, _vectors = snapshot
        mapped = SemanticProximitySearch.from_index(target, ds.graph)
        rebuilt = SemanticProximitySearch.from_index(target, ds.graph, mmap=False)
        for engine in (mapped, rebuilt):
            engine.fit(
                "family", labels=ds.class_labels("family"), num_examples=40
            )
        queries = list(mapped.universe())
        assert mapped.query_many("family", queries, k=4) == rebuilt.query_many(
            "family", queries, k=4
        )


class TestSidecarIntegrity:
    def test_missing_member_rejected(self, snapshot):
        target, _ds, _vectors = snapshot
        member_path(target, "pair_count").unlink()
        with pytest.raises(SnapshotError, match="missing pair_count"):
            load_compiled(target)

    def test_resized_member_rejected(self, snapshot):
        target, _ds, _vectors = snapshot
        member = member_path(target, "node_count")
        member.write_bytes(member.read_bytes() + b"\0")
        with pytest.raises(SnapshotError, match="corrupt or tampered"):
            load_compiled(target)

    def test_same_size_corruption_caught_by_verifying_load(self, snapshot):
        target, ds, _vectors = snapshot
        # (a flipped count column would already fail the fast path's
        # catalog check, so the flip goes into the adjacency)
        member = member_path(target, "entry_pair")
        payload = bytearray(member.read_bytes())
        payload[-1] ^= 0xFF
        member.write_bytes(bytes(payload))
        # the mmap fast path only checks names and sizes, so it loads...
        load_compiled(target)
        # ...and the verifying loads are the ones that catch the flip
        with pytest.raises(SnapshotError, match="digest"):
            load_compiled(target, mmap=False)
        with pytest.raises(SnapshotError, match="digest"):
            load_index(target, graph=ds.graph)

    def test_mixed_build_sidecar_detected_by_filename(self, snapshot):
        # a manifest paired with members of another build: byte sizes
        # can agree, but the digest-suffixed filenames never do — the
        # fast path must refuse rather than silently serve the other
        # build's arrays, and so must the verifying load
        target, ds, _vectors = snapshot
        member = member_path(target, "node_count")
        member.rename(member.with_name("node_count-000000000000.npy"))
        with pytest.raises(SnapshotError, match="missing node_count"):
            load_compiled(target)
        with pytest.raises(SnapshotError, match="missing node_count"):
            load_index(target, graph=ds.graph)

    def test_missing_sidecar_dir_rejected(self, snapshot):
        # the payload is the only copy of the counts: losing it loses
        # the snapshot, for every reader
        target, ds, _vectors = snapshot
        shutil.rmtree(target / COMPILED_DIR)
        with pytest.raises(SnapshotError, match="missing node_indptr"):
            load_compiled(target)
        with pytest.raises(SnapshotError, match="missing node_indptr"):
            load_index(target, graph=ds.graph)

    def test_no_staging_dir_left_behind(self, snapshot):
        # every file is staged as <name>.tmp and renamed into place
        target, _ds, _vectors = snapshot
        assert not list(target.rglob("*.tmp"))
        assert sorted(p.name for p in target.iterdir() if p.is_dir()) == [COMPILED_DIR]

    def test_save_keeps_the_compiled_snapshot(self, tmp_path):
        ds = toy_dataset()
        catalog = MetagraphCatalog(
            toy_metagraphs().values(), anchor_type="user"
        )
        compiled_engine = SemanticProximitySearch(ds.graph)
        compiled_engine.prepare(catalog=catalog)
        before = compiled_engine.vectors.compile()
        compiled_engine.save_index(tmp_path / "compiled-snap")
        assert compiled_engine.vectors.compile() is before

    def test_unsupported_version_rejected(self, snapshot):
        # older formats (1-3: counts stored twice) and unknown ones alike
        target, _ds, _vectors = snapshot
        manifest = json.loads((target / MANIFEST_FILE).read_text())
        for version in (1, 2, 3, 99):
            manifest["format_version"] = version
            manifest["manifest_sha256"] = _manifest_digest(manifest)
            (target / MANIFEST_FILE).write_text(json.dumps(manifest, indent=1))
            for load in (load_index, load_compiled):
                with pytest.raises(
                    SnapshotError, match=f"format version {version}.*rebuild"
                ):
                    load(target)


class TestTransformGuard:
    def test_custom_transform_override_skips_sidecar(self, tmp_path):
        # the recorded value table has the *saved* transform burned in;
        # loading under a different transform must not trust it
        ds = toy_dataset()
        catalog = MetagraphCatalog(
            toy_metagraphs().values(), anchor_type="user"
        )
        vectors, index = build_index(ds.graph, catalog, transform=sqrt)
        target = tmp_path / "snap"
        save_index(target, vectors, catalog, graph=ds.graph, index=index)

        def doubled_sqrt(count: int) -> float:
            return 2.0 * float(count) ** 0.5

        loaded = load_index(target, graph=ds.graph, transform=doubled_sqrt)
        assert not loaded.floats_as_recorded
        reference, _ = build_index(ds.graph, catalog, transform=doubled_sqrt)
        assert loaded.vectors.compile().content_digest() == reference.compile().content_digest()
        # the engine serves its own floats, so process workers get an
        # engine-owned copy rather than the recorded table
        engine = SemanticProximitySearch.from_index(
            target, ds.graph, transform=doubled_sqrt
        )
        assert engine._snapshot_path is None
        # while the saved transform keeps the recorded table
        assert load_index(target, graph=ds.graph).floats_as_recorded
        pinned = SemanticProximitySearch.from_index(target, ds.graph)
        assert pinned._snapshot_path == target


class TestDeterminism:
    def test_sidecar_bytes_deterministic(self, tmp_path):
        ds = toy_dataset()
        catalog = MetagraphCatalog(
            toy_metagraphs().values(), anchor_type="user"
        )
        payloads = []
        for run in range(2):
            vectors, index = build_index(ds.graph, catalog)
            target = tmp_path / f"snap{run}"
            save_index(target, vectors, catalog, graph=ds.graph, index=index)
            payloads.append(
                {
                    p.name: p.read_bytes()
                    for p in sorted((target / COMPILED_DIR).glob("*.npy"))
                }
            )
        assert payloads[0] == payloads[1]

    def test_resave_replaces_stale_members(self, snapshot):
        target, ds, vectors = snapshot
        stale = target / COMPILED_DIR / "leftover.npy"
        stale.write_bytes(b"junk")
        catalog = MetagraphCatalog(
            toy_metagraphs().values(), anchor_type="user"
        )
        save_index(target, vectors, catalog, graph=ds.graph)
        assert not stale.exists()
