"""Format-v2 snapshot sidecar: mmap loading, integrity, compatibility."""

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
    _COMPILED_MEMBERS,
    load_compiled,
    load_index,
    save_index,
)
from repro.index.transform import sqrt
from repro.index.vectors import build_vectors
from repro.metagraph.catalog import MetagraphCatalog

COMPILED_ARRAY_NAMES = _COMPILED_MEMBERS


def member_path(target: Path, name: str) -> Path:
    """The digest-suffixed sidecar file of one member."""
    return next((target / COMPILED_DIR).glob(f"{name}-*.npy"))


@pytest.fixture()
def snapshot(tmp_path):
    ds = toy_dataset()
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    vectors, index = build_vectors(ds.graph, catalog)
    target = tmp_path / "snap"
    save_index(target, vectors, catalog, graph=ds.graph, index=index)
    return target, ds, vectors


class TestSidecarRoundtrip:
    def test_sidecar_members_written(self, snapshot):
        target, _ds, _vectors = snapshot
        members = sorted(p.name for p in (target / COMPILED_DIR).glob("*.npy"))
        assert len(members) == len(COMPILED_ARRAY_NAMES)
        for name in COMPILED_ARRAY_NAMES:
            # filenames carry the content digest so a manifest and a
            # sidecar from different builds can never silently pair up
            assert member_path(target, name).name.endswith(".npy")

    def test_mmap_load_matches_compile(self, snapshot):
        target, _ds, vectors = snapshot
        reference = vectors.compile()
        loaded = load_compiled(target)
        assert loaded.nodes == reference.nodes
        assert loaded.catalog_size == reference.catalog_size
        for name in COMPILED_ARRAY_NAMES:
            assert np.array_equal(getattr(loaded, name), getattr(reference, name))

    def test_mmap_arrays_are_memory_mapped(self, snapshot):
        target, _ds, _vectors = snapshot
        loaded = load_compiled(target)
        assert isinstance(loaded.node_data, np.memmap)
        assert not loaded.node_data.flags.writeable

    def test_verifying_load_checks_digests(self, snapshot):
        target, _ds, vectors = snapshot
        loaded = load_compiled(target, mmap=False)
        assert not isinstance(loaded.node_data, np.memmap)
        assert np.array_equal(loaded.node_data, vectors.compile().node_data)

    def test_load_index_attaches_compiled(self, snapshot):
        target, ds, _vectors = snapshot
        loaded = load_index(target, graph=ds.graph)
        assert loaded.compiled is not None
        assert loaded.compiled.nodes == tuple(
            sorted(loaded.vectors._node, key=repr)
        )

    def test_load_index_mmap_false_skips_sidecar(self, snapshot):
        target, ds, _vectors = snapshot
        loaded = load_index(target, graph=ds.graph, mmap=False)
        assert loaded.compiled is None

    def test_from_index_adopts_mmap_snapshot(self, snapshot):
        target, ds, _vectors = snapshot
        engine = SemanticProximitySearch.from_index(target, ds.graph)
        compiled = engine.vectors.compile()
        assert isinstance(compiled.node_data, np.memmap)
        # ranking through the adopted snapshot matches a fresh compile
        rebuilt = SemanticProximitySearch.from_index(
            target, ds.graph, mmap=False
        )
        assert not isinstance(rebuilt.vectors.compile().node_data, np.memmap)
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
        member_path(target, "pair_data").unlink()
        with pytest.raises(SnapshotError, match="missing pair_data"):
            load_compiled(target)

    def test_resized_member_rejected(self, snapshot):
        target, _ds, _vectors = snapshot
        member = member_path(target, "node_data")
        member.write_bytes(member.read_bytes() + b"\0")
        with pytest.raises(SnapshotError, match="corrupt or tampered"):
            load_compiled(target)

    def test_same_size_corruption_caught_by_verifying_load(self, snapshot):
        target, _ds, _vectors = snapshot
        member = member_path(target, "node_data")
        payload = bytearray(member.read_bytes())
        payload[-1] ^= 0xFF
        member.write_bytes(bytes(payload))
        # the mmap fast path only checks names and sizes, so it loads...
        load_compiled(target)
        # ...and the verifying load is the one that catches the flip
        with pytest.raises(SnapshotError, match="digest"):
            load_compiled(target, mmap=False)

    def test_mixed_build_sidecar_detected_by_filename(self, snapshot):
        # interrupted re-save signature: manifest from one build, sidecar
        # members from another.  Byte sizes can agree, but the
        # digest-suffixed filenames never do — the fast path must refuse
        # rather than silently serve the other build's arrays.
        target, ds, _vectors = snapshot
        member = member_path(target, "node_data")
        stale_name = "node_data-000000000000.npy"
        member.rename(member.with_name(stale_name))
        with pytest.raises(SnapshotError, match="missing node_data"):
            load_compiled(target)
        # ...and the snapshot as a whole stays loadable via the counts
        with pytest.warns(UserWarning, match="unusable compiled sidecar"):
            assert load_index(target, graph=ds.graph).compiled is None

    def test_missing_sidecar_dir_rejected(self, snapshot):
        target, _ds, _vectors = snapshot
        shutil.rmtree(target / COMPILED_DIR)
        with pytest.raises(SnapshotError, match="missing node_indptr"):
            load_compiled(target)

    def test_load_index_falls_back_when_sidecar_unusable(self, snapshot):
        # the sidecar is derived data: losing it must cost the fast
        # path (with a warning), never the snapshot itself
        target, ds, _vectors = snapshot
        shutil.rmtree(target / COMPILED_DIR)
        with pytest.warns(UserWarning, match="unusable compiled sidecar"):
            loaded = load_index(target, graph=ds.graph)
        assert loaded.compiled is None
        with pytest.warns(UserWarning, match="unusable compiled sidecar"):
            engine = SemanticProximitySearch.from_index(target, ds.graph)
        compiled = engine.vectors.compile()
        assert not isinstance(compiled.node_data, np.memmap)

    def test_index_info_reports_unusable_sidecar_without_failing(
        self, snapshot, capsys
    ):
        from repro.cli import main

        target, _ds, _vectors = snapshot
        shutil.rmtree(target / COMPILED_DIR)
        assert main(["index", "info", str(target)]) == 0
        out = capsys.readouterr().out
        assert "UNUSABLE" in out and "falls back to the counts" in out

    def test_no_staging_dir_left_behind(self, snapshot):
        target, _ds, _vectors = snapshot
        assert not (target / (COMPILED_DIR + ".staging")).exists()

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


    def test_v1_snapshot_still_loads_without_sidecar(self, snapshot):
        # rewrite the manifest as a sidecar-free format-1 snapshot (what
        # pre-v2 builds produced): load_index works, load_compiled says no
        target, ds, _vectors = snapshot
        from repro.index.persist import _manifest_digest

        manifest = json.loads((target / MANIFEST_FILE).read_text())
        manifest["format_version"] = 1
        del manifest["compiled_arrays"]
        manifest["manifest_sha256"] = _manifest_digest(manifest)
        (target / MANIFEST_FILE).write_text(json.dumps(manifest, indent=1))
        shutil.rmtree(target / COMPILED_DIR)
        loaded = load_index(target, graph=ds.graph)
        assert loaded.compiled is None
        with pytest.raises(SnapshotError, match="no compiled sidecar"):
            load_compiled(target)

    def test_unsupported_version_rejected(self, snapshot):
        target, _ds, _vectors = snapshot
        from repro.index.persist import _manifest_digest

        manifest = json.loads((target / MANIFEST_FILE).read_text())
        manifest["format_version"] = 99
        manifest["manifest_sha256"] = _manifest_digest(manifest)
        (target / MANIFEST_FILE).write_text(json.dumps(manifest, indent=1))
        with pytest.raises(SnapshotError, match="format version 99"):
            load_index(target)


class TestTransformGuard:
    def test_custom_transform_override_skips_sidecar(self, tmp_path):
        # the sidecar data has the *saved* transform burned in; loading
        # under a different transform must not trust it
        ds = toy_dataset()
        catalog = MetagraphCatalog(
            toy_metagraphs().values(), anchor_type="user"
        )
        vectors, index = build_vectors(ds.graph, catalog, transform=sqrt)
        target = tmp_path / "snap"
        save_index(target, vectors, catalog, graph=ds.graph, index=index)

        def sqrtish(count: int) -> float:
            return float(count) ** 0.5

        loaded = load_index(target, graph=ds.graph, transform=sqrtish)
        assert loaded.compiled is None
        # while the named transform keeps the fast path
        assert load_index(target, graph=ds.graph).compiled is not None


class TestDeterminism:
    def test_sidecar_bytes_deterministic(self, tmp_path):
        ds = toy_dataset()
        catalog = MetagraphCatalog(
            toy_metagraphs().values(), anchor_type="user"
        )
        payloads = []
        for run in range(2):
            vectors, index = build_vectors(ds.graph, catalog)
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
