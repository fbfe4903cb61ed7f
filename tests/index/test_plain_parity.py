"""The edge-kinds-off compatibility gate, pinned to golden digests.

The kind axis must be invisible to plain graphs: with ``edge_kinds``
off, every dataset keeps producing **byte-identical snapshots** and
**bit-identical rankings** — across every matcher engine and worker
count.  The ranking digest was produced by the pre-kind codebase on the
toy dataset with the exact recipe encoded here; the manifest digest was
re-pinned once, when the snapshot layout became one content-addressed
payload (format 4).  Any drift in graph storage, canonical forms,
matching, vector packing, or the persist format shows up as a digest
mismatch.

If a change legitimately alters the snapshot layout (a deliberate
format bump), regenerate the manifest constant and say so in the
commit — this test exists to make that an explicit decision.
"""

import hashlib
import json

import pytest

from repro.datasets.toy import toy_dataset
from repro.index.parallel import IndexBuildConfig
from repro.index.persist import read_manifest
from repro.mining import MinerConfig
from repro.search import SemanticProximitySearch

GOLDEN_MANIFEST_SHA = (
    "a69e0190aa2c93cb8dae94c6084bc37c5fe25674bf22dc27fa91f698b9459713"
)
GOLDEN_RANKING_DIGEST = (
    "a87c9156f1efb39737c357aa7b3d392985ee357965cd4f5e1604330d29f2c76e"
)

ENGINES = ("compiled", "symiso", "symiso-r", "quicksi", "turboiso", "boostiso")


def build_engine(workers: int = 1, matcher: str = "compiled"):
    dataset = toy_dataset()
    engine = SemanticProximitySearch(
        dataset.graph,
        miner_config=MinerConfig(max_nodes=4, min_support=1),
    )
    engine.prepare(
        build_config=IndexBuildConfig(workers=workers, matcher=matcher)
    )
    return dataset, engine


def ranking_digest(dataset, engine) -> str:
    rankings = {}
    for cls in dataset.classes:
        engine.fit(cls, dataset.class_labels(cls))
        for q in sorted(engine.universe(), key=repr):
            rankings[f"{cls}|{q}"] = [
                [str(node), float(score)]
                for node, score in engine.query(cls, q, k=5)
            ]
    payload = json.dumps(rankings, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class TestPlainSnapshotParity:
    @pytest.mark.parametrize("matcher", ENGINES)
    @pytest.mark.parametrize("workers", [1, 4])
    def test_snapshot_bytes_pinned(self, tmp_path, matcher, workers):
        _, engine = build_engine(workers=workers, matcher=matcher)
        path = engine.save_index(tmp_path / "snap")
        manifest = read_manifest(path)
        assert manifest["manifest_sha256"] == GOLDEN_MANIFEST_SHA, (
            f"plain snapshot drifted (matcher={matcher}, workers={workers})"
        )
        assert manifest["schema"]["edge_kinds"] is False

    def test_rankings_pinned(self):
        dataset, engine = build_engine()
        assert ranking_digest(dataset, engine) == GOLDEN_RANKING_DIGEST

    @pytest.mark.parametrize("matcher", ["symiso", "turboiso"])
    def test_rankings_engine_invariant(self, matcher):
        dataset, engine = build_engine(workers=4, matcher=matcher)
        assert ranking_digest(dataset, engine) == GOLDEN_RANKING_DIGEST
