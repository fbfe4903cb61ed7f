"""Determinism regression tests.

Everything stochastic in the library is seeded; nothing may depend on
Python's per-process hash randomisation (set/dict iteration order).
These tests run pipeline stages in fresh subprocesses with different
PYTHONHASHSEED values and require bit-identical artefacts.

Regression context: label perturbation once iterated a raw set while
consuming the RNG, so generated *labels* differed between processes —
experiments were reproducible within a session but not across runs.
"""

import json
import subprocess
import sys

import pytest

from tests.conftest import subprocess_env

SNIPPET = """
import hashlib, json
import numpy as np
from repro.datasets import load_dataset
from repro.mining import MinerConfig, mine_catalog
from repro.index.vectors import build_vectors
from repro.learning.examples import generate_triplets
from repro.learning.trainer import Trainer, TrainerConfig

ds = load_dataset("linkedin", scale="tiny")
labels = ds.class_labels("college")
label_digest = hashlib.md5(repr(sorted(
    (q, tuple(sorted(v))) for q, v in labels.items()
)).encode()).hexdigest()

catalog = mine_catalog(ds.graph, MinerConfig(max_nodes=3, min_support=3))
catalog_digest = hashlib.md5(catalog.to_json().encode()).hexdigest()

vectors, _ = build_vectors(ds.graph, catalog)
# every m_x / m_xy row, in the form every reader sees them
vec_digest = vectors.compile().content_digest()

triplets = generate_triplets(
    ds.queries("college")[:8], labels, ds.universe, 50, seed=0
)
triplet_digest = hashlib.md5(repr(triplets).encode()).hexdigest()

weights = Trainer(TrainerConfig(restarts=2, max_iterations=150, seed=0)).train(
    triplets, vectors
)
weight_digest = hashlib.md5(np.round(weights, 12).tobytes()).hexdigest()

print(json.dumps({
    "labels": label_digest,
    "catalog": catalog_digest,
    "vectors": vec_digest,
    "triplets": triplet_digest,
    "weights": weight_digest,
}))
"""


def _run_with_hashseed(seed: str) -> dict:
    # Propagate the parent's environment and import path: the child must
    # be able to `import repro` however the parent found it (PYTHONPATH
    # hack, editable install, ...), with only PYTHONHASHSEED varied.
    result = subprocess.run(
        [sys.executable, "-c", SNIPPET],
        capture_output=True,
        text=True,
        timeout=300,
        env=subprocess_env(PYTHONHASHSEED=seed),
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("other_seed", ["12345", "987654321"])
def test_pipeline_invariant_under_hash_randomisation(other_seed):
    baseline = _run_with_hashseed("0")
    other = _run_with_hashseed(other_seed)
    for stage in ("labels", "catalog", "vectors", "triplets", "weights"):
        assert baseline[stage] == other[stage], (
            f"stage {stage!r} depends on hash order"
        )


def test_parallel_build_snapshot_is_byte_identical(tmp_path):
    """The parallel builder is exact: workers=1 and workers=4 snapshots
    match byte for byte.

    The catalog deliberately includes 4-node symmetric patterns, whose
    automorphic witnesses the array-level instance dedup must collapse
    identically in every worker.
    """
    from repro.datasets import load_dataset
    from repro.index.parallel import IndexBuildConfig, build_index
    from repro.index.persist import save_index
    from repro.mining import MinerConfig, mine_catalog

    dataset = load_dataset("linkedin", scale="tiny")
    catalog = mine_catalog(dataset.graph, MinerConfig(max_nodes=4, min_support=3))
    assert any(m.size >= 4 for m in catalog), "need a 4-node pattern"

    snapshots = {}
    for workers in (1, 4):
        vectors, index = build_index(
            dataset.graph, catalog, IndexBuildConfig(workers=workers)
        )
        target = tmp_path / f"workers{workers}"
        save_index(target, vectors, catalog, graph=dataset.graph, index=index)
        snapshots[workers] = {
            name: (target / name).read_bytes()
            for name in ("manifest.json", "catalog.json", "arrays.npz")
        }
    for name in snapshots[1]:
        assert snapshots[1][name] == snapshots[4][name], (
            f"{name} differs between sequential and 4-worker builds"
        )
