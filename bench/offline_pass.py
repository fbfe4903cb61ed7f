"""One offline pass in a fresh process: generated graph -> snapshot -> cold start.

The harness runs this file as a child so that every pass starts from a
cold interpreter and its peak memory is its own.  The pass is the
paper's offline phase end to end, driven through the public API:

    mine_catalog -> prepare (build_index + compile) -> fit x2 -> save_index
    -> from_index(mmap=True) -> first query

Each stage is one span.  With ``--trace 1`` the pass is followed by the
rungs below it (CSR build, per-metagraph match and count, parallel
build of a catalog sample, compile, the three ways to load a snapshot).
The result goes to ``--result`` as JSON; nothing is printed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import random
import resource
import time
from pathlib import Path

from spans import Tracer

#: metagraphs the traced rungs and the sequential-vs-parallel check cover
CATALOG_SAMPLE = 6


def dir_digest(path: Path) -> tuple[int, str]:
    """(bytes, sha256) over the sorted files of a snapshot directory."""
    digest = hashlib.sha256()
    size = 0
    for file in sorted(p for p in path.rglob("*") if p.is_file()):
        data = file.read_bytes()
        size += len(data)
        digest.update(str(file.relative_to(path)).encode())
        digest.update(data)
    return size, digest.hexdigest()


def parallel_check(graph, catalog, workers: int, seed: int, out: Path, tracer: Tracer) -> dict:
    """Build a catalog sample both ways; the snapshots must be the same bytes.

    Large patterns are the ones the parallel builder shards across
    graph partitions, so the sample takes the largest first.
    """
    from repro.index.parallel import IndexBuildConfig, build_index
    from repro.index.persist import save_index

    ids = list(catalog.ids())
    random.Random(seed).shuffle(ids)
    ids = sorted(sorted(ids, key=lambda i: -catalog[i].size)[:CATALOG_SAMPLE])
    sample = catalog.subset(ids)
    digests = []
    for name, layer, config in (
        ("build_index[sample]", "index", IndexBuildConfig(workers=1)),
        ("parallel.build_index[sample]", "index.parallel", IndexBuildConfig(workers=workers)),
    ):
        with tracer.span(name, layer):
            vectors, index = build_index(graph, sample, config=config)
        vectors.compile()
        target = save_index(out / layer, vectors, sample, graph=graph, index=index)
        digests.append(dir_digest(target)[1])
    return {"identical": digests[0] == digests[1], "metagraphs": len(ids), "workers": workers}


def traced_rungs(graph, catalog, anchor_type: str, snapshot: Path, seed: int, tracer: Tracer) -> dict:
    from repro.graph.csr import CSRGraph
    from repro.index.instance_index import compiled_match_and_count
    from repro.index.persist import load_compiled, load_index
    from repro.matching.compiled import compiled_embedding_matrix

    with tracer.span("CSRGraph.from_graph", "graph"):
        csr = CSRGraph.from_graph(graph)
    ids = sorted(random.Random(seed).sample(list(catalog.ids()), min(CATALOG_SAMPLE, len(catalog))))
    embeddings = instances = 0
    for mg_id in ids:
        with tracer.span("compiled_embedding_matrix", "matching", op_id=mg_id) as parent:
            embeddings += int(compiled_embedding_matrix(csr, catalog[mg_id]).shape[0])
        with tracer.span("compiled_match_and_count", "index", op_id=mg_id, parent=parent):
            instances += compiled_match_and_count(csr, catalog[mg_id], anchor_type).num_instances
    with tracer.span("load_index[npz]", "index.persist"):
        loaded = load_index(snapshot, graph=graph, mmap=False)
    with tracer.span("MetagraphVectors.compile", "index"):
        compiled = loaded.vectors.compile()
    with tracer.span("load_index[mmap]", "index.persist"):
        load_index(snapshot, graph=graph, mmap=True)
    with tracer.span("load_compiled", "index.persist"):
        load_compiled(snapshot)
    return {"embeddings": embeddings, "instances": instances, "nnz": int(compiled.nnz),
            "sampled": len(ids)}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True, help="pickle written by the harness")
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    from repro import SemanticProximitySearch
    from repro.index.parallel import IndexBuildConfig
    from repro.learning.trainer import TrainerConfig
    from repro.mining import mine_catalog

    with open(args.inputs, "rb") as handle:
        inputs = pickle.load(handle)  # written by the harness that started us
    dataset, requests, seed = inputs["dataset"], inputs["requests"], inputs["seed"]
    miner_config = inputs["miner_config"]
    graph = dataset.graph
    snapshot = Path(args.snapshot)
    tracer = Tracer("offline_pass")

    build_start = time.perf_counter()
    with tracer.span("offline_pass", "bench") as root:
        engine = SemanticProximitySearch(
            graph,
            anchor_type=dataset.anchor_type,
            miner_config=miner_config,
            trainer_config=TrainerConfig(restarts=2, max_iterations=250, seed=0),
        )
        with tracer.span("mine_catalog", "mining", parent=root):
            catalog = mine_catalog(graph, miner_config, anchor_type=dataset.anchor_type)
        # prepare() with a catalog is build_index + compile
        layer = "index.parallel" if args.workers > 1 else "index"
        with tracer.span("prepare", layer, parent=root):
            engine.prepare(catalog=catalog, build_config=IndexBuildConfig(workers=args.workers))
        for class_name in sorted(dataset.labels):
            with tracer.span("fit", "learning", op_id=class_name, parent=root):
                engine.fit(class_name, labels=dataset.labels[class_name], num_examples=200, seed=0)
        with tracer.span("save_index", "index.persist", parent=root):
            engine.save_index(snapshot)
        build_s = time.perf_counter() - build_start
        with tracer.span("from_index[mmap]+query", "search", parent=root):
            cold = SemanticProximitySearch.from_index(snapshot, graph, mmap=True)
            class_name, query, k = requests[0]
            first = cold.query(class_name, query, k=k)

    # off the clock: the restored engine must rank exactly like the one
    # that built the snapshot
    checks_start = time.perf_counter()
    mismatches = int(first != engine.query(class_name, query, k=k))
    for class_name, query, k in requests[1:]:
        mismatches += cold.query(class_name, query, k=k) != engine.query(class_name, query, k=k)
    # read before the extra rungs below can raise it
    pool_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    self_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    size, sha = dir_digest(snapshot)

    result = {
        "build_s": build_s,
        "peak_rss_mb": self_rss_mb + (pool_rss_mb if args.workers > 1 else 0.0),
        "snapshot_bytes": size,
        "snapshot_sha256": sha,
        "patterns": len(catalog),
        "checked": len(requests),
        "mismatches": mismatches,
    }
    scratch = snapshot.parent / (snapshot.name + "-sample")
    if args.workers > 1 or args.trace:
        workers = args.workers if args.workers > 1 else max(os.cpu_count() or 1, 2)
        result["parallel_check"] = parallel_check(graph, catalog, workers, seed, scratch, tracer)
    if args.trace:
        result["rungs"] = traced_rungs(graph, catalog, dataset.anchor_type, snapshot, seed, tracer)
    result["spans"] = tracer.spans
    result["checks_s"] = time.perf_counter() - checks_start
    # the harness takes its own wall time minus this as the child's start-up
    result["busy_s"] = time.perf_counter() - build_start
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
