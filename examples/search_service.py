"""Offline/online separation as a deployable service (Fig. 3's two phases).

The paper's framework splits into an expensive offline phase (mine,
match, index, train — done once) and a millisecond online phase (rank
any query against the precomputed artefacts).  This example shows the
persistence workflow a production deployment would use:

1. *build job*: run the offline phase on a worker pool, train every
   semantic class, and persist ONE versioned snapshot directory
   (``manifest.json`` + the catalog + the integer counts under
   ``compiled/``) via ``engine.save_index()``;
2. *service*: cold-start with ``SemanticProximitySearch.from_index()``
   — no mining, no matching, and the count arrays memory-mapped, their
   floats derived through the manifest's value table — and answer
   queries with explanations
   (Fig. 1(b)'s "result with explanation" column), including a batched
   pass whose scores are checked against pairwise ``proximity()``;
3. *sharded tier*: re-serve the same batch through a 4-shard, 2-worker
   query router (``repro.serving``) and check it returns bit-identical
   rankings, then show how an unknown or off-anchor query is rejected
   with ``QueryError`` instead of ranking as all zeros.

Run:  python examples/search_service.py [snapshot-dir]

With a directory argument the snapshot is left on disk (the CI
workflow uploads it as a build artifact); without one a temporary
directory is used.
"""

import sys
import tempfile
import time
from pathlib import Path

from repro.datasets import load_dataset
from repro.eval.splits import split_queries
from repro.index.parallel import IndexBuildConfig
from repro.learning.trainer import TrainerConfig
from repro.mining import MinerConfig
from repro.search import SemanticProximitySearch


def build_job(snapshot_dir: Path) -> None:
    """The offline phase: mine -> match (2 workers) -> train -> snapshot."""
    dataset = load_dataset("facebook", scale="tiny")
    print(f"[build] {dataset.graph}")
    engine = SemanticProximitySearch(
        dataset.graph,
        anchor_type=dataset.anchor_type,
        miner_config=MinerConfig(max_nodes=4, min_support=3),
        trainer_config=TrainerConfig(restarts=3, max_iterations=400, seed=0),
    )
    start = time.perf_counter()
    engine.prepare(build_config=IndexBuildConfig(workers=2))
    offline_s = time.perf_counter() - start
    print(
        f"[build] offline phase done in {offline_s:.1f}s "
        f"({len(engine.catalog)} metagraphs, 2 workers)"
    )
    for class_name in dataset.classes:
        labels = dataset.class_labels(class_name)
        split = split_queries(dataset.queries(class_name), 0.2, 1, seed=0)[0]
        engine.fit(
            class_name, labels, queries=split.train, num_examples=200, seed=0
        )
        print(f"[build] trained class {class_name!r}")
    engine.save_index(snapshot_dir)
    files = sorted(p.name for p in snapshot_dir.iterdir())
    total = sum(p.stat().st_size for p in snapshot_dir.iterdir())
    print(f"[build] snapshot: {files} ({total / 1024:.1f} KiB)\n")


def service(snapshot_dir: Path) -> None:
    """The online phase: cold-start from the snapshot, answer queries."""
    dataset = load_dataset("facebook", scale="tiny")  # deterministic graph
    start = time.perf_counter()
    engine = SemanticProximitySearch.from_index(snapshot_dir, dataset.graph)
    cold_start_s = time.perf_counter() - start
    backend = type(engine.vectors.compile().node_data).__name__
    print(
        f"[service] cold start in {cold_start_s * 1e3:.1f} ms: "
        f"{len(engine.classes)} classes over {len(engine.catalog)} "
        f"metagraphs, no mining or matching "
        f"(serving arrays: {backend})"
    )

    query = engine.vectors.compile().nodes[0]  # first of the compiled universe
    for class_name in engine.classes:
        start = time.perf_counter()
        results = engine.query(class_name, query, k=3)
        elapsed = (time.perf_counter() - start) * 1e3
        print(f"\n[service] {query} / {class_name!r} ({elapsed:.2f} ms):")
        for node, score in results:
            reasons = [
                f"{metagraph.name}:{contribution:.2f}"
                for metagraph, contribution in engine.explain(
                    class_name, query, node, k=2
                )
            ]
            print(f"  {node}  pi={score:.3f}  because {', '.join(reasons)}")

    batched_pass(engine)
    sharded_tier(snapshot_dir, dataset)


def batched_pass(engine: SemanticProximitySearch) -> None:
    """Serve a whole query batch and cross-check it against proximity()."""
    class_name = engine.classes[0]
    universe = engine.universe()
    queries = list(universe)[: min(32, len(universe))]

    engine.query_many(class_name, queries, k=5)  # warm the universe mask
    start = time.perf_counter()
    rankings = engine.query_many(class_name, queries, k=5)
    batch_ms = (time.perf_counter() - start) * 1e3

    # one read path: the ranked score, the pairwise proximity and its
    # mirror image come off the same compiled dot arrays — exactly equal
    for query, ranking in zip(queries, rankings):
        for node, score in ranking:
            assert engine.proximity(class_name, query, node) == score
            assert engine.proximity(class_name, node, query) == score
    print(
        f"\n[service] batched {len(queries)} queries on {class_name!r} in "
        f"{batch_ms:.1f} ms; every score equals proximity() bit for bit"
    )


def sharded_tier(snapshot_dir: Path, dataset) -> None:
    """Serve through the shard router and demonstrate query validation."""
    from repro.exceptions import QueryError

    engine = SemanticProximitySearch.from_index(
        snapshot_dir, dataset.graph, shards=4, serving_workers=2
    )
    flat = SemanticProximitySearch.from_index(snapshot_dir, dataset.graph)
    class_name = engine.classes[0]
    queries = list(engine.universe())[:16]
    start = time.perf_counter()
    sharded = engine.query_many(class_name, queries, k=5)
    sharded_ms = (time.perf_counter() - start) * 1e3
    assert sharded == flat.query_many(class_name, queries, k=5)
    print(
        f"\n[sharded] {len(queries)} queries over 4 shards / 2 workers in "
        f"{sharded_ms:.1f} ms — rankings bit-identical to the unsharded tier"
    )

    # a production service must refuse what it cannot answer: unknown
    # nodes and non-anchor nodes raise QueryError instead of silently
    # ranking as all zeros
    off_anchor = next(
        node
        for node in dataset.graph.nodes()
        if dataset.graph.node_type(node) != dataset.anchor_type
    )
    for bad in ("no-such-user", off_anchor):
        try:
            engine.query(class_name, bad, k=5)
        except QueryError as exc:
            print(f"[sharded] rejected {bad!r}: {exc}")
        else:
            raise AssertionError(f"{bad!r} should have been rejected")


def main() -> None:
    if len(sys.argv) > 1:
        snapshot_dir = Path(sys.argv[1])
        snapshot_dir.mkdir(parents=True, exist_ok=True)
        build_job(snapshot_dir)
        service(snapshot_dir)
        print(f"\n[done] snapshot kept at {snapshot_dir}")
    else:
        with tempfile.TemporaryDirectory() as tmp:
            snapshot_dir = Path(tmp) / "snapshot"
            snapshot_dir.mkdir()
            build_job(snapshot_dir)
            service(snapshot_dir)


if __name__ == "__main__":
    main()
