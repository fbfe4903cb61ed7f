"""Parallel offline index builds: one pool task per metagraph.

The offline phase's cost is Eq. 1–2 counting — one independent
``match_and_count`` per metagraph — so the build parallelises along
exactly that axis: each catalog id is one task, and every task runs the
same single call the sequential
:func:`~repro.index.vectors.build_vectors` loop runs.

With the default compiled matcher the pool initializer ships the
compact :class:`~repro.graph.csr.CSRGraph` arrays (plus the catalog)
instead of re-pickling the dict-of-set :class:`TypedGraph` — workers
bind a :class:`~repro.matching.compiled.CompiledMatcher` straight to
the arrays.  Any other configured engine falls back to shipping the
graph itself.  Either way workers return plain counters and the parent
folds them in ascending metagraph-id order, so the store is
*bit-identical* to the sequential output — the determinism suite
compares snapshot bytes across worker counts to prove it.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from collections.abc import Callable
from dataclasses import dataclass

from repro.graph.csr import CSRGraph, csr_view
from repro.graph.typed_graph import TypedGraph
from repro.index.instance_index import (
    InstanceIndex,
    MetagraphCounts,
    match_and_count,
)
from repro.index.transform import Transform, identity
from repro.index.vectors import MetagraphVectors, build_vectors
from repro.matching import make_matcher
from repro.matching.base import MatcherProtocol
from repro.matching.compiled import CompiledMatcher
from repro.metagraph.catalog import MetagraphCatalog


@dataclass(frozen=True)
class IndexBuildConfig:
    """Knobs for the offline index build.

    Parameters
    ----------
    workers:
        Process-pool size (at least 1).  ``1`` (default) runs the
        sequential reference path in-process — no pool, no pickling.
    matcher:
        Matching engine name (see :data:`repro.matching.MATCHERS`).
        The default ``"compiled"`` runs the integer-CSR kernel and
        ships CSR arrays to workers.  Counts are identical under every
        engine.
    """

    workers: int = 1
    matcher: str = "compiled"

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


# ----------------------------------------------------------------------
# worker side: module-level state installed once per process
# ----------------------------------------------------------------------
_worker_graph: TypedGraph | None
_worker_catalog: MetagraphCatalog
_worker_matcher: MatcherProtocol


def _init_worker(
    payload: TypedGraph | CSRGraph,
    catalog: MetagraphCatalog,
    matcher: str,
) -> None:
    """Bind the engine once: CSR arrays and no graph, or the graph itself."""
    global _worker_graph, _worker_catalog, _worker_matcher
    _worker_catalog = catalog
    if isinstance(payload, CSRGraph):
        _worker_graph, _worker_matcher = None, CompiledMatcher(payload)
    else:
        _worker_graph, _worker_matcher = payload, make_matcher(matcher)


def _metagraph_task(mg_id: int) -> tuple[int, MetagraphCounts, float]:
    """One task: the sequential per-metagraph counting."""
    start = time.perf_counter()
    counts = match_and_count(
        _worker_graph,
        _worker_catalog[mg_id],
        anchor_type=_worker_catalog.anchor_type,
        matcher=_worker_matcher,
    )
    return mg_id, counts, time.perf_counter() - start


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def build_index(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    config: IndexBuildConfig | None = None,
    transform: Transform = identity,
    on_metagraph: Callable[[int, float], None] | None = None,
) -> tuple[MetagraphVectors, InstanceIndex]:
    """Match every catalog metagraph and build the vector store.

    With ``workers=1`` this *is* :func:`~repro.index.vectors.build_vectors`;
    with more workers the same counts are produced by a process pool and
    folded deterministically (ascending metagraph id), so downstream
    artefacts are identical whatever the worker count.  ``on_metagraph``
    receives ``(mg_id, seconds)`` per metagraph; under the pool the
    seconds are worker-side wall clock, i.e. matching cost, not
    queueing.
    """
    config = config or IndexBuildConfig()
    # resolved here so an unknown engine name fails the same way for
    # every worker count, before any process is spawned
    matcher = make_matcher(config.matcher)
    if config.workers == 1:
        return build_vectors(
            graph,
            catalog,
            matcher=matcher,
            transform=transform,
            on_metagraph=on_metagraph,
        )

    store = MetagraphVectors(
        len(catalog), anchor_type=catalog.anchor_type, transform=transform
    )
    store.verify_catalog(catalog)
    index = InstanceIndex(len(catalog), anchor_type=catalog.anchor_type)

    # the compiled engine's workers get the compact CSR arrays; any
    # other engine still needs the TypedGraph's dict-of-set adjacency
    payload = csr_view(graph) if isinstance(matcher, CompiledMatcher) else graph
    with ProcessPoolExecutor(
        max_workers=config.workers,
        initializer=_init_worker,
        initargs=(payload, catalog, config.matcher),
    ) as pool:
        # map yields in submission order — ascending metagraph id — so
        # the fold is deterministic however the tasks interleave
        for mg_id, counts, seconds in pool.map(_metagraph_task, catalog.ids()):
            index.add(mg_id, counts)
            store.add_counts(mg_id, counts)
            if on_metagraph is not None:
                on_metagraph(mg_id, seconds)
    return store, index
