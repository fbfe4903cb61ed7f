"""The offline index build: one compiled-kernel task per metagraph.

The offline phase's cost is Eq. 1–2 counting — one independent
:func:`~repro.index.instance_index.compiled_match_and_count` per
metagraph over the graph's :class:`~repro.graph.csr.CSRGraph` view — so
the build is a map over catalog ids followed by one fold.  With one
worker the builtin ``map`` runs the tasks in-process; with more, a
process pool runs the same task, and its initializer ships the compact
CSR arrays (plus the catalog) once per worker instead of the
dict-of-set :class:`TypedGraph`.  Either way the counts are folded in
ascending metagraph-id order, so the store is *bit-identical* whatever
the worker count — the determinism suite compares snapshot bytes across
worker counts to prove it.

Dual-stage training (Sect. III-C, Alg. 1) is the same build run on a
subset of ids: :func:`build_index` takes ``mg_ids`` and extends an
existing ``vectors``/``index`` pair in place.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial

from repro.exceptions import CatalogMismatchError
from repro.graph.csr import CSRGraph, csr_view
from repro.graph.typed_graph import TypedGraph
from repro.index.instance_index import (
    InstanceIndex,
    MetagraphCounts,
    compiled_match_and_count,
)
from repro.index.transform import Transform, identity
from repro.index.vectors import MetagraphVectors
from repro.metagraph.catalog import MetagraphCatalog


@dataclass(frozen=True)
class IndexBuildConfig:
    """Knobs for the offline index build.

    Parameters
    ----------
    workers:
        Process-pool size (at least 1).  ``1`` (default) runs every
        task in-process — no pool, no pickling.  The counts are
        identical for any worker count.
    """

    workers: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")


Task = tuple[int, MetagraphCounts, float]


def _count_metagraph(csr: CSRGraph, catalog: MetagraphCatalog, mg_id: int) -> Task:
    """One task: match one metagraph and count it, timed."""
    start = time.perf_counter()
    counts = compiled_match_and_count(csr, catalog[mg_id], catalog.anchor_type)
    return mg_id, counts, time.perf_counter() - start


# ----------------------------------------------------------------------
# worker side: module-level state installed once per pool process
# ----------------------------------------------------------------------
_worker_csr: CSRGraph
_worker_catalog: MetagraphCatalog


def _init_worker(csr: CSRGraph, catalog: MetagraphCatalog) -> None:
    global _worker_csr, _worker_catalog
    _worker_csr, _worker_catalog = csr, catalog


def _metagraph_task(mg_id: int) -> Task:
    return _count_metagraph(_worker_csr, _worker_catalog, mg_id)


@contextmanager
def _task_map(
    workers: int, csr: CSRGraph, catalog: MetagraphCatalog
) -> Iterator[Callable[[list[int]], Iterable[Task]]]:
    """A ``map`` over metagraph ids that yields tasks in submission order."""
    if workers == 1:
        yield partial(map, partial(_count_metagraph, csr, catalog))
        return
    with ProcessPoolExecutor(
        max_workers=workers, initializer=_init_worker, initargs=(csr, catalog)
    ) as pool:
        yield partial(pool.map, _metagraph_task)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _ids_to_match(
    catalog: MetagraphCatalog, mg_ids: Iterable[int] | None, matched: frozenset[int]
) -> list[int]:
    """The requested ids not matched yet, ascending; out-of-range ids raise."""
    size = len(catalog)
    wanted = set(catalog.ids() if mg_ids is None else mg_ids)
    bad = sorted(mg_id for mg_id in wanted if not 0 <= mg_id < size)
    if bad:
        raise CatalogMismatchError(
            f"metagraph ids {bad} outside catalog of size {size}"
        )
    return sorted(wanted - matched)


def build_index(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    config: IndexBuildConfig | None = None,
    *,
    mg_ids: Iterable[int] | None = None,
    vectors: MetagraphVectors | None = None,
    index: InstanceIndex | None = None,
    transform: Transform = identity,
    on_metagraph: Callable[[int, float], None] | None = None,
) -> tuple[MetagraphVectors, InstanceIndex]:
    """Match catalog metagraphs and build (or extend) the vector store.

    Parameters
    ----------
    mg_ids:
        Which catalog ids to match (default: all).  Duplicates collapse,
        ids the store already holds are skipped, and an id outside the
        catalog raises :class:`CatalogMismatchError` before anything is
        matched.
    vectors, index:
        An existing store and index to extend in place — dual-stage
        training passes the seed stage's pair to the candidate stage.
        Give both or neither; they must record the same matched ids.
        ``transform`` applies only to a fresh store.
    on_metagraph:
        Optional callback ``(mg_id, seconds)`` invoked per matched
        metagraph in ascending id order; the seconds are the task's own
        wall clock (matching and counting, not pool queueing).  The
        experiment harness records per-metagraph matching cost with it
        (Table III, Fig. 8, Fig. 11).
    """
    config = config or IndexBuildConfig()
    if vectors is None and index is None:
        vectors = MetagraphVectors(
            len(catalog), anchor_type=catalog.anchor_type, transform=transform
        )
        index = InstanceIndex(len(catalog), anchor_type=catalog.anchor_type)
    elif vectors is None or index is None:
        raise CatalogMismatchError(
            "pass an existing vectors store and instance index together, or neither"
        )
    vectors.verify_catalog(catalog)
    catalog.verify_compatible(index.catalog_size)
    if vectors.matched_ids != index.matched_ids():
        raise CatalogMismatchError(
            f"vectors hold metagraphs {sorted(vectors.matched_ids)} but the "
            f"index records {sorted(index.matched_ids())}"
        )
    todo = _ids_to_match(catalog, mg_ids, vectors.matched_ids)
    if not todo:
        return vectors, index
    with _task_map(config.workers, csr_view(graph), catalog) as run:
        # both maps yield in submission order — ascending metagraph id —
        # so the fold is deterministic however pool tasks interleave
        for mg_id, counts, seconds in run(todo):
            index.add(mg_id, counts)
            vectors.add_counts(mg_id, counts)
            if on_metagraph is not None:
                on_metagraph(mg_id, seconds)
    return vectors, index
