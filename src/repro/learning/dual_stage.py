"""Dual-stage training (Sect. III-C, Alg. 1) and its multi-stage extension.

Matching every metagraph dominates the offline phase, but the optimal
weight vector is sparse: only a few metagraphs characterise a class.
Dual-stage training therefore:

1. **Seed stage** — matches only the metapaths K0 (cheap to identify,
   cheap to match) and trains seed weights ``w0``.
2. **Candidate stage** — scores every unmatched metagraph by the
   candidate heuristic (Eq. 7)

       H(Mj) = max_{Mi in K0} w0[i] * SS(Mi, Mj)

   (structural similarity to a highly weighted seed implies functional
   similarity), matches only the top-|K| candidates, and retrains on
   K0 ∪ K.

``reverse=True`` gives RCH, the Fig. 10 control that picks the *least*
promising candidates.  :func:`multi_stage_train` generalises to
progressive candidate batches with a caller-supplied stopping test.

Both stages are ordinary offline builds: each calls
:func:`~repro.index.parallel.build_index` with the stage's ids and the
store the previous stage filled, so the seed and candidate counts come
from the same compiled kernel and fold as a full build's.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import LearningError
from repro.graph.typed_graph import TypedGraph
from repro.index.instance_index import InstanceIndex
from repro.index.parallel import build_index
from repro.index.transform import Transform, identity
from repro.index.vectors import MetagraphVectors
from repro.learning.objective import Triplet
from repro.learning.trainer import Trainer
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.similarity import structural_similarity


def candidate_heuristic_scores(
    catalog: MetagraphCatalog,
    seed_ids: Sequence[int],
    seed_weights: np.ndarray,
) -> dict[int, float]:
    """H(Mj) for every non-seed metagraph (Eq. 7)."""
    scores: dict[int, float] = {}
    seeds = [(i, catalog[i]) for i in seed_ids]
    for j in catalog.ids():
        if j in seed_ids:
            continue
        scores[j] = max(
            (
                float(seed_weights[i]) * structural_similarity(seed, catalog[j])
                for i, seed in seeds
            ),
            default=0.0,
        )
    return scores


def select_candidates(
    scores: dict[int, float], num_candidates: int, reverse: bool = False
) -> list[int]:
    """Top-|K| ids by heuristic score (or bottom-|K| for RCH)."""
    ordered = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    if reverse:
        ordered = ordered[::-1]
    return [mg_id for mg_id, _score in ordered[:num_candidates]]


@dataclass
class DualStageResult:
    """Everything Alg. 1 produces, plus cost accounting."""

    weights: np.ndarray
    seed_ids: tuple[int, ...]
    candidate_ids: tuple[int, ...]
    seed_weights: np.ndarray
    vectors: MetagraphVectors
    index: InstanceIndex
    seed_match_seconds: float = 0.0
    candidate_match_seconds: float = 0.0
    train_seconds: float = 0.0
    heuristic_scores: dict[int, float] = field(default_factory=dict)

    @property
    def matched_ids(self) -> tuple[int, ...]:
        """All metagraph ids whose instances were computed."""
        return tuple(sorted(set(self.seed_ids) | set(self.candidate_ids)))

    @property
    def total_match_seconds(self) -> float:
        """Total matching cost across both stages."""
        return self.seed_match_seconds + self.candidate_match_seconds


def dual_stage_train(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    triplets: Sequence[Triplet],
    num_candidates: int,
    trainer: Trainer | None = None,
    transform: Transform = identity,
    reverse_heuristic: bool = False,
) -> DualStageResult:
    """Alg. 1: seed stage on metapaths, candidate stage on top-|K|."""
    trainer = trainer or Trainer()
    seed_ids = catalog.metapath_ids()
    if not seed_ids:
        raise LearningError(
            "catalog contains no metapaths to use as dual-stage seeds"
        )
    # --- seed stage -----------------------------------------------------
    match_time = [0.0]

    def on_metagraph(_mg_id: int, seconds: float) -> None:
        match_time[0] += seconds

    vectors, index = build_index(
        graph,
        catalog,
        mg_ids=seed_ids,
        transform=transform,
        on_metagraph=on_metagraph,
    )
    seed_match_seconds = match_time[0]
    train_start = time.perf_counter()
    w0 = trainer.train(triplets, vectors, active_ids=seed_ids)
    train_seconds = time.perf_counter() - train_start

    # --- candidate stage -------------------------------------------------
    scores = candidate_heuristic_scores(catalog, seed_ids, w0)
    candidates = select_candidates(scores, num_candidates, reverse=reverse_heuristic)
    match_time[0] = 0.0
    build_index(
        graph,
        catalog,
        mg_ids=candidates,
        vectors=vectors,
        index=index,
        on_metagraph=on_metagraph,
    )
    candidate_match_seconds = match_time[0]
    active = sorted(set(seed_ids) | set(candidates))
    train_start = time.perf_counter()
    weights = trainer.train(triplets, vectors, active_ids=active)
    train_seconds += time.perf_counter() - train_start

    return DualStageResult(
        weights=weights,
        seed_ids=tuple(seed_ids),
        candidate_ids=tuple(candidates),
        seed_weights=w0,
        vectors=vectors,
        index=index,
        seed_match_seconds=seed_match_seconds,
        candidate_match_seconds=candidate_match_seconds,
        train_seconds=train_seconds,
        heuristic_scores=scores,
    )


def multi_stage_train(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    triplets: Sequence[Triplet],
    batch_size: int,
    max_stages: int,
    stop: Callable[[np.ndarray, int], bool],
    trainer: Trainer | None = None,
    transform: Transform = identity,
) -> DualStageResult:
    """The multi-stage generalisation (Sect. III-C, last paragraph).

    Candidates are added in batches of ``batch_size``; after each stage
    the previously selected metagraphs act as the new seeds.  ``stop``
    receives the current weights and the stage number and returns True
    when training accuracy is acceptable.
    """
    trainer = trainer or Trainer()
    seed_ids = list(catalog.metapath_ids())
    if not seed_ids:
        raise LearningError(
            "catalog contains no metapaths to use as multi-stage seeds"
        )
    match_time = [0.0]

    def on_metagraph(_mg_id: int, seconds: float) -> None:
        match_time[0] += seconds

    vectors, index = build_index(
        graph, catalog, mg_ids=seed_ids,
        transform=transform, on_metagraph=on_metagraph,
    )
    seed_match_seconds = match_time[0]
    match_time[0] = 0.0
    train_start = time.perf_counter()
    weights = trainer.train(triplets, vectors, active_ids=seed_ids)
    train_seconds = time.perf_counter() - train_start
    w0 = weights.copy()
    active = list(seed_ids)
    all_candidates: list[int] = []

    for stage in range(1, max_stages + 1):
        if stop(weights, stage - 1):
            break
        scores = candidate_heuristic_scores(catalog, active, weights)
        batch = select_candidates(scores, batch_size)
        if not batch:
            break
        build_index(
            graph, catalog, mg_ids=batch,
            vectors=vectors, index=index, on_metagraph=on_metagraph,
        )
        active = sorted(set(active) | set(batch))
        all_candidates.extend(batch)
        train_start = time.perf_counter()
        weights = trainer.train(triplets, vectors, active_ids=active)
        train_seconds += time.perf_counter() - train_start

    return DualStageResult(
        weights=weights,
        seed_ids=tuple(seed_ids),
        candidate_ids=tuple(all_candidates),
        seed_weights=w0,
        vectors=vectors,
        index=index,
        seed_match_seconds=seed_match_seconds,
        candidate_match_seconds=match_time[0],
        train_seconds=train_seconds,
    )
