"""Shared offline-phase runner with in-process caching.

Several experiments need the same expensive artefacts — the dataset, the
mined catalog, and the full metagraph vectors.  :class:`OfflineRunner`
computes them once per (dataset, config) and hands out the cached copy,
recording the per-subproblem wall-clock costs that Table III reports.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.datasets import LabeledGraphDataset, load_dataset
from repro.experiments.config import ExperimentConfig
from repro.index.instance_index import InstanceIndex
from repro.index.parallel import IndexBuildConfig, build_index
from repro.index.vectors import MetagraphVectors
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.mining import build_catalog
from repro.mining.grami import GramiMiner


@dataclass
class OfflinePhase:
    """Everything the offline phase of Fig. 3 produces, plus timings."""

    dataset: LabeledGraphDataset
    catalog: MetagraphCatalog
    vectors: MetagraphVectors
    index: InstanceIndex
    mining_seconds: float
    matching_seconds: float
    per_metagraph_seconds: dict[int, float] = field(default_factory=dict)


class OfflineRunner:
    """Caches offline phases per dataset within one process."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._cache: dict[str, OfflinePhase] = {}

    def trainer(self, seed: int | None = None) -> Trainer:
        """A Trainer matching the experiment configuration."""
        return Trainer(
            TrainerConfig(
                restarts=self.config.trainer_restarts,
                max_iterations=self.config.trainer_max_iterations,
                seed=self.config.seed if seed is None else seed,
            )
        )

    def dataset(self, name: str) -> LabeledGraphDataset:
        """The (cached) dataset at the configured scale."""
        return self.offline(name).dataset

    def offline(self, name: str) -> OfflinePhase:
        """Dataset + catalog + fully matched vectors, computed once."""
        if name in self._cache:
            return self._cache[name]
        dataset = load_dataset(name, scale=self.config.scale)
        miner_config = self.config.miner_config(name)
        start = time.perf_counter()
        mining = GramiMiner(miner_config).mine(dataset.graph)
        catalog = build_catalog(
            mining.patterns,
            anchor_type=dataset.anchor_type,
            max_nodes=miner_config.max_nodes,
        )
        mining_seconds = time.perf_counter() - start
        per_mg: dict[int, float] = {}
        start = time.perf_counter()
        vectors, index = build_index(
            dataset.graph,
            catalog,
            config=IndexBuildConfig(workers=self.config.index_workers),
            on_metagraph=lambda mg_id, sec: per_mg.__setitem__(mg_id, sec),
        )
        matching_seconds = time.perf_counter() - start
        phase = OfflinePhase(
            dataset=dataset,
            catalog=catalog,
            vectors=vectors,
            index=index,
            mining_seconds=mining_seconds,
            matching_seconds=matching_seconds,
            per_metagraph_seconds=per_mg,
        )
        self._cache[name] = phase
        return phase
