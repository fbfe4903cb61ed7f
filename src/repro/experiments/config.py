"""Experiment configuration: scaled-down defaults with paper-scale knobs.

The paper's testbed (65k-node LinkedIn, C++ matcher, 3.7 GHz machine) is
substituted by pure-Python on synthetic graphs, so default sizes target
minutes per experiment.  Every knob is explicit; ``--scale`` presets map
to dataset sizes, and per-dataset mining support keeps catalog sizes in
a realistic ratio (Facebook's 10 types yield several times more
metagraphs than LinkedIn's 4, as in Table II).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mining.grami import MinerConfig


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    scale: str = "small"
    max_nodes: int = 5
    linkedin_min_support: int = 8
    facebook_min_support: int = 8
    # the kinded (labeled, directed) reaction-network dataset is far
    # sparser per edge kind than the social graphs, so its support
    # threshold sits lower
    reactions_min_support: int = 2
    num_splits: int = 3
    omega_sizes: tuple[int, ...] = (10, 100, 1000)
    eval_k: int = 10
    trainer_restarts: int = 3
    trainer_max_iterations: int = 600
    srw_epochs: int = 15
    srw_power_iterations: int = 30
    seed: int = 0
    # offline index build: worker processes for the matching phase
    # (1 = sequential reference path; results are identical either way)
    index_workers: int = 1
    # Fig. 8 / Fig. 10 candidate sweeps, per dataset
    candidate_sweep: dict[str, tuple[int, ...]] = field(
        default_factory=lambda: {
            "linkedin": (5, 10, 20),
            "facebook": (20, 60, 120),
            "reactions": (3, 6, 10),
        }
    )
    # Fig. 11: how many metagraphs to time per size bucket, and how many
    # repeats per (engine, metagraph) timing — best-of-N suppresses
    # scheduler noise so the engine comparison is stable
    fig11_per_size: int = 8
    fig11_repeats: int = 3
    # Fig. 9: cap on metagraph pairs scored (None = all pairs)
    fig9_max_pairs: int | None = 20000

    def miner_config(self, dataset_name: str) -> MinerConfig:
        """The mining configuration for one dataset."""
        if dataset_name == "linkedin":
            support = self.linkedin_min_support
        elif dataset_name == "reactions":
            support = self.reactions_min_support
        else:
            support = self.facebook_min_support
        return MinerConfig(max_nodes=self.max_nodes, min_support=support)


QUICK_CONFIG = ExperimentConfig(
    scale="tiny",
    max_nodes=4,
    linkedin_min_support=3,
    facebook_min_support=3,
    num_splits=2,
    omega_sizes=(10, 50),
    trainer_restarts=2,
    trainer_max_iterations=250,
    srw_epochs=6,
    srw_power_iterations=20,
    candidate_sweep={"linkedin": (2, 5), "facebook": (5, 15), "reactions": (2, 4)},
    fig11_per_size=4,
    fig9_max_pairs=3000,
)
"""A minutes-not-hours preset used by --quick and the benchmarks."""
