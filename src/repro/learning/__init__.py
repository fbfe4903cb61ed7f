"""Supervised learning of metagraph-based proximity (Sect. III)."""

from repro.learning.dual_stage import (
    DualStageResult,
    candidate_heuristic_scores,
    dual_stage_train,
    multi_stage_train,
    select_candidates,
)
from repro.learning.examples import LabelMap, generate_triplets
from repro.learning.model import (
    ProximityModel,
    restrict_weights,
    single_metagraph_model,
    uniform_model,
)
from repro.learning.objective import (
    Triplet,
    TripletMatrices,
    example_probabilities,
    log_likelihood,
    log_likelihood_gradient,
)
from repro.learning.proximity import (
    batch_mgp,
    batch_mgp_gradient,
)
from repro.learning.trainer import Trainer, TrainerConfig, TrainingRun

__all__ = [
    "DualStageResult",
    "LabelMap",
    "ProximityModel",
    "Trainer",
    "TrainerConfig",
    "TrainingRun",
    "Triplet",
    "TripletMatrices",
    "batch_mgp",
    "batch_mgp_gradient",
    "candidate_heuristic_scores",
    "dual_stage_train",
    "example_probabilities",
    "generate_triplets",
    "log_likelihood",
    "log_likelihood_gradient",
    "multi_stage_train",
    "restrict_weights",
    "select_candidates",
    "single_metagraph_model",
    "uniform_model",
]
