"""Subgraph matching engines for metagraphs (Sect. IV)."""

from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import (
    Embedding,
    Instance,
    MatcherProtocol,
    count_instances,
    deduplicate_instances,
    find_instances,
    is_valid_embedding,
)
from repro.matching.boostiso import BoostISOMatcher
from repro.matching.compiled import CompiledMatcher, compiled_pinned_embeddings
from repro.matching.ordering import (
    GraphCardinalities,
    estimated_cost_order,
    random_connected_order,
    rarest_type_order,
)
from repro.matching.quicksi import QuickSIMatcher
from repro.matching.symiso import SymISOMatcher
from repro.matching.turboiso import TurboISOMatcher, candidate_regions

ALL_ENGINES = {
    "SymISO": lambda: SymISOMatcher(),
    "SymISO-R": lambda: SymISOMatcher(random_order=True, seed=7),
    "BoostISO": BoostISOMatcher,
    "TurboISO": TurboISOMatcher,
    "QuickSI": QuickSIMatcher,
    "Compiled": CompiledMatcher,
}
"""Factory registry used by Fig. 11 and the engine-agreement tests."""

__all__ = [
    "ALL_ENGINES",
    "BoostISOMatcher",
    "CompiledMatcher",
    "Embedding",
    "GraphCardinalities",
    "Instance",
    "MatcherProtocol",
    "QuickSIMatcher",
    "SymISOMatcher",
    "TurboISOMatcher",
    "backtrack_embeddings",
    "candidate_regions",
    "compiled_pinned_embeddings",
    "count_instances",
    "deduplicate_instances",
    "estimated_cost_order",
    "find_instances",
    "is_valid_embedding",
    "random_connected_order",
    "rarest_type_order",
]
