"""Subgraph matching engines for metagraphs (Sect. IV)."""

from repro.exceptions import MatchingError
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

MATCHERS = {
    "compiled": CompiledMatcher,
    "symiso": lambda: SymISOMatcher(),
    "symiso-r": lambda: SymISOMatcher(random_order=True, seed=7),
    "boostiso": BoostISOMatcher,
    "turboiso": TurboISOMatcher,
    "quicksi": QuickSIMatcher,
}
"""Config/CLI matcher names (``--matcher``) to engine factories."""


def make_matcher(name: str) -> MatcherProtocol:
    """Instantiate a matching engine from its config/CLI name."""
    try:
        factory = MATCHERS[name.lower()]
    except KeyError:
        raise MatchingError(
            f"unknown matcher {name!r}; expected one of {sorted(MATCHERS)}"
        ) from None
    return factory()


__all__ = [
    "ALL_ENGINES",
    "BoostISOMatcher",
    "CompiledMatcher",
    "Embedding",
    "GraphCardinalities",
    "Instance",
    "MATCHERS",
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
    "make_matcher",
    "random_connected_order",
    "rarest_type_order",
]
