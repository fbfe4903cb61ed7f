"""End-to-end evaluation harness (Sect. V-A "Training and testing").

A *ranker* is any callable ``rank(query) -> ordered list of nodes``
(most proximate first, query excluded).  The harness compares rankings
against the labelled class membership and reports mean NDCG@10 and
MAP@10 over the test queries.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

from repro.graph.typed_graph import NodeId
from repro.eval.metrics import average_precision_at_k, mean, ndcg_at_k
from repro.learning.model import SortedUniverse

Ranker = Callable[[NodeId], Sequence[NodeId]]
Labels = Mapping[NodeId, frozenset[NodeId]]


@dataclass(frozen=True)
class EvalResult:
    """Mean ranking quality over a set of test queries."""

    ndcg: float
    map: float
    num_queries: int

    def __add__(self, other: "EvalResult") -> "EvalResult":
        """Pool two results, weighting by query counts."""
        total = self.num_queries + other.num_queries
        if total == 0:
            return EvalResult(0.0, 0.0, 0)
        return EvalResult(
            ndcg=(self.ndcg * self.num_queries + other.ndcg * other.num_queries) / total,
            map=(self.map * self.num_queries + other.map * other.num_queries) / total,
            num_queries=total,
        )


def evaluate_ranker(
    ranker: Ranker,
    test_queries: Sequence[NodeId],
    labels: Labels,
    k: int = 10,
) -> EvalResult:
    """Mean NDCG@k / MAP@k of a ranker over the test queries.

    Queries with no labelled positives are skipped — they have no ideal
    ranking to compare against (the paper only uses queries with at
    least one same-class node).
    """
    ndcgs: list[float] = []
    aps: list[float] = []
    evaluated = 0
    for q in test_queries:
        relevant = labels.get(q, frozenset()) - {q}
        if not relevant:
            continue
        ranked = list(ranker(q))
        ndcgs.append(ndcg_at_k(ranked, relevant, k))
        aps.append(average_precision_at_k(ranked, relevant, k))
        evaluated += 1
    return EvalResult(ndcg=mean(ndcgs), map=mean(aps), num_queries=evaluated)


def average_results(results: Sequence[EvalResult]) -> EvalResult:
    """Unweighted mean over splits (the paper averages over 10 splits)."""
    if not results:
        return EvalResult(0.0, 0.0, 0)
    return EvalResult(
        ndcg=mean([r.ndcg for r in results]),
        map=mean([r.map for r in results]),
        num_queries=sum(r.num_queries for r in results),
    )


def model_ranker(model, universe: Sequence[NodeId]) -> Ranker:
    """Adapt a ProximityModel (or anything with .rank) to the harness."""
    universe = SortedUniverse(universe)  # sorted (and masked) once, not per query

    def rank(query: NodeId) -> list[NodeId]:
        return [node for node, _score in model.rank(query, universe=universe)]

    return rank
