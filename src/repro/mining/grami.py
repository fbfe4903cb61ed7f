"""GraMi-style frequent metagraph mining on a single large graph.

The paper uses GRAMI [9] off the shelf for offline subproblem 1 (mining
the metagraph set M).  This module is our from-scratch substitute with
the same semantics:

- **support** is MNI (minimum node image): the support of a pattern is
  the minimum, over pattern nodes ``u``, of the number of distinct graph
  nodes that appear as the image of ``u`` in some embedding.  Embeddings
  use standard (non-induced) subgraph isomorphism, as GRAMI does.
- **anti-monotone pruning**: MNI support never increases when a pattern
  grows, so growth proceeds only from frequent patterns and each
  isomorphism class is tested once (canonical-form dedup).
- support evaluation short-circuits once every pattern node has reached
  the threshold, and abandons patterns whose embedding enumeration
  exceeds a configurable budget (reported, never silent).
- **symmetry breaking**: the enumeration runs on the compiled matching
  kernel (:mod:`repro.matching.compiled`, non-induced) and keeps one
  embedding per orbit of the pattern's automorphism group
  (stabiliser-chain conditions); the images of an orbit's nodes are the
  union of the kept rows' columns over that orbit, so MNI stays exact.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.graph.csr import csr_view
from repro.graph.typed_graph import TypedGraph
from repro.matching.compiled import assignment_batches, compiled_order
from repro.matching.plan import MatchPlan
from repro.metagraph.canonical import CanonicalForm, canonical_form, decode_form
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import automorphisms, orbits
from repro.mining.enumerate import check_size_bounds, extensions, single_edge_patterns


@dataclass(frozen=True)
class MinerConfig:
    """Configuration of the GraMi-style miner.

    Parameters
    ----------
    max_nodes:
        Largest pattern size; the paper restricts metagraphs to 5 nodes.
    max_edges:
        Optional edge bound (None = unbounded).
    min_support:
        MNI support threshold for a pattern to be frequent.
    embedding_budget:
        Abort support evaluation for one pattern after this many
        embeddings.  Early abortion can only *under*-report support, so
        a budget hit is treated as frequent (the pattern demonstrably
        has an enormous embedding count) and counted in
        :class:`MiningResult.budget_hits`.  The symmetry-broken
        enumeration of :func:`mni_support` counts each kept row as
        |Aut(M)| embeddings, so the abort point (and the partial
        support a budget hit reports) can differ from an unbroken
        enumeration's.  The budget is checked once per kernel batch
        (all completions of one partial assignment), so a hit can
        overshoot it by at most one batch's tail times |Aut(M)|.

    Every bound is validated on construction (``ValueError``):
    ``max_nodes >= 2`` (a pattern needs an edge), ``max_edges`` None
    or ``>= 1``, ``min_support >= 1`` and ``embedding_budget >= 1``.
    """

    max_nodes: int = 5
    max_edges: int | None = None
    min_support: int = 2
    embedding_budget: int = 2_000_000

    def __post_init__(self) -> None:
        check_size_bounds(self.max_nodes, self.max_edges)
        if self.min_support < 1:
            raise ValueError(f"min_support must be >= 1, got {self.min_support}")
        if self.embedding_budget < 1:
            raise ValueError(
                f"embedding_budget must be >= 1, got {self.embedding_budget}"
            )

    def to_json_dict(self) -> dict:
        """The knobs as plain JSON types (snapshot/manifest provenance)."""
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SupportEstimate:
    """Outcome of one MNI support evaluation."""

    support: int
    budget_hit: bool

    def is_frequent(self, threshold: int) -> bool:
        """Frequent iff the threshold was reached or evaluation was cut short."""
        return self.support >= threshold or self.budget_hit


@dataclass
class MiningResult:
    """Outcome of a mining run."""

    patterns: list[Metagraph] = field(default_factory=list)
    supports: dict[CanonicalForm, int] = field(default_factory=dict)
    candidates_tested: int = 0
    budget_hits: int = 0

    def support_of(self, pattern: Metagraph) -> int:
        """MNI support recorded for a mined pattern."""
        return self.supports[canonical_form(pattern)]


def mni_support(
    graph: TypedGraph,
    pattern: Metagraph,
    threshold: int,
    embedding_budget: int | None = None,
) -> SupportEstimate:
    """MNI support of ``pattern`` on ``graph``.

    Short-circuits at ``threshold`` (returns ``threshold`` as soon as
    every pattern node has at least ``threshold`` distinct images), so
    the exact value is only computed when it is below the threshold.

    The enumeration walks the compiled kernel's non-induced batches over
    ``csr_view(graph)``, which keep one embedding per orbit of Aut(M)
    under the symmetry-breaking conditions of
    :func:`~repro.metagraph.symmetry.symmetry_conditions`.  Aut(M) acts
    freely on non-induced embeddings too, and the images of node ``u``
    over a kept row's orbit are the row's columns over ``orbit(u)``: so
    every node of one orbit shares one image set, the union of the kept
    rows' columns over that orbit, and the support is exact.  A kept row
    counts as |Aut(M)| embeddings toward ``embedding_budget``.  The
    threshold and the budget are checked after each kernel batch (one
    partial assignment and the array of its last node's images), so a
    budget hit can overshoot by at most one tail, and may come at a
    different point than in an unbroken enumeration.  Candidates are
    visited in ascending dense id, so the result does not depend on the
    process's hash seed.
    """
    csr = csr_view(graph)
    plan = MatchPlan(pattern, compiled_order(csr, pattern), induced=False, fixed=())
    order = plan.order
    group_size = len(automorphisms(pattern))
    node_orbits = orbits(pattern)
    images: list[set[int]] = [set() for _ in node_orbits]
    image_of = {u: image for image, orbit in zip(images, node_orbits) for u in orbit}
    prefix_images = [image_of[u] for u in order[:-1]]
    tail_images = image_of[order[-1]]
    enumerated = 0
    for prefix, tail in assignment_batches(csr, plan):
        enumerated += group_size * tail.size
        for image, v in zip(prefix_images, prefix):
            image.add(v)
        tail_images.update(tail.tolist())
        if all(len(s) >= threshold for s in images):
            return SupportEstimate(threshold, budget_hit=False)
        if embedding_budget is not None and enumerated >= embedding_budget:
            return SupportEstimate(
                min(len(s) for s in images), budget_hit=True
            )
    return SupportEstimate(min(len(s) for s in images), budget_hit=False)


class GramiMiner:
    """Pattern-growth miner with MNI support and canonical dedup."""

    def __init__(self, config: MinerConfig | None = None):
        self.config = config or MinerConfig()

    def mine(self, graph: TypedGraph) -> MiningResult:
        """Mine all frequent patterns of the configured size on ``graph``."""
        cfg = self.config
        result = MiningResult()
        if graph.num_edges == 0:
            return result
        edge_rules = graph.observed_edge_rules()
        types = sorted(graph.types)
        seen: set[CanonicalForm] = set()
        frontier: list[Metagraph] = []

        def consider(pattern: Metagraph) -> None:
            form = canonical_form(pattern)
            if form in seen:
                return
            seen.add(form)
            result.candidates_tested += 1
            estimate = mni_support(
                graph, pattern, cfg.min_support, cfg.embedding_budget
            )
            if not estimate.is_frequent(cfg.min_support):
                return
            if estimate.budget_hit:
                result.budget_hits += 1
            canonical = decode_form(form)
            result.patterns.append(canonical)
            result.supports[form] = estimate.support
            frontier.append(canonical)

        for pattern in single_edge_patterns(edge_rules):
            consider(pattern)
        while frontier:
            current, frontier = frontier, []
            for pattern in current:
                for extension in extensions(
                    pattern, edge_rules, types, cfg.max_nodes, cfg.max_edges
                ):
                    consider(extension)
        result.patterns.sort(
            key=lambda m: (m.size, m.num_edges, canonical_form(m))
        )
        return result
