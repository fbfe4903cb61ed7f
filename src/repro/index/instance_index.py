"""Instance counting for metagraph vectors (offline subproblem 2).

For each metagraph we need, per Eq. 1–2:

- ``pair_counts[(x, y)]`` — the number of instances containing both
  ``x`` and ``y`` at symmetric anchor positions (unordered pair, each
  instance counted once per distinct pair it realises);
- ``node_counts[x]`` — the number of instances containing ``x`` at a
  symmetric anchor position (each instance counted once per distinct
  node).

The symmetric-position pairs of an instance are derived from one witness
embedding; they are independent of which embedding is used because the
set of symmetric pattern-node pairs is invariant under automorphisms
(conjugating the witness involution by an automorphism gives another
involutive automorphism).
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DeltaError
from repro.graph.csr import CSRGraph
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.matching.base import Instance, MatcherProtocol, deduplicate_instances
from repro.matching.compiled import CompiledMatcher, compiled_embedding_matrix
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import anchor_symmetric_pairs

Pair = tuple[NodeId, NodeId]


def _pair_key(x: NodeId, y: NodeId) -> Pair:
    try:
        return (x, y) if x <= y else (y, x)  # type: ignore[operator]
    except TypeError:
        return (x, y) if repr(x) <= repr(y) else (y, x)


@dataclass
class MetagraphCounts:
    """Eq. 1–2 counts for one metagraph."""

    num_instances: int = 0
    node_counts: Counter = field(default_factory=Counter)
    pair_counts: Counter = field(default_factory=Counter)


def instance_anchor_pairs(
    instance: Instance, sym_pairs: Sequence[tuple[int, int]]
) -> set[Pair]:
    """The distinct symmetric anchor pairs one instance realises.

    Derived from the instance's witness embedding; invariant under the
    witness choice because the symmetric pattern-node pairs are closed
    under automorphisms.
    """
    emb = instance.embedding  # indexed by pattern node (0..n-1)
    return {_pair_key(emb[u], emb[v]) for u, v in sym_pairs}


def count_instances_into(
    counts: MetagraphCounts,
    instances: Iterable[Instance],
    sym_pairs: Sequence[tuple[int, int]],
) -> None:
    """Fold a stream of instances into ``counts`` per Eq. 1–2."""
    if not sym_pairs:
        # No symmetric anchor pair: the metagraph cannot contribute to
        # anchor-anchor proximity (Eq. 1 is empty) — only |I(M)| counts.
        for _ in instances:
            counts.num_instances += 1
        return
    for instance in instances:
        counts.num_instances += 1
        pairs_here = instance_anchor_pairs(instance, sym_pairs)
        nodes_here = {n for pair in pairs_here for n in pair}
        for pair in pairs_here:
            counts.pair_counts[pair] += 1
        # repro-lint: ignore[unordered-iter] -- commutative `+= 1` fold; the Counter value per node is order-independent
        for node in nodes_here:
            counts.node_counts[node] += 1


def compiled_match_and_count(
    csr: CSRGraph, metagraph: Metagraph, anchor_type: str = "user"
) -> MetagraphCounts:
    """Eq. 1–2 counts straight from the compiled kernel's integer arrays.

    The whole per-embedding Python pipeline (dict embeddings →
    ``Instance`` objects → Counter updates keyed on arbitrary node ids)
    collapses into array ops: instances deduplicate as sorted integer
    rows under one ``np.unique``, symmetric anchor pairs are encoded as
    single integers and tallied by a second ``np.unique``, and original
    node ids are decoded once per *unique* pair instead of once per
    embedding.  The result is bit-identical to the streamed path: the
    pair set of an instance does not depend on which witness embedding
    ``np.unique`` happens to keep (symmetric pattern-node pairs are
    closed under automorphisms — see the module docstring).
    """
    counts = MetagraphCounts()
    embeddings = compiled_embedding_matrix(csr, metagraph)
    if embeddings.shape[0] == 0:
        return counts
    keys = np.sort(embeddings, axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    counts.num_instances = int(first.size)
    sym_pairs = sorted(anchor_symmetric_pairs(metagraph, anchor_type))
    if not sym_pairs:
        return counts
    witnesses = embeddings[first]
    node_ids = csr.node_ids
    # dense ids are int32, so an unordered pair packs into one int64
    # (lo * stride + hi < 2^62) with no overflow risk; the *instance*
    # dimension is deliberately NOT packed into the same scalar — that
    # triple product could wrap int64 on huge graphs — and is deduped by
    # lexsort over (instance, code) instead (1-D ops stay fast).
    stride = max(csr.num_nodes, 1)
    code_cols = []
    for u, v in sym_pairs:
        a, b = witnesses[:, u], witnesses[:, v]
        code_cols.append(np.minimum(a, b) * stride + np.maximum(a, b))
    rows = np.repeat(np.arange(first.size), len(sym_pairs))
    code = np.stack(code_cols, axis=1).ravel()
    order = np.lexsort((code, rows))
    rows, code = rows[order], code[order]
    keep = np.ones(rows.size, dtype=bool)  # an instance counts each
    keep[1:] = (rows[1:] != rows[:-1]) | (code[1:] != code[:-1])  # pair once
    rows, code = rows[keep], code[keep]
    uniq_codes, pair_tallies = np.unique(code, return_counts=True)
    counts.pair_counts.update(
        {
            _pair_key(node_ids[c // stride], node_ids[c % stride]): count
            for c, count in zip(uniq_codes.tolist(), pair_tallies.tolist())
        }
    )
    # ... and each node once, however many of its pairs the instance has
    node_rows = np.concatenate([rows, rows])
    node_vals = np.concatenate([code // stride, code % stride])
    order = np.lexsort((node_vals, node_rows))
    node_rows, node_vals = node_rows[order], node_vals[order]
    keep = np.ones(node_rows.size, dtype=bool)
    keep[1:] = (node_rows[1:] != node_rows[:-1]) | (node_vals[1:] != node_vals[:-1])
    uniq_nodes, node_tallies = np.unique(node_vals[keep], return_counts=True)
    counts.node_counts.update(
        {
            node_ids[c]: count
            for c, count in zip(uniq_nodes.tolist(), node_tallies.tolist())
        }
    )
    return counts


def match_and_count(
    graph: TypedGraph | None,
    metagraph: Metagraph,
    anchor_type: str = "user",
    matcher: MatcherProtocol | None = None,
) -> MetagraphCounts:
    """Match a metagraph and accumulate its Eq. 1–2 counts.

    The default engine is the compiled integer-CSR kernel, counted
    through its array fast path.  Any other
    :class:`~repro.matching.base.MatcherProtocol` engine streams
    deduplicated embeddings through the reference path instead; the two
    paths are bit-identical (the cross-matcher parity suite pins it).
    ``graph`` may be ``None`` only for a :class:`CompiledMatcher` bound
    to CSR arrays (the parallel builder's workers hold no graph).
    """
    engine = matcher if matcher is not None else CompiledMatcher()
    if isinstance(engine, CompiledMatcher):
        return compiled_match_and_count(
            engine.csr_for(graph), metagraph, anchor_type
        )
    assert graph is not None, "only a CSR-bound CompiledMatcher matches without a graph"
    sym_pairs = anchor_symmetric_pairs(metagraph, anchor_type)
    counts = MetagraphCounts()
    count_instances_into(
        counts,
        deduplicate_instances(engine.find_embeddings(graph, metagraph)),
        sym_pairs,
    )
    return counts


class InstanceIndex:
    """Which metagraphs were matched, and their ``|I(M)|``, filled incrementally.

    Dual-stage training matches only a subset of the catalog; the index
    records which metagraph ids have been matched so downstream code can
    distinguish "zero count" from "never matched".  The Eq. 1–2 counts
    themselves live in one place, the
    :class:`~repro.index.vectors.MetagraphVectors` ledger.
    """

    def __init__(self, catalog_size: int, anchor_type: str = "user"):
        self.catalog_size = catalog_size
        self.anchor_type = anchor_type
        self._totals: dict[int, int] = {}

    def add(self, mg_id: int, counts: MetagraphCounts) -> None:
        """Record a matched metagraph id and its instance total."""
        if not 0 <= mg_id < self.catalog_size:
            raise IndexError(f"metagraph id {mg_id} outside catalog of size {self.catalog_size}")
        self._totals[mg_id] = counts.num_instances

    def patch(
        self, mg_id: int, retired: MetagraphCounts, added: MetagraphCounts
    ) -> None:
        """Apply a delta to a matched metagraph's ``|I(M)|``.

        Going negative means the delta is wrong and raises
        :class:`~repro.exceptions.DeltaError`.
        """
        if mg_id not in self._totals:
            raise DeltaError(
                f"metagraph id {mg_id} was never matched; cannot patch"
            )
        total = self._totals[mg_id] + added.num_instances - retired.num_instances
        if total < 0:
            raise DeltaError(
                f"metagraph {mg_id}: retired more instances than existed"
            )
        self._totals[mg_id] = total

    def matched_ids(self) -> frozenset[int]:
        """Ids whose instances have been computed."""
        return frozenset(self._totals)

    def is_matched(self, mg_id: int) -> bool:
        """True iff the metagraph has been matched."""
        return mg_id in self._totals

    def num_instances(self, mg_id: int) -> int:
        """|I(M)| for a matched metagraph id."""
        return self._totals[mg_id]

    def __len__(self) -> int:
        return len(self._totals)
