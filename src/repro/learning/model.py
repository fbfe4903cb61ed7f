"""ProximityModel: the trained artefact answering online queries.

Holds the learned weight vector, the vector store and the anchor node
universe, and produces the descending-proximity ranking of Sect. II-B's
online phase.  Ranking a query is a lookup, not a traversal: only the
query's *partners* (nodes sharing at least one metagraph instance) can
have non-zero proximity, so the candidate set is tiny relative to |V|.

There is one scoring path.  A model scores against the store's
:class:`~repro.index.compiled.CompiledVectors` CSR snapshot: the
``m_x . w`` products of every node and the ``m_xy . w`` products of
every pair are precomputed in two O(nnz) passes when the weights meet a
snapshot (:meth:`ProximityModel.compile`), after which ranking is one
``batch_mgp``-style vectorised pass over the candidate slice plus an
``np.argpartition`` top-k (:func:`rank_candidates` — the one kernel the
shard tier executes too, over its
:class:`~repro.serving.shards.CompiledShard` slices).  ``proximity`` and
``explain`` read the same two dot arrays with the same arithmetic, so
``proximity(x, y)``, ``proximity(y, x)`` and the score ``rank(x)``
reports for ``y`` are one float, bit for bit.
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterable, Sequence

import numpy as np

from repro.exceptions import LearningError
from repro.graph.typed_graph import NodeId
from repro.index.compiled import CompiledVectors
from repro.index.vectors import MetagraphVectors


class SortedUniverse(tuple):
    """A deduplicated candidate universe pre-sorted by node ``repr``.

    ``rank()`` must order equal-proximity nodes by ``repr`` — with a raw
    iterable that means re-sorting the whole universe on every query.
    Callers that query repeatedly (the facade, batched serving) build
    one :class:`SortedUniverse` and reuse it; the compiled path then
    fills zero-proximity tail slots by walking it in order instead of
    sorting.
    """

    def __new__(cls, nodes: Iterable[NodeId] = ()):
        # canonicalise on construction so the invariant (unique,
        # repr-sorted) holds however the instance was made
        return super().__new__(cls, sorted(set(nodes), key=repr))

    def members(self) -> frozenset:
        """The universe as a set, built lazily once per instance."""
        cached = getattr(self, "_members", None)
        if cached is None:
            cached = frozenset(self)
            self._members = cached
        return cached

    def mask_over(self, compiled: "CompiledVectors") -> np.ndarray:
        """Membership of each compiled anchor row in this universe.

        Built once per (universe, compiled) pair and cached on the
        universe, so batched serving filters candidates with a pure
        numpy gather instead of per-query hash lookups.
        """
        cache = getattr(self, "_masks", None)
        if cache is None:
            # weak keys: a retired snapshot (store recompiled after new
            # counts) must not be pinned by its old mask
            cache = weakref.WeakKeyDictionary()
            self._masks = cache
        mask = cache.get(compiled)  # CompiledVectors hashes by identity
        if mask is None:
            members = self.members()
            mask = np.fromiter(
                (node in members for node in compiled.nodes),
                dtype=bool,
                count=compiled.num_nodes,
            )
            mask.setflags(write=False)
            cache[compiled] = mask
        return mask


def pad_with_universe(
    result: list[tuple[NodeId, float]],
    query: NodeId,
    universe: "SortedUniverse",
    k: int | None,
) -> list[tuple[NodeId, float]]:
    """Fill the tail of a ranking with zero-proximity universe members.

    Extends ``result`` in place (and returns it) with ``(node, 0.0)``
    entries in the universe's repr order, skipping the query and the
    already-ranked nodes, up to ``k`` total entries (unbounded when
    ``k`` is None).  Shared by the compiled single-process path and the
    sharded router so both produce bit-identical tails.
    """
    needed = None if k is None else k - len(result)
    if needed is None or needed > 0:
        ranked = {node for node, _score in result}
        ranked.add(query)
        filler = (
            (node, 0.0) for node in universe if node not in ranked
        )
        if needed is None:
            result.extend(filler)
        else:
            result.extend(itertools.islice(filler, needed))
    return result


def require_valid_k(k: int | None) -> None:
    """Reject a negative result budget loudly.

    ``k=None`` means the full ranking and ``k=0`` a legitimately empty
    one; a negative ``k`` is always a caller bug, and silently
    returning ``[]`` for it hides the mistake.
    """
    if k is not None and k < 0:
        raise ValueError(f"k must be None or >= 0, got {k}")


def _descending_order(scores: np.ndarray, k: int | None) -> np.ndarray:
    """Positions of the top-k scores, descending, stable within ties.

    Callers arrange candidate positions in ascending ``repr`` order, so
    the stable sort realises the (-score, repr) tie-break.  For small k
    an ``np.argpartition`` pre-selection avoids sorting the full set;
    boundary ties are widened to keep the cut deterministic.
    """
    n = len(scores)
    if k is not None and k <= 0:
        return np.empty(0, dtype=np.intp)
    if k is None or k >= n:
        return np.argsort(-scores, kind="stable")
    threshold = scores[np.argpartition(-scores, k - 1)[k - 1]]
    keep = np.flatnonzero(scores >= threshold)
    keep = keep[np.argsort(-scores[keep], kind="stable")]
    return keep[:k]


def rank_candidates(
    view,
    node_dots: np.ndarray,
    pair_dots: np.ndarray,
    row: int | None,
    query: NodeId,
    universe: SortedUniverse | None,
    k: int | None,
) -> list[tuple[NodeId, float]]:
    """Top-k of one query's partner slice: the online phase's arithmetic.

    ``view`` is whatever holds the slice — a
    :class:`~repro.index.compiled.CompiledVectors` or one
    :class:`~repro.serving.shards.CompiledShard` (both expose ``nodes``
    and ``candidates_of`` in ascending ``repr`` order) — ``node_dots``/
    ``pair_dots`` its per-weights dot arrays and ``row`` the query's row
    in it (None when the query has no counts: an empty slice).  Def. 3
    as one masked division, a stable top-k, and — with a ``universe`` —
    a zero-proximity tail.  The single-process model and every shard
    backend call this one function, so their scores and tie-breaks are
    bit-identical by construction.
    """
    if k is not None and k <= 0:
        return []
    if row is None:
        cand = np.empty(0, dtype=np.int64)
        scores = np.empty(0, dtype=np.float64)
    else:
        cand, pair = view.candidates_of(row)
        keep = cand != row
        cand, pair = cand[keep], pair[keep]
        numerators = 2.0 * pair_dots[pair]
        denominators = node_dots[row] + node_dots[cand]
        scores = np.zeros(len(cand), dtype=np.float64)
        positive = denominators > 0.0
        scores[positive] = numerators[positive] / denominators[positive]

    nodes = view.nodes
    if universe is None:
        order = _descending_order(scores, k)
        return [(nodes[cand[j]], float(scores[j])) for j in order]
    in_universe = universe.mask_over(view)[cand]
    hit = np.flatnonzero(in_universe & (scores > 0.0))
    order = hit[_descending_order(scores[hit], k)]
    result = [(nodes[cand[j]], float(scores[j])) for j in order]
    return pad_with_universe(result, query, universe, k)


class ProximityModel:
    """A trained MGP model for one semantic class of proximity."""

    def __init__(
        self,
        weights: np.ndarray,
        vectors: MetagraphVectors,
        name: str = "",
    ):
        weights = np.array(weights, dtype=float)  # own copy, frozen below
        if weights.ndim != 1 or len(weights) != vectors.catalog_size:
            raise LearningError(
                f"weight vector of length {weights.shape} does not match "
                f"catalog size {vectors.catalog_size}"
            )
        if not np.all(np.isfinite(weights) & (weights >= 0)):
            # NaN would slip past a bare sign test, and inf makes the
            # kernel divide inf by inf
            raise LearningError(
                "MGP weights must be finite and non-negative (Def. 3)"
            )
        # read-only: the compiled dot products are derived from the
        # weights once, so in-place mutation would desynchronise them
        weights.setflags(write=False)
        self.weights = weights
        self.vectors = vectors
        self.name = name
        # (snapshot, m_x . w per node, m_xy . w per pair): replaced as
        # one reference, so a reader never pairs a snapshot with
        # another snapshot's dots
        self._bound: tuple = (None, None, None)
        self.compile()

    # ------------------------------------------------------------------
    # the compiled snapshot every reader scores against
    # ------------------------------------------------------------------
    @property
    def compiled(self) -> CompiledVectors:
        """The snapshot the dot products currently describe."""
        return self._bound[0]

    def compile(self, compiled: CompiledVectors | None = None) -> "ProximityModel":
        """Bring the model onto the store's current compiled snapshot.

        The CSR snapshot itself is shared across models (cached on the
        vector store); per-model state is just ``m_x . w`` for every
        node and ``m_xy . w`` for every pair, each one O(nnz) pass — the
        one place they are computed, and only when the snapshot moved
        on.  The constructor and every read call this, so calling it
        by hand merely moves a recompute off the next query.  Returns
        ``self`` for chaining.
        """
        if compiled is None:
            compiled = self.vectors.compile()
        elif not self.vectors.is_current_snapshot(compiled):
            # an explicit snapshot must be the store's *current* one —
            # anything else (stale pre-mutation snapshot, snapshot of a
            # different store) would silently serve wrong rankings
            raise LearningError(
                "compiled snapshot is not the current snapshot of this "
                "model's vector store; call compile() with no argument "
                "or pass vectors.compile()"
            )
        if compiled is not self._bound[0]:
            self._bound = (
                compiled,
                compiled.node_dot_products(self.weights),
                compiled.pair_dot_products(self.weights),
            )
        return self

    def _pair_terms(
        self, x: NodeId, y: NodeId
    ) -> tuple[CompiledVectors, int, float, float] | None:
        """(snapshot, m_xy row, m_xy . w, m_x . w + m_y . w) of a pair with pi > 0."""
        if x == y:
            return None
        compiled, node_dots, pair_dots = self.compile()._bound
        i, j = compiled.position(x), compiled.position(y)
        row = compiled.pair_row(i, j)
        if row is None:
            return None
        denominator = node_dots[i] + node_dots[j]
        if denominator <= 0.0:
            return None
        return compiled, row, pair_dots[row], denominator

    def proximity(self, x: NodeId, y: NodeId) -> float:
        """pi(x, y; w*) for any two nodes; pi(x, x) = 1.

        The same ``2 * pair_dot / (node_dot[x] + node_dot[y])`` on the
        same dot arrays as :func:`rank_candidates`, so the value equals
        the score ``rank(x)`` gives ``y`` exactly.
        """
        if x == y:
            return 1.0
        terms = self._pair_terms(x, y)
        if terms is None:
            return 0.0
        _compiled, _row, pair_dot, denominator = terms
        return float(2.0 * pair_dot / denominator)

    def rank(
        self,
        query: NodeId,
        universe: Iterable[NodeId] | None = None,
        k: int | None = None,
    ) -> list[tuple[NodeId, float]]:
        """Nodes in descending proximity to ``query``.

        ``universe`` bounds the result (e.g. all user nodes): scored
        candidates outside it are dropped, and its remaining members pad
        the tail with proximity 0.  When None, only the query's partners
        are returned — every other node has proximity exactly 0.  Ties
        are broken deterministically by node repr.  The query itself is
        excluded.  A snapshot made stale by new counts folded into the
        vector store is recompiled transparently.

        ``k=0`` is a valid (empty) request; a negative ``k`` raises
        :class:`ValueError` instead of silently returning ``[]``.
        """
        require_valid_k(k)
        compiled, node_dots, pair_dots = self.compile()._bound
        if universe is not None and not isinstance(universe, SortedUniverse):
            universe = SortedUniverse(universe)
        return rank_candidates(
            compiled, node_dots, pair_dots,
            compiled.position(query), query, universe, k,
        )

    def explain(
        self, x: NodeId, y: NodeId, k: int = 5
    ) -> list[tuple[int, float]]:
        """Per-metagraph contributions to pi(x, y) — Fig. 1(b)'s
        "result with explanation".

        Returns up to ``k`` (metagraph id, contribution) pairs sorted by
        contribution, where contribution ``i`` is
        ``2 * w[i] * m_xy[i] / (m_x . w + m_y . w)`` — the summands of
        Def. 3, so contributions add up to ``pi(x, y)``.
        """
        terms = self._pair_terms(x, y)
        if terms is None:
            return []
        compiled, row, _pair_dot, denominator = terms
        contributions = (
            2.0 * self.weights * compiled.pair_vector_dense(row) / denominator
        )
        order = np.argsort(-contributions, kind="stable")
        return [
            (int(i), float(contributions[i]))
            for i in order[:k]
            if contributions[i] > 0.0
        ]

    def top_metagraphs(self, k: int = 10) -> list[tuple[int, float]]:
        """The k highest-weight metagraph ids — the class's signature."""
        order = np.argsort(-self.weights, kind="stable")[:k]
        return [(int(i), float(self.weights[i])) for i in order]

    def __repr__(self) -> str:
        nonzero = int(np.sum(self.weights > 1e-6))
        return (
            f"<ProximityModel {self.name!r}: {len(self.weights)} metagraphs, "
            f"{nonzero} with non-trivial weight>"
        )


def uniform_model(vectors: MetagraphVectors, name: str = "MGP-U") -> ProximityModel:
    """MGP-U baseline: uniform weights over the matched metagraphs."""
    weights = np.zeros(vectors.catalog_size)
    matched = sorted(vectors.matched_ids)
    if matched:
        weights[matched] = 1.0
    return ProximityModel(weights, vectors, name=name)


def single_metagraph_model(
    vectors: MetagraphVectors, mg_id: int, name: str = "MGP-B"
) -> ProximityModel:
    """A model that uses exactly one metagraph (MGP-B building block)."""
    weights = np.zeros(vectors.catalog_size)
    weights[mg_id] = 1.0
    return ProximityModel(weights, vectors, name=name)


def restrict_weights(
    weights: np.ndarray, active_ids: Sequence[int]
) -> np.ndarray:
    """Zero out all weights except the given ids (returns a copy)."""
    restricted = np.zeros_like(weights)
    ids = list(active_ids)
    restricted[ids] = weights[ids]
    return restricted
