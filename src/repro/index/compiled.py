"""Compiled CSR form of the Eq. 1–2 counts: the one read path.

:class:`MetagraphVectors` keeps the counts as nested dicts, which is the
right shape for incremental construction (dual-stage training and the
delta path patch it in place) and is only ever written.  Every *reader*
of m_x / m_xy — ranking, ``proximity``, ``explain``, the trainer's
triplet stacks, the shard tier — goes through :class:`CompiledVectors`,
which freezes the same counts into flat CSR-style numpy arrays
(``indptr``/``indices``/``data`` — no scipy dependency):

- a node matrix of m_x rows over the *anchor universe* (every node with
  a non-zero count, sorted by ``repr`` so positions are deterministic);
- one m_xy row per distinct anchor pair, plus a per-node adjacency that
  maps each node to its partner positions and their pair rows.

With a fixed weight vector ``w`` the whole store collapses to two dot
arrays — ``node_dot_products(w)`` and ``pair_dot_products(w)``, each one
O(nnz) pass — after which ranking a query is a slice plus a handful of
vectorised operations: *a lookup, not a traversal* (Sect. II-B).

The compiled arrays are read-only snapshots; :meth:`MetagraphVectors.compile`
invalidates its cache whenever new counts are folded in.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping

import numpy as np

from repro.exceptions import CatalogMismatchError
from repro.graph.typed_graph import NodeId
from repro.index.transform import Transform, identity


def csr_row_index(indptr: np.ndarray) -> np.ndarray:
    """Row id of every stored nonzero, from a CSR ``indptr``.

    Precomputing this collapses a CSR @ w to one multiply plus one
    bincount (:func:`csr_dot_products`) with no per-row python loop.
    """
    return np.repeat(
        np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr)
    )


def csr_dot_products(
    row_index: np.ndarray,
    indices: np.ndarray,
    data: np.ndarray,
    weights: np.ndarray,
    num_rows: int,
) -> np.ndarray:
    """Per-row ``row . w`` over a CSR matrix, one O(nnz) pass.

    Sums each row's nonzeros in storage order, so any slice that copies
    rows intact (e.g. a serving shard) reproduces the exact float bits
    of the unsliced computation.
    """
    weights = np.asarray(weights, dtype=np.float64)
    return np.bincount(
        row_index, weights=data * weights[indices], minlength=num_rows
    )


def _csr_from_rows(
    rows: list[dict[int, int]], transform: Transform
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack sparse {mg_id: count} rows into (indptr, indices, data)."""
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    indices: list[int] = []
    data: list[float] = []
    for r, row in enumerate(rows):
        for mg_id in sorted(row):
            indices.append(mg_id)
            data.append(transform(row[mg_id]))
        indptr[r + 1] = len(indices)
    return (
        indptr,
        np.asarray(indices, dtype=np.int64),
        np.asarray(data, dtype=np.float64),
    )


class CompiledVectors:
    """Read-only CSR snapshot of a :class:`MetagraphVectors` store."""

    def __init__(
        self,
        nodes: tuple[NodeId, ...],
        node_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        pair_csr: tuple[np.ndarray, np.ndarray, np.ndarray],
        pair_ptr: np.ndarray,
        partner_pos: np.ndarray,
        entry_pair: np.ndarray,
        catalog_size: int,
    ):
        self.nodes = nodes
        self.node_indptr, self.node_indices, self.node_data = node_csr
        self.pair_indptr, self.pair_indices, self.pair_data = pair_csr
        self.pair_ptr = pair_ptr
        self.partner_pos = partner_pos
        self.entry_pair = entry_pair
        self.catalog_size = catalog_size
        self._pos = {node: i for i, node in enumerate(nodes)}
        self._node_rows = csr_row_index(self.node_indptr)
        self._pair_rows = csr_row_index(self.pair_indptr)
        for array in (
            self.node_indptr, self.node_indices, self.node_data,
            self.pair_indptr, self.pair_indices, self.pair_data,
            self.pair_ptr, self.partner_pos, self.entry_pair,
        ):
            array.setflags(write=False)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        node_counts: Mapping[NodeId, Mapping[int, int]],
        pair_counts: Mapping[tuple[NodeId, NodeId], Mapping[int, int]],
        catalog_size: int,
        transform: Transform = identity,
    ) -> "CompiledVectors":
        """Freeze the sparse dict store into CSR arrays."""
        nodes = tuple(sorted(node_counts, key=repr))
        pos = {node: i for i, node in enumerate(nodes)}
        node_csr = _csr_from_rows([dict(node_counts[n]) for n in nodes], transform)

        def canonical(key: tuple[NodeId, NodeId]) -> tuple[int, int]:
            a, b = pos[key[0]], pos[key[1]]
            return (a, b) if a <= b else (b, a)

        try:
            pair_keys = sorted(pair_counts, key=canonical)
        except KeyError as exc:  # a pair member without an m_x row
            raise CatalogMismatchError(
                f"pair count references node {exc.args[0]!r} with no node count"
            ) from None
        pair_csr = _csr_from_rows([dict(pair_counts[k]) for k in pair_keys], transform)

        # adjacency: every pair row is listed under both of its members
        # (a self-pair once), each node's partners in ascending position
        ends = np.array(
            [canonical(key) for key in pair_keys], dtype=np.int64
        ).reshape(-1, 2)
        rows = np.arange(len(pair_keys), dtype=np.int64)
        mirrored = ends[:, 0] != ends[:, 1]
        owner = np.concatenate([ends[:, 0], ends[mirrored, 1]])
        partner = np.concatenate([ends[:, 1], ends[mirrored, 0]])
        order = np.lexsort((partner, owner))
        pair_ptr = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=len(nodes)), out=pair_ptr[1:])
        return cls(
            nodes,
            node_csr,
            pair_csr,
            pair_ptr,
            partner[order],
            np.concatenate([rows, rows[mirrored]])[order],
            catalog_size,
        )

    # ------------------------------------------------------------------
    # shape
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_pairs(self) -> int:
        return len(self.pair_indptr) - 1

    @property
    def nnz(self) -> int:
        """Stored nonzeros across the node and pair matrices."""
        return len(self.node_data) + len(self.pair_data)

    def content_digest(self) -> str:
        """Content hash of this snapshot (arrays + node table), cached.

        The serving tier's cache key for engines whose snapshot only
        exists in memory: two compiled snapshots digest equal exactly
        when every served ranking would be bit-identical.  Safe to
        cache on the instance because every array is frozen read-only
        in the constructor.
        """
        cached = getattr(self, "_content_digest", None)
        if cached is None:
            # lazy import: repro.index.vectors imports this module
            from repro.index.vectors import encode_node_id

            digest = hashlib.sha256()
            digest.update(
                json.dumps(
                    [encode_node_id(node) for node in self.nodes],
                    separators=(",", ":"),
                ).encode("utf-8")
            )
            digest.update(str(self.catalog_size).encode("utf-8"))
            for array in (
                self.node_indptr, self.node_indices, self.node_data,
                self.pair_indptr, self.pair_indices, self.pair_data,
                self.pair_ptr, self.partner_pos, self.entry_pair,
            ):
                digest.update(np.ascontiguousarray(array).tobytes())
            cached = digest.hexdigest()
            self._content_digest = cached
        return cached

    def position(self, node: NodeId) -> int | None:
        """Row of a node in the anchor universe (None if absent)."""
        return self._pos.get(node)

    def candidates_of(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(partner positions, pair-row ids) of the node at row ``i``."""
        lo, hi = self.pair_ptr[i], self.pair_ptr[i + 1]
        return self.partner_pos[lo:hi], self.entry_pair[lo:hi]

    def pair_row(self, i: int | None, j: int | None) -> int | None:
        """The m_xy row shared by the nodes at rows ``i`` and ``j``.

        None when the two never co-occur in an instance (or either has
        no row at all).  Partner positions are stored ascending, so
        this is one binary search in ``i``'s candidate slice.
        """
        if i is None or j is None:
            return None
        partners, rows = self.candidates_of(i)
        at = int(np.searchsorted(partners, j))
        if at < len(partners) and partners[at] == j:
            return int(rows[at])
        return None

    # ------------------------------------------------------------------
    # the two O(nnz) passes that make serving a lookup
    # ------------------------------------------------------------------
    def node_dot_products(self, weights: np.ndarray) -> np.ndarray:
        """m_x . w for every anchor node, one pass over the nonzeros."""
        return csr_dot_products(
            self._node_rows, self.node_indices, self.node_data,
            weights, self.num_nodes,
        )

    def pair_dot_products(self, weights: np.ndarray) -> np.ndarray:
        """m_xy . w for every distinct anchor pair, one pass."""
        return csr_dot_products(
            self._pair_rows, self.pair_indices, self.pair_data,
            weights, self.num_pairs,
        )

    # ------------------------------------------------------------------
    # dense rows (explanations and the trainer's triplet stacks)
    # ------------------------------------------------------------------
    def node_vector_dense(self, i: int | None) -> np.ndarray:
        """The m_x row at position ``i`` as a dense length-|M| vector.

        ``None`` — a node without counts, a pair that never co-occurs —
        is the zero vector, here and in :meth:`pair_vector_dense`.
        """
        vec = np.zeros(self.catalog_size, dtype=np.float64)
        if i is not None:
            lo, hi = self.node_indptr[i], self.node_indptr[i + 1]
            vec[self.node_indices[lo:hi]] = self.node_data[lo:hi]
        return vec

    def pair_vector_dense(self, row: int | None) -> np.ndarray:
        """An m_xy row as a dense length-|M| vector."""
        vec = np.zeros(self.catalog_size, dtype=np.float64)
        if row is not None:
            lo, hi = self.pair_indptr[row], self.pair_indptr[row + 1]
            vec[self.pair_indices[lo:hi]] = self.pair_data[lo:hi]
        return vec

    def __repr__(self) -> str:
        return (
            f"<CompiledVectors: {self.num_nodes} nodes, {self.num_pairs} pairs, "
            f"{self.nnz} nonzeros over {self.catalog_size} metagraphs>"
        )
