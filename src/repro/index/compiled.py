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

The compiled arrays are read-only snapshots, and one method builds
them, :meth:`CompiledVectors.splice`: it takes an older snapshot plus the
ledger rows changed since, copies every untouched row intact with
vectorised gathers, builds only the changed rows from the dicts, and
places them by canonical position.  :meth:`MetagraphVectors.compile`
splices the last snapshot after a delta (the cost follows the rows the
delta touched), and a cold :meth:`CompiledVectors.build` is the splice
from an empty snapshot with every row dirty.  Either way the arrays are
identical to what a cold build over the same ledger produces.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections.abc import Iterable, Mapping, Sequence

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


CSR = tuple[np.ndarray, np.ndarray, np.ndarray]


def _csr_from_rows(rows: Sequence[Mapping[int, int]], transform: Transform) -> CSR:
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


def splice_csr_rows(base: CSR, source: np.ndarray, fresh: CSR) -> CSR:
    """A new CSR matrix whose every row is copied intact from one of two.

    Output row ``i`` is row ``source[i]`` of ``base``; where
    ``source[i]`` is -1 it is the next unused row of ``fresh`` instead,
    so ``fresh`` lists its rows in output order.  Nonzero order within a
    row is preserved, which keeps every per-row dot product bit-identical
    to the matrix the row came from.  With no fresh rows only the
    gathered rows of ``base`` are read (a memory-mapped base pages in
    nothing else).
    """
    indptr, indices, data = base
    fresh_indptr, fresh_indices, fresh_data = fresh
    # number the fresh rows after the base's, as if stacked under it
    rows = np.array(source, dtype=np.int64)
    stacked = rows < 0
    rows[stacked] = len(indptr) - 1 + np.arange(np.count_nonzero(stacked))
    if len(fresh_indptr) > 1:
        indptr = np.concatenate([indptr, fresh_indptr[1:] + indptr[-1]])
        indices = np.concatenate([indices, fresh_indices])
        data = np.concatenate([data, fresh_data])
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_indptr[1:])
    # source position of every output nonzero: its row's start plus its
    # offset within the row
    at = np.repeat(starts - out_indptr[:-1], lengths)
    at += np.arange(len(at), dtype=np.int64)
    return out_indptr, np.asarray(indices[at]), np.asarray(data[at])


def take_csr_rows(csr: CSR, rows: np.ndarray) -> CSR:
    """Gather whole CSR rows (nonzero order preserved) into a new CSR."""
    none = (np.zeros(1, dtype=np.int64), csr[1][:0], csr[2][:0])
    return splice_csr_rows(csr, rows, none)


def _merge_positions(at: np.ndarray, num_kept: int) -> tuple[np.ndarray, np.ndarray]:
    """Output positions when new items go in at sorted insertion points.

    ``at[k]`` is where new item ``k`` enters the kept sequence (before
    kept item ``at[k]``; nondecreasing).  Returns the output position of
    every kept item and of every new item; both sequences keep their
    own order.
    """
    kept = np.arange(num_kept, dtype=np.int64)
    return (
        kept + np.searchsorted(at, kept, side="right"),
        at + np.arange(len(at), dtype=np.int64),
    )


class CompiledVectors:
    """Read-only CSR snapshot of a :class:`MetagraphVectors` store."""

    def __init__(
        self,
        nodes: tuple[NodeId, ...],
        node_csr: CSR,
        pair_csr: CSR,
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
    def empty(cls, catalog_size: int) -> "CompiledVectors":
        """The snapshot of a store with no counts at all."""
        start = np.zeros(1, dtype=np.int64)
        ints = np.zeros(0, dtype=np.int64)
        floats = np.zeros(0, dtype=np.float64)
        empty = (start, ints, floats)
        return cls((), empty, empty, start, ints, ints, catalog_size)

    @classmethod
    def build(
        cls,
        node_counts: Mapping[NodeId, Mapping[int, int]],
        pair_counts: Mapping[tuple[NodeId, NodeId], Mapping[int, int]],
        catalog_size: int,
        transform: Transform = identity,
    ) -> "CompiledVectors":
        """Freeze the sparse dict store into CSR arrays.

        The splice from an empty snapshot with every row dirty: a cold
        build is the degenerate case of the one way to build.
        """
        return cls.empty(catalog_size).splice(
            node_counts,
            pair_counts,
            dict.fromkeys(node_counts, True),
            pair_counts,
            transform,
        )

    def splice(
        self,
        node_counts: Mapping[NodeId, Mapping[int, int]],
        pair_counts: Mapping[tuple[NodeId, NodeId], Mapping[int, int]],
        dirty_nodes: Mapping[NodeId, bool],
        dirty_pairs: Iterable[tuple[NodeId, NodeId]],
        transform: Transform = identity,
    ) -> "CompiledVectors":
        """This snapshot with the rows the ledger changed since rebuilt.

        ``node_counts`` / ``pair_counts`` are the ledger now.
        ``dirty_nodes`` names every node whose m_x row changed since this
        snapshot was taken, mapped to whether its ledger row was
        (re)created since, in ledger insertion order among the created
        ones; ``dirty_pairs`` names every changed pair.  Only those rows
        are built from the dicts.  Every other row is copied intact, and
        the result is array-identical to :meth:`build` over the same
        ledger, so the cost is the touched rows plus a few vectorised
        O(nnz) passes.
        """
        old_pos = self._pos
        # -- the anchor universe: who leaves, who (re)enters -----------
        leaving = [
            old_pos[node]
            for node, created in dirty_nodes.items()
            if node in old_pos and (created or node not in node_counts)
        ]
        entering = [
            node for node, created in dirty_nodes.items() if created and node in node_counts
        ]
        moved: np.ndarray | None = None
        if leaving or entering:
            nodes, moved = self._merged_universe(leaving, entering)
            pos = {node: i for i, node in enumerate(nodes)}
        else:
            nodes, pos = self.nodes, old_pos
        n = len(nodes)

        # -- m_x rows ---------------------------------------------------
        rebuilt = [node for node in dirty_nodes if node in node_counts]
        rebuilt_at = np.asarray([pos[node] for node in rebuilt], dtype=np.int64)
        in_row_order = np.argsort(rebuilt_at)
        if moved is None:
            source = np.arange(n, dtype=np.int64)
        else:
            source = np.full(n, -1, dtype=np.int64)
            stays = np.flatnonzero(moved >= 0)
            source[moved[stays]] = stays
        source[rebuilt_at] = -1
        node_csr = splice_csr_rows(
            self.node_csr,
            source,
            _csr_from_rows(
                [node_counts[rebuilt[i]] for i in in_row_order.tolist()], transform
            ),
        )

        # -- m_xy rows, ordered by their canonical (a, b) positions ------
        old_a, old_b = self.pair_ends()
        old_n = max(self.num_nodes, 1)
        stale: list[int] = []
        fresh_keys: list[tuple[NodeId, NodeId]] = []
        fresh_ends: list[int] = []
        for key in dirty_pairs:
            x, y = key
            i, j = old_pos.get(x), old_pos.get(y)
            if i is not None and j is not None:
                stale.append(min(i, j) * old_n + max(i, j))
            if key in pair_counts:
                try:
                    fresh_ends += (pos[x], pos[y])
                except KeyError as exc:  # a pair member without an m_x row
                    raise CatalogMismatchError(
                        f"pair count references node {exc.args[0]!r} with no node count"
                    ) from None
                fresh_keys.append(key)
        ends = np.asarray(fresh_ends, dtype=np.int64).reshape(-1, 2)
        fresh_a, fresh_b = ends.min(axis=1), ends.max(axis=1)
        fresh_order = np.argsort(fresh_a * n + fresh_b)
        fresh_a, fresh_b = fresh_a[fresh_order], fresh_b[fresh_order]
        fresh_keys = [fresh_keys[i] for i in fresh_order.tolist()]
        # the base rows of changed pairs (a brand-new pair has none)
        keep = np.ones(self.num_pairs, dtype=bool)
        if stale:
            old_keys = old_a * old_n + old_b
            stale_keys = np.asarray(stale, dtype=np.int64)
            at = np.searchsorted(old_keys, stale_keys)
            found = at < len(old_keys)
            found[found] = old_keys[at[found]] == stale_keys[found]
            keep[at[found]] = False
        kept = np.flatnonzero(keep)
        kept_a, kept_b = old_a[kept], old_b[kept]
        if moved is not None:
            # a monotone remap: kept rows stay in canonical order
            kept_a, kept_b = moved[kept_a], moved[kept_b]
            if len(kept) and min(kept_a.min(), kept_b.min()) < 0:
                raise CatalogMismatchError(
                    "pair count references a node with no node count"
                )
        kept_rows, fresh_rows = _merge_positions(
            np.searchsorted(kept_a * n + kept_b, fresh_a * n + fresh_b), len(kept)
        )
        num_pairs = len(kept) + len(fresh_keys)
        source = np.full(num_pairs, -1, dtype=np.int64)
        source[kept_rows] = kept
        ends_a = np.empty(num_pairs, dtype=np.int64)
        ends_b = np.empty(num_pairs, dtype=np.int64)
        ends_a[kept_rows], ends_b[kept_rows] = kept_a, kept_b
        ends_a[fresh_rows], ends_b[fresh_rows] = fresh_a, fresh_b
        pair_csr = splice_csr_rows(
            self.pair_csr,
            source,
            _csr_from_rows([pair_counts[key] for key in fresh_keys], transform),
        )

        # -- adjacency: every pair row listed under both of its members
        # (a self-pair once), each node's partners in ascending position;
        # (owner, partner) is unique, so one argsort of the packed key is
        # the lexicographic order
        rows = np.arange(num_pairs, dtype=np.int64)
        mirrored = ends_a != ends_b
        owner = np.concatenate([ends_a, ends_b[mirrored]])
        partner = np.concatenate([ends_b, ends_a[mirrored]])
        order = np.argsort(owner * n + partner)
        pair_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=n), out=pair_ptr[1:])
        return CompiledVectors(
            nodes,
            node_csr,
            pair_csr,
            pair_ptr,
            partner[order],
            np.concatenate([rows, rows[mirrored]])[order],
            self.catalog_size,
        )

    def _merged_universe(
        self, leaving: Sequence[int], entering: Sequence[NodeId]
    ) -> tuple[tuple[NodeId, ...], np.ndarray]:
        """The universe without ``leaving`` and with ``entering``.

        Returns the new node tuple and every old position's new one (-1
        for a node that left).  Survivors keep their relative order;
        entering nodes go in at their ``repr`` position, after every
        survivor they tie with and in the given order among themselves —
        exactly where a cold ``sorted(ledger, key=repr)`` puts them,
        since a (re)created ledger row is inserted after all survivors.
        """
        survives = np.ones(self.num_nodes, dtype=bool)
        survives[list(leaving)] = False
        survivors = np.flatnonzero(survives)
        kept = [self.nodes[i] for i in survivors.tolist()]
        entering = sorted(entering, key=repr)
        at = np.asarray(
            [bisect_right(kept, repr(node), key=repr) for node in entering],
            dtype=np.int64,
        )
        kept_at, entering_at = _merge_positions(at, len(kept))
        merged = list(kept)
        # ascending final positions: each insert lands where it belongs
        for i, node in zip(entering_at.tolist(), entering):
            merged.insert(i, node)
        moved = np.full(self.num_nodes, -1, dtype=np.int64)
        moved[survivors] = kept_at
        return tuple(merged), moved

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

    @property
    def node_csr(self) -> CSR:
        return self.node_indptr, self.node_indices, self.node_data

    @property
    def pair_csr(self) -> CSR:
        return self.pair_indptr, self.pair_indices, self.pair_data

    def pair_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The (smaller, larger) member position of every pair row.

        The adjacency lists each pair row under both of its ends (a self
        pair once); the entries owned by the smaller end name every row
        exactly once, so one vectorised pass recovers both ends.
        """
        owner = csr_row_index(self.pair_ptr)
        first = owner <= self.partner_pos
        rows = self.entry_pair[first]
        left = np.empty(len(rows), dtype=np.int64)
        right = np.empty(len(rows), dtype=np.int64)
        left[rows] = owner[first]
        right[rows] = self.partner_pos[first]
        return left, right

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
