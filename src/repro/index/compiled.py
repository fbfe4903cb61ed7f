"""The one store of the Eq. 1–2 counts: integer CSR arrays plus their floats.

Every *reader* of m_x / m_xy — ranking, ``proximity``, ``explain``, the
trainer's triplet stacks, the shard tier, the snapshot writer — goes
through :class:`CompiledVectors`, which holds the counts as flat
CSR-style numpy arrays (``indptr``/``indices`` plus the int64 counts and
their transformed floats — no scipy dependency):

- a node matrix of m_x rows over the *anchor universe* (every node with
  a non-zero count, sorted by ``repr`` so positions are deterministic);
- one m_xy row per distinct anchor pair, plus a per-node adjacency that
  maps each node to its partner positions and their pair rows.

The floats are derived from the integer counts through a *value table*
(:func:`value_table`, :func:`float_view`): the transform runs once per
distinct count and every count gathers its float, which is bit-identical
to transforming each count on its own.  Snapshot loading derives the
floats the same way (:mod:`repro.index.persist`).

With a fixed weight vector ``w`` the whole store collapses to two dot
arrays — ``node_dot_products(w)`` and ``pair_dot_products(w)``, each one
O(nnz) pass — after which ranking a query is a slice plus a handful of
vectorised operations: *a lookup, not a traversal* (Sect. II-B).

The arrays are read-only snapshots, and one method builds them,
:meth:`CompiledVectors.splice`: it takes an older snapshot plus integer
count changes, copies every untouched row intact with vectorised
gathers, rebuilds only the patched rows, and places them by canonical
position.
:meth:`~repro.index.vectors.MetagraphVectors.compile` splices the last
snapshot after a delta (the cost follows the rows the delta touched),
and a cold build is the splice of an empty snapshot.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from collections.abc import Callable, Sequence
from functools import partial

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


# a CSR matrix: indptr, then its per-nonzero columns (indices, counts, data)
CSR = tuple[np.ndarray, ...]
# a pair of node keys lo <= hi packs into one int64 as lo * PAIR_STRIDE + hi
PAIR_STRIDE = 1 << 31


def value_table(counts: np.ndarray, transform: Transform) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct count (ascending) next to its transformed float."""
    distinct = np.unique(counts).astype(np.int64)
    floats = np.asarray(
        [transform(count) for count in distinct.tolist()], dtype=np.float64
    )
    return distinct, floats


def _find_sorted(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """The index of every wanted value in the ascending ``keys`` (-1: absent)."""
    if not len(keys):
        return np.full(len(wanted), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(keys, wanted), len(keys) - 1)
    return np.where(keys[at] == wanted, at, -1)


def float_view(counts: np.ndarray, distinct: np.ndarray, floats: np.ndarray) -> np.ndarray:
    """The float of every count, gathered through a value table.

    Raises :class:`ValueError` when a count is not in the table.
    """
    at = _find_sorted(distinct, counts)
    if (at < 0).any():
        raise ValueError("a count is missing from the value table")
    return floats[at]


def splice_csr_rows(base: CSR, source: np.ndarray, fresh: CSR) -> CSR:
    """A new CSR matrix whose every row is copied intact from one of two.

    ``base`` and ``fresh`` are ``(indptr, *columns)`` with the same
    columns (``indices``, ``data``, ...).  Output row ``i`` is row
    ``source[i]`` of ``base``; where ``source[i]`` is -1 it is the next
    unused row of ``fresh`` instead, so ``fresh`` lists its rows in
    output order.  Nonzero order within a row is preserved, which keeps
    every per-row dot product bit-identical to the matrix the row came
    from.  With no fresh rows only the gathered rows of ``base`` are
    read (a memory-mapped base pages in nothing else).
    """
    indptr, *columns = base
    fresh_indptr, *fresh_columns = fresh
    # number the fresh rows after the base's, as if stacked under it
    rows = np.array(source, dtype=np.int64)
    stacked = rows < 0
    rows[stacked] = len(indptr) - 1 + np.arange(np.count_nonzero(stacked))
    if len(fresh_indptr) > 1:
        indptr = np.concatenate([indptr, fresh_indptr[1:] + indptr[-1]])
        columns = [np.concatenate(pair) for pair in zip(columns, fresh_columns)]
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    out_indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum(lengths, out=out_indptr[1:])
    # source position of every output nonzero: its row's start plus its
    # offset within the row
    at = np.repeat(starts - out_indptr[:-1], lengths)
    at += np.arange(len(at), dtype=np.int64)
    return (out_indptr, *(np.asarray(column[at]) for column in columns))


def take_csr_rows(csr: CSR, rows: np.ndarray) -> CSR:
    """Gather whole CSR rows (nonzero order preserved) into a new CSR."""
    none = (np.zeros(1, dtype=np.int64), *(column[:0] for column in csr[1:]))
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


def _summed(keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted unique non-negative keys, their values added up; zero sums dropped."""
    order = np.argsort(keys, kind="stable")
    keys, values = keys[order], values[order]
    if len(keys):
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        keys, values = keys[starts], np.add.reduceat(values, starts)
    nonzero = values != 0
    return keys[nonzero], values[nonzero]


def patched_rows(
    matrix: CSR,
    patch: np.ndarray,
    base_rows: Callable[[np.ndarray], np.ndarray],
    catalog_size: int,
) -> tuple[np.ndarray, np.ndarray, CSR]:
    """The rows a patch touches, as they read after it.

    ``patch`` rows are ``(key, mg_id, delta)``; ``base_rows`` maps the
    sorted distinct keys to their rows of ``matrix`` (-1: none).
    Returns the keys, their base rows and an ``(indptr, indices,
    counts)`` CSR of one row per key (empty where every count is 0).
    """
    keys, item = np.unique(patch[:, 0], return_inverse=True)
    rows = base_rows(keys)
    have = np.flatnonzero(rows >= 0)
    base = take_csr_rows(matrix[:3], rows[have])
    code, counts = _summed(
        np.concatenate([np.repeat(have, np.diff(base[0])), item.ravel()]) * catalog_size
        + np.concatenate([base[1], patch[:, 1]]),
        np.concatenate([base[2], patch[:, 2]]),
    )
    indptr = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum(np.bincount(code // catalog_size, minlength=len(keys)), out=indptr[1:])
    return keys, rows, (indptr, code % catalog_size, counts)


class CompiledVectors:
    """Read-only CSR snapshot of the Eq. 1–2 counts and their floats."""

    def __init__(
        self,
        nodes: tuple[NodeId, ...],
        node_rows: CSR,
        pair_rows: CSR,
        pair_ptr: np.ndarray,
        partner_pos: np.ndarray,
        entry_pair: np.ndarray,
        catalog_size: int,
    ):
        self.nodes = nodes
        self.node_indptr, self.node_indices, self.node_count, self.node_data = node_rows
        self.pair_indptr, self.pair_indices, self.pair_count, self.pair_data = pair_rows
        self.pair_ptr = pair_ptr
        self.partner_pos = partner_pos
        self.entry_pair = entry_pair
        self.catalog_size = catalog_size
        # node -> row, built on first use (a splice that keeps the
        # universe hands its predecessor's over), and the pair ends
        self._pos: dict[NodeId, int] | None = None
        self._ends: tuple[np.ndarray, np.ndarray] | None = None
        self._node_rows = csr_row_index(self.node_indptr)
        self._pair_rows = csr_row_index(self.pair_indptr)
        for array in (
            *node_rows, *pair_rows, self.pair_ptr, self.partner_pos, self.entry_pair,
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
        empty = (start, ints, ints, np.zeros(0, dtype=np.float64))
        return cls((), empty, empty, start, ints, ints, catalog_size)

    def splice(
        self,
        entering: Sequence[NodeId],
        node_patch: np.ndarray,
        pair_patch: np.ndarray,
        transform: Transform = identity,
    ) -> "CompiledVectors":
        """This snapshot with integer count changes applied.

        The changes are in this snapshot's key space: node key ``k``
        below ``num_nodes`` is row ``k``, key ``num_nodes + i`` is
        ``entering[i]``, a node with no row yet.  ``node_patch`` rows
        are ``(key, mg_id, delta)``, ``pair_patch`` rows ``(lo *
        PAIR_STRIDE + hi, mg_id, delta)`` for node keys ``lo <= hi``; a
        key may repeat, its deltas add up.  Only the patched rows are
        rebuilt (their floats through one value table of their counts);
        every other row is copied intact, and the result is
        array-identical to a cold build of the same counts, so the cost
        is the touched rows plus a few vectorised O(nnz) passes.  Rows
        that end up empty leave; entering nodes take their ``repr``
        position (:meth:`_merged_universe`).
        """
        if not len(node_patch) and not len(pair_patch):
            return self
        n, size = self.num_nodes, self.catalog_size

        # -- m_x: the patched rows, who leaves, who enters ---------------
        node_keys, _, node_fresh = patched_rows(
            self._node_table, node_patch, lambda keys: np.where(keys < n, keys, -1), size
        )
        filled = np.diff(node_fresh[0]) > 0
        leaving = node_keys[(node_keys < n) & ~filled]
        arriving = node_keys[(node_keys >= n) & filled]
        key_pos = np.full(n + len(entering), -1, dtype=np.int64)
        moved: np.ndarray | None = None
        if len(leaving) or len(arriving):
            nodes, moved, key_pos[arriving] = self._merged_universe(
                leaving, [entering[k - n] for k in arriving.tolist()]
            )
            key_pos[:n] = moved
        else:
            nodes = self.nodes
            key_pos[:n] = np.arange(n, dtype=np.int64)
        new_n = len(nodes)
        rebuilt_at = key_pos[node_keys[filled]]
        node_fresh = take_csr_rows(node_fresh, np.flatnonzero(filled)[np.argsort(rebuilt_at)])

        # -- m_xy: the patched pairs, fresh rows in canonical order -------
        old_a, old_b = self.pair_ends()
        pair_keys, stale, pair_fresh = patched_rows(
            self._pair_table, pair_patch, partial(_find_sorted, old_a * PAIR_STRIDE + old_b), size
        )
        live = np.flatnonzero(np.diff(pair_fresh[0]) > 0)
        ends = key_pos[np.stack(np.divmod(pair_keys[live], PAIR_STRIDE))]
        fresh_a, fresh_b = ends.min(axis=0), ends.max(axis=0)
        order = np.argsort(fresh_a * new_n + fresh_b)
        fresh_a, fresh_b = fresh_a[order], fresh_b[order]
        pair_fresh = take_csr_rows(pair_fresh, live[order])

        # -- floats of the rebuilt rows, one value table -----------------
        distinct, floats = value_table(
            np.concatenate([node_fresh[2], pair_fresh[2]]), transform
        )
        node_fresh = (*node_fresh, float_view(node_fresh[2], distinct, floats))
        pair_fresh = (*pair_fresh, float_view(pair_fresh[2], distinct, floats))

        # -- m_x rows in universe order ----------------------------------
        if moved is None:
            source = np.arange(new_n, dtype=np.int64)
        else:
            source = np.full(new_n, -1, dtype=np.int64)
            stays = np.flatnonzero(moved >= 0)
            source[moved[stays]] = stays
        source[rebuilt_at] = -1
        node_rows = splice_csr_rows(self._node_table, source, node_fresh)

        # -- m_xy rows, ordered by their canonical (a, b) positions ------
        keep = np.ones(self.num_pairs, dtype=bool)
        keep[stale[stale >= 0]] = False
        kept = np.flatnonzero(keep)
        kept_a, kept_b = old_a[kept], old_b[kept]
        if moved is not None:
            # a monotone remap: kept rows stay in canonical order
            kept_a, kept_b = moved[kept_a], moved[kept_b]
        kept_rows, fresh_rows = _merge_positions(
            np.searchsorted(kept_a * new_n + kept_b, fresh_a * new_n + fresh_b), len(kept)
        )
        num_pairs = len(kept) + len(fresh_a)
        source = np.full(num_pairs, -1, dtype=np.int64)
        source[kept_rows] = kept
        ends_a = np.empty(num_pairs, dtype=np.int64)
        ends_b = np.empty(num_pairs, dtype=np.int64)
        ends_a[kept_rows], ends_b[kept_rows] = kept_a, kept_b
        ends_a[fresh_rows], ends_b[fresh_rows] = fresh_a, fresh_b
        if num_pairs and min(ends_a.min(), ends_b.min()) < 0:
            raise CatalogMismatchError("pair count references a node with no node count")
        pair_rows = splice_csr_rows(self._pair_table, source, pair_fresh)

        # -- adjacency: every pair row listed under both of its members
        # (a self-pair once), each node's partners in ascending position;
        # (owner, partner) is unique, so one argsort of the packed key is
        # the lexicographic order
        rows = np.arange(num_pairs, dtype=np.int64)
        mirrored = ends_a != ends_b
        owner = np.concatenate([ends_a, ends_b[mirrored]])
        partner = np.concatenate([ends_b, ends_a[mirrored]])
        order = np.argsort(owner * new_n + partner)
        pair_ptr = np.zeros(new_n + 1, dtype=np.int64)
        np.cumsum(np.bincount(owner, minlength=new_n), out=pair_ptr[1:])
        spliced = CompiledVectors(
            nodes,
            node_rows,
            pair_rows,
            pair_ptr,
            partner[order],
            np.concatenate([rows, rows[mirrored]])[order],
            size,
        )
        spliced._ends = (ends_a, ends_b)
        if moved is None:
            spliced._pos = self._pos
        return spliced

    def _merged_universe(
        self, leaving: np.ndarray, entering: Sequence[NodeId]
    ) -> tuple[tuple[NodeId, ...], np.ndarray, np.ndarray]:
        """The universe without ``leaving`` and with ``entering``.

        Returns the new node tuple, every old position's new one (-1 for
        a node that left) and every entering node's.  Survivors keep
        their relative order; entering nodes go in at their ``repr``
        position, after every survivor they tie with and in the given
        order among themselves.
        """
        survives = np.ones(self.num_nodes, dtype=bool)
        survives[leaving] = False
        survivors = np.flatnonzero(survives)
        kept = [self.nodes[i] for i in survivors.tolist()]
        order = sorted(range(len(entering)), key=lambda i: repr(entering[i]))
        at = np.asarray(
            [bisect_right(kept, repr(entering[i]), key=repr) for i in order],
            dtype=np.int64,
        )
        kept_at, entering_at = _merge_positions(at, len(kept))
        merged = list(kept)
        # ascending final positions: each insert lands where it belongs
        for i, k in zip(entering_at.tolist(), order):
            merged.insert(i, entering[k])
        moved = np.full(self.num_nodes, -1, dtype=np.int64)
        moved[survivors] = kept_at
        entered_at = np.empty(len(entering), dtype=np.int64)
        entered_at[order] = entering_at
        return tuple(merged), moved, entered_at

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

    @property
    def _node_table(self) -> CSR:
        return self.node_indptr, self.node_indices, self.node_count, self.node_data

    @property
    def _pair_table(self) -> CSR:
        return self.pair_indptr, self.pair_indices, self.pair_count, self.pair_data

    def pair_ends(self) -> tuple[np.ndarray, np.ndarray]:
        """The (smaller, larger) member position of every pair row.

        The adjacency lists each pair row under both of its ends (a self
        pair once); the entries owned by the smaller end name every row
        exactly once, so one vectorised pass recovers both ends.  A
        splice hands the ends it placed its rows by to its result.
        """
        if self._ends is not None:
            return self._ends
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
        pos = self._pos
        if pos is None:
            pos = self._pos = {node: i for i, node in enumerate(self.nodes)}
        return pos.get(node)

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

    def pair_rows(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`pair_row` over node rows ``i`` and ``j`` (-1: none).

        Reads only the candidate slices of the rows ``i`` names.
        """
        have = np.flatnonzero(i >= 0)
        indptr, partners, rows = take_csr_rows(
            (self.pair_ptr, self.partner_pos, self.entry_pair), i[have]
        )
        owner = np.repeat(have, np.diff(indptr))
        hit = partners == j[owner]
        out = np.full(len(i), -1, dtype=np.int64)
        out[owner[hit]] = rows[hit]
        return out

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
