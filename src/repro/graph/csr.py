"""Integer-CSR view of a :class:`TypedGraph` for the compiled matcher.

The matching engines in :mod:`repro.matching` spend their time in
per-candidate Python work: hashing arbitrary (string/tuple) node ids
into dict-of-set adjacency, one candidate at a time.  This module
re-lays the same graph into flat numpy arrays so the compiled engine
(:mod:`repro.matching.compiled`) can do that work on whole candidate
*arrays* instead:

- nodes get dense ``int32`` ids **partitioned by type** (types in
  sorted order, nodes within a type sorted by ``repr`` — deterministic
  under hash randomisation), so "all nodes of type t" is a contiguous
  id range;
- ``sig_names`` lists the S observed per-endpoint edge signatures
  ``(label, rel)`` (rel 0 undirected, 1 outgoing, -1 incoming) in
  sorted order.  A graph without edge kinds has the one signature
  ``("", 0)``, an edgeless graph none;
- adjacency is CSR (``indptr``/``indices``) with each row grouped into
  blocks by (neighbour type, signature), ids ascending inside a block.
  Block ``c = type_code * S + sig_code`` of row ``a`` is
  ``indices[block_ptr[a, c] : block_ptr[a, c + 1]]``, so the neighbours
  an edge of one pattern signature can reach are an O(1) array slice.
  With S = 1 the blocks are the per-type blocks of an ascending row;
- ``profiles`` holds each node's neighbour count per block — the
  neighbourhood-profile matrix that turns TurboISO's per-node candidate
  filter into one vectorised comparison;
- per-type node and edge totals (:meth:`CSRGraph.nodes_of`,
  :meth:`CSRGraph.edges_of`) back the estimated-instance-count matching
  order without an O(|E|) rescan per pattern.

:func:`csr_view` caches the view on the graph object and rebuilds it
when :attr:`TypedGraph.version` moves, so the offline build pays one
O(V + E) layout pass per graph version however many patterns it
matches.  An edge edit need not pay even that: :func:`patch_csr_view`
turns the cached view into the next version's with one sorted insert or
delete per endpoint block (:meth:`CSRGraph.toggled_edge`).  Node edits
renumber the dense ids, so they still lay the view out in full.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.graph.typed_graph import EdgeKind, EdgeSignature, NodeId, TypedGraph

_CACHE_ATTR = "_csr_view_cache"


class CSRGraph:
    """Immutable integer-CSR snapshot of one :class:`TypedGraph` version.

    Build with :meth:`from_graph` (or the cached :func:`csr_view`).
    The arrays are documented in the module docstring; node ids decode
    through :attr:`node_ids` and encode through :attr:`id_of` (rebuilt
    lazily after unpickling, so shipping a snapshot to a worker process
    moves only the compact arrays).
    """

    def __init__(
        self,
        *,
        version: int,
        type_names: tuple[str, ...],
        type_start: np.ndarray,
        node_ids: tuple[NodeId, ...],
        sig_names: tuple[EdgeSignature, ...],
        indptr: np.ndarray,
        indices: np.ndarray,
        block_ptr: np.ndarray,
        profiles: np.ndarray,
        edge_type_counts: np.ndarray,
    ):
        self.version = version
        self.type_names = type_names
        self.type_start = type_start
        self.node_ids = node_ids
        self.sig_names = sig_names
        self.indptr = indptr
        self.indices = indices
        self.block_ptr = block_ptr
        self.profiles = profiles
        self.edge_type_counts = edge_type_counts
        self._type_index = {name: i for i, name in enumerate(type_names)}
        self.sig_index = {sig: i for i, sig in enumerate(sig_names)}
        self._id_of: dict[NodeId, int] | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(cls, graph: TypedGraph) -> "CSRGraph":
        """Lay a graph out into CSR arrays (one pass over nodes + edges)."""
        type_names = tuple(sorted(graph.types))
        node_ids: list[NodeId] = []
        starts = [0]
        for name in type_names:
            node_ids.extend(sorted(graph.nodes_of_type(name), key=repr))
            starts.append(len(node_ids))
        n = len(node_ids)
        num_types = len(type_names)
        type_start = np.asarray(starts, dtype=np.int64)
        id_of = {node: i for i, node in enumerate(node_ids)}

        # one pass over the edges: endpoint ids and a code per distinct kind
        ends: list[int] = []
        kind_codes: list[int] = []
        kind_code: dict[EdgeKind, int] = {}
        for u, v, kind in graph.edges_with_kinds():
            ends.append(id_of[u])
            ends.append(id_of[v])
            kind_codes.append(kind_code.setdefault(kind, len(kind_code)))
        pairs = np.asarray(ends, dtype=np.int64).reshape(-1, 2)
        heads, tails = pairs[:, 0], pairs[:, 1]
        # a directed edge reads rel 1 from its source and -1 from its target
        head_sig = [(kind.label, int(kind.directed)) for kind in kind_code]
        tail_sig = [(label, -rel) for label, rel in head_sig]
        sig_names = tuple(sorted(set(head_sig) | set(tail_sig)))
        num_sigs = len(sig_names)
        code = {sig: i for i, sig in enumerate(sig_names)}
        kinds = np.asarray(kind_codes, dtype=np.int64)
        head_code = np.asarray([code[sig] for sig in head_sig], dtype=np.int64)
        tail_code = np.asarray([code[sig] for sig in tail_sig], dtype=np.int64)

        type_of = np.empty(max(n, 1), dtype=np.int64)[:n]
        for t in range(num_types):
            type_of[type_start[t] : type_start[t + 1]] = t
        src = np.concatenate([heads, tails])
        dst = np.concatenate([tails, heads])
        width = num_types * num_sigs
        # each entry's (row, block) code; the block orders by type, then signature
        row_block = src * width
        row_block += type_of[dst] * num_sigs
        row_block += np.concatenate([head_code[kinds], tail_code[kinds]])
        # rows sorted by (row, block, neighbour) on one packed key; keys are
        # unique (no multi-edges), so the unstable sort is deterministic
        order = np.argsort(row_block * n + dst)

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        indices = dst[order].astype(np.int32)
        profiles = np.bincount(row_block, minlength=n * width).reshape(n, width)
        block_ptr = np.empty((n, width + 1), dtype=np.int64)
        block_ptr[:, 0] = indptr[:-1]
        np.cumsum(profiles, axis=1, out=block_ptr[:, 1:])
        block_ptr[:, 1:] += indptr[:-1, None]

        edge_type_counts = np.zeros((num_types, num_types), dtype=np.int64)
        if heads.size:
            a = np.minimum(type_of[heads], type_of[tails])
            b = np.maximum(type_of[heads], type_of[tails])
            np.add.at(edge_type_counts, (a, b), 1)

        built = cls(
            version=graph.version,
            type_names=type_names,
            type_start=type_start,
            node_ids=tuple(node_ids),
            sig_names=sig_names,
            indptr=indptr,
            indices=indices,
            block_ptr=block_ptr,
            profiles=profiles,
            edge_type_counts=edge_type_counts,
        )
        built._id_of = id_of
        return built

    def toggled_edge(
        self, graph: TypedGraph, u: NodeId, v: NodeId
    ) -> "CSRGraph | None":
        """The view of ``graph`` one edge edit after this one, or None.

        ``graph`` is this view's graph after exactly one
        ``add_edge(u, v)`` or ``remove_edge(u, v)``; which one is read
        off ``graph``.  Each endpoint gets one sorted insert or delete in
        the edge's block of its row, and every derived array is shifted
        or counted by one, so the result is array-identical to
        :meth:`from_graph` at a fraction of its cost.  ``id_of`` is
        shared, since the node set did not change.  None when the edit
        changes the set of edge signatures (a new signature, or the last
        edge of one, which includes the first and the last edge of a
        graph): such a view is laid out in full.
        """
        step = 1 if graph.has_edge(u, v) else -1
        # the two adjacency entries (row, neighbour), in row order
        (a, node_a), (b, node_b) = sorted(
            ((self.id_of[u], u), (self.id_of[v], v)), key=lambda end: end[0]
        )
        ta = self._type_index[graph.node_type(node_a)]
        tb = self._type_index[graph.node_type(node_b)]
        num_sigs = self.num_sigs
        if step > 0:
            label, rel = graph.edge_signature(node_a, node_b)
            sig_a, sig_b = self.sig_index.get((label, rel)), self.sig_index.get((label, -rel))
            if sig_a is None or sig_b is None:
                return None
            col_a, col_b = tb * num_sigs + sig_a, ta * num_sigs + sig_b
            at = [
                self.block_ptr[a, col_a] + self.block(a, col_a).searchsorted(b),
                self.block_ptr[b, col_b] + self.block(b, col_b).searchsorted(a),
            ]
            indices = np.insert(self.indices, at, np.asarray([b, a], dtype=self.indices.dtype))
        else:
            (at_a, col_a), (at_b, col_b) = self._entry(a, tb, b), self._entry(b, ta, a)
            indices = np.delete(self.indices, [at_a, at_b])

        indptr = self.indptr.copy()
        block_ptr = self.block_ptr.copy()
        for row in (a, b):
            indptr[row + 1 :] += step
            block_ptr[row + 1 :] += step
        block_ptr[a, col_a + 1 :] += step
        block_ptr[b, col_b + 1 :] += step
        profiles = self.profiles.copy()
        profiles[a, col_a] += step
        profiles[b, col_b] += step
        if step < 0:
            for row, col in ((a, col_a), (b, col_b)):
                sig = col % num_sigs
                # the block, else the row, mostly settles it without the column scan
                if not (
                    profiles[row, col]
                    or profiles[row, sig::num_sigs].any()
                    or profiles[:, sig::num_sigs].any()
                ):
                    return None  # the last edge of a signature
        edge_type_counts = self.edge_type_counts.copy()
        edge_type_counts[min(ta, tb), max(ta, tb)] += step
        patched = CSRGraph(
            version=graph.version,
            type_names=self.type_names,
            type_start=self.type_start,
            node_ids=self.node_ids,
            sig_names=self.sig_names,
            indptr=indptr,
            indices=indices,
            block_ptr=block_ptr,
            profiles=profiles,
            edge_type_counts=edge_type_counts,
        )
        patched._id_of = self.id_of
        return patched

    def _entry(self, row: int, code: int, node: int) -> tuple[int, int]:
        """Position of ``node`` in ``row`` among its type-``code`` blocks, and its block."""
        first = code * self.num_sigs
        bounds = self.block_ptr[row, first : first + self.num_sigs + 1]
        at = int(bounds[0]) + int((self.indices[bounds[0] : bounds[-1]] == node).argmax())
        return at, first + int(bounds[1:].searchsorted(at, side="right"))

    # ------------------------------------------------------------------
    # pickling: ship arrays, rebuild the id dict lazily on the far side
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_id_of"] = None
        return state

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes |V|."""
        return len(self.node_ids)

    @property
    def num_types(self) -> int:
        """Number of node types |T|."""
        return len(self.type_names)

    @property
    def num_sigs(self) -> int:
        """Number S of distinct observed edge signatures."""
        return len(self.sig_names)

    @property
    def id_of(self) -> dict[NodeId, int]:
        """Original node id -> dense int id (lazily rebuilt after pickling)."""
        if self._id_of is None:
            self._id_of = {node: i for i, node in enumerate(self.node_ids)}
        return self._id_of

    def type_id(self, name: str) -> int | None:
        """Dense type code for a type name (None when absent)."""
        return self._type_index.get(name)

    def type_range(self, code: int) -> tuple[int, int]:
        """Dense-id half-open range [lo, hi) of the nodes of one type."""
        return int(self.type_start[code]), int(self.type_start[code + 1])

    def type_count(self, code: int) -> int:
        """Number of nodes of one type."""
        lo, hi = self.type_range(code)
        return hi - lo

    def block(self, node: int, column: int) -> np.ndarray:
        """Sorted neighbours of ``node`` in block ``type_code * S + sig_code`` (a view)."""
        return self.indices[self.block_ptr[node, column] : self.block_ptr[node, column + 1]]

    def nodes_of(self, node_type: str) -> int:
        """|I(t)|: number of nodes of the given type (0 when absent)."""
        code = self.type_id(node_type)
        return 0 if code is None else self.type_count(code)

    def edges_of(self, type_a: str, type_b: str) -> int:
        """|I(<t1, t2>)|: number of edges between the two types."""
        a, b = self.type_id(type_a), self.type_id(type_b)
        if a is None or b is None:
            return 0
        return int(self.edge_type_counts[min(a, b), max(a, b)])

    def encode(self, nodes: Iterable[NodeId]) -> np.ndarray:
        """Sorted dense-id array for the given original node ids.

        Ids absent from the graph are silently dropped — callers pass
        candidate restrictions (regions, pools) that may mention nodes
        removed since they were computed.
        """
        id_of = self.id_of
        kept = [id_of[node] for node in nodes if node in id_of]
        out = np.asarray(sorted(kept), dtype=self.indices.dtype)
        return out


def csr_view(graph: TypedGraph) -> CSRGraph:
    """The graph's CSR view, cached on the graph object.

    Rebuilt when (and only when) :attr:`TypedGraph.version` moved since
    the cached view was laid out, so mutation via ``apply_updates`` or
    direct graph edits can never serve stale adjacency.
    """
    cached: CSRGraph | None = getattr(graph, _CACHE_ATTR, None)
    if cached is None or cached.version != graph.version:
        cached = CSRGraph.from_graph(graph)
        setattr(graph, _CACHE_ATTR, cached)
    return cached


def patch_csr_view(graph: TypedGraph, u: NodeId, v: NodeId) -> None:
    """Carry the cached view across the edge edit ``graph`` just made.

    Call right after one ``graph.add_edge(u, v, ...)`` or
    ``graph.remove_edge(u, v)``.  When the cached view is the one of the
    version just before, it is replaced by :meth:`CSRGraph.toggled_edge`
    for the current version.  Otherwise (no view cached, more edits
    since, or a change to the edge-signature set) nothing happens, and
    :func:`csr_view` lays the next view out in full as usual.
    """
    cached: CSRGraph | None = getattr(graph, _CACHE_ATTR, None)
    if cached is None or cached.version != graph.version - 1:
        return
    patched = cached.toggled_edge(graph, u, v)
    if patched is not None:
        setattr(graph, _CACHE_ATTR, patched)
