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
- adjacency is CSR (``indptr``/``indices``) with each row sorted
  ascending.  Because ids are partitioned by type, a sorted row is also
  grouped by type, and ``type_ptr`` records the per-row block
  boundaries: the typed adjacency of any node is an O(1) array slice;
- ``profiles`` holds each node's per-type neighbour counts — the
  neighbourhood-profile matrix that turns TurboISO's per-node candidate
  filter into one vectorised comparison;
- per-type node and edge totals back the estimated-instance-count
  matching order without an O(|E|) rescan per pattern.

:func:`csr_view` caches the view on the graph object and rebuilds it
when :attr:`TypedGraph.version` moves, so the offline build pays one
O(V + E) layout pass per graph version however many patterns it
matches.  An edge edit need not pay even that: :func:`patch_csr_view`
turns the cached view into the next version's with one sorted insert or
delete per endpoint row (:meth:`CSRGraph.toggled_edge`).  Node edits
renumber the dense ids, so they still lay the view out in full.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.graph.typed_graph import NodeId, TypedGraph

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
        indptr: np.ndarray,
        indices: np.ndarray,
        type_ptr: np.ndarray,
        profiles: np.ndarray,
        edge_type_counts: np.ndarray,
        sig_names: tuple[tuple[str, int], ...] = (),
        edge_sig: np.ndarray | None = None,
        sig_profiles: np.ndarray | None = None,
    ):
        self.version = version
        self.type_names = type_names
        self.type_start = type_start
        self.node_ids = node_ids
        self.indptr = indptr
        self.indices = indices
        self.type_ptr = type_ptr
        self.profiles = profiles
        self.edge_type_counts = edge_type_counts
        # edge-kind layer (built only for graphs with non-plain kinds):
        # sig_names enumerates the observed per-endpoint signatures
        # (label, rel) with rel 0 = undirected, 1 = outgoing, -1 =
        # incoming; edge_sig is parallel to ``indices`` and carries the
        # signature code of each (row -> neighbour) entry from the row
        # node's perspective; sig_profiles counts neighbours per
        # (type, signature) column ``type_code * num_sigs + sig_code``.
        self.sig_names = sig_names
        self.edge_sig = edge_sig
        self.sig_profiles = sig_profiles
        self._type_index = {name: i for i, name in enumerate(type_names)}
        self._sig_index = {sig: i for i, sig in enumerate(sig_names)}
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

        kinded = graph.has_kinds
        heads = np.empty(graph.num_edges, dtype=np.int64)
        tails = np.empty(graph.num_edges, dtype=np.int64)
        head_sig: list[tuple[str, int]] = []
        tail_sig: list[tuple[str, int]] = []
        for k, (u, v) in enumerate(graph.edges()):
            heads[k] = id_of[u]
            tails[k] = id_of[v]
            if kinded:
                label, rel = graph.edge_signature(u, v)
                head_sig.append((label, rel))
                tail_sig.append((label, -rel))
        src = np.concatenate([heads, tails])
        dst = np.concatenate([tails, heads])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]

        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
        indices = dst.astype(np.int32)

        sig_names: tuple[tuple[str, int], ...] = ()
        edge_sig: np.ndarray | None = None
        if kinded:
            sig_names = tuple(sorted(set(head_sig) | set(tail_sig)))
            sig_code = {sig: i for i, sig in enumerate(sig_names)}
            raw_sig = np.asarray(
                [sig_code[sig] for sig in head_sig]
                + [sig_code[sig] for sig in tail_sig],
                dtype=np.int16,
            )
            edge_sig = raw_sig[order]

        type_of = np.empty(max(n, 1), dtype=np.int64)[:n]
        for code in range(num_types):
            type_of[type_start[code] : type_start[code + 1]] = code
        profiles = np.zeros((n, num_types), dtype=np.int64)
        if indices.size:
            row_of = np.repeat(np.arange(n), np.diff(indptr))
            np.add.at(profiles, (row_of, type_of[indices]), 1)
        type_ptr = np.empty((n, num_types + 1), dtype=np.int64)
        type_ptr[:, 0] = indptr[:-1]
        np.cumsum(profiles, axis=1, out=type_ptr[:, 1:])
        type_ptr[:, 1:] += indptr[:-1, None]

        edge_type_counts = np.zeros((num_types, num_types), dtype=np.int64)
        if heads.size:
            a = np.minimum(type_of[heads], type_of[tails])
            b = np.maximum(type_of[heads], type_of[tails])
            np.add.at(edge_type_counts, (a, b), 1)

        sig_profiles: np.ndarray | None = None
        if kinded:
            num_sigs = len(sig_names)
            sig_profiles = np.zeros((n, num_types * num_sigs), dtype=np.int64)
            if indices.size and edge_sig is not None:
                row_of = np.repeat(np.arange(n), np.diff(indptr))
                cols = type_of[indices] * num_sigs + edge_sig.astype(np.int64)
                np.add.at(sig_profiles, (row_of, cols), 1)

        built = cls(
            version=graph.version,
            type_names=type_names,
            type_start=type_start,
            node_ids=tuple(node_ids),
            indptr=indptr,
            indices=indices,
            type_ptr=type_ptr,
            profiles=profiles,
            edge_type_counts=edge_type_counts,
            sig_names=sig_names,
            edge_sig=edge_sig,
            sig_profiles=sig_profiles,
        )
        built._id_of = id_of
        return built

    def toggled_edge(
        self, graph: TypedGraph, u: NodeId, v: NodeId
    ) -> "CSRGraph | None":
        """The view of ``graph`` one edge edit after this one, or None.

        ``graph`` is this view's graph after exactly one
        ``add_edge(u, v)`` or ``remove_edge(u, v)``; which one is read
        off ``graph``.  Each endpoint row gets one sorted insert or
        delete, and every derived array is shifted or counted by one, so
        the result is array-identical to :meth:`from_graph` at a
        fraction of its cost.  ``id_of`` is shared, since the node set
        did not change.  None when the edit changes the set of edge
        signatures (a new signature, the last edge of one, or edge kinds
        appearing or vanishing): such a view is laid out in full.
        """
        if graph.has_kinds != self.has_kinds:
            return None
        step = 1 if graph.has_edge(u, v) else -1
        # the two adjacency entries (row, neighbour), in row order
        (a, node_a), (b, node_b) = sorted(
            ((self.id_of[u], u), (self.id_of[v], v)), key=lambda end: end[0]
        )
        ta = self._type_index[graph.node_type(node_a)]
        tb = self._type_index[graph.node_type(node_b)]
        at = np.asarray(
            [
                self.indptr[a] + np.searchsorted(self.neighbors(a), b),
                self.indptr[b] + np.searchsorted(self.neighbors(b), a),
            ],
            dtype=np.int64,
        )
        edge_sig = self.edge_sig
        sigs = np.zeros(2, dtype=np.int64)
        if edge_sig is not None:
            if step > 0:
                label, rel = graph.edge_signature(node_a, node_b)
                code_a, code_b = self.sig_id(label, rel), self.sig_id(label, -rel)
                if code_a is None or code_b is None:
                    return None
                sigs[:] = (code_a, code_b)
                edge_sig = np.insert(edge_sig, at, sigs.astype(edge_sig.dtype))
            else:
                sigs[:] = edge_sig[at]
                edge_sig = np.delete(edge_sig, at)
                if not np.isin(sigs, edge_sig).all():
                    return None
        if step > 0:
            indices = np.insert(self.indices, at, np.asarray([b, a], dtype=self.indices.dtype))
        else:
            indices = np.delete(self.indices, at)

        indptr = self.indptr.copy()
        type_ptr = self.type_ptr.copy()
        for row in (a, b):
            indptr[row + 1 :] += step
            type_ptr[row + 1 :] += step
        type_ptr[a, tb + 1 :] += step
        type_ptr[b, ta + 1 :] += step
        profiles = self.profiles.copy()
        profiles[a, tb] += step
        profiles[b, ta] += step
        edge_type_counts = self.edge_type_counts.copy()
        edge_type_counts[min(ta, tb), max(ta, tb)] += step
        sig_profiles = self.sig_profiles
        if sig_profiles is not None:
            sig_profiles = sig_profiles.copy()
            sig_profiles[a, tb * self.num_sigs + sigs[0]] += step
            sig_profiles[b, ta * self.num_sigs + sigs[1]] += step
        patched = CSRGraph(
            version=graph.version,
            type_names=self.type_names,
            type_start=self.type_start,
            node_ids=self.node_ids,
            indptr=indptr,
            indices=indices,
            type_ptr=type_ptr,
            profiles=profiles,
            edge_type_counts=edge_type_counts,
            sig_names=self.sig_names,
            edge_sig=edge_sig,
            sig_profiles=sig_profiles,
        )
        patched._id_of = self.id_of
        return patched

    # ------------------------------------------------------------------
    # pickling: ship arrays, rebuild the id dict lazily on the far side
    # ------------------------------------------------------------------
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state["_id_of"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        state.setdefault("sig_names", ())
        state.setdefault("edge_sig", None)
        state.setdefault("sig_profiles", None)
        self.__dict__.update(state)
        self._type_index = {name: i for i, name in enumerate(self.type_names)}
        self._sig_index = {sig: i for i, sig in enumerate(self.sig_names)}

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

    def neighbors(self, node: int) -> np.ndarray:
        """Sorted dense-id neighbour row of ``node`` (a view, not a copy)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def typed_neighbors(self, node: int, code: int) -> np.ndarray:
        """Sorted neighbours of ``node`` with type ``code`` (O(1) slice)."""
        return self.indices[self.type_ptr[node, code] : self.type_ptr[node, code + 1]]

    @property
    def has_kinds(self) -> bool:
        """True iff the source graph carried non-plain edge kinds."""
        return self.edge_sig is not None

    @property
    def num_sigs(self) -> int:
        """Number of distinct observed edge signatures."""
        return len(self.sig_names)

    def sig_id(self, label: str, rel: int) -> int | None:
        """Dense code for an edge signature (None when never observed)."""
        return self._sig_index.get((label, rel))

    def typed_neighbors_sig(self, node: int, code: int, sig: int) -> np.ndarray:
        """Sorted neighbours of ``node`` of type ``code`` via signature ``sig``.

        Masks the typed slice by the parallel ``edge_sig`` array; the
        result stays ascending because masking preserves slice order.
        Only valid on kinded views (``has_kinds``).
        """
        lo, hi = self.type_ptr[node, code], self.type_ptr[node, code + 1]
        assert self.edge_sig is not None
        sigs = self.edge_sig[lo:hi]
        return self.indices[lo:hi][sigs == sig]

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge (u, v) exists (binary search)."""
        row = self.neighbors(u)
        k = int(np.searchsorted(row, v))
        return k < row.size and int(row[k]) == v

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

    def cardinalities(self) -> "CSRCardinalities":
        """Type statistics compatible with the matching-order heuristics."""
        return CSRCardinalities(self)


class CSRCardinalities:
    """|I(t)| / |I(<t1, t2>)| statistics answered from the CSR arrays.

    The one source of the matching-order statistics
    (:func:`repro.matching.ordering.estimated_cost_order`).  O(1) to
    construct: the per-type totals were accumulated during the CSR
    layout pass instead of rescanning every edge per pattern.
    """

    def __init__(self, csr: CSRGraph):
        self._csr = csr

    def nodes_of(self, node_type: str) -> int:
        code = self._csr.type_id(node_type)
        return 0 if code is None else self._csr.type_count(code)

    def edges_of(self, type_a: str, type_b: str) -> int:
        csr = self._csr
        a, b = csr.type_id(type_a), csr.type_id(type_b)
        if a is None or b is None:
            return 0
        return int(csr.edge_type_counts[min(a, b), max(a, b)])


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
