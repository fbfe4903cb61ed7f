"""Incremental index maintenance for dynamic graphs.

The offline phase (mine → match → count, Fig. 3) assumes a static
graph, but :class:`~repro.graph.typed_graph.TypedGraph` supports
mutation.  This module keeps the Eq. 1–2 counts exact under edits
*without* a full rebuild:

1. **Affected region** — under induced semantics (Def. 2) an instance's
   membership can only change when the edit touches edges *inside* its
   node set, so every affected instance contains the edited endpoints.
   All its nodes therefore lie within pattern-radius graph distance of
   those endpoints; :func:`affected_region` computes that ball once per
   edit.
2. **Localized re-matching** — instead of re-running matching over the
   whole graph,
   :func:`repro.matching.compiled.compiled_pinned_matrix` (the compiled
   kernel with pins as singleton candidate arrays and the affected
   region as per-type candidate masks) enumerates only embeddings that
   pin the edited endpoints onto compatible pattern nodes, restricted
   to the affected region, as a dense-id matrix.  For an edge edit the
   two endpoints must map onto *adjacent* pattern nodes when the edge
   is present and non-adjacent ones when it is absent.  The embeddings
   of one instance form one coset of Aut(M) (Sect. IV-C), so the
   pattern nodes (or ordered pairs) an edited node (or pair) maps to
   form one Aut(M)-orbit: the path pins one representative per orbit
   (:func:`~repro.metagraph.symmetry.tuple_orbits`), and the pinned
   plan breaks the representative's stabiliser, so each affected
   instance comes back as exactly one row.  An edge edit patches the
   compiled kernel's cached CSR view in place of a relayout
   (:func:`~repro.graph.csr.patch_csr_view`: one sorted insert or
   delete per endpoint row); a node edit renumbers the dense ids, so
   the next enumeration lays the view out in full.
3. **Count patching** — per metagraph, the pinned matrices of the
   orbit representatives hold one row per affected instance; they are
   concatenated and counted once by the offline build's counter
   (:func:`~repro.index.instance_index.count_embeddings`), on the view
   they were enumerated on: retired instances on the pre-edit graph,
   new ones on the post-edit graph.  The retired counts are subtracted
   and the new ones folded in (:meth:`MetagraphVectors.patch_counts`,
   :meth:`InstanceIndex.patch`).  The result is bit-identical to a
   from-scratch rebuild on the mutated graph — the property suite in
   ``tests/index/test_delta.py`` asserts exactly that over randomized
   edit sequences.  The store queues the changes as an integer patch,
   so the next :meth:`MetagraphVectors.compile` splices just the
   touched rows into the last compiled snapshot.

Edits are described by :class:`GraphEdit` values collected in a
:class:`GraphDelta`; :func:`apply_delta` applies them to the graph and
the index together, in order, and returns :class:`DeltaStats`.
"""

from __future__ import annotations

import time
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import DeltaError, EdgeError
from repro.graph.csr import csr_view, patch_csr_view
from repro.graph.typed_graph import PLAIN, EdgeKind, NodeId, TypedGraph
from repro.index.instance_index import (
    InstanceIndex,
    MetagraphCounts,
    count_embeddings,
)
from repro.index.vectors import (
    MetagraphVectors,
    decode_node_id,
    encode_node_id,
)
from repro.matching.compiled import compiled_pinned_matrix
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import anchor_symmetric_pairs, tuple_orbits

_OPS = ("add_node", "remove_node", "add_edge", "remove_edge")


@dataclass(frozen=True)
class GraphEdit:
    """One graph mutation, in the vocabulary of :class:`TypedGraph`.

    ``u`` is the primary node (the node itself for node edits, one
    endpoint for edge edits); ``v`` is the other endpoint of an edge
    edit and ``node_type`` the type of an added node.  ``kind`` is the
    edge kind of an ``add_edge`` edit; for a directed kind the edge is
    oriented ``u -> v``.
    """

    op: str
    u: NodeId
    v: NodeId | None = None
    node_type: str | None = None
    kind: EdgeKind = PLAIN

    def __post_init__(self):
        if self.op not in _OPS:
            raise DeltaError(f"unknown edit op {self.op!r}; expected one of {_OPS}")
        if self.op.endswith("_edge") and self.v is None:
            raise DeltaError(f"{self.op} edit needs both endpoints")
        if self.op == "add_node" and self.node_type is None:
            raise DeltaError("add_node edit needs a node_type")
        if not isinstance(self.kind, EdgeKind):
            raise DeltaError(f"edit kind must be an EdgeKind, got {self.kind!r}")
        if self.kind != PLAIN and self.op != "add_edge":
            raise DeltaError(f"{self.op} edit does not take an edge kind")

    @classmethod
    def add_node(cls, node: NodeId, node_type: str) -> "GraphEdit":
        return cls("add_node", node, node_type=node_type)

    @classmethod
    def remove_node(cls, node: NodeId) -> "GraphEdit":
        return cls("remove_node", node)

    @classmethod
    def add_edge(cls, u: NodeId, v: NodeId, kind: EdgeKind = PLAIN) -> "GraphEdit":
        return cls("add_edge", u, v, kind=kind)

    @classmethod
    def remove_edge(cls, u: NodeId, v: NodeId) -> "GraphEdit":
        return cls("remove_edge", u, v)

    def to_json_dict(self) -> dict:
        """JSON-safe form (node ids via the snapshot codec)."""
        doc: dict = {"op": self.op, "u": encode_node_id(self.u)}
        if self.v is not None:
            doc["v"] = encode_node_id(self.v)
        if self.node_type is not None:
            doc["node_type"] = self.node_type
        if self.kind != PLAIN:
            # emitted only for kinded edges, so plain update logs keep
            # their exact historical byte layout
            doc["label"] = self.kind.label
            doc["directed"] = 1 if self.kind.directed else 0
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "GraphEdit":
        """Inverse of :meth:`to_json_dict`."""
        try:
            op = doc["op"]
            u = decode_node_id(doc["u"])
        except (KeyError, TypeError) as exc:
            raise DeltaError(f"malformed edit record {doc!r}") from exc
        v = decode_node_id(doc["v"]) if "v" in doc else None
        kind = PLAIN
        if "label" in doc or "directed" in doc:
            label = doc.get("label", "")
            directed = doc.get("directed", 0)
            if not isinstance(label, str) or directed not in (0, 1):
                raise DeltaError(f"malformed edit kind in record {doc!r}")
            kind = EdgeKind(label, bool(directed))
        return cls(op, u, v=v, node_type=doc.get("node_type"), kind=kind)


class GraphDelta:
    """An ordered batch of graph edits, with a chaining builder API.

    >>> delta = GraphDelta().add_node("Kate", "user").add_edge("Kate", "MIT")
    >>> len(delta)
    2
    """

    def __init__(self, edits: Iterable[GraphEdit] = ()):
        self._edits: list[GraphEdit] = list(edits)

    def add_node(self, node: NodeId, node_type: str) -> "GraphDelta":
        self._edits.append(GraphEdit.add_node(node, node_type))
        return self

    def remove_node(self, node: NodeId) -> "GraphDelta":
        self._edits.append(GraphEdit.remove_node(node))
        return self

    def add_edge(
        self, u: NodeId, v: NodeId, kind: EdgeKind = PLAIN
    ) -> "GraphDelta":
        self._edits.append(GraphEdit.add_edge(u, v, kind))
        return self

    def remove_edge(self, u: NodeId, v: NodeId) -> "GraphDelta":
        self._edits.append(GraphEdit.remove_edge(u, v))
        return self

    def __len__(self) -> int:
        return len(self._edits)

    def __iter__(self) -> Iterator[GraphEdit]:
        return iter(self._edits)

    def __bool__(self) -> bool:
        return bool(self._edits)

    def to_json_list(self) -> list[dict]:
        """The whole batch as JSON-safe records (snapshot update log)."""
        return [edit.to_json_dict() for edit in self._edits]

    @classmethod
    def from_json_list(cls, docs: Iterable[dict]) -> "GraphDelta":
        return cls(GraphEdit.from_json_dict(doc) for doc in docs)

    def apply_to(self, graph: TypedGraph) -> None:
        """Replay the edits onto a graph (mutations only, no index math).

        Used to reconstruct a snapshot's graph from a base graph plus
        the snapshot's recorded update log.
        """
        for edit in self._edits:
            if edit.op == "add_node":
                graph.add_node(edit.u, edit.node_type)
            elif edit.op == "remove_node":
                graph.remove_node(edit.u)
            elif edit.op == "add_edge":
                graph.add_edge(edit.u, edit.v, edit.kind)
            else:
                graph.remove_edge(edit.u, edit.v)

    def __repr__(self) -> str:
        return f"<GraphDelta: {len(self._edits)} edits>"


@dataclass
class DeltaStats:
    """What one :func:`apply_delta` call did, for logs and reports."""

    edits_applied: int = 0
    edits_noop: int = 0
    instances_retired: int = 0
    instances_added: int = 0
    metagraphs_touched: set[int] = field(default_factory=set)
    seconds: float = 0.0

    def __repr__(self) -> str:
        return (
            f"<DeltaStats: {self.edits_applied} edits "
            f"({self.edits_noop} no-ops), -{self.instances_retired}"
            f"/+{self.instances_added} instances, "
            f"{len(self.metagraphs_touched)} metagraphs, "
            f"{self.seconds * 1e3:.1f} ms>"
        )


# ----------------------------------------------------------------------
# affected-region computation
# ----------------------------------------------------------------------
def pattern_diameter(metagraph: Metagraph) -> int:
    """Longest shortest path between two pattern nodes (0 for one node)."""
    best = 0
    for start in metagraph.nodes():
        depth = {start: 0}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in metagraph.neighbors(u):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    queue.append(v)
        best = max(best, max(depth.values()))
    return best


def catalog_radius(catalog: MetagraphCatalog) -> int:
    """Max pattern diameter over the catalog — the BFS depth that makes
    an affected region sound for every member."""
    return max((pattern_diameter(m) for m in catalog), default=0)


def affected_region(
    graph: TypedGraph, seeds: Iterable[NodeId], radius: int
) -> dict[str, set[NodeId]]:
    """Nodes within ``radius`` hops of any seed, grouped by type.

    Every instance affected by an edit contains an edited endpoint, and
    its remaining nodes are reachable from it along instance edges in at
    most pattern-diameter hops; restricting candidate pools to this ball
    is therefore lossless.
    """
    depth: dict[NodeId, int] = {}
    queue: deque[NodeId] = deque()
    for seed in seeds:
        if seed in graph and seed not in depth:
            depth[seed] = 0
            queue.append(seed)
    while queue:
        u = queue.popleft()
        if depth[u] == radius:
            continue
        for v in graph.adjacency(u):
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
    region: dict[str, set[NodeId]] = {}
    for node in depth:
        region.setdefault(graph.node_type(node), set()).add(node)
    return region


# ----------------------------------------------------------------------
# localized re-matching, counted
# ----------------------------------------------------------------------
def _count_pinned(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    mg_ids: Sequence[int],
    ends: tuple[NodeId, ...],
    adjacent: bool | None,
    radius: int,
) -> dict[int, MetagraphCounts]:
    """Eq. 1–2 counts of the current instances holding every node of ``ends``.

    Per metagraph, ``ends`` is pinned onto one representative of each
    Aut(M)-orbit of pattern-node tuples of their types
    (:func:`~repro.metagraph.symmetry.tuple_orbits`; for a pair, only
    pattern pairs whose adjacency equals ``adjacent``).  No two pin
    sets reach one instance, so the concatenated matrices hold one row
    per instance.  They are counted on the CSR view they were
    enumerated on: a node edit renumbers dense ids, so counts are
    decoded before the graph mutates.  Metagraphs no pin set reaches
    are left out.
    """
    region = affected_region(graph, ends, radius)
    types = tuple(graph.node_type(end) for end in ends)
    found: dict[int, MetagraphCounts] = {}
    for mg_id in mg_ids:
        metagraph = catalog[mg_id]
        matrices = [
            compiled_pinned_matrix(graph, metagraph, dict(zip(orbit[0], ends)), region)
            for orbit in tuple_orbits(metagraph, types, adjacent)
        ]
        if sum(matrix.shape[0] for matrix in matrices):
            found[mg_id] = count_embeddings(
                csr_view(graph),
                np.concatenate(matrices),
                anchor_symmetric_pairs(metagraph, catalog.anchor_type),
            )
    return found


def enumerate_for_node(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    mg_ids: Sequence[int],
    node: NodeId,
    radius: int,
) -> dict[int, MetagraphCounts]:
    """Counts of the current instances whose node set has ``node``."""
    return _count_pinned(graph, catalog, mg_ids, (node,), None, radius)


def enumerate_for_edge(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    mg_ids: Sequence[int],
    u: NodeId,
    v: NodeId,
    adjacent: bool,
    radius: int,
) -> dict[int, MetagraphCounts]:
    """Counts of the current instances containing both ``u`` and ``v``.

    Under induced semantics the pattern nodes they map onto are adjacent
    exactly when ``(u, v)`` is a graph edge, so ``adjacent`` selects the
    admissible ordered pin pairs: pattern edges when the edge is present,
    non-edges when absent.
    """
    return _count_pinned(graph, catalog, mg_ids, (u, v), adjacent, radius)


# ----------------------------------------------------------------------
# the update driver
# ----------------------------------------------------------------------
def _validate(graph: TypedGraph, edit: GraphEdit) -> bool:
    """Pre-flight an edit against the current graph, mutating nothing.

    Returns ``False`` for a no-op (re-adding an existing node/edge);
    raises the same graph exceptions the direct mutation would, *before*
    any count is touched, so a failed edit never half-patches the index.
    """
    if edit.op == "add_node":
        existing = graph.node_type(edit.u) if edit.u in graph else None
        if existing is not None and existing == edit.node_type:
            return False
        # type conflicts and invalid types surface via the graph call
        return True
    if edit.op == "remove_node":
        graph.node_type(edit.u)  # raises NodeNotFoundError if absent
        return True
    # edge edits
    graph.node_type(edit.u)
    graph.node_type(edit.v)
    if edit.op == "add_edge":
        if edit.u == edit.v:
            raise EdgeError(f"self-loops are not allowed (node {edit.u!r})")
        if not graph.has_edge(edit.u, edit.v):
            return True
        # re-adding with the same kind is a no-op; a conflicting kind is
        # the same error the direct mutation raises
        expected = (edit.kind.label, 1 if edit.kind.directed else 0)
        if graph.edge_signature(edit.u, edit.v) != expected:
            raise EdgeError(
                f"edge ({edit.u!r}, {edit.v!r}) already exists with a "
                "different kind"
            )
        return False
    if not graph.has_edge(edit.u, edit.v):
        raise EdgeError(f"edge ({edit.u!r}, {edit.v!r}) is not in the graph")
    return True


def apply_delta(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    vectors: MetagraphVectors,
    delta: GraphDelta | Iterable[GraphEdit],
    index: InstanceIndex | None = None,
    on_edit: Callable[[GraphEdit], None] | None = None,
) -> DeltaStats:
    """Apply graph edits and incrementally maintain the index.

    Mutates ``graph``, ``vectors`` and (when given) ``index`` together,
    edit by edit, so the counts always describe the graph exactly —
    bit-identical to ``build_index`` on the resulting graph.  The
    compiled CSR snapshot of ``vectors`` goes stale and becomes the
    base the next :meth:`MetagraphVectors.compile` splices the patched
    rows into (call it after the batch, or let
    :meth:`ProximityModel.rank` do it lazily).  Edge edits carry the
    graph's cached CSR view along instead of dropping it.

    ``on_edit`` is invoked after each *effective* edit commits (graph
    mutated, counts patched; no-ops are skipped) — the checkpoint
    callers use to version and log per-edit, so an edit failing
    mid-batch leaves everything before it recorded and nothing after it
    touched, and update logs never accumulate edits that changed
    nothing.

    Only metagraphs already matched into ``vectors`` are maintained;
    ids never matched (e.g. dual-stage leftovers) stay unmatched.  An
    ``index`` that records other matched ids than ``vectors`` raises
    :class:`~repro.exceptions.CatalogMismatchError` before the first
    edit.
    """
    start = time.perf_counter()
    vectors.verify_catalog(catalog, index)
    edits = list(delta)
    mg_ids = sorted(vectors.matched_ids)
    radius = catalog_radius(catalog)
    stats = DeltaStats()
    for edit in edits:
        if not _validate(graph, edit):
            stats.edits_noop += 1
            continue
        pre: dict[int, MetagraphCounts] = {}
        post: dict[int, MetagraphCounts] = {}
        if edit.op == "add_node":
            graph.add_node(edit.u, edit.node_type)
            post = enumerate_for_node(graph, catalog, mg_ids, edit.u, radius)
        elif edit.op == "remove_node":
            # removal cannot create instances: induced subgraphs of the
            # surviving node sets are untouched
            pre = enumerate_for_node(graph, catalog, mg_ids, edit.u, radius)
            graph.remove_node(edit.u)
        elif edit.op == "add_edge":
            pre = enumerate_for_edge(
                graph, catalog, mg_ids, edit.u, edit.v, False, radius
            )
            graph.add_edge(edit.u, edit.v, edit.kind)
            patch_csr_view(graph, edit.u, edit.v)
            post = enumerate_for_edge(
                graph, catalog, mg_ids, edit.u, edit.v, True, radius
            )
        else:  # remove_edge
            pre = enumerate_for_edge(
                graph, catalog, mg_ids, edit.u, edit.v, True, radius
            )
            graph.remove_edge(edit.u, edit.v)
            patch_csr_view(graph, edit.u, edit.v)
            post = enumerate_for_edge(
                graph, catalog, mg_ids, edit.u, edit.v, False, radius
            )
        stats.edits_applied += 1
        for mg_id in sorted(set(pre) | set(post)):
            retired = pre.get(mg_id) or MetagraphCounts()
            added = post.get(mg_id) or MetagraphCounts()
            vectors.patch_counts(mg_id, retired, added)
            if index is not None:
                index.patch(mg_id, retired, added)
            stats.instances_retired += retired.num_instances
            stats.instances_added += added.num_instances
            stats.metagraphs_touched.add(mg_id)
        if on_edit is not None:
            on_edit(edit)
    stats.seconds = time.perf_counter() - start
    return stats
