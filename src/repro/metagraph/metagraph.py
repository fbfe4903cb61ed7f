"""Metagraph: a small typed pattern graph (Sect. II-A, Def. in Table I).

A metagraph ``M = (V_M, E_M)`` abstracts objects into types: each node
carries a type from ``T`` and only the type matters.  Metagraphs in this
library are immutable, hashable value objects with nodes labelled
``0 .. n-1``; equality is *labelled* equality (same types tuple, same
edge set) — use :func:`repro.metagraph.canonical.canonical_form` for
isomorphism-invariant identity.

Instances of a metagraph on an object graph (Def. 2) are computed by the
engines in :mod:`repro.matching`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cached_property

from repro.exceptions import InvalidMetagraphError
from repro.graph.typed_graph import PLAIN, EdgeKind, EdgeSignature

Edge = tuple[int, int]

#: (edge, (label, rel)) pairs, sorted — the hashable kind encoding
KindItems = tuple[tuple[Edge, EdgeSignature], ...]


def _normalize_edge(u: int, v: int) -> Edge:
    if u == v:
        raise InvalidMetagraphError(f"self-loop on node {u} is not allowed")
    return (u, v) if u < v else (v, u)


def _normalize_kind(u: int, v: int, kind: EdgeKind) -> tuple[Edge, EdgeSignature]:
    """Normalise an oriented (u, v, kind) into (edge, signature).

    The signature is stored relative to the normalised ``a < b`` edge:
    rel 0 = undirected, 1 = ``a -> b``, -1 = ``b -> a``.
    """
    edge = _normalize_edge(u, v)
    if not kind.directed:
        return edge, (kind.label, 0)
    return edge, (kind.label, 1 if edge[0] == u else -1)


class Metagraph:
    """An immutable connected typed pattern graph.

    Parameters
    ----------
    types:
        ``types[i]`` is the type of pattern node ``i``.
    edges:
        Edges as ``(u, v)`` pairs of node indexes, or ``(u, v, kind)``
        triples carrying an :class:`~repro.graph.typed_graph.EdgeKind`
        (oriented ``u -> v`` when the kind is directed).  Plain pairs
        reproduce the paper's undirected unlabeled pattern edges.
    name:
        Optional label (e.g. ``"M1"``) used in reports.

    Examples
    --------
    The paper's M3 (Fig. 2b): two users sharing an address.

    >>> m3 = Metagraph(["user", "address", "user"], [(0, 1), (1, 2)], name="M3")
    >>> m3.is_path
    True
    >>> m3.size
    3
    """

    __slots__ = ("_types", "_edges", "_kinds", "_adj", "name", "__dict__")

    def __init__(
        self,
        types: Sequence[str],
        edges: Iterable[tuple],
        name: str = "",
    ):
        self._types: tuple[str, ...] = tuple(types)
        if not self._types:
            raise InvalidMetagraphError("a metagraph must have at least one node")
        for t in self._types:
            if not isinstance(t, str) or not t:
                raise InvalidMetagraphError(f"invalid node type {t!r}")
        n = len(self._types)
        normalized: set[Edge] = set()
        kinds: dict[Edge, EdgeSignature] = {}
        for entry in edges:
            if len(entry) == 2:
                u, v = entry
                kind = PLAIN
            elif len(entry) == 3:
                u, v, kind = entry
                if not isinstance(kind, EdgeKind):
                    raise InvalidMetagraphError(
                        f"edge ({u}, {v}) kind must be an EdgeKind, "
                        f"got {kind!r}"
                    )
            else:
                raise InvalidMetagraphError(f"malformed edge entry {entry!r}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidMetagraphError(
                    f"edge ({u}, {v}) references a node outside 0..{n - 1}"
                )
            edge, sig = _normalize_kind(u, v, kind)
            if edge in normalized:
                if kinds.get(edge, ("", 0)) != sig:
                    raise InvalidMetagraphError(
                        f"edge {edge} declared twice with conflicting kinds"
                    )
            normalized.add(edge)
            if sig != ("", 0):
                kinds[edge] = sig
        self._edges: frozenset[Edge] = frozenset(normalized)
        self._kinds: dict[Edge, EdgeSignature] = kinds
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self.name = name
        if len(self.induced_components(range(n))) > 1:
            raise InvalidMetagraphError("metagraphs must be connected")

    def induced_components(self, nodes: Iterable[int]) -> list[tuple[int, ...]]:
        """Connected components of the subgraph induced on ``nodes``.

        Each component is a sorted tuple; components come in order of
        their smallest node.
        """
        remaining = set(nodes)
        components: list[tuple[int, ...]] = []
        while remaining:
            start = min(remaining)
            remaining.discard(start)
            stack, component = [start], [start]
            while stack:
                for v in self._adj[stack.pop()]:
                    if v in remaining:
                        remaining.discard(v)
                        component.append(v)
                        stack.append(v)
            components.append(tuple(sorted(component)))
        return components

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of pattern nodes |V_M|."""
        return len(self._types)

    @property
    def num_edges(self) -> int:
        """Number of pattern edges |E_M|."""
        return len(self._edges)

    @property
    def types(self) -> tuple[str, ...]:
        """Node types indexed by node id."""
        return self._types

    @property
    def edges(self) -> frozenset[Edge]:
        """The (normalised, u < v) edge set."""
        return self._edges

    def node_type(self, node: int) -> str:
        """Type of pattern node ``node``."""
        return self._types[node]

    def neighbors(self, node: int) -> frozenset[int]:
        """Neighbours of pattern node ``node``."""
        return self._adj[node]

    def degree(self, node: int) -> int:
        """Degree of pattern node ``node``."""
        return len(self._adj[node])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the pattern edge (u, v) exists."""
        return _normalize_edge(u, v) in self._edges if u != v else False

    @property
    def has_kinds(self) -> bool:
        """True iff any pattern edge carries a non-plain kind (O(1))."""
        return bool(self._kinds)

    @cached_property
    def kind_items(self) -> KindItems:
        """Sorted, hashable (edge, signature) pairs of non-plain edges."""
        return tuple(sorted(self._kinds.items()))

    def edge_kind(self, u: int, v: int) -> EdgeKind:
        """The kind of pattern edge (u, v) (:data:`PLAIN` default)."""
        label, rel = self.edge_signature(u, v)
        return EdgeKind(label, rel != 0)

    def edge_signature(self, u: int, v: int) -> EdgeSignature:
        """The pattern edge's (label, rel) relative to argument order.

        ``rel`` is 0 for undirected, 1 for ``u -> v``, -1 for
        ``v -> u``.  Raises :class:`InvalidMetagraphError` when the edge
        is absent.
        """
        edge = _normalize_edge(u, v)
        if edge not in self._edges:
            raise InvalidMetagraphError(f"pattern edge ({u}, {v}) does not exist")
        label, rel = self._kinds.get(edge, ("", 0))
        if rel != 0 and edge[0] != u:
            rel = -rel
        return (label, rel)

    def edges_with_kinds(self) -> Iterable[tuple[int, int, EdgeKind]]:
        """(source, target, kind) triples, directed edges source-first."""
        for u, v in sorted(self._edges):
            label, rel = self._kinds.get((u, v), ("", 0))
            if rel == -1:
                yield (v, u, EdgeKind(label, True))
            elif rel == 1:
                yield (u, v, EdgeKind(label, True))
            else:
                yield (u, v, EdgeKind(label, False))

    def nodes(self) -> range:
        """Node ids 0..n-1."""
        return range(self.size)

    def nodes_of_type(self, node_type: str) -> tuple[int, ...]:
        """Pattern nodes with the given type."""
        return tuple(i for i, t in enumerate(self._types) if t == node_type)

    @cached_property
    def type_multiset(self) -> tuple[tuple[str, int], ...]:
        """Sorted (type, multiplicity) pairs — a cheap isomorphism invariant."""
        counts: dict[str, int] = {}
        for t in self._types:
            counts[t] = counts.get(t, 0) + 1
        return tuple(sorted(counts.items()))

    # ------------------------------------------------------------------
    # structural predicates
    # ------------------------------------------------------------------
    @cached_property
    def is_path(self) -> bool:
        """True iff the metagraph is a *metapath* (a simple path).

        Metapaths are the seed metagraphs of dual-stage training
        (Alg. 1 line 1).  A single node counts as a (trivial) path.
        """
        n = self.size
        if n == 1:
            return True
        if self.num_edges != n - 1:
            return False
        degrees = [self.degree(i) for i in range(n)]
        return max(degrees) <= 2 and degrees.count(1) == 2

    def count_type(self, node_type: str) -> int:
        """Multiplicity of ``node_type`` among pattern nodes."""
        return sum(1 for t in self._types if t == node_type)

    # ------------------------------------------------------------------
    # derived patterns
    # ------------------------------------------------------------------
    def induced_on(self, nodes: Sequence[int]) -> "Metagraph":
        """Induced sub-metagraph on ``nodes`` (relabelled to 0..k-1).

        Raises :class:`InvalidMetagraphError` if the induced pattern is
        disconnected (metagraphs are connected by definition).
        """
        index = {node: i for i, node in enumerate(nodes)}
        sub_types = [self._types[node] for node in nodes]
        sub_edges = [
            (index[u], index[v], kind)
            for u, v, kind in self.edges_with_kinds()
            if u in index and v in index
        ]
        return Metagraph(sub_types, sub_edges)

    def with_name(self, name: str) -> "Metagraph":
        """A copy carrying a different display name."""
        return Metagraph(self._types, self.edges_with_kinds(), name=name)

    def relabeled(self, permutation: Sequence[int]) -> "Metagraph":
        """Apply a node relabelling: new node ``permutation[i]`` gets old ``i``.

        ``permutation`` must be a permutation of ``0..n-1``.
        """
        n = self.size
        if sorted(permutation) != list(range(n)):
            raise InvalidMetagraphError(f"{permutation!r} is not a permutation of 0..{n - 1}")
        new_types = [""] * n
        for old, new in enumerate(permutation):
            new_types[new] = self._types[old]
        new_edges = [
            (permutation[u], permutation[v], kind)
            for u, v, kind in self.edges_with_kinds()
        ]
        return Metagraph(new_types, new_edges, name=self.name)

    # ------------------------------------------------------------------
    # value semantics
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Metagraph):
            return NotImplemented
        return (
            self._types == other._types
            and self._edges == other._edges
            and self._kinds == other._kinds
        )

    def __hash__(self) -> int:
        return hash((self._types, self._edges, self.kind_items))

    def __repr__(self) -> str:
        label = f" {self.name}" if self.name else ""
        return (
            f"<Metagraph{label}: types={list(self._types)}, "
            f"edges={sorted(self._edges)}>"
        )


def metapath(*types: str, name: str = "") -> Metagraph:
    """Convenience constructor for a metapath with the given type sequence.

    >>> m = metapath("user", "school", "user")
    >>> m.is_path
    True
    """
    edges = [(i, i + 1) for i in range(len(types) - 1)]
    return Metagraph(list(types), edges, name=name)
