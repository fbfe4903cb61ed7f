"""Reusable rewrite-rule vocabulary for incremental graph updates.

Raw :class:`~repro.index.delta.GraphEdit` lists describe *one* concrete
mutation.  Real update streams repeat the same structural move over and
over — "retract a catalysed reaction", "splice an intermediate product
into a conversion" — so this module names those moves once and replays
them anywhere they apply:

- :class:`RewriteRule` — a named LHS -> RHS rewrite.  The LHS is an
  ordinary :class:`~repro.metagraph.metagraph.Metagraph` (types, edges,
  edge kinds); the RHS is expressed as a difference against it: edges
  and nodes to remove, fresh nodes to add, and edges to add between LHS
  positions and/or fresh nodes, each with an
  :class:`~repro.graph.typed_graph.EdgeKind`.
- A *binding* maps LHS positions to concrete graph nodes — any
  embedding of the LHS (see :meth:`RewriteRule.bindings`) is one.
- :meth:`RewriteRule.compile` lowers (rule, binding) to a plain
  :class:`~repro.index.delta.GraphDelta`, so application goes through
  :func:`~repro.index.delta.apply_delta` /
  ``SemanticProximitySearch.apply_updates`` and inherits their
  bit-identical-to-rebuild guarantee unchanged.
- :class:`RuleBook` — a named collection with a deterministic JSON
  codec, so a deployment's rewrite vocabulary ships next to its
  snapshots.

Structural problems (unknown LHS position, edge added twice, binding of
the wrong shape) raise :class:`~repro.exceptions.RewriteError` at rule
construction or compile time — before any graph or count is touched.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from repro.exceptions import RewriteError
from repro.graph.csr import csr_view
from repro.graph.typed_graph import PLAIN, EdgeKind, NodeId, TypedGraph
from repro.index.delta import GraphDelta
from repro.matching.compiled import compiled_order, embeddings_from_csr
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import Metagraph

# an endpoint of an added edge: an LHS position or a fresh-node variable
NodeRef = int | str

RULEBOOK_FORMAT = 1


@dataclass(frozen=True)
class RewriteRule:
    """One named LHS -> RHS rewrite over typed, kinded graphs.

    Parameters
    ----------
    name:
        Non-empty identifier, unique within a :class:`RuleBook`.
    lhs:
        The pattern a binding must embed (Def. 2 induced semantics when
        bindings come from :meth:`bindings`).
    removed_edges:
        LHS position pairs whose bound edge is removed.
    removed_nodes:
        LHS positions whose bound node is removed (incident edges go
        with it, per :class:`~repro.graph.typed_graph.TypedGraph`).
    added_nodes:
        ``(variable, node_type)`` fresh nodes; concrete ids are chosen
        per application via :meth:`compile`'s ``new_nodes``.
    added_edges:
        ``(ref, ref, kind)`` edges to create; a directed kind orients
        the edge first-ref -> second-ref.
    """

    name: str
    lhs: Metagraph
    removed_edges: tuple[tuple[int, int], ...] = ()
    removed_nodes: tuple[int, ...] = ()
    added_nodes: tuple[tuple[str, str], ...] = ()
    added_edges: tuple[tuple[NodeRef, NodeRef, EdgeKind], ...] = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise RewriteError(f"rule name must be a non-empty string: {self.name!r}")
        n = self.lhs.size
        removed_pairs = set()
        for u, v in self.removed_edges:
            if not (0 <= u < n and 0 <= v < n) or not self.lhs.has_edge(u, v):
                raise RewriteError(
                    f"rule {self.name!r} removes ({u}, {v}), not an LHS edge"
                )
            removed_pairs.add((u, v) if u < v else (v, u))
        if len(removed_pairs) != len(self.removed_edges):
            raise RewriteError(f"rule {self.name!r} removes an edge twice")
        removed = set(self.removed_nodes)
        if len(removed) != len(self.removed_nodes):
            raise RewriteError(f"rule {self.name!r} removes a node twice")
        for u in sorted(removed):
            if not 0 <= u < n:
                raise RewriteError(
                    f"rule {self.name!r} removes node {u}, outside LHS 0..{n - 1}"
                )
        variables = [var for var, _ in self.added_nodes]
        if len(set(variables)) != len(variables):
            raise RewriteError(f"rule {self.name!r} declares a variable twice")
        for var, node_type in self.added_nodes:
            if not var or not isinstance(var, str):
                raise RewriteError(
                    f"rule {self.name!r}: variable must be a non-empty "
                    f"string, got {var!r}"
                )
            if not node_type or not isinstance(node_type, str):
                raise RewriteError(
                    f"rule {self.name!r}: node type must be a non-empty "
                    f"string, got {node_type!r}"
                )
        var_set = set(variables)
        added_pairs = set()
        for a, b, kind in self.added_edges:
            if not isinstance(kind, EdgeKind):
                raise RewriteError(
                    f"rule {self.name!r}: added edge kind must be an "
                    f"EdgeKind, got {kind!r}"
                )
            for ref in (a, b):
                if isinstance(ref, int):
                    if not 0 <= ref < n:
                        raise RewriteError(
                            f"rule {self.name!r} adds an edge at LHS "
                            f"position {ref}, outside 0..{n - 1}"
                        )
                    if ref in removed:
                        raise RewriteError(
                            f"rule {self.name!r} adds an edge at removed "
                            f"node {ref}"
                        )
                elif ref not in var_set:
                    raise RewriteError(
                        f"rule {self.name!r} adds an edge at undeclared "
                        f"variable {ref!r}"
                    )
            if a == b:
                raise RewriteError(f"rule {self.name!r} adds a self-loop")
            pair = (a, b) if repr(a) <= repr(b) else (b, a)
            if pair in added_pairs:
                raise RewriteError(
                    f"rule {self.name!r} adds an edge between {a!r} and "
                    f"{b!r} twice"
                )
            added_pairs.add(pair)
            if (
                isinstance(a, int)
                and isinstance(b, int)
                and self.lhs.has_edge(a, b)
                and ((a, b) if a < b else (b, a)) not in removed_pairs
            ):
                raise RewriteError(
                    f"rule {self.name!r} adds ({a}, {b}) over an LHS edge "
                    "it does not remove"
                )

    @property
    def variables(self) -> tuple[str, ...]:
        """The fresh-node variables, in declaration order."""
        return tuple(var for var, _ in self.added_nodes)

    def bindings(
        self, graph: TypedGraph
    ) -> Iterator[dict[int, NodeId]]:
        """All bindings of the LHS on ``graph`` (induced embeddings).

        Every embedding is a binding, automorphic ones included (a
        symmetric LHS binds each instance once per automorphism).  The
        order is the compiled kernel's: ascending by the tuple of dense
        ids in ``csr_view(graph)``, read in
        :func:`~repro.matching.compiled.compiled_order`, so replaying a
        rule over a graph is the same in every process.
        """
        csr = csr_view(graph)
        order = compiled_order(csr, self.lhs)
        plan = MatchPlan(self.lhs, order, induced=True, fixed=None)
        return embeddings_from_csr(csr, plan)

    def compile(
        self,
        binding: Mapping[int, NodeId],
        new_nodes: Mapping[str, NodeId] | None = None,
    ) -> GraphDelta:
        """Lower this rule at one binding to a :class:`GraphDelta`.

        ``binding`` must cover every LHS position injectively;
        ``new_nodes`` must assign a concrete id to every declared
        variable, distinct from each other and from the bound nodes.
        The delta orders removals before additions (edges before nodes
        on the way out, nodes before edges on the way in), so it replays
        cleanly via ``apply_delta`` — whose localized re-matching keeps
        the index bit-identical to a cold rebuild on the result.
        """
        n = self.lhs.size
        if sorted(binding) != list(range(n)):
            raise RewriteError(
                f"rule {self.name!r}: binding must cover LHS positions "
                f"0..{n - 1}, got {sorted(binding)!r}"
            )
        images = list(binding.values())
        if len(set(images)) != len(images):
            raise RewriteError(f"rule {self.name!r}: binding is not injective")
        fresh = dict(new_nodes or {})
        if sorted(fresh) != sorted(self.variables):
            raise RewriteError(
                f"rule {self.name!r}: new_nodes must assign exactly "
                f"{sorted(self.variables)!r}, got {sorted(fresh)!r}"
            )
        fresh_ids = list(fresh.values())
        if len(set(fresh_ids)) != len(fresh_ids) or set(fresh_ids) & set(images):
            raise RewriteError(
                f"rule {self.name!r}: new node ids must be distinct from "
                "each other and from the bound nodes"
            )

        def resolve(ref: NodeRef) -> NodeId:
            return binding[ref] if isinstance(ref, int) else fresh[ref]

        delta = GraphDelta()
        for u, v in self.removed_edges:
            delta.remove_edge(binding[u], binding[v])
        for u in self.removed_nodes:
            delta.remove_node(binding[u])
        for var, node_type in self.added_nodes:
            delta.add_node(fresh[var], node_type)
        for a, b, kind in self.added_edges:
            delta.add_edge(resolve(a), resolve(b), kind)
        return delta

    # ------------------------------------------------------------------
    # codec
    # ------------------------------------------------------------------
    def to_json_dict(self) -> dict:
        """JSON-safe form; inverse of :meth:`from_json_dict`."""
        lhs_edges = []
        for u, v, kind in self.lhs.edges_with_kinds():
            if kind == PLAIN:
                lhs_edges.append([u, v])
            else:
                lhs_edges.append([u, v, kind.label, 1 if kind.directed else 0])
        return {
            "name": self.name,
            "lhs": {"types": list(self.lhs.types), "edges": lhs_edges},
            "removed_edges": [list(pair) for pair in self.removed_edges],
            "removed_nodes": list(self.removed_nodes),
            "added_nodes": [list(entry) for entry in self.added_nodes],
            "added_edges": [
                [a, b, kind.label, 1 if kind.directed else 0]
                for a, b, kind in self.added_edges
            ],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "RewriteRule":
        """Decode one rule document."""
        try:
            name = doc["name"]
            lhs_doc = doc["lhs"]
            types = list(lhs_doc["types"])
            entries = []
            for entry in lhs_doc["edges"]:
                if len(entry) == 2:
                    entries.append((entry[0], entry[1]))
                elif len(entry) == 4:
                    u, v, label, directed = entry
                    if not isinstance(label, str) or directed not in (0, 1):
                        raise RewriteError(
                            f"malformed LHS edge entry {entry!r}"
                        )
                    entries.append((u, v, EdgeKind(label, bool(directed))))
                else:
                    raise RewriteError(f"malformed LHS edge entry {entry!r}")
            added_edges = []
            for entry in doc.get("added_edges", ()):
                a, b, label, directed = entry
                if not isinstance(label, str) or directed not in (0, 1):
                    raise RewriteError(f"malformed added edge entry {entry!r}")
                added_edges.append((a, b, EdgeKind(label, bool(directed))))
            return cls(
                name=name,
                lhs=Metagraph(types, entries),
                removed_edges=tuple(
                    (int(u), int(v)) for u, v in doc.get("removed_edges", ())
                ),
                removed_nodes=tuple(
                    int(u) for u in doc.get("removed_nodes", ())
                ),
                added_nodes=tuple(
                    (str(var), str(node_type))
                    for var, node_type in doc.get("added_nodes", ())
                ),
                added_edges=tuple(added_edges),
            )
        except RewriteError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise RewriteError(f"malformed rewrite rule document: {exc}") from exc


class RuleBook:
    """A named, JSON-serialisable collection of rewrite rules.

    >>> book = RuleBook([rule])           # doctest: +SKIP
    >>> book["retract-catalysis"]         # doctest: +SKIP
    """

    def __init__(self, rules: Iterable[RewriteRule] = ()):
        self._rules: dict[str, RewriteRule] = {}
        for rule in rules:
            self.add(rule)

    def add(self, rule: RewriteRule) -> None:
        """Add a rule; duplicate names raise."""
        if rule.name in self._rules:
            raise RewriteError(f"rulebook already has a rule named {rule.name!r}")
        self._rules[rule.name] = rule

    def __getitem__(self, name: str) -> RewriteRule:
        try:
            return self._rules[name]
        except KeyError:
            raise RewriteError(f"no rule named {name!r} in the rulebook") from None

    def __contains__(self, name: str) -> bool:
        return name in self._rules

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self) -> Iterator[RewriteRule]:
        return iter(self._rules.values())

    def names(self) -> tuple[str, ...]:
        """Rule names in insertion order."""
        return tuple(self._rules)

    def compile(
        self,
        name: str,
        binding: Mapping[int, NodeId],
        new_nodes: Mapping[str, NodeId] | None = None,
    ) -> GraphDelta:
        """Shorthand for ``book[name].compile(binding, new_nodes)``."""
        return self[name].compile(binding, new_nodes)

    def to_json(self) -> str:
        """Deterministic JSON (rules sorted by name)."""
        doc = {
            "format": RULEBOOK_FORMAT,
            "rules": [
                self._rules[name].to_json_dict()
                for name in sorted(self._rules)
            ],
        }
        return json.dumps(doc, sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "RuleBook":
        """Inverse of :meth:`to_json`."""
        try:
            doc = json.loads(text)
        except ValueError as exc:
            raise RewriteError(f"unreadable rulebook JSON: {exc}") from exc
        if not isinstance(doc, dict) or doc.get("format") != RULEBOOK_FORMAT:
            raise RewriteError(
                f"unsupported rulebook format {doc.get('format') if isinstance(doc, dict) else doc!r}"
            )
        return cls(
            RewriteRule.from_json_dict(rule_doc)
            for rule_doc in doc.get("rules", ())
        )

    def __repr__(self) -> str:
        return f"<RuleBook: {len(self._rules)} rules>"
