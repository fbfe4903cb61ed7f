"""Schema-driven enumeration of connected typed patterns.

The pattern-growth core shared by the miner: starting from single-edge
patterns over the allowed edge rules, grow by either attaching a new
node (allowed rule to an existing node) or closing an edge between two
existing non-adjacent nodes.  Canonical forms deduplicate the search so
each isomorphism class is visited once.

An *edge rule* is ``(type_a, type_b, EdgeKind)`` — the schema-level
counterpart of a kinded edge.  Plain 2-tuples ``(type_a, type_b)`` are
accepted everywhere and mean an unlabeled undirected rule, so existing
callers (and plain graphs) see the exact legacy pattern space.  Directed
rules are orientation-significant: ``("a", "b", EdgeKind("x", True))``
licenses only ``a --x--> b`` edges.

Every connected pattern with at most ``max_nodes`` nodes (and, when
bounded, ``max_edges`` edges) over the given rules is generated:
removing a leaf node or a cycle edge from any such pattern yields a
smaller valid pattern, so induction over the growth operations covers
the whole space.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.graph.typed_graph import PLAIN, EdgeKind
from repro.metagraph.canonical import (
    CanonicalForm,
    canonical_form,
    canonicalize,
    decode_form,
)
from repro.metagraph.metagraph import Metagraph

TypePair = tuple[str, str]
EdgeRule = tuple[str, str, EdgeKind]
# what callers may pass: bare type pairs (plain rules) or full rules
RuleLike = TypePair | EdgeRule


def _norm_rule(entry: RuleLike) -> EdgeRule:
    """Normalize a rule: undirected rules store sorted endpoint types."""
    if len(entry) == 2:
        a, b = entry
        kind = PLAIN
    else:
        a, b, kind = entry
    if kind.directed or a <= b:
        return (a, b, kind)
    return (b, a, kind)


def _norm_rules(rules: Iterable[RuleLike]) -> frozenset[EdgeRule]:
    return frozenset(_norm_rule(r) for r in rules)


def _closing_entries(
    rules: frozenset[EdgeRule], u: int, type_u: str, v: int, type_v: str
) -> Iterator[tuple[int, int, EdgeKind]]:
    """Kinded edge entries the rules allow between two existing nodes."""
    for a, b, kind in sorted(rules):
        if kind.directed:
            if (type_u, type_v) == (a, b):
                yield (u, v, kind)
            if (type_v, type_u) == (a, b):
                yield (v, u, kind)
        elif (a, b) == ((type_u, type_v) if type_u <= type_v else (type_v, type_u)):
            yield (u, v, kind)


def check_size_bounds(max_nodes: int, max_edges: int | None) -> None:
    """Reject pattern-size bounds that no pattern with an edge can meet."""
    if max_nodes < 2:
        raise ValueError(f"max_nodes must be >= 2, got {max_nodes}")
    if max_edges is not None and max_edges < 1:
        raise ValueError(f"max_edges must be None or >= 1, got {max_edges}")


def single_edge_patterns(rules: Iterable[RuleLike]) -> list[Metagraph]:
    """One two-node pattern per allowed edge rule (canonical labelling)."""
    patterns = []
    for a, b, kind in sorted(_norm_rules(rules)):
        patterns.append(canonicalize(Metagraph([a, b], [(0, 1, kind)])))
    return patterns


def extensions(
    pattern: Metagraph,
    rules: Iterable[RuleLike],
    types: Iterable[str],
    max_nodes: int,
    max_edges: int | None,
) -> Iterator[Metagraph]:
    """All one-step extensions of a pattern.

    Either a new node of any type attached to one existing node, or a
    new edge between two existing non-adjacent nodes — both restricted
    to allowed edge rules (with the rule's kind and orientation).
    """
    normed = _norm_rules(rules)
    type_set = set(types)
    n = pattern.size
    base = list(pattern.edges_with_kinds())
    if max_edges is None or pattern.num_edges < max_edges:
        # close an edge between existing nodes
        for u in range(n):
            for v in range(u + 1, n):
                if pattern.has_edge(u, v):
                    continue
                for entry in _closing_entries(
                    normed, u, pattern.node_type(u), v, pattern.node_type(v)
                ):
                    yield Metagraph(pattern.types, base + [entry])
        # attach a new node
        if n < max_nodes:
            for a, b, kind in sorted(normed):
                for u in range(n):
                    type_u = pattern.node_type(u)
                    if type_u == a and b in type_set:
                        yield Metagraph(
                            list(pattern.types) + [b], base + [(u, n, kind)]
                        )
                    if kind.directed:
                        if type_u == b and a in type_set:
                            yield Metagraph(
                                list(pattern.types) + [a], base + [(n, u, kind)]
                            )
                    elif type_u == b and a != b and a in type_set:
                        yield Metagraph(
                            list(pattern.types) + [a], base + [(u, n, kind)]
                        )


def enumerate_patterns(
    rules: Iterable[RuleLike],
    max_nodes: int = 5,
    max_edges: int | None = None,
) -> list[Metagraph]:
    """All connected typed patterns over the allowed edge rules.

    Patterns are returned canonically labelled, deduplicated up to
    isomorphism, sorted by (size, edges, canonical form) for
    determinism.  Single-node patterns are not produced (a metagraph
    describing proximity needs at least one edge), so ``max_nodes`` must
    be ``>= 2`` and ``max_edges`` None or ``>= 1`` (``ValueError``
    otherwise).
    """
    check_size_bounds(max_nodes, max_edges)
    normed = _norm_rules(rules)
    types = sorted({t for a, b, _ in normed for t in (a, b)})
    seen: set[CanonicalForm] = set()
    result: list[Metagraph] = []
    frontier: list[Metagraph] = []
    for pattern in single_edge_patterns(normed):
        form = canonical_form(pattern)
        if form not in seen:
            seen.add(form)
            result.append(pattern)
            frontier.append(pattern)
    while frontier:
        next_frontier: list[Metagraph] = []
        for pattern in frontier:
            for extension in extensions(pattern, normed, types, max_nodes, max_edges):
                form = canonical_form(extension)
                if form in seen:
                    continue
                seen.add(form)
                canonical = decode_form(form)
                result.append(canonical)
                next_frontier.append(canonical)
        frontier = next_frontier
    result.sort(key=lambda m: (m.size, m.num_edges, canonical_form(m)))
    return result
