"""One exact search per pattern: its canonical form and Aut(M).

Two metagraphs that differ only in node numbering describe the same
pattern.  The miner deduplicates on :func:`canonical_form`, the catalog
and the snapshots key on it, Def. 1 symmetry and the stabiliser chain
read Aut(M), and Eq. 7's MCS compares sub-forms.  All of them read one
cached individualisation-refinement search (McKay & Piperno, "Practical
graph isomorphism II", 2014), keyed on ``(types, edges, kind_items)``.

The form lays the nodes out type-sorted and takes the least sorted edge
tuple.  Edge counts are fixed, so that is the least upper triangle read
row by row, with "edge (label, rel)" ranking before "no edge".  Row
``i`` depends only on the node placed at ``i`` and on which cell each
later node sits in.  The search starts from the sorted type blocks and,
at each position, individualises every node of the first cell, splits
every later cell by its edge key to that node (edge before non-edge,
then by ``(label, rel)``), and keeps only the branches whose row is
least.  The surviving leaves are exactly the least labellings: the
first gives the form, and all of them together give Aut(M).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache

from repro.graph.typed_graph import EdgeKind, EdgeSignature
from repro.metagraph.metagraph import Edge, KindItems, Metagraph

#: a plain form is (types, (u, v) edges); a kinded form extends every
#: edge entry to (u, v, label, rel) — the tuple shapes differ, so plain
#: and kinded patterns can never collide
CanonicalForm = tuple[tuple[str, ...], tuple[tuple, ...]]

#: ``sigma[u]`` is the image of node ``u``
Permutation = tuple[int, ...]

#: a node's edge key to the individualised node: (0, label, rel) for an
#: edge, ranking before _NO_EDGE
EdgeKey = tuple[int, str, int]
_NO_EDGE: EdgeKey = (1, "", 0)

#: a search branch: nodes placed at positions 0..i-1, cells covering i..n-1
Branch = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]


def encode_edges(
    edges: Iterable[Edge], kind_items: KindItems, position: Sequence[int]
) -> tuple[tuple, ...]:
    """The form's sorted edge entries with node ``u`` laid out at ``position[u]``.

    Plain patterns give ``(a, b)`` pairs; kinded ones give
    ``(a, b, label, rel)`` with ``a < b`` and ``rel`` relative to
    ``a -> b``.
    """
    if not kind_items:
        return tuple(sorted(
            (position[u], position[v]) if position[u] < position[v]
            else (position[v], position[u])
            for u, v in edges
        ))
    kinds = dict(kind_items)
    entries: list[tuple[int, int, str, int]] = []
    for u, v in edges:
        a, b = position[u], position[v]
        label, rel = kinds.get((u, v), ("", 0))
        entries.append((a, b, label, rel) if a < b else (b, a, label, -rel))
    return tuple(sorted(entries))


def form_edge_entry(entry: tuple) -> tuple:
    """Decode one canonical-form edge entry into a constructor edge.

    Two-tuples pass through; ``(u, v, label, rel)`` entries become
    oriented ``(source, target, EdgeKind)`` triples.
    """
    if len(entry) == 2:
        return entry
    u, v, label, rel = entry
    if rel == 0:
        return (u, v, EdgeKind(label, False))
    if rel == 1:
        return (u, v, EdgeKind(label, True))
    return (v, u, EdgeKind(label, True))


def decode_form(form: CanonicalForm, name: str = "") -> Metagraph:
    """The metagraph a ``(types, edges)`` form encodes, nodes in form order."""
    types, edges = form
    return Metagraph(types, [form_edge_entry(tuple(e)) for e in edges], name=name)


@lru_cache(maxsize=4096)
def pattern_search(
    types: tuple[str, ...],
    edges: frozenset[Edge],
    kind_items: KindItems = (),
) -> tuple[CanonicalForm, tuple[Permutation, ...]]:
    """The canonical form and the sorted Aut(M) of one pattern."""
    n = len(types)
    kinds: dict[Edge, EdgeSignature] = dict(kind_items)
    key = [[_NO_EDGE] * n for _ in range(n)]
    for u, v in edges:
        label, rel = kinds.get((u, v), ("", 0))
        key[u][v] = (0, label, rel)
        key[v][u] = (0, label, -rel)
    blocks = tuple(
        tuple(u for u in range(n) if types[u] == t) for t in sorted(set(types))
    )
    branches: list[Branch] = [((), blocks)]
    for _ in range(n):
        least: tuple[EdgeKey, ...] | None = None
        kept: list[Branch] = []
        for placed, (head, *later) in branches:
            for x in head:
                row: list[EdgeKey] = []
                cells: list[tuple[int, ...]] = []
                for cell in (tuple(y for y in head if y != x), *later):
                    split: dict[EdgeKey, list[int]] = {}
                    for y in cell:
                        split.setdefault(key[x][y], []).append(y)
                    for k in sorted(split):
                        cells.append(tuple(split[k]))
                        row.extend([k] * len(split[k]))
                candidate = tuple(row)
                if least is None or candidate < least:
                    least, kept = candidate, []
                if candidate == least:
                    kept.append(((*placed, x), tuple(cells)))
        branches = kept
    leaves = [placed for placed, _cells in branches]
    first = leaves[0]
    form = (tuple(types[u] for u in first), encode_edges(edges, kind_items, _positions(first)))
    # every leaf lays the pattern out as the form does, so the node a leaf
    # puts at position p maps onto the node the first leaf puts there
    group = sorted(tuple(first[p] for p in _positions(leaf)) for leaf in leaves)
    return form, tuple(group)


def _positions(placed: Sequence[int]) -> list[int]:
    """Each node's position, where ``placed[p]`` is the node at position ``p``."""
    position = [0] * len(placed)
    for pos, node in enumerate(placed):
        position[node] = pos
    return position


def canonical_form(metagraph: Metagraph) -> CanonicalForm:
    """The canonical ``(types, edges)`` encoding of a metagraph.

    Invariant under any relabelling of the metagraph's nodes:
    ``canonical_form(m) == canonical_form(m.relabeled(p))`` for every
    permutation ``p``.  Patterns without edge kinds keep the two-tuple
    edge encoding; kinded patterns extend every edge to
    ``(u, v, label, rel)`` so patterns that differ only in edge roles
    stop colliding.
    """
    return pattern_search(metagraph.types, metagraph.edges, metagraph.kind_items)[0]


def canonicalize(metagraph: Metagraph) -> Metagraph:
    """Return the canonically labelled copy of a metagraph."""
    return decode_form(canonical_form(metagraph), name=metagraph.name)


def are_isomorphic(a: Metagraph, b: Metagraph) -> bool:
    """True iff two metagraphs are isomorphic as typed graphs."""
    if a.size != b.size or a.num_edges != b.num_edges:
        return False
    if a.type_multiset != b.type_multiset:
        return False
    return canonical_form(a) == canonical_form(b)
