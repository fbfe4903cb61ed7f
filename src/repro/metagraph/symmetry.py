"""Metagraph symmetry (Def. 1): automorphisms, symmetric pairs, orbits,
and the symmetry-breaking conditions the matching kernel and the miner
enumerate under.

Def. 1 declares a metagraph *symmetric* when a non-empty set Ψ of
disjoint node pairs can be exchanged simultaneously without changing the
edge set.  Exchanging the pairs of Ψ is an *involutive automorphism* of
the typed pattern graph, so:

- ``u`` and ``u'`` are **symmetric to each other** iff some involutive,
  type-preserving automorphism swaps them;
- the metagraph is **symmetric** iff at least one such pair exists.

Aut(M) comes from the one pattern-level search of
:mod:`repro.metagraph.canonical`, the same search that yields the
canonical form.
"""

from __future__ import annotations

from repro.metagraph.canonical import Permutation, pattern_search
from repro.metagraph.metagraph import Metagraph


def automorphisms(metagraph: Metagraph) -> tuple[Permutation, ...]:
    """All type- and edge-kind-preserving automorphisms of the metagraph.

    Returned sorted, as tuples ``sigma`` with ``sigma[u]`` the image of
    node ``u``; the identity is always included.  An automorphism must
    map every pattern edge onto an edge with the *same* signature
    (label and direction), so directed/labeled patterns keep only the
    symmetries that respect edge roles.  Results are cached per
    structurally identical metagraph.
    """
    return pattern_search(metagraph.types, metagraph.edges, metagraph.kind_items)[1]


def is_involution(sigma: Permutation) -> bool:
    """True iff applying ``sigma`` twice is the identity."""
    return all(sigma[sigma[u]] == u for u in range(len(sigma)))


def symmetric_pairs(metagraph: Metagraph) -> frozenset[tuple[int, int]]:
    """All unordered node pairs that are symmetric to each other (Def. 1).

    A pair ``(u, v)`` (with ``u < v``) is included iff some involutive
    automorphism swaps ``u`` and ``v``.
    """
    pairs: set[tuple[int, int]] = set()
    for sigma in automorphisms(metagraph):
        if not is_involution(sigma):
            continue
        for u in range(len(sigma)):
            v = sigma[u]
            if u < v:  # sigma[v] == u follows from involution
                pairs.add((u, v))
    return frozenset(pairs)


def is_symmetric(metagraph: Metagraph) -> bool:
    """True iff the metagraph is symmetric per Def. 1."""
    return bool(symmetric_pairs(metagraph))


def symmetric_partners(metagraph: Metagraph) -> dict[int, frozenset[int]]:
    """Map each node to the set of nodes it is symmetric to (possibly empty)."""
    partners: dict[int, set[int]] = {u: set() for u in metagraph.nodes()}
    for u, v in symmetric_pairs(metagraph):
        partners[u].add(v)
        partners[v].add(u)
    return {u: frozenset(s) for u, s in partners.items()}


def orbits(metagraph: Metagraph) -> tuple[frozenset[int], ...]:
    """Node orbits under the full automorphism group.

    Nodes in the same orbit are structurally interchangeable.  Orbits are
    returned sorted by their smallest member.
    """
    n = metagraph.size
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for sigma in automorphisms(metagraph):
        for u in range(n):
            union(u, sigma[u])
    groups: dict[int, set[int]] = {}
    for u in range(n):
        groups.setdefault(find(u), set()).add(u)
    return tuple(
        sorted((frozenset(g) for g in groups.values()), key=min)
    )


def symmetry_conditions(metagraph: Metagraph) -> list[tuple[int, int]]:
    """Symmetry-breaking conditions ``(v, w)``: require ``image[v] < image[w]``.

    Grochow & Kellis' stabiliser chain (RECOMB 2007): starting from the
    full automorphism group, pick the node ``v`` with the largest orbit
    (ties to the smallest id), demand that ``v`` take the smallest image
    in its orbit, restrict the group to ``v``'s stabiliser, and repeat
    until only the identity is left.  For every injective ranking of
    the images, exactly one automorphism ``sigma`` makes
    ``image . sigma`` satisfy all conditions, so an enumeration under
    them keeps one embedding per orbit of Aut(M) — one per instance
    under induced semantics (Def. 2).
    """
    group = automorphisms(metagraph)
    conditions: list[tuple[int, int]] = []
    while len(group) > 1:
        orbit_of = [
            sorted({sigma[u] for sigma in group}) for u in metagraph.nodes()
        ]
        v = max(metagraph.nodes(), key=lambda u: (len(orbit_of[u]), -u))
        conditions.extend((v, w) for w in orbit_of[v] if w != v)
        group = tuple(sigma for sigma in group if sigma[v] == v)
    return conditions


def anchor_symmetric_pairs(metagraph: Metagraph, anchor_type: str) -> frozenset[tuple[int, int]]:
    """Symmetric pairs whose nodes both have ``anchor_type``.

    The metagraph vectors (Eq. 1–2) count co-occurrences of two *user*
    nodes at symmetric positions; this helper restricts Def. 1 pairs to
    the anchor type being queried.
    """
    return frozenset(
        (u, v)
        for u, v in symmetric_pairs(metagraph)
        if metagraph.node_type(u) == anchor_type and metagraph.node_type(v) == anchor_type
    )
