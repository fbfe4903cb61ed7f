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

from functools import lru_cache
from itertools import product

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


@lru_cache(maxsize=4096)
def tuple_orbits(
    metagraph: Metagraph, types: tuple[str, ...], adjacent: bool | None = None
) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Aut(M)-orbits of the tuples of distinct pattern nodes of ``types``.

    Tuple position ``i`` holds a node of type ``types[i]``; a pair is
    kept only when its adjacency equals ``adjacent`` (``None`` keeps
    every pair).  Aut(M) acts on each position at once.  Each orbit is
    sorted, and orbits come sorted by their first member, the
    representative the delta path pins.  Cached per structurally
    identical metagraph.
    """
    group = automorphisms(metagraph)
    found = {
        tuple(sorted({tuple([sigma[u] for u in nodes]) for sigma in group}))
        for nodes in product(*(metagraph.nodes_of_type(t) for t in types))
        if len(set(nodes)) == len(nodes)
        and (adjacent is None or metagraph.has_edge(*nodes) == adjacent)
    }
    return tuple(sorted(found))


def orbits(metagraph: Metagraph) -> tuple[frozenset[int], ...]:
    """Node orbits under the full automorphism group.

    Nodes in the same orbit are structurally interchangeable.  Orbits are
    returned sorted by their smallest member.
    """
    found = sorted(o for t in dict.fromkeys(metagraph.types) for o in tuple_orbits(metagraph, (t,)))
    return tuple(frozenset(u for (u,) in orbit) for orbit in found)


def symmetry_conditions(metagraph: Metagraph, fixed: tuple[int, ...] = ()) -> list[tuple[int, int]]:
    """Symmetry-breaking conditions ``(v, w)``: require ``image[v] < image[w]``.

    Grochow & Kellis' stabiliser chain (RECOMB 2007): starting from the
    automorphisms that fix every node of ``fixed`` (all of Aut(M) when
    it is empty), pick the node ``v`` with the largest orbit (ties to
    the smallest id), demand that ``v`` take the smallest image in its
    orbit, restrict the group to ``v``'s stabiliser, and repeat until
    only the identity is left.  For every injective ranking of the
    images, exactly one automorphism ``sigma`` of that group makes
    ``image . sigma`` satisfy all conditions, so an enumeration under
    them keeps one embedding per orbit of the group — one per instance
    under induced semantics (Def. 2) when ``fixed`` is empty.  A fixed
    node's orbit is itself, so no condition involves it.
    """
    group = tuple(s for s in automorphisms(metagraph) if all(s[p] == p for p in fixed))
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
