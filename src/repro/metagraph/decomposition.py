"""Symmetric-component decomposition and simplified metagraphs (Sect. IV-C).

SymISO matches a metagraph one *component* at a time and reuses the
matchings of a component for its symmetric twin.  This module produces
the decomposition:

1. Choose the *witness involution* ``sigma`` — the involutive
   automorphism exchanging the most nodes (Def. 1's Ψ with the largest
   coverage; ties broken deterministically).
2. Nodes fixed by ``sigma`` become singleton components.
3. Nodes moved by ``sigma`` are split into connected components of the
   induced subgraph; each such component ``S`` pairs with its image
   ``sigma(S)``.  When ``sigma(S) = S`` (the component straddles the
   symmetry axis, e.g. two adjacent symmetric users), it is split into
   singleton twins ``{x} / {sigma(x)}``.

The *simplified metagraph* M+ of Fig. 5 keeps the fixed components and
one representative of each twin family.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.metagraph.metagraph import Metagraph
from repro.metagraph.canonical import Permutation
from repro.metagraph.symmetry import automorphisms, is_involution


@dataclass(frozen=True)
class TwinFamily:
    """A pair of mutually symmetric components.

    ``representative`` and ``twin`` are component indexes into
    :attr:`Decomposition.components`; ``sigma`` maps representative
    nodes onto twin nodes (and vice versa — it is an involution).
    """

    representative: int
    twin: int
    sigma: Permutation


@dataclass(frozen=True)
class Decomposition:
    """Result of decomposing a metagraph into symmetric components."""

    metagraph: Metagraph
    sigma: Permutation
    components: tuple[tuple[int, ...], ...]
    families: tuple[TwinFamily, ...]

    @property
    def is_symmetric(self) -> bool:
        """True iff the witness involution moves at least one node."""
        return any(self.sigma[u] != u for u in range(len(self.sigma)))

    @property
    def twin_indexes(self) -> frozenset[int]:
        """Indexes of components that are twins (skipped in M+)."""
        return frozenset(f.twin for f in self.families)

    def simplified_nodes(self) -> tuple[int, ...]:
        """Nodes of the simplified metagraph M+ (fixed + representatives)."""
        kept: list[int] = []
        for idx, comp in enumerate(self.components):
            if idx not in self.twin_indexes:
                kept.extend(comp)
        return tuple(sorted(kept))

    def component_of(self, node: int) -> int:
        """Index of the component containing ``node``."""
        for idx, comp in enumerate(self.components):
            if node in comp:
                return idx
        raise ValueError(f"node {node} is not in any component")


def _best_involution(metagraph: Metagraph) -> Permutation:
    """The involutive automorphism moving the most nodes (identity if none).

    Ties are broken by the lexicographically smallest permutation tuple,
    making the decomposition deterministic.
    """
    n = metagraph.size
    identity = tuple(range(n))
    best = identity
    best_moved = 0
    for sigma in automorphisms(metagraph):
        if not is_involution(sigma):
            continue
        moved = sum(1 for u in range(n) if sigma[u] != u)
        if moved > best_moved or (moved == best_moved and moved and sigma < best):
            best = sigma
            best_moved = moved
    return best


def decompose(metagraph: Metagraph) -> Decomposition:
    """Decompose a metagraph into symmetric components under its witness
    involution (:func:`_best_involution`)."""
    sigma = _best_involution(metagraph)
    n = metagraph.size
    fixed = [u for u in range(n) if sigma[u] == u]
    moved = {u for u in range(n) if sigma[u] != u}

    components: list[tuple[int, ...]] = [(u,) for u in fixed]
    families: list[TwinFamily] = []

    processed: set[frozenset[int]] = set()
    for comp in metagraph.induced_components(moved):
        comp_set = frozenset(comp)
        if comp_set in processed:
            continue
        image = frozenset(sigma[u] for u in comp)
        if image == comp_set:
            # The component straddles the symmetry axis: split into
            # singleton twins {x} / {sigma(x)}.
            for u in comp:
                v = sigma[u]
                if u < v:
                    rep_idx = len(components)
                    components.append((u,))
                    components.append((v,))
                    families.append(TwinFamily(rep_idx, rep_idx + 1, sigma))
            processed.add(comp_set)
        else:
            rep_idx = len(components)
            components.append(comp)
            components.append(tuple(sorted(image)))
            families.append(TwinFamily(rep_idx, rep_idx + 1, sigma))
            processed.add(comp_set)
            processed.add(image)

    return Decomposition(
        metagraph=metagraph,
        sigma=sigma,
        components=tuple(components),
        families=tuple(families),
    )
