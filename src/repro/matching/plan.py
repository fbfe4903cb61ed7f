"""One match plan per search: the per-position constraints of Sect. IV.

A search binds the pattern nodes one at a time in a fixed order.  What
the image at each position must satisfy depends on the pattern, the
order and two semantic choices only: induced semantics (Def. 2) and
the group whose symmetry is broken (the stabiliser-chain conditions of
:func:`~repro.metagraph.symmetry.symmetry_conditions`).  :class:`MatchPlan`
derives those constraints once; the CSR kernel
(:mod:`repro.matching.compiled`) and the dict-of-set backtracker
(:func:`repro.matching.backtracking.backtrack_embeddings`) execute it.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.exceptions import MatchingError
from repro.graph.typed_graph import EdgeSignature
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import symmetry_conditions

Fixed = tuple[int, ...] | None


class MatchPlan:
    """The constraints a search checks at each order position.

    Position ``i`` binds pattern node ``order[i]``.  Its image must be
    adjacent to the image of every position in ``neighbors_at[i]``
    (ascending) through an edge of signature ``signatures_at[i][k]``
    (aligned), non-adjacent to the image of every position in
    ``nonneighbors_at[i]`` (empty unless ``induced``), and rank above
    the images of ``lower_at[i]`` and below those of ``upper_at[i]``:
    each condition ``image[v] < image[w]`` is checked at the later of
    its positions.  ``fixed`` names the group the conditions break:
    ``None`` breaks nothing (the bounds are empty), ``()`` all of
    Aut(M), and a tuple of pattern nodes the automorphisms fixing each
    of them (the pins of a pinned search).  Raises
    :class:`~repro.exceptions.MatchingError` when ``order`` is not a
    permutation of the pattern nodes.
    """

    def __init__(self, metagraph: Metagraph, order: Sequence[int], *, induced: bool, fixed: Fixed):
        self.metagraph = metagraph
        self.order: tuple[int, ...] = tuple(order)
        self.induced = induced
        self.fixed = fixed
        (
            self.neighbors_at,
            self.signatures_at,
            self.nonneighbors_at,
            self.lower_at,
            self.upper_at,
        ) = _constraints(metagraph, self.order, induced, fixed)


Positions = tuple[tuple[int, ...], ...]


@lru_cache(maxsize=4096)
def _constraints(
    metagraph: Metagraph, order: tuple[int, ...], induced: bool, fixed: Fixed
) -> tuple[Positions, tuple[tuple[EdgeSignature, ...], ...], Positions, Positions, Positions]:
    """The plan's per-position lists, cached per structurally equal pattern.

    The delta path builds one plan per pin set, mostly for the same
    pattern and order, so a repeated plan costs one cache lookup.
    """
    n = metagraph.size
    position = {node: i for i, node in enumerate(order)}
    if len(order) != n or sorted(position) != list(range(n)):
        raise MatchingError(f"order {list(order)!r} is not a permutation of pattern nodes")
    kinded = metagraph.has_kinds
    neighbors_at: list[tuple[int, ...]] = []
    signatures_at: list[tuple[EdgeSignature, ...]] = []
    nonneighbors_at: list[tuple[int, ...]] = []
    for i, u in enumerate(order):
        earlier = sorted([position[w] for w in metagraph.neighbors(u) if position[w] < i])
        neighbors_at.append(tuple(earlier))
        # every edge of a pattern without kinds reads ("", 0)
        signatures_at.append(
            tuple([metagraph.edge_signature(order[j], u) for j in earlier])
            if kinded
            else (("", 0),) * len(earlier)
        )
        nonneighbors_at.append(tuple([j for j in range(i) if j not in earlier]) if induced else ())
    lower_at: list[tuple[int, ...]] = [()] * n
    upper_at: list[tuple[int, ...]] = [()] * n
    for v, w in symmetry_conditions(metagraph, fixed) if fixed is not None else ():
        if position[v] < position[w]:
            lower_at[position[w]] += (position[v],)
        else:
            upper_at[position[v]] += (position[w],)
    return (
        tuple(neighbors_at),
        tuple(signatures_at),
        tuple(nonneighbors_at),
        tuple(lower_at),
        tuple(upper_at),
    )
