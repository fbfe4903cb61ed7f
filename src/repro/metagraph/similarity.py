"""Structural similarity between metagraphs via maximum common subgraph.

The candidate heuristic of dual-stage training (Sect. III-C) scores a
non-seed metagraph by its structural similarity to the seeds:

    SS(Mi, Mj) = (|V_M| + |E_M|)^2 / ((|V_Mi| + |E_Mi|) * (|V_Mj| + |E_Mj|))

where ``M`` is the maximum common subgraph (MCS) of ``Mi`` and ``Mj``.

We take the MCS to be the largest *connected induced* common subgraph —
consistent with the induced instance semantics of Def. 2 — maximising
``|V| + |E|``, then ``|V|``.  A connected induced subgraph of one
pattern embeds induced in the other exactly when its canonical form is
among the other's sub-forms, so the MCS is the largest form in the
intersection of the two patterns' (cached) sets of connected induced
sub-forms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from repro.metagraph.canonical import CanonicalForm, canonical_form, decode_form
from repro.metagraph.metagraph import Metagraph


@lru_cache(maxsize=65536)
def _sub_forms(form: CanonicalForm) -> frozenset[CanonicalForm]:
    """Canonical forms of every connected induced subgraph of a pattern."""
    pattern = decode_form(form)
    return frozenset(
        canonical_form(pattern.induced_on(subset))
        for size in range(1, pattern.size + 1)
        for subset in combinations(pattern.nodes(), size)
        if len(pattern.induced_components(subset)) == 1
    )


def mcs_size(a: Metagraph, b: Metagraph) -> tuple[int, int]:
    """``(|V|, |E|)`` of the maximum common connected induced subgraph."""
    common = _sub_forms(canonical_form(a)) & _sub_forms(canonical_form(b))
    return max(
        ((len(types), len(edges)) for types, edges in common),
        key=lambda size: (size[0] + size[1], size[0]),
        default=(0, 0),
    )


def structural_similarity(a: Metagraph, b: Metagraph) -> float:
    """SS(a, b) in [0, 1]; 1 iff the metagraphs are isomorphic.

    Symmetric in its arguments and memoised on canonical forms.
    """
    v, e = mcs_size(a, b)
    common = v + e
    denom = (a.size + a.num_edges) * (b.size + b.num_edges)
    return (common * common) / denom


def functional_similarity(weight_a: float, weight_b: float) -> float:
    """FS(Mi, Mj) = 1 - |w*[i] - w*[j]| (Sect. III-C).

    Weights are expected in [0, 1]; the result is clipped to [0, 1] to be
    robust to slightly out-of-range learned weights.
    """
    return max(0.0, min(1.0, 1.0 - abs(weight_a - weight_b)))
