"""Structural similarity between metagraphs via maximum common subgraph.

The candidate heuristic of dual-stage training (Sect. III-C) scores a
non-seed metagraph by its structural similarity to the seeds:

    SS(Mi, Mj) = (|V_M| + |E_M|)^2 / ((|V_Mi| + |E_Mi|) * (|V_Mj| + |E_Mj|))

where ``M`` is the maximum common subgraph (MCS) of ``Mi`` and ``Mj``.

We take the MCS to be the largest *connected induced* common subgraph —
consistent with the induced instance semantics of Def. 2 — maximising
``|V| + |E|``.  Patterns have at most ~6 nodes, so exact enumeration of
connected node subsets plus an induced-embedding test is fast; results
are memoised per unordered pair of canonical forms.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from repro.metagraph.canonical import canonical_form, form_edge_entry
from repro.metagraph.metagraph import Metagraph


def _connected_subsets(metagraph: Metagraph) -> list[tuple[int, ...]]:
    """All node subsets of the metagraph that induce a connected subgraph."""
    n = metagraph.size
    subsets: list[tuple[int, ...]] = []
    for size in range(1, n + 1):
        for subset in combinations(range(n), size):
            chosen = set(subset)
            # BFS inside the subset to check connectivity
            stack = [subset[0]]
            seen = {subset[0]}
            while stack:
                u = stack.pop()
                for v in metagraph.neighbors(u):
                    if v in chosen and v not in seen:
                        seen.add(v)
                        stack.append(v)
            if len(seen) == size:
                subsets.append(subset)
    return subsets


def _embeds_induced(pattern: Metagraph, host: Metagraph) -> bool:
    """True iff ``pattern`` is an induced, type-preserving subgraph of ``host``."""
    if pattern.size > host.size or pattern.num_edges > host.num_edges:
        return False
    candidates = [
        [h for h in host.nodes() if host.node_type(h) == pattern.node_type(p)]
        for p in pattern.nodes()
    ]
    if any(not c for c in candidates):
        return False
    assignment: list[int] = []
    used: set[int] = set()

    def backtrack(p: int) -> bool:
        if p == pattern.size:
            return True
        for h in candidates[p]:
            if h in used:
                continue
            ok = True
            kinded = pattern.has_kinds or host.has_kinds
            for q in range(p):
                adjacent = pattern.has_edge(p, q)
                if adjacent != host.has_edge(h, assignment[q]):
                    ok = False
                    break
                if (
                    adjacent
                    and kinded
                    and pattern.edge_signature(p, q)
                    != host.edge_signature(h, assignment[q])
                ):
                    ok = False
                    break
            if ok:
                assignment.append(h)
                used.add(h)
                if backtrack(p + 1):
                    return True
                used.discard(h)
                assignment.pop()
        return False

    return backtrack(0)


@lru_cache(maxsize=65536)
def _mcs_size_cached(
    form_a: CanonicalForm, form_b: CanonicalForm
) -> tuple[int, int]:
    a = Metagraph(form_a[0], [form_edge_entry(e) for e in form_a[1]])
    b = Metagraph(form_b[0], [form_edge_entry(e) for e in form_b[1]])
    # enumerate connected induced subgraphs of the smaller pattern
    small, large = (a, b) if (a.size + a.num_edges) <= (b.size + b.num_edges) else (b, a)
    best = (0, 0)
    for subset in sorted(_connected_subsets(small), key=len, reverse=True):
        candidate = small.induced_on(subset)
        score = (candidate.size, candidate.num_edges)
        if score[0] + score[1] <= best[0] + best[1]:
            continue
        if _embeds_induced(candidate, large):
            best = score
    return best


def mcs_size(a: Metagraph, b: Metagraph) -> tuple[int, int]:
    """``(|V|, |E|)`` of the maximum common connected induced subgraph."""
    form_a, form_b = canonical_form(a), canonical_form(b)
    if form_b < form_a:
        form_a, form_b = form_b, form_a
    return _mcs_size_cached(form_a, form_b)


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
