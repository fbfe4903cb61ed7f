"""The stabiliser-chain symmetry-breaking conditions (Grochow & Kellis).

``symmetry_conditions(M)`` must keep exactly one member of every orbit
of Aut(M) acting on injective images: for any injective ranking of the
pattern nodes' images, exactly one automorphism ``sigma`` makes
``rank . sigma`` satisfy every condition.  Both offline stages (the
compiled kernel and the miner) rely on this to enumerate each instance
once.  The check runs over every connected pattern up to 5 nodes for
plain rule sets and for kinded (labeled, directed) ones.
"""

import functools
import math
import random
from collections import Counter

import pytest

from repro.graph.typed_graph import EdgeKind
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.symmetry import automorphisms, symmetry_conditions
from repro.mining import enumerate_patterns

RULE_SETS = {
    "one type": [("a", "a")],
    "users and schools": [("user", "user"), ("user", "school")],
    "linkedin": [("college", "user"), ("employer", "user"), ("location", "user")],
    # the reactions dataset's rules: every edge labeled and directed
    "reactions": [
        ("mol", "rxn", EdgeKind("cat", True)),
        ("mol", "rxn", EdgeKind("in", True)),
        ("rxn", "mol", EdgeKind("out", True)),
    ],
    # directed cycles have rotation groups no involution generates
    "directed one type": [("a", "a", EdgeKind("x", True))],
}


@functools.cache
def patterns_of(rules: str) -> list[Metagraph]:
    # 575 directed one-type patterns up to 5 nodes take seconds to
    # enumerate; 4 nodes already hold the C3 and C4 rotation groups
    max_nodes = 4 if rules == "directed one type" else 5
    return enumerate_patterns(RULE_SETS[rules], max_nodes=max_nodes)


def satisfies(rank, sigma, conditions) -> bool:
    return all(rank[sigma[v]] < rank[sigma[w]] for v, w in conditions)


@pytest.mark.parametrize("rules", sorted(RULE_SETS))
def test_chain_orbit_sizes_multiply_to_group_order(rules):
    for pattern in patterns_of(rules):
        conditions = symmetry_conditions(pattern)
        # each chain level contributes the conditions (v, w) of one v,
        # one per other node of v's orbit under the current group
        per_level = Counter(v for v, _ in conditions)
        chain = [count + 1 for count in per_level.values()]
        assert math.prod(chain) == len(automorphisms(pattern)), pattern


@pytest.mark.parametrize("rules", sorted(RULE_SETS))
def test_exactly_one_automorphism_survives_any_ranking(rules):
    rng = random.Random(rules)
    for pattern in patterns_of(rules):
        conditions = symmetry_conditions(pattern)
        group = automorphisms(pattern)
        for _ in range(6):
            rank = rng.sample(range(100), pattern.size)
            kept = [s for s in group if satisfies(rank, s, conditions)]
            assert len(kept) == 1, (pattern, rank, kept)


@pytest.mark.parametrize("rules", sorted(RULE_SETS))
def test_fixed_nodes_break_their_stabiliser(rules):
    """``fixed=`` breaks the automorphisms fixing each pinned node: no
    condition names a pin, and one such automorphism survives any
    ranking."""
    rng = random.Random(rules)
    for pattern in patterns_of(rules):
        for fixed in ((0,), (pattern.size - 1, 0)):
            conditions = symmetry_conditions(pattern, fixed)
            assert not {p for pair in conditions for p in pair} & set(fixed)
            stabiliser = [
                s for s in automorphisms(pattern) if all(s[p] == p for p in fixed)
            ]
            for _ in range(3):
                rank = rng.sample(range(100), pattern.size)
                kept = [s for s in stabiliser if satisfies(rank, s, conditions)]
                assert len(kept) == 1, (pattern, fixed, rank, kept)


def test_asymmetric_pattern_has_no_conditions():
    assert symmetry_conditions(metapath("user", "school", "hobby")) == []


def test_largest_orbit_first_ties_to_smallest_id():
    # 4-cycle user-school-user-school: Aut = D4 restricted to types,
    # orbits {0, 2} and {1, 3}; node 0 goes first, then node 1
    square = Metagraph(
        ["user", "school", "user", "school"], [(0, 1), (1, 2), (2, 3), (0, 3)]
    )
    assert symmetry_conditions(square) == [(0, 2), (1, 3)]


def test_triangle_chain():
    triangle = Metagraph(["a", "a", "a"], [(0, 1), (1, 2), (0, 2)])
    assert symmetry_conditions(triangle) == [(0, 1), (0, 2), (1, 2)]
