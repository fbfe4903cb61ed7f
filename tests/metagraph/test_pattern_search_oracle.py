"""The one pattern-level search against its references and networkx.

:func:`repro.metagraph.canonical.pattern_search` yields the canonical
form and Aut(M); the Eq. 7 MCS reads the forms of sub-patterns.  Each
is checked against an independent computation on random plain and
kinded patterns of 1–7 nodes (7-node patterns only on a few fixed
seeds, since the reference scan is factorial in a type class):

- the form against the type-class permutation scan
  (``tests/oracles.py::reference_canonical_form``), and under random
  relabelling;
- Aut(M) against networkx ``DiGraphMatcher(M, M)`` with a type node
  match and an oriented-signature edge match;
- ``mcs_size`` against the induced-embedding MCS
  (``tests/oracles.py::reference_mcs_size``).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.isomorphism import DiGraphMatcher

from repro.datasets import DATASET_GENERATORS, load_dataset
from repro.experiments import QUICK_CONFIG
from repro.graph.typed_graph import PLAIN, EdgeKind
from repro.metagraph.canonical import canonical_form
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.similarity import mcs_size
from repro.metagraph.symmetry import automorphisms
from repro.mining.grami import GramiMiner
from tests.oracles import as_digraph, reference_canonical_form, reference_mcs_size

KINDS = (PLAIN, EdgeKind("x", False), EdgeKind("d", True), EdgeKind("e", True))


def random_pattern(rng: random.Random, size: int) -> Metagraph:
    """A connected pattern over 1–3 types; 40 % carry labelled or
    directed edges, mixed with plain ones."""
    types = [rng.choice("abc"[: rng.randint(1, 3)]) for _ in range(size)]
    kinded = rng.random() < 0.4
    pairs = {(rng.randrange(i), i) for i in range(1, size)}  # spanning tree
    for _ in range(rng.randint(0, size)):
        u, v = rng.randrange(size), rng.randrange(size)
        if u != v:
            pairs.add((min(u, v), max(u, v)))
    edges = []
    for u, v in sorted(pairs):
        kind = rng.choice(KINDS) if kinded else PLAIN
        edges.append((u, v, kind) if rng.random() < 0.5 else (v, u, kind))
    return Metagraph(types, edges)


def relabelled(rng: random.Random, pattern: Metagraph) -> Metagraph:
    permutation = list(pattern.nodes())
    rng.shuffle(permutation)
    return pattern.relabeled(permutation)


def networkx_automorphisms(pattern: Metagraph) -> set[tuple[int, ...]]:
    digraph = as_digraph(
        pattern.nodes(), pattern.node_type, sorted(pattern.edges), pattern.edge_signature
    )
    matcher = DiGraphMatcher(
        digraph,
        digraph,
        node_match=lambda a, b: a["type"] == b["type"],
        edge_match=lambda a, b: a["sig"] == b["sig"],
    )
    return {
        tuple(mapping[u] for u in pattern.nodes())
        for mapping in matcher.isomorphisms_iter()
    }


def check_form(rng: random.Random, pattern: Metagraph) -> None:
    form = canonical_form(pattern)
    assert form == reference_canonical_form(pattern), pattern
    assert canonical_form(relabelled(rng, pattern)) == form, pattern


def check_automorphisms(pattern: Metagraph) -> None:
    group = automorphisms(pattern)
    assert group == tuple(sorted(networkx_automorphisms(pattern))), pattern


SIZES = st.integers(min_value=1, max_value=6)
SEEDS = st.integers(min_value=0, max_value=10**6)
SEVEN_NODE_SEEDS = range(4)


class TestCanonicalForm:
    @given(SEEDS, SIZES)
    @settings(max_examples=80, deadline=None)
    def test_equals_reference_and_relabelling_invariant(self, seed, size):
        rng = random.Random(seed)
        check_form(rng, random_pattern(rng, size))

    @pytest.mark.parametrize("seed", SEVEN_NODE_SEEDS)
    def test_seven_nodes(self, seed):
        rng = random.Random(seed)
        check_form(rng, random_pattern(rng, 7))

    def test_every_mined_pattern(self):
        rng = random.Random(0)
        for name in sorted(DATASET_GENERATORS):
            graph = load_dataset(name, scale=QUICK_CONFIG.scale).graph
            mined = GramiMiner(QUICK_CONFIG.miner_config(name)).mine(graph)
            assert mined.patterns, name
            for pattern in mined.patterns:
                check_form(rng, pattern)


class TestAutomorphisms:
    @given(SEEDS, SIZES)
    @settings(max_examples=80, deadline=None)
    def test_equal_networkx(self, seed, size):
        check_automorphisms(random_pattern(random.Random(seed), size))

    @pytest.mark.parametrize("seed", SEVEN_NODE_SEEDS)
    def test_seven_nodes(self, seed):
        check_automorphisms(random_pattern(random.Random(seed), 7))


class TestMcs:
    @given(SEEDS, SIZES, SIZES)
    @settings(max_examples=80, deadline=None)
    def test_equals_reference(self, seed, size_a, size_b):
        rng = random.Random(seed)
        a, b = random_pattern(rng, size_a), random_pattern(rng, size_b)
        assert mcs_size(a, b) == reference_mcs_size(a, b) == mcs_size(b, a), (a, b)

    @pytest.mark.parametrize("seed", SEVEN_NODE_SEEDS)
    def test_seven_nodes(self, seed):
        rng = random.Random(seed)
        a, b = random_pattern(rng, 7), random_pattern(rng, rng.randint(3, 7))
        assert mcs_size(a, b) == reference_mcs_size(a, b), (a, b)

    def test_size_tie_prefers_more_nodes(self):
        # a diamond (4 nodes, 5 edges) and a 4-leaf star (5 nodes, 4
        # edges) joined through a bridge whose type differs between the
        # two patterns: both are common, with equal |V| + |E|
        def joined(bridge: str) -> Metagraph:
            edges = [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]
            edges += [(4, 5), (4, 6), (4, 7), (4, 8), (9, 0), (9, 4)]
            return Metagraph(["a"] * 4 + ["b"] * 5 + [bridge], edges)

        a, b = joined("c"), joined("d")
        assert mcs_size(a, b) == reference_mcs_size(a, b) == (5, 4)
