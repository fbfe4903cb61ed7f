"""The Eq. 1–2 counter on injective rows, against its deduplicating form.

:func:`repro.index.instance_index.count_embeddings` tallies each row's
anchor pairs and anchor nodes directly, because a kernel row is an
injective embedding: distinct pattern-node pairs then have distinct
images, and so do distinct pattern nodes.  This suite checks it against
the per-row ``lexsort`` counter in ``tests/oracles.py`` (every field,
every dtype) on random injective matrices and on the kernel's own
matrices, checks that those matrices are injective, and bounds the
traced memory of the counter on a star matrix the shape of the largest
pattern of the benchmark's ``deep`` catalog (a location joined to four
users) and of the matrix assembly on a star graph.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import combinations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import csr_view
from repro.graph.typed_graph import TypedGraph
from repro.index.instance_index import MetagraphCounts, count_embeddings
from repro.matching.compiled import (
    compiled_embedding_matrix,
    compiled_order,
    compiled_pinned_matrix,
    embedding_matrix,
)
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.symmetry import anchor_symmetric_pairs
from tests.conftest import random_typed_graph
from tests.matching.test_cross_matcher_parity import random_pattern
from tests.oracles import lexsort_count_embeddings

SEEDS = st.integers(min_value=0, max_value=10_000)
#: a location joined to four users: C(45, 4) = 148 995 rows on 45 users
STAR = Metagraph(["location", "user", "user", "user", "user"], [(0, u) for u in range(1, 5)])
STAR_USERS = 45
#: traced peak of ``count_embeddings`` over the bytes of its pair codes
#: (one int64 per row and pair): 2.5 tallying injective rows directly,
#: 13.1 with a per-row lexsort dedup
COUNT_PEAK_BOUND = 5.0
#: traced peak of ``embedding_matrix`` over the bytes of its result, for
#: user-location-user on a 600-user star (179 700 rows): 1.4 allocating
#: the result once, 3.0 stacking per-batch blocks and permuting columns
MATRIX_PEAK_BOUND = 2.2


def assert_same_counts(got: MetagraphCounts, want: MetagraphCounts) -> None:
    assert got.num_instances == want.num_instances
    assert got.nodes == want.nodes
    for name in ("node_count", "pairs", "pair_count"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


def assert_injective(matrix: np.ndarray) -> None:
    assert matrix.dtype == np.int64
    for row in matrix.tolist():
        assert len(set(row)) == len(row)


def traced_peak(call) -> tuple[object, int]:
    """``call()``'s result and the peak of the memory it allocated."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def star_graph(num_users: int) -> TypedGraph:
    graph = TypedGraph(name="star")
    graph.add_node("hub", "location")
    for i in range(num_users):
        graph.add_node(f"u{i}", "user")
        graph.add_edge("hub", f"u{i}")
    return graph


class TestCounterMatchesOracle:
    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_random_injective_matrices(self, seed):
        """Random rows of distinct dense ids, random ``u < v`` pair sets
        (pairs sharing a node included): every field and dtype agree."""
        rng = random.Random(seed)
        csr = csr_view(random_typed_graph(seed, num_users=6, num_attrs_per_type=2))
        n = rng.randint(1, 6)
        matrix = np.array(
            [rng.sample(range(csr.num_nodes), n) for _ in range(rng.randint(0, 80))],
            dtype=np.int64,
        ).reshape(-1, n)
        every = list(combinations(range(n), 2))
        sym_pairs = rng.sample(every, rng.randint(0, len(every)))
        assert_same_counts(
            count_embeddings(csr, matrix, sym_pairs),
            lexsort_count_embeddings(csr, matrix, sym_pairs),
        )

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_kernel_matrices(self, seed):
        """The build's and the delta path's matrices are injective, and
        the counter reads them as the oracle does."""
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=7, num_attrs_per_type=3)
        csr = csr_view(graph)
        metagraph = random_pattern(rng)
        sym_pairs = anchor_symmetric_pairs(metagraph, "user")
        matrices = [compiled_embedding_matrix(csr, metagraph)]
        users = sorted(graph.nodes_of_type("user"), key=repr)
        pinned = [
            compiled_pinned_matrix(graph, metagraph, {anchor: rng.choice(users)})
            for anchor in metagraph.nodes_of_type("user")
        ]
        if pinned:
            matrices += [*pinned, np.concatenate(pinned)]
        for matrix in matrices:
            assert_injective(matrix)
            assert_same_counts(
                count_embeddings(csr, matrix, sym_pairs),
                lexsort_count_embeddings(csr, matrix, sym_pairs),
            )


class TestCountingMemory:
    """Each step allocates in proportion to its output."""

    def test_counter_peak_is_a_few_code_arrays(self):
        csr = csr_view(star_graph(STAR_USERS))
        users = np.array([csr.id_of[f"u{i}"] for i in range(STAR_USERS)], dtype=np.int64)
        rows = users[np.array(list(combinations(range(STAR_USERS), 4)))]
        matrix = np.column_stack([np.full(len(rows), csr.id_of["hub"]), rows])
        sym_pairs = anchor_symmetric_pairs(STAR, "user")
        assert len(sym_pairs) == 6 and matrix.shape[0] > 100_000
        counts, peak = traced_peak(lambda: count_embeddings(csr, matrix, sym_pairs))
        # each user pair shares C(43, 2) instances, each user C(44, 3)
        assert counts.num_instances == matrix.shape[0]
        assert set(counts.pair_count.tolist()) == {903}
        assert set(counts.node_count.tolist()) == {13_244}
        code_bytes = matrix.shape[0] * len(sym_pairs) * 8
        assert peak < COUNT_PEAK_BOUND * code_bytes, peak / code_bytes

    def test_matrix_peak_is_near_its_result(self):
        csr = csr_view(star_graph(600))
        pattern = metapath("user", "location", "user")
        plan = MatchPlan(pattern, compiled_order(csr, pattern), induced=True, fixed=())
        matrix, peak = traced_peak(lambda: embedding_matrix(csr, plan))
        assert matrix.shape == (600 * 599 // 2, 3)
        assert peak < MATRIX_PEAK_BOUND * matrix.nbytes, peak / matrix.nbytes
        assert matrix.flags.c_contiguous
