"""The match plan: one derivation of a search's per-position constraints.

Each plan's fields are checked against a brute-force derivation from
``has_edge``, ``edge_signature`` and ``symmetry_conditions`` on the
random patterns and orders of the cross-matcher parity suite (plain
and kinded).  Both executors — the dict-of-set backtracker and the CSR
kernel — must enumerate the same embeddings from one unbroken plan,
and each rejects the plans it cannot execute.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import MatchingError
from repro.graph.csr import csr_view
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.compiled import (
    assignment_batches,
    embedding_matrix,
    embeddings_from_csr,
)
from repro.matching.ordering import random_connected_order
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import metapath
from repro.metagraph.symmetry import symmetry_conditions
from tests.conftest import random_typed_graph
from tests.matching.test_cross_matcher_parity import SEEDS, random_pattern
from tests.matching.test_labeled_parity import (
    random_kinded_graph,
    random_kinded_pattern,
)


def semantics(order) -> list:
    """``(induced, fixed)``: unbroken, broken over Aut(M), and broken
    over the stabiliser of one or two pinned nodes."""
    return [
        (induced, fixed)
        for induced in (True, False)
        for fixed in (None, (), (order[0],), tuple(order[:2]))
    ]


def brute_force_fields(metagraph, order, induced, fixed) -> dict:
    """Every plan field, one pairwise pattern query at a time."""
    conditions = set(symmetry_conditions(metagraph, fixed)) if fixed is not None else set()
    fields: dict[str, list] = {
        name: []
        for name in (
            "neighbors_at",
            "signatures_at",
            "nonneighbors_at",
            "lower_at",
            "upper_at",
        )
    }
    for i, u in enumerate(order):
        earlier = range(i)
        neighbors = tuple(j for j in earlier if metagraph.has_edge(order[j], u))
        fields["neighbors_at"].append(neighbors)
        fields["signatures_at"].append(
            tuple(metagraph.edge_signature(order[j], u) for j in neighbors)
        )
        fields["nonneighbors_at"].append(
            tuple(j for j in earlier if j not in neighbors) if induced else ()
        )
        fields["lower_at"].append(
            tuple(j for j in earlier if (order[j], u) in conditions)
        )
        fields["upper_at"].append(
            tuple(j for j in earlier if (u, order[j]) in conditions)
        )
    return {name: tuple(values) for name, values in fields.items()}


def plan_fields(plan: MatchPlan) -> dict:
    return {
        "neighbors_at": plan.neighbors_at,
        "signatures_at": plan.signatures_at,
        "nonneighbors_at": plan.nonneighbors_at,
        "lower_at": tuple(tuple(sorted(at)) for at in plan.lower_at),
        "upper_at": tuple(tuple(sorted(at)) for at in plan.upper_at),
    }


def assert_fields_match(metagraph, order):
    for induced, fixed in semantics(order):
        plan = MatchPlan(metagraph, order, induced=induced, fixed=fixed)
        assert plan.order == tuple(order)
        assert (plan.induced, plan.fixed) == (induced, fixed)
        assert plan_fields(plan) == brute_force_fields(
            metagraph, order, induced, fixed
        ), (metagraph, order, induced, fixed)
        # a fixed node's orbit under its own stabiliser is itself
        position = {u: i for i, u in enumerate(order)}
        for p in fixed or ():
            i = position[p]
            assert not plan.lower_at[i] and not plan.upper_at[i]
            bounds = plan.lower_at + plan.upper_at
            assert all(i not in at for at in bounds), (metagraph, order, fixed)


class TestPlanFields:
    @given(SEEDS)
    @settings(max_examples=60, deadline=None)
    def test_plain_patterns(self, seed):
        rng = random.Random(seed)
        metagraph = random_pattern(rng)
        assert_fields_match(metagraph, random_connected_order(metagraph, rng))

    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_kinded_patterns(self, seed):
        rng = random.Random(seed)
        metagraph = random_kinded_pattern(rng)
        assert_fields_match(metagraph, random_connected_order(metagraph, rng))

    def test_unbroken_non_induced_plan_checks_adjacency_only(self):
        triangle_free = metapath("user", "school", "user")
        plan = MatchPlan(
            triangle_free, [1, 0, 2], induced=False, fixed=None
        )
        assert plan.nonneighbors_at == ((), (), ())
        assert plan.lower_at == plan.upper_at == ((), (), ())

    @pytest.mark.parametrize("order", [[0, 0, 1], [0, 1], [0, 1, 2, 3], [0, 1, 5]])
    def test_non_permutation_order_rejected(self, order):
        with pytest.raises(MatchingError, match="not a permutation"):
            MatchPlan(
                metapath("user", "school", "user"),
                order,
                induced=True,
                fixed=None,
            )


def embedding_set(embeddings) -> set:
    return {tuple(sorted(e.items(), key=lambda item: item[0])) for e in embeddings}


class TestExecutors:
    @given(SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_both_executors_enumerate_one_unbroken_plan_alike(self, seed):
        rng = random.Random(seed)
        kinded = seed % 2 == 1
        graph = (
            random_kinded_graph(seed)
            if kinded
            else random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        )
        metagraph = random_kinded_pattern(rng) if kinded else random_pattern(rng, 4)
        order = random_connected_order(metagraph, rng)
        csr = csr_view(graph)
        for induced in (True, False):
            plan = MatchPlan(metagraph, order, induced=induced, fixed=None)
            python = embedding_set(backtrack_embeddings(graph, plan))
            kernel = embedding_set(embeddings_from_csr(csr, plan))
            assert python == kernel, (seed, induced)

    def test_kernel_rejects_a_pool_on_a_broken_plan(self, toy_graph):
        path = metapath("user", "school", "user")
        csr = csr_view(toy_graph)
        pool = {0: csr.encode(["Kate"])}
        broken = MatchPlan(path, [1, 0, 2], induced=True, fixed=())
        with pytest.raises(MatchingError, match="pool"):
            next(assignment_batches(csr, broken, pool))
        unbroken = MatchPlan(path, [1, 0, 2], induced=True, fixed=None)
        rows = embedding_matrix(csr, unbroken, pool)
        assert rows.shape[0] and np.all(rows[:, 0] == csr.id_of["Kate"])

    def test_kernel_accepts_an_invariant_pool_on_a_broken_plan(self, toy_graph):
        """A pin on a fixed node plus one shared array per type: the pool
        is invariant under the pin's stabiliser, so the plan may break it."""
        path = metapath("user", "school", "user")
        csr = csr_view(toy_graph)
        users = csr.encode(toy_graph.nodes_of_type("user"))
        pool = {1: csr.encode(["College B"]), 0: users, 2: users}
        broken = MatchPlan(path, [1, 0, 2], induced=True, fixed=(1,))
        rows = embedding_matrix(csr, broken, pool)
        every = embedding_matrix(
            csr, MatchPlan(path, [1, 0, 2], induced=True, fixed=None), pool
        )
        # the school's stabiliser swaps the two users: one row of two
        assert rows.shape[0] and 2 * rows.shape[0] == every.shape[0]
        instances = {frozenset(row) for row in rows.tolist()}
        assert len(instances) == rows.shape[0]
        assert instances == {frozenset(row) for row in every.tolist()}
        with pytest.raises(MatchingError, match="pool"):
            next(assignment_batches(csr, broken, {**pool, 2: users.copy()}))

    def test_backtracker_rejects_a_broken_plan(self, toy_graph):
        path = metapath("user", "school", "user")
        broken = MatchPlan(path, [1, 0, 2], induced=True, fixed=())
        with pytest.raises(MatchingError, match="unbroken"):
            next(backtrack_embeddings(toy_graph, broken))
