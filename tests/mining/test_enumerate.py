"""Tests for schema-driven pattern enumeration."""

import pytest

from repro.metagraph.canonical import canonical_form
from repro.metagraph.metagraph import metapath
from repro.mining.enumerate import enumerate_patterns, single_edge_patterns


class TestSingleEdgePatterns:
    def test_one_per_pair(self):
        patterns = single_edge_patterns([("user", "school"), ("user", "user")])
        assert len(patterns) == 2

    def test_pair_order_irrelevant(self):
        a = single_edge_patterns([("school", "user")])
        b = single_edge_patterns([("user", "school")])
        assert canonical_form(a[0]) == canonical_form(b[0])


class TestEnumeratePatterns:
    def test_single_pair_paths(self):
        # only user-school edges allowed: patterns alternate types;
        # max 3 nodes -> user-school, user-school-user, school-user-school
        patterns = enumerate_patterns([("school", "user")], max_nodes=3)
        forms = {canonical_form(m) for m in patterns}
        assert canonical_form(metapath("user", "school")) in forms
        assert canonical_form(metapath("user", "school", "user")) in forms
        assert canonical_form(metapath("school", "user", "school")) in forms
        assert len(patterns) == 3

    def test_no_duplicates(self):
        patterns = enumerate_patterns(
            [("school", "user"), ("hobby", "user")], max_nodes=4
        )
        forms = [canonical_form(m) for m in patterns]
        assert len(forms) == len(set(forms))

    def test_all_connected(self):
        patterns = enumerate_patterns(
            [("school", "user"), ("user", "user")], max_nodes=4
        )
        # Metagraph constructor enforces connectivity; reaching here means
        # every generated pattern was connected
        assert all(m.size <= 4 for m in patterns)

    def test_max_edges_bound(self):
        unbounded = enumerate_patterns([("user", "user")], max_nodes=4)
        bounded = enumerate_patterns([("user", "user")], max_nodes=4, max_edges=3)
        assert max(m.num_edges for m in bounded) <= 3
        assert len(bounded) < len(unbounded)

    def test_growth_covers_squares(self):
        # the Fig. 2 square M1 must be reachable via edge closing
        patterns = enumerate_patterns(
            [("school", "user"), ("major", "user")], max_nodes=4
        )
        from repro.metagraph.metagraph import Metagraph

        m1 = Metagraph(
            ["user", "school", "major", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        forms = {canonical_form(m) for m in patterns}
        assert canonical_form(m1) in forms

    def test_deterministic(self):
        pairs = [("school", "user"), ("hobby", "user"), ("user", "user")]
        a = enumerate_patterns(pairs, max_nodes=4)
        b = enumerate_patterns(pairs, max_nodes=4)
        assert [canonical_form(m) for m in a] == [canonical_form(m) for m in b]

    def test_sizes_respected(self):
        patterns = enumerate_patterns([("school", "user")], max_nodes=5)
        assert all(2 <= m.size <= 5 for m in patterns)

    @pytest.mark.parametrize(
        ("bounds", "message"),
        [
            ({"max_nodes": 1}, "max_nodes must be >= 2"),
            ({"max_nodes": 0}, "max_nodes must be >= 2"),
            ({"max_edges": 0}, "max_edges must be None or >= 1"),
        ],
    )
    def test_bounds_no_pattern_can_meet_rejected(self, bounds, message):
        # every pattern has two nodes and an edge: a bound below that
        # used to return the single-edge seeds anyway
        with pytest.raises(ValueError, match=message):
            enumerate_patterns([("school", "user")], **bounds)
