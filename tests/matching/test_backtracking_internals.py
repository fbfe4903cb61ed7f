"""White-box tests for the dict-of-set executor of a match plan."""

import pytest

from repro.exceptions import MatchingError
from repro.matching.backtracking import backtrack_embeddings
from repro.matching.base import is_valid_embedding
from repro.matching.plan import MatchPlan
from repro.metagraph.metagraph import Metagraph, metapath


def plan(metagraph, order, induced=True):
    return MatchPlan(metagraph, order, induced=induced, fixed=None)


class TestPrefixStructure:
    def test_neighbors_and_nonneighbors(self):
        m = Metagraph(
            ["user", "school", "major", "user"],
            [(0, 1), (0, 2), (3, 1), (3, 2)],
        )
        order = [1, 0, 2, 3]
        built = plan(m, order)
        neighbors, nonneighbors = built.neighbors_at, built.nonneighbors_at
        assert neighbors[0] == ()
        assert neighbors[1] == (0,)  # node 0 adjacent to school at pos 0
        assert nonneighbors[2] == (0,)  # major not adjacent to school
        assert neighbors[3] == (0, 2)

    def test_invalid_order_rejected(self):
        m = metapath("user", "school")
        with pytest.raises(MatchingError):
            plan(m, [0, 0])


class TestBacktrackOptions:
    def test_induced_vs_non_induced(self, toy_graph):
        # Kate-CollegeB-Jay plus Kate-Economics-Jay: the path
        # user-school-user has fewer NON-induced than induced exclusions
        path = metapath("user", "school", "user")
        order = [1, 0, 2]
        induced = list(backtrack_embeddings(toy_graph, plan(path, order)))
        loose = list(
            backtrack_embeddings(toy_graph, plan(path, order, induced=False))
        )
        assert len(loose) >= len(induced)
        for emb in induced:
            assert is_valid_embedding(toy_graph, path, emb)

    def test_non_induced_includes_triangle_paths(self):
        from repro.graph.typed_graph import TypedGraph

        g = TypedGraph()
        for n in ("a", "b", "c"):
            g.add_node(n, "user")
        g.add_edge("a", "b")
        g.add_edge("b", "c")
        g.add_edge("a", "c")
        path = metapath("user", "user", "user")
        assert list(backtrack_embeddings(g, plan(path, [0, 1, 2]))) == []
        loose = list(
            backtrack_embeddings(g, plan(path, [0, 1, 2], induced=False))
        )
        assert len(loose) == 6  # 3 centre choices x 2 endpoint orders

    def test_candidate_pool_restricts(self, toy_graph):
        path = metapath("user", "school", "user")
        order = [1, 0, 2]
        pool = {
            0: {"Kate"},
            1: set(toy_graph.nodes_of_type("school")),
            2: set(toy_graph.nodes_of_type("user")),
        }
        found = list(
            backtrack_embeddings(toy_graph, plan(path, order), candidate_pool=pool)
        )
        assert found
        assert all(emb[0] == "Kate" for emb in found)

    def test_empty_pool_yields_nothing(self, toy_graph):
        path = metapath("user", "school", "user")
        pool = {0: set(), 1: set(), 2: set()}
        assert (
            list(
                backtrack_embeddings(
                    toy_graph, plan(path, [1, 0, 2]), candidate_pool=pool
                )
            )
            == []
        )

    def test_memoized_same_results(self, toy_graph, toy_metagraphs):
        for mg in toy_metagraphs.values():
            order = list(range(mg.size))
            # reorder to keep prefixes connected: use a BFS order
            from repro.matching.ordering import rarest_type_order

            order = rarest_type_order(toy_graph, mg)
            plain = {
                frozenset(e.values())
                for e in backtrack_embeddings(toy_graph, plan(mg, order))
            }
            memo = {
                frozenset(e.values())
                for e in backtrack_embeddings(
                    toy_graph, plan(mg, order), memoize=True
                )
            }
            assert plain == memo

    def test_embedding_count_is_instances_times_automorphisms(
        self, toy_graph, toy_metagraphs
    ):
        from repro.matching import QuickSIMatcher, find_instances
        from repro.metagraph.symmetry import automorphisms

        for mg in toy_metagraphs.values():
            engine = QuickSIMatcher()
            embeddings = sum(1 for _ in engine.find_embeddings(toy_graph, mg))
            instances = len(find_instances(engine, toy_graph, mg))
            assert embeddings == instances * len(automorphisms(mg))
