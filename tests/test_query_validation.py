"""Regression tests: unknown/off-anchor queries must raise QueryError.

Before this suite's fixes, ``query("family", "Zed")`` on a graph with
no "Zed" silently returned an all-zero ranking, ``proximity`` returned
0.0 and ``explain`` returned ``[]`` — confidently wrong answers a
production service would have served.  Every online entry point, on
the compiled backend and through the sharded router, now rejects such
queries up front.
"""

from __future__ import annotations

import pytest

from repro import SemanticProximitySearch
from repro.datasets.toy import toy_dataset, toy_metagraphs
from repro.exceptions import QueryError, ReproError
from repro.learning.trainer import TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.serving import validate_query_node


def make_engine(**kwargs):
    ds = toy_dataset()
    spx = SemanticProximitySearch(
        ds.graph,
        trainer_config=TrainerConfig(restarts=2, max_iterations=300, seed=0),
        **kwargs,
    )
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    spx.prepare(catalog=catalog)
    spx.fit("family", labels=ds.class_labels("family"), num_examples=40)
    return spx


@pytest.fixture(
    scope="module",
    params=["compiled", "sharded"],
)
def engine(request):
    """One engine per serving backend — the fixes cover all of them."""
    if request.param == "sharded":
        return make_engine(shards=3, serving_workers=2)
    return make_engine()


UNKNOWN = "Zed"
OFF_ANCHOR = "Clinton"  # a surname node of the toy graph, not a user


class TestUnknownQueryNode:
    def test_query_raises(self, engine):
        with pytest.raises(QueryError, match="not in graph"):
            engine.query("family", UNKNOWN)

    def test_query_many_raises_before_ranking(self, engine):
        with pytest.raises(QueryError, match="Zed"):
            engine.query_many("family", ["Bob", UNKNOWN, "Alice"])

    def test_proximity_raises(self, engine):
        with pytest.raises(QueryError, match="not in graph"):
            engine.proximity("family", "Bob", UNKNOWN)
        with pytest.raises(QueryError, match="not in graph"):
            engine.proximity("family", UNKNOWN, "Bob")

    def test_explain_raises(self, engine):
        with pytest.raises(QueryError, match="not in graph"):
            engine.explain("family", UNKNOWN, "Alice")
        with pytest.raises(QueryError, match="not in graph"):
            engine.explain("family", "Alice", UNKNOWN)


class TestOffAnchorQueryNode:
    def test_toy_graph_has_the_off_anchor_node(self, engine):
        assert engine.graph.node_type(OFF_ANCHOR) == "surname"

    def test_query_raises(self, engine):
        with pytest.raises(QueryError, match="anchored on 'user'"):
            engine.query("family", OFF_ANCHOR)

    def test_query_many_raises(self, engine):
        with pytest.raises(QueryError, match="anchored on 'user'"):
            engine.query_many("family", [OFF_ANCHOR])

    def test_proximity_raises(self, engine):
        with pytest.raises(QueryError, match="anchored on 'user'"):
            engine.proximity("family", "Bob", OFF_ANCHOR)

    def test_explain_raises(self, engine):
        with pytest.raises(QueryError, match="anchored on 'user'"):
            engine.explain("family", OFF_ANCHOR, "Bob")


class TestNegativeK:
    def test_query_negative_k_raises(self, engine):
        with pytest.raises(ValueError, match="k must be"):
            engine.query("family", "Bob", k=-1)

    def test_query_many_negative_k_raises(self, engine):
        with pytest.raises(ValueError, match="k must be"):
            engine.query_many("family", ["Bob"], k=-3)
        # even an empty batch must not swallow the bad budget
        with pytest.raises(ValueError, match="k must be"):
            engine.query_many("family", [], k=-1)

    def test_zero_k_still_returns_empty(self, engine):
        assert engine.query("family", "Bob", k=0) == []
        assert engine.query_many("family", ["Bob", "Kate"], k=0) == [[], []]


class TestErrorShape:
    def test_query_error_is_catchable_as_repro_error(self, engine):
        with pytest.raises(ReproError):
            engine.query("family", UNKNOWN)
        with pytest.raises(ValueError):  # and as the stdlib category
            engine.query("family", UNKNOWN)

    def test_valid_queries_still_serve(self, engine):
        ranking = engine.query("family", "Bob", k=3)
        assert ranking and ranking[0][0] == "Alice"

    def test_query_many_accepts_a_generator(self, engine):
        # validation iterates the batch before ranking; a generator
        # argument must not be silently exhausted into an empty result
        rankings = engine.query_many(
            "family", (q for q in ["Bob", "Kate"]), k=3
        )
        assert len(rankings) == 2
        assert rankings[0] == engine.query("family", "Bob", k=3)

    def test_validate_helper_accepts_anchor_nodes(self, engine):
        validate_query_node(engine.graph, "Bob", "user")

    def test_messages_name_the_role(self, engine):
        with pytest.raises(QueryError, match="query node"):
            engine.query("family", UNKNOWN)
        with pytest.raises(QueryError, match="pair node"):
            engine.proximity("family", "Bob", UNKNOWN)
