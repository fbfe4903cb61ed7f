"""Rewrite rules: validation, codec, bindings, and the rebuild guarantee.

The tentpole's delta vocabulary: named LHS -> RHS rules compile down to
:class:`GraphDelta` batches, so applying one through ``apply_updates``
must leave the engine bit-identical to a cold rebuild on the mutated
graph — the same guarantee raw edit lists carry.
"""

import json

import pytest

from repro.exceptions import RewriteError
from repro.graph.typed_graph import PLAIN, EdgeKind, TypedGraph
from repro.index.rewrite import RewriteRule, RuleBook
from repro.metagraph.metagraph import Metagraph

IN = EdgeKind("in", True)
OUT = EdgeKind("out", True)
CAT = EdgeKind("cat", True)


def consume_lhs() -> Metagraph:
    return Metagraph(["mol", "rxn"], [(0, 1, IN)])


def pair_lhs() -> Metagraph:
    return Metagraph(["mol", "mol", "rxn"], [(0, 2, IN), (1, 2, IN)])


def reaction_graph() -> TypedGraph:
    """Every reaction consumes two molecules (symmetric, minable)."""
    g = TypedGraph(name="rg")
    for i in range(6):
        g.add_node(f"m{i}", "mol")
    for i, (a, b) in enumerate([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]):
        rxn = f"r{i}"
        g.add_node(rxn, "rxn")
        g.add_edge(f"m{a}", rxn, IN)
        g.add_edge(f"m{b}", rxn, IN)
    return g


class TestValidation:
    def test_removed_edge_must_exist_on_lhs(self):
        with pytest.raises(RewriteError, match="not an LHS edge"):
            RewriteRule(name="r", lhs=pair_lhs(), removed_edges=((0, 1),))

    def test_edge_removed_twice(self):
        with pytest.raises(RewriteError, match="twice"):
            RewriteRule(
                name="r", lhs=pair_lhs(), removed_edges=((0, 2), (2, 0))
            )

    def test_removed_node_out_of_range(self):
        with pytest.raises(RewriteError, match="outside"):
            RewriteRule(name="r", lhs=pair_lhs(), removed_nodes=(3,))

    def test_duplicate_variable(self):
        with pytest.raises(RewriteError, match="variable twice"):
            RewriteRule(
                name="r",
                lhs=consume_lhs(),
                added_nodes=(("x", "mol"), ("x", "rxn")),
            )

    def test_added_edge_at_undeclared_variable(self):
        with pytest.raises(RewriteError, match="undeclared"):
            RewriteRule(
                name="r", lhs=consume_lhs(), added_edges=(("ghost", 1, CAT),)
            )

    def test_added_edge_at_removed_node(self):
        with pytest.raises(RewriteError, match="removed node"):
            RewriteRule(
                name="r",
                lhs=pair_lhs(),
                removed_nodes=(0,),
                added_edges=((0, 1, PLAIN),),
            )

    def test_added_edge_over_unremoved_lhs_edge(self):
        with pytest.raises(RewriteError, match="does not remove"):
            RewriteRule(
                name="r", lhs=consume_lhs(), added_edges=((0, 1, OUT),)
            )

    def test_add_after_remove_is_allowed(self):
        rule = RewriteRule(
            name="invert",
            lhs=consume_lhs(),
            removed_edges=((0, 1),),
            added_edges=((1, 0, OUT),),
        )
        assert rule.removed_edges == ((0, 1),)

    def test_self_loop_rejected(self):
        with pytest.raises(RewriteError, match="self-loop"):
            RewriteRule(
                name="r", lhs=consume_lhs(), added_edges=((0, 0, PLAIN),)
            )


class TestCompile:
    def test_compile_orders_removals_before_additions(self):
        rule = RewriteRule(
            name="splice",
            lhs=consume_lhs(),
            removed_edges=((0, 1),),
            added_nodes=(("mid", "mol"),),
            added_edges=((0, "mid", PLAIN), ("mid", 1, IN)),
        )
        delta = rule.compile({0: "m0", 1: "r0"}, new_nodes={"mid": "mX"})
        ops = [(e.op, e.u, e.v) for e in delta]
        assert ops == [
            ("remove_edge", "m0", "r0"),
            ("add_node", "mX", None),
            ("add_edge", "m0", "mX"),
            ("add_edge", "mX", "r0"),
        ]
        kinds = [e.kind for e in delta if e.op == "add_edge"]
        assert kinds == [PLAIN, IN]

    def test_binding_must_cover_lhs(self):
        rule = RewriteRule(name="r", lhs=pair_lhs())
        with pytest.raises(RewriteError, match="cover"):
            rule.compile({0: "m0", 2: "r0"})

    def test_binding_must_be_injective(self):
        rule = RewriteRule(name="r", lhs=pair_lhs())
        with pytest.raises(RewriteError, match="injective"):
            rule.compile({0: "m0", 1: "m0", 2: "r0"})

    def test_new_nodes_must_match_variables(self):
        rule = RewriteRule(
            name="r", lhs=consume_lhs(), added_nodes=(("x", "mol"),)
        )
        with pytest.raises(RewriteError, match="new_nodes"):
            rule.compile({0: "m0", 1: "r0"})
        with pytest.raises(RewriteError, match="new_nodes"):
            rule.compile({0: "m0", 1: "r0"}, new_nodes={"y": "mX"})

    def test_fresh_ids_must_not_collide_with_binding(self):
        rule = RewriteRule(
            name="r", lhs=consume_lhs(), added_nodes=(("x", "mol"),)
        )
        with pytest.raises(RewriteError, match="distinct"):
            rule.compile({0: "m0", 1: "r0"}, new_nodes={"x": "m0"})


class TestBindings:
    def test_bindings_enumerate_lhs_embeddings(self):
        graph = reaction_graph()
        rule = RewriteRule(name="r", lhs=consume_lhs())
        bindings = list(rule.bindings(graph))
        # every reaction consumes exactly two molecules
        assert len(bindings) == 12
        for binding in bindings:
            assert graph.edge_signature(binding[0], binding[1]) == ("in", 1)

    def test_bindings_are_deterministic(self):
        graph = reaction_graph()
        rule = RewriteRule(name="r", lhs=pair_lhs())
        assert list(rule.bindings(graph)) == list(rule.bindings(graph))


class TestCodec:
    def roundtrip_book(self) -> RuleBook:
        return RuleBook(
            [
                RewriteRule(
                    name="add_catalyst",
                    lhs=consume_lhs(),
                    added_nodes=(("enzyme", "mol"),),
                    added_edges=(("enzyme", 1, CAT),),
                ),
                RewriteRule(
                    name="retract",
                    lhs=pair_lhs(),
                    removed_nodes=(2,),
                ),
            ]
        )

    def test_json_round_trip(self):
        book = self.roundtrip_book()
        restored = RuleBook.from_json(book.to_json())
        assert restored.names() == tuple(sorted(book.names()))
        for rule in book:
            assert restored[rule.name] == rule

    def test_json_is_deterministic_and_sorted(self):
        book = self.roundtrip_book()
        text = book.to_json()
        assert text == RuleBook.from_json(text).to_json()
        doc = json.loads(text)
        names = [rule["name"] for rule in doc["rules"]]
        assert names == sorted(names)

    def test_unsupported_format_rejected(self):
        with pytest.raises(RewriteError, match="format"):
            RuleBook.from_json(json.dumps({"format": 99, "rules": []}))

    def test_malformed_rule_document_rejected(self):
        with pytest.raises(RewriteError, match="malformed"):
            RewriteRule.from_json_dict({"name": "x"})

    def test_duplicate_names_rejected(self):
        book = self.roundtrip_book()
        with pytest.raises(RewriteError, match="already has"):
            book.add(RewriteRule(name="retract", lhs=consume_lhs()))


class TestRebuildGuarantee:
    def test_rule_application_bit_identical_to_cold_rebuild(self):
        from repro.index.parallel import IndexBuildConfig
        from repro.mining.grami import MinerConfig
        from repro.search import SemanticProximitySearch

        graph = reaction_graph()
        engine = SemanticProximitySearch(
            graph,
            anchor_type="mol",
            miner_config=MinerConfig(max_nodes=4, min_support=1),
        )
        engine.prepare(build_config=IndexBuildConfig(workers=1))
        assert len(engine.catalog) > 0

        rule = RewriteRule(
            name="splice",
            lhs=consume_lhs(),
            removed_edges=((0, 1),),
            added_nodes=(("mid", "mol"),),
            added_edges=((0, "mid", IN), ("mid", 1, IN)),
        )
        binding = next(iter(rule.bindings(graph)))
        delta = rule.compile(binding, new_nodes={"mid": "m_fresh"})
        stats = engine.apply_updates(delta)
        assert stats.edits_applied == len(delta)

        cold = SemanticProximitySearch(
            engine.graph,
            anchor_type="mol",
            miner_config=MinerConfig(max_nodes=4, min_support=1),
        )
        # the cold engine re-indexes the SAME catalog on the mutated
        # graph — catalog identity is what "bit-identical" quantifies over
        cold.prepare(
            catalog=engine.catalog,
            build_config=IndexBuildConfig(workers=1),
        )
        assert engine.index.matched_ids() == cold.index.matched_ids()
        for mg_id in engine.index.matched_ids():
            assert engine.index.num_instances(mg_id) == cold.index.num_instances(
                mg_id
            ), f"metagraph {mg_id} total diverges from cold rebuild"
        assert engine.vectors._node == cold.vectors._node
        assert engine.vectors._pair == cold.vectors._pair
