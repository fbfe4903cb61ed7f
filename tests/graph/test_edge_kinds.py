"""Edge kinds (label x direction) at the graph layer.

Storage semantics, signatures under argument swap, conflict detection,
schema rules, CSR signature slices, and io round-trips — plus the
plain-graph guarantee: a graph without kinds behaves and serialises
exactly as before the kind axis existed.
"""

import json

import pytest

from repro.exceptions import EdgeError, SchemaError
from repro.graph.csr import CSRGraph
from repro.graph.io import from_json, from_tsv, to_json, to_tsv
from repro.graph.schema import GraphSchema
from repro.graph.typed_graph import PLAIN, EdgeKind, TypedGraph

IN = EdgeKind("in", True)
OUT = EdgeKind("out", True)
TAG = EdgeKind("tag", False)


def kinded_graph() -> TypedGraph:
    g = TypedGraph(name="k")
    for m in ("m1", "m2", "m3"):
        g.add_node(m, "mol")
    g.add_node("r1", "rxn")
    g.add_edge("m1", "r1", IN)
    g.add_edge("r1", "m2", OUT)
    g.add_edge("m1", "m3", TAG)
    g.add_edge("m2", "m3")
    return g


class TestStorage:
    def test_plain_graph_has_no_kinds(self):
        g = TypedGraph()
        g.add_node("a", "t")
        g.add_node("b", "t")
        g.add_edge("a", "b")
        assert not g.has_kinds
        assert g.edge_kind("a", "b") == PLAIN
        assert g.edge_signature("a", "b") == ("", 0)

    def test_kinds_stored_and_reported(self):
        g = kinded_graph()
        assert g.has_kinds
        assert g.edge_kind("m1", "r1") == IN
        assert g.edge_kind("r1", "m1") == IN  # kind is orientation-free
        assert g.edge_kind("m1", "m3") == TAG
        assert g.edge_kind("m2", "m3") == PLAIN

    def test_signature_flips_under_argument_swap(self):
        g = kinded_graph()
        assert g.edge_signature("m1", "r1") == ("in", 1)
        assert g.edge_signature("r1", "m1") == ("in", -1)
        assert g.edge_signature("r1", "m2") == ("out", 1)
        assert g.edge_signature("m2", "r1") == ("out", -1)
        assert g.edge_signature("m1", "m3") == ("tag", 0)
        assert g.edge_signature("m3", "m1") == ("tag", 0)

    def test_conflicting_kind_raises(self):
        g = kinded_graph()
        with pytest.raises(EdgeError, match="conflicting"):
            g.add_edge("m1", "r1", OUT)
        with pytest.raises(EdgeError, match="conflicting"):
            g.add_edge("r1", "m1", IN)  # flipped orientation conflicts too
        with pytest.raises(EdgeError, match="conflicting"):
            g.add_edge("m2", "m3", TAG)  # plain edge cannot gain a label

    def test_readding_same_kind_is_noop(self):
        g = kinded_graph()
        before = g.num_edges
        g.add_edge("m1", "r1", IN)
        g.add_edge("m1", "m3", TAG)
        g.add_edge("m3", "m1", TAG)  # undirected: order-free
        assert g.num_edges == before

    def test_edges_with_kinds_yields_source_first(self):
        g = kinded_graph()
        entries = {(u, v): kind for u, v, kind in g.edges_with_kinds()}
        assert entries[("m1", "r1")] == IN
        assert entries[("r1", "m2")] == OUT

    def test_observed_edge_rules(self):
        g = kinded_graph()
        assert g.observed_edge_rules() == frozenset(
            {
                ("mol", "rxn", IN),
                ("rxn", "mol", OUT),
                ("mol", "mol", TAG),
                ("mol", "mol", PLAIN),
            }
        )

    def test_removal_forgets_the_kind(self):
        g = kinded_graph()
        g.remove_edge("m1", "r1")
        g.add_edge("m1", "r1", OUT)  # no conflict after removal
        assert g.edge_kind("m1", "r1") == OUT
        g.remove_node("r1")
        assert g.has_kinds  # tag edge remains
        g.remove_edge("m1", "m3")
        assert not g.has_kinds

    def test_copy_and_subgraph_preserve_kinds(self):
        g = kinded_graph()
        assert g.copy() == g
        sub = g.induced_subgraph(["m1", "r1", "m2"])
        assert sub.edge_signature("m1", "r1") == ("in", 1)
        assert sub.edge_signature("r1", "m2") == ("out", 1)


class TestSchema:
    def test_directed_rules_are_oriented(self):
        schema = GraphSchema(
            types=("mol", "rxn"), edge_rules=[("mol", "rxn", IN)]
        )
        assert schema.edge_kinds
        assert schema.allows_edge("mol", "rxn", IN)
        assert not schema.allows_edge("rxn", "mol", IN)
        assert not schema.allows_edge("mol", "rxn", OUT)
        assert not schema.allows_edge("mol", "rxn")

    def test_undirected_rules_normalise(self):
        schema = GraphSchema(types=("a", "b"), edge_rules=[("b", "a", TAG)])
        assert schema.allows_edge("a", "b", TAG)
        assert schema.allows_edge("b", "a", TAG)

    def test_plain_pairs_keep_edge_kinds_off(self):
        schema = GraphSchema(types=("a", "b"), edge_pairs=[("a", "b")])
        assert not schema.edge_kinds

    def test_validate_rejects_unruled_kind(self):
        schema = GraphSchema(
            types=("mol", "rxn"), edge_rules=[("mol", "rxn", IN)]
        )
        g = TypedGraph()
        g.add_node("m", "mol")
        g.add_node("r", "rxn")
        g.add_edge("r", "m", OUT)
        with pytest.raises(SchemaError):
            schema.validate_graph(g)

    def test_infer_round_trips_rules(self):
        g = kinded_graph()
        schema = GraphSchema.infer(g)
        assert schema.edge_kinds
        schema.validate_graph(g)
        assert schema.edge_rules == frozenset(
            {
                ("mol", "rxn", IN),
                ("rxn", "mol", OUT),
                ("mol", "mol", TAG),
                ("mol", "mol", PLAIN),
            }
        )


class TestIO:
    def test_json_round_trip(self):
        g = kinded_graph()
        assert from_json(to_json(g)) == g

    def test_tsv_round_trip(self):
        g = kinded_graph()
        assert from_tsv(to_tsv(g)) == g

    def test_plain_json_has_no_kind_fields(self):
        g = TypedGraph()
        g.add_node("a", "t")
        g.add_node("b", "t")
        g.add_edge("a", "b")
        doc = json.loads(to_json(g))
        assert doc["edges"] == [["a", "b"]]

    def test_kinded_edges_serialise_source_first(self):
        g = kinded_graph()
        doc = json.loads(to_json(g))
        assert ["m1", "r1", "in", 1] in doc["edges"]
        assert ["r1", "m2", "out", 1] in doc["edges"]
        assert ["m1", "m3", "tag", 0] in doc["edges"]
        assert ["m2", "m3"] in doc["edges"]


class TestCSR:
    def test_sig_slices_partition_typed_neighbors(self):
        g = kinded_graph()
        csr = CSRGraph.from_graph(g)
        assert csr.num_sigs > 1
        for node in g.nodes():
            nid = csr.id_of[node]
            for code, type_name in enumerate(csr.type_names):
                typed = set(g.neighbors_of_type(node, type_name))
                by_sig: set = set()
                for sig in range(csr.num_sigs):
                    block = csr.block(nid, code * csr.num_sigs + sig).tolist()
                    assert not by_sig & set(block)  # the blocks are disjoint
                    by_sig |= {csr.node_ids[v] for v in block}
                assert by_sig == typed, (node, type_name)

    def test_sig_ids_match_edge_signatures(self):
        g = kinded_graph()
        csr = CSRGraph.from_graph(g)
        m1, r1 = csr.id_of["m1"], csr.id_of["r1"]
        sig = csr.sig_index[g.edge_signature("m1", "r1")]
        column = csr.type_id("rxn") * csr.num_sigs + sig
        assert r1 in csr.block(m1, column).tolist()
        # the reverse direction lives in the flipped signature block
        back = csr.sig_index[g.edge_signature("r1", "m1")]
        column = csr.type_id("mol") * csr.num_sigs + back
        assert m1 in csr.block(r1, column).tolist()

    def test_plain_graph_csr_has_one_plain_signature(self):
        # a plain view has the one signature ("", 0), or none when edgeless
        g = TypedGraph()
        g.add_node("a", "t")
        g.add_node("b", "t")
        assert CSRGraph.from_graph(g).sig_names == ()
        g.add_edge("a", "b")
        csr = CSRGraph.from_graph(g)
        assert csr.sig_names == (("", 0),)
        assert csr.profiles.tolist() == [[1], [1]]
