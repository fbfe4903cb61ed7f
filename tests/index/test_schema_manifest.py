"""Snapshot schema recording: compat flag, one format, mismatch errors.

Every snapshot saved with a graph records the realised schema (edge-kind
flag, types, edge rules) in its manifest, under the one format version
plain and kinded graphs share.  Loading a snapshot against a graph that
disagrees on the edge-kind flag raises :class:`SchemaError` — a
structural error, not staleness — and ``repro index info`` surfaces the
recorded schema to operators.
"""

import pytest

from repro.cli import main as cli_main
from repro.exceptions import SchemaError
from repro.graph.typed_graph import EdgeKind, TypedGraph
from repro.index.parallel import IndexBuildConfig, build_index
from repro.index.persist import (
    FORMAT_VERSION,
    load_index,
    read_manifest,
    save_index,
)
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph

IN = EdgeKind("in", True)
OUT = EdgeKind("out", True)


def kinded_graph() -> TypedGraph:
    g = TypedGraph(name="kg")
    for i in range(4):
        g.add_node(f"m{i}", "mol")
    for i, (a, b) in enumerate([(0, 1), (1, 2), (2, 3)]):
        g.add_node(f"r{i}", "rxn")
        g.add_edge(f"m{a}", f"r{i}", IN)
        g.add_edge(f"r{i}", f"m{b}", OUT)
    return g


def plain_graph() -> TypedGraph:
    g = TypedGraph(name="pg")
    for i in range(4):
        g.add_node(f"u{i}", "user")
    g.add_node("s", "school")
    for i in range(4):
        g.add_edge(f"u{i}", "s")
    return g


def snapshot_for(graph: TypedGraph, anchor: str, pattern: Metagraph, path):
    catalog = MetagraphCatalog(anchor_type=anchor)
    catalog.add_if_new(pattern)
    vectors, index = build_index(
        graph, catalog, config=IndexBuildConfig(workers=1)
    )
    return save_index(path, vectors, catalog, graph=graph, index=index)


KINDED_PATTERN = Metagraph(["mol", "rxn", "mol"], [(0, 1, IN), (1, 2, OUT)])
PLAIN_PATTERN = Metagraph(["user", "school", "user"], [(0, 1), (2, 1)])


class TestManifestSchema:
    def test_kinded_snapshot_records_schema(self, tmp_path):
        graph = kinded_graph()
        path = snapshot_for(graph, "mol", KINDED_PATTERN, tmp_path / "k")
        manifest = read_manifest(path)
        assert manifest["format_version"] == FORMAT_VERSION
        schema = manifest["schema"]
        assert schema["edge_kinds"] is True
        assert schema["types"] == ["mol", "rxn"]
        assert ["mol", "rxn", "in", 1] in schema["edge_rules"]
        assert ["rxn", "mol", "out", 1] in schema["edge_rules"]
        # kinded fingerprints carry 4-entry edges
        assert manifest["graph_fingerprint"] is not None

    def test_plain_snapshot_records_plain_schema(self, tmp_path):
        path = snapshot_for(plain_graph(), "user", PLAIN_PATTERN, tmp_path / "p")
        manifest = read_manifest(path)
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["schema"] == {
            "edge_kinds": False,
            "types": ["school", "user"],
            "edge_rules": [["school", "user", "", 0]],
        }

    def test_round_trip_with_matching_graph(self, tmp_path):
        graph = kinded_graph()
        path = snapshot_for(graph, "mol", KINDED_PATTERN, tmp_path / "k")
        loaded = load_index(path, graph=graph)
        assert loaded.vectors.anchor_type == "mol"

    def test_plain_graph_against_kinded_snapshot_raises(self, tmp_path):
        path = snapshot_for(
            kinded_graph(), "mol", KINDED_PATTERN, tmp_path / "k"
        )
        with pytest.raises(SchemaError, match="edge kinds"):
            load_index(path, graph=plain_graph())

    def test_kinded_graph_against_plain_snapshot_raises(self, tmp_path):
        path = snapshot_for(
            plain_graph(), "user", PLAIN_PATTERN, tmp_path / "p"
        )
        with pytest.raises(SchemaError, match="edge kinds"):
            load_index(path, graph=kinded_graph())


class TestIndexInfoCLI:
    def test_info_prints_recorded_schema(self, tmp_path, capsys):
        path = snapshot_for(
            kinded_graph(), "mol", KINDED_PATTERN, tmp_path / "k"
        )
        assert cli_main(["index", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schema         : edge kinds on, types mol, rxn" in out
        assert "mol -> rxn [in]" in out
        assert "rxn -> mol [out]" in out
        assert f"format version : {FORMAT_VERSION}" in out

    def test_info_reports_plain_schema(self, tmp_path, capsys):
        path = snapshot_for(
            plain_graph(), "user", PLAIN_PATTERN, tmp_path / "p"
        )
        assert cli_main(["index", "info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "schema         : plain (unlabeled, undirected)" in out
        assert f"format version : {FORMAT_VERSION}" in out
