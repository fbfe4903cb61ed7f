"""CSRGraph layout correctness and cache-invalidation properties.

The compiled matcher trusts the CSR view completely, so these tests pin
(1) that the arrays encode exactly the TypedGraph they were built from,
(2) that the cached view rebuilds precisely when the graph's mutation
version moves — including through ``apply_updates`` edit batches — and
never serves stale adjacency, (3) that an edge edit's patched view is
field-for-field the view a full relayout gives, and (4) that pickling
round-trips the compact array form the parallel workers receive.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph, csr_view, patch_csr_view
from repro.graph.typed_graph import PLAIN, EdgeKind, TypedGraph
from tests.conftest import random_typed_graph
from tests.oracles import ledger

SEEDS = st.integers(min_value=0, max_value=10_000)


def assert_csr_matches_graph(csr: CSRGraph, graph: TypedGraph) -> None:
    """The CSR view must encode exactly the graph's nodes, types, edges."""
    assert csr.num_nodes == graph.num_nodes
    assert set(csr.node_ids) == set(graph.nodes())
    assert csr.version == graph.version
    id_of = csr.id_of
    # type partitioning: every node's dense id falls inside its type range
    for name in graph.types:
        code = csr.type_id(name)
        lo, hi = csr.type_range(code)
        assert {csr.node_ids[i] for i in range(lo, hi)} == set(
            graph.nodes_of_type(name)
        )
    num_sigs = csr.num_sigs
    for node in graph.nodes():
        dense = id_of[node]
        row = csr.indices[csr.indptr[dense] : csr.indptr[dense + 1]]
        assert {csr.node_ids[v] for v in row} == set(graph.neighbors(node))
        # each (type, signature) block is sorted, holds exactly the
        # neighbours of that type over that signature, and its profile
        # entry counts them
        for name in graph.types:
            code = csr.type_id(name)
            for sig, signature in enumerate(csr.sig_names):
                block = csr.block(dense, code * num_sigs + sig)
                assert list(block) == sorted(block), "blocks must be sorted"
                assert {csr.node_ids[v] for v in block} == {
                    w
                    for w in graph.neighbors_of_type(node, name)
                    if graph.edge_signature(node, w) == signature
                }
                assert csr.profiles[dense, code * num_sigs + sig] == block.size
        # the blocks tile the row in order
        assert csr.block_ptr[dense, 0] == csr.indptr[dense]
        assert csr.block_ptr[dense, -1] == csr.indptr[dense + 1]


VIEW_FIELDS = (
    "version", "type_names", "type_start", "node_ids", "sig_names", "indptr",
    "indices", "block_ptr", "profiles", "edge_type_counts",
)


def assert_same_view(got: CSRGraph, want: CSRGraph) -> None:
    """Field by field, arrays with their dtypes."""
    for name in VIEW_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert isinstance(a, np.ndarray), name
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        else:
            assert a == b, name


def toggle_and_check(graph: TypedGraph, u, v, kind=PLAIN) -> bool:
    """Flip edge (u, v) as ``apply_delta`` does; True iff the view was patched."""
    csr_view(graph)
    if graph.has_edge(u, v):
        graph.remove_edge(u, v)
    else:
        graph.add_edge(u, v, kind)
    patch_csr_view(graph, u, v)
    patched = getattr(graph, "_csr_view_cache").version == graph.version
    assert_same_view(csr_view(graph), CSRGraph.from_graph(graph))
    return patched


class TestPatchedView:
    """An edge edit carries the cached view along, array-identical to a relayout."""

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_plain_edge_toggles(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        nodes = sorted(graph.nodes(), key=repr)
        for _ in range(12):
            u, v = rng.sample(nodes, 2)
            assert toggle_and_check(graph, u, v)

    def test_kinded_reactions_toggles(self):
        from repro.datasets.reactions import generate_reactions

        graph = generate_reactions(scale="tiny").graph
        assert graph.has_kinds
        rng = random.Random(3)
        patched = 0
        for u, v, kind in rng.sample(sorted(graph.edges_with_kinds(), key=repr), 12):
            patched += toggle_and_check(graph, u, v)  # remove
            patched += toggle_and_check(graph, u, v, kind)  # re-add, same kind
        assert patched > 0

    def test_new_signature_lays_out_in_full(self):
        from repro.datasets.reactions import generate_reactions

        graph = generate_reactions(scale="tiny").graph
        u, v = next(
            (a, b)
            for a in sorted(graph.nodes(), key=repr)
            for b in sorted(graph.nodes(), key=repr)
            if a != b and not graph.has_edge(a, b)
        )
        # a label the view has no signature code for, and then its removal
        # (the last edge of that signature): both change sig_names
        assert not toggle_and_check(graph, u, v, EdgeKind("novel", True))
        assert not toggle_and_check(graph, u, v)

    def test_first_and_last_kinded_edge_lay_out_in_full(self, toy_graph):
        u, v = "Kate", "Bob"
        assert not toy_graph.has_edge(u, v)
        assert not toggle_and_check(toy_graph, u, v, EdgeKind("knows", False))
        assert not toggle_and_check(toy_graph, u, v)
        assert toggle_and_check(toy_graph, u, v)  # plain again: patched

    def test_first_and_last_plain_edge_lay_out_in_full(self):
        # an edgeless graph has no signature, one edge has ("", 0)
        graph = TypedGraph()
        for node in ("a", "b", "c"):
            graph.add_node(node, "t")
        assert not toggle_and_check(graph, "a", "b")
        assert csr_view(graph).sig_names == (("", 0),)
        assert toggle_and_check(graph, "b", "c")  # a second edge: patched
        assert toggle_and_check(graph, "b", "c")
        assert not toggle_and_check(graph, "a", "b")
        assert csr_view(graph).sig_names == ()

    def test_stale_cache_is_left_alone(self, toy_graph):
        csr_view(toy_graph)
        toy_graph.add_node("Zoe", "user")
        toy_graph.add_edge("Zoe", "Kate")
        # two mutations since the cached view: no patch, full relayout
        patch_csr_view(toy_graph, "Zoe", "Kate")
        assert getattr(toy_graph, "_csr_view_cache").version != toy_graph.version
        assert_same_view(csr_view(toy_graph), CSRGraph.from_graph(toy_graph))


class TestLayout:
    @given(SEEDS)
    @settings(max_examples=20, deadline=None)
    def test_arrays_encode_the_graph(self, seed):
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        assert_csr_matches_graph(CSRGraph.from_graph(graph), graph)

    def test_empty_graph(self):
        csr = CSRGraph.from_graph(TypedGraph())
        assert csr.num_nodes == 0
        assert csr.num_types == 0

    def test_cardinalities_match_graph_statistics(self, toy_graph):
        from tests.oracles import GraphCardinalities

        reference = GraphCardinalities(toy_graph)
        stats = CSRGraph.from_graph(toy_graph)
        types = sorted(toy_graph.types) + ["ghost"]
        for a in types:
            assert stats.nodes_of(a) == reference.nodes_of(a)
            for b in types:
                assert stats.edges_of(a, b) == reference.edges_of(a, b)

    def test_has_edge(self, toy_graph):
        csr = CSRGraph.from_graph(toy_graph)
        id_of = csr.id_of
        kate = id_of["Kate"]
        # a plain graph's one signature: block c is the neighbours of type c
        assert csr.sig_names == (("", 0),)
        address = csr.block(kate, csr.type_id("address")).tolist()
        assert id_of["456 White St"] in address
        assert id_of["Bob"] not in csr.block(kate, csr.type_id("user")).tolist()

    def test_pickle_roundtrip_rebuilds_id_map(self, toy_graph):
        csr = CSRGraph.from_graph(toy_graph)
        clone = pickle.loads(pickle.dumps(csr))
        assert clone.node_ids == csr.node_ids
        assert clone.id_of == csr.id_of  # rebuilt lazily on the far side
        assert_csr_matches_graph(clone, toy_graph)


class TestViewCache:
    def test_view_is_cached_until_mutation(self, toy_graph):
        first = csr_view(toy_graph)
        assert csr_view(toy_graph) is first  # same version -> same object
        toy_graph.add_node("Zoe", "user")
        second = csr_view(toy_graph)
        assert second is not first
        assert second.version == toy_graph.version
        assert csr_view(toy_graph) is second

    def test_noop_mutation_keeps_the_view(self, toy_graph):
        toy_graph.add_node("Zoe", "user")
        first = csr_view(toy_graph)
        toy_graph.add_node("Zoe", "user")  # no-op: version unchanged
        assert csr_view(toy_graph) is first

    @given(SEEDS)
    @settings(max_examples=15, deadline=None)
    def test_view_tracks_random_direct_mutations(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=6, num_attrs_per_type=2)
        for step in range(8):
            edges = sorted(graph.edges(), key=repr)
            choice = rng.randrange(3)
            if choice == 0 and edges:
                graph.remove_edge(*rng.choice(edges))
            elif choice == 1:
                graph.add_node(("extra", seed, step), "user")
            else:
                users = sorted(graph.nodes_of_type("user"), key=repr)
                hobbies = sorted(graph.nodes_of_type("hobby"), key=repr)
                if users and hobbies:
                    u, h = rng.choice(users), rng.choice(hobbies)
                    if not graph.has_edge(u, h):
                        graph.add_edge(u, h)
            assert_csr_matches_graph(csr_view(graph), graph)


class TestViewCacheUnderApplyUpdates:
    """The facade's edit path must never leave a stale CSR behind."""

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_view_rebuilds_through_apply_updates(self, seed):
        from repro.index.delta import GraphDelta, apply_delta
        from repro.index.parallel import build_index
        from repro.metagraph.catalog import MetagraphCatalog
        from repro.metagraph.metagraph import metapath

        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=6, num_attrs_per_type=2)
        catalog = MetagraphCatalog(
            [metapath("user", "school", "user"), metapath("user", "hobby", "user")],
            anchor_type="user",
        )
        vectors, index = build_index(graph, catalog)
        before = csr_view(graph)
        edges = sorted(graph.edges(), key=repr)
        if not edges:
            return
        u, v = rng.choice(edges)
        apply_delta(
            graph,
            catalog,
            vectors,
            GraphDelta().remove_edge(u, v).add_edge(u, v),
            index=index,
        )
        after = csr_view(graph)
        assert after is not before  # two version bumps happened
        assert_csr_matches_graph(after, graph)
        # and the maintained counts still match a fresh compiled build
        fresh, _ = build_index(graph, catalog)
        assert ledger(vectors)[0] == ledger(fresh)[0]
        assert ledger(vectors)[1] == ledger(fresh)[1]

    @given(SEEDS)
    @settings(max_examples=10, deadline=None)
    def test_edge_edits_patch_the_view(self, seed):
        """Every edge edit of ``apply_delta`` patches the view it found."""
        from repro.index.delta import GraphDelta, apply_delta
        from repro.index.parallel import build_index
        from repro.metagraph.catalog import MetagraphCatalog
        from repro.metagraph.metagraph import metapath

        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=6, num_attrs_per_type=2)
        catalog = MetagraphCatalog(
            [metapath("user", "school", "user"), metapath("user", "hobby", "user")],
            anchor_type="user",
        )
        vectors, _ = build_index(graph, catalog)
        for _ in range(6):
            edges = sorted(graph.edges(), key=repr)
            if not edges:
                return
            u, v = rng.choice(edges)
            for delta in (GraphDelta().remove_edge(u, v), GraphDelta().add_edge(u, v)):
                before = csr_view(graph)
                apply_delta(graph, catalog, vectors, delta)
                # laid out by nobody: the cached view was carried across
                assert getattr(graph, "_csr_view_cache").version == graph.version
                assert csr_view(graph).id_of is before.id_of
                assert_same_view(csr_view(graph), CSRGraph.from_graph(graph))

    def test_direct_mutation_never_serves_stale_adjacency(self, toy_graph):
        before = csr_view(toy_graph)
        toy_graph.remove_edge("Kate", "456 White St")
        after = csr_view(toy_graph)
        id_of = after.id_of
        kate = id_of["Kate"]
        row = after.indices[after.indptr[kate] : after.indptr[kate + 1]]
        assert id_of["456 White St"] not in set(row.tolist())
        assert before is not after
