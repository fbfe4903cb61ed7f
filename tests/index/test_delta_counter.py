"""The delta path counts with the offline build's counter.

:func:`repro.index.instance_index.count_embeddings` is the one Eq. 1–2
counter: the offline build feeds it a whole metagraph's embedding
matrix, the delta path the concatenated pinned matrices of every
admissible pin set.  This suite checks the delta side's per-metagraph
counts against the streamed ``Instance`` counter in
``tests/oracles.py`` over the same pin sets (pin sets that overlap
reach the same instance twice, and must count it once), checks
``DeltaStats`` against a full re-enumeration, and pins that a store and
index that disagree are rejected before the first edit.
"""

from __future__ import annotations

import random
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.exceptions import CatalogMismatchError
from repro.graph.csr import csr_view
from repro.index.delta import (
    GraphDelta,
    _enumerate_for_edge,
    _enumerate_for_node,
    affected_region,
    apply_delta,
    catalog_radius,
)
from repro.index.instance_index import count_embeddings
from repro.index.parallel import build_index
from repro.matching import SymISOMatcher, deduplicate_instances, find_instances
from repro.matching.compiled import compiled_pinned_matrix
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.symmetry import anchor_symmetric_pairs
from repro.mining import MinerConfig, mine_catalog
from tests.conftest import random_typed_graph
from tests.index.test_delta import ADVERSARIAL_IDS, make_graph, random_delta
from tests.matching.test_cross_matcher_parity import random_pattern
from tests.oracles import DictCounts, count_instances_into, ledger, pinned_embeddings

SEEDS = st.integers(min_value=0, max_value=10_000)


def delta_catalog() -> MetagraphCatalog:
    """Symmetric patterns plus asymmetric ones with two same-type nodes.

    In ``user-user-school`` the two users are not symmetric, so a node
    or edge edit reaches its instances only through the *other* pin
    sets: counting just one pin set's matrix would miss them.
    """
    return MetagraphCatalog(
        [
            metapath("user", "school", "user"),
            metapath("user", "hobby", "user"),
            metapath("user", "user"),
            Metagraph(
                ["user", "school", "hobby", "user"],
                [(0, 1), (0, 2), (3, 1), (3, 2)],
            ),
            Metagraph(["user", "user", "school"], [(0, 1), (0, 2), (1, 2)]),
            metapath("user", "school"),
            metapath("user", "user", "school"),
            metapath("user", "school", "user", "hobby"),
        ],
        anchor_type="user",
    )


def node_pin_sets(node_type, node):
    return lambda metagraph: [{p: node} for p in metagraph.nodes_of_type(node_type)]


def edge_pin_sets(graph, u, v):
    """The admissible pin pairs for ``(u, v)``, as the delta path picks them.

    Symmetric patterns make them overlap: ``{a: u, b: v}`` and
    ``{b: u, a: v}`` reach the same instances.
    """
    type_u, type_v, adjacent = graph.node_type(u), graph.node_type(v), graph.has_edge(u, v)
    return lambda metagraph: [
        {p_u: u, p_v: v}
        for p_u in metagraph.nodes_of_type(type_u)
        for p_v in metagraph.nodes_of_type(type_v)
        if p_u != p_v and metagraph.has_edge(p_u, p_v) == adjacent
    ]


def oracle_counts(graph, metagraph, anchor_type, pin_sets, region):
    """The streamed reference: dict embeddings -> Instances -> Counters."""
    counts = DictCounts()
    count_instances_into(
        counts,
        deduplicate_instances(
            chain.from_iterable(
                pinned_embeddings(graph, metagraph, pins, region=region)
                for pins in pin_sets
            )
        ),
        anchor_symmetric_pairs(metagraph, anchor_type),
    )
    return counts


def in_dict_form(found) -> dict:
    """Per metagraph, ``(|I(M)|, {node: count}, {pair: count})``."""
    return {mg_id: (counts.num_instances, *ledger(counts)) for mg_id, counts in found.items()}


def oracle_found(graph, catalog, seeds, pin_sets_of) -> dict[int, DictCounts]:
    """Per metagraph, the oracle counts of every instance a pin set reaches."""
    region = affected_region(graph, seeds, catalog_radius(catalog))
    found = {}
    for mg_id in catalog.ids():
        metagraph = catalog[mg_id]
        counts = oracle_counts(
            graph, metagraph, catalog.anchor_type, pin_sets_of(metagraph), region
        )
        if counts.num_instances:
            found[mg_id] = counts
    return found


def assert_pinned_parity(graph, catalog, nodes, pairs) -> int:
    """The delta path's counts equal the oracle's; returns instances seen."""
    radius = catalog_radius(catalog)
    ids = list(catalog.ids())
    seen = 0
    for node in nodes:
        got = _enumerate_for_node(graph, catalog, ids, node, radius)
        pins = node_pin_sets(graph.node_type(node), node)
        assert in_dict_form(got) == in_dict_form(
            oracle_found(graph, catalog, [node], pins)
        ), node
        seen += sum(c.num_instances for c in got.values())
    for u, v in pairs:
        adjacent = graph.has_edge(u, v)
        got = _enumerate_for_edge(graph, catalog, ids, u, v, adjacent, radius)
        assert in_dict_form(got) == in_dict_form(
            oracle_found(graph, catalog, [u, v], edge_pin_sets(graph, u, v))
        ), (u, v)
        seen += sum(c.num_instances for c in got.values())
    return seen


def sample_pairs(graph, rng, k) -> list[tuple]:
    """``k`` edges plus ``k`` same-type-or-not non-edges, deterministic."""
    nodes = sorted(graph.nodes(), key=repr)
    edges = sorted(graph.edges(), key=repr)
    pairs = rng.sample(edges, min(k, len(edges)))
    for _ in range(k):
        u, v = rng.sample(nodes, 2)
        pairs.append((u, v))
    return pairs


class TestPinnedCountParity:
    @given(SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_random_plain_graphs(self, seed):
        rng = random.Random(seed)
        graph = random_typed_graph(seed, num_users=8, num_attrs_per_type=3)
        catalog = MetagraphCatalog([], anchor_type="user")
        for _ in range(2):
            catalog.add_if_new(random_pattern(rng))
        nodes = rng.sample(sorted(graph.nodes(), key=repr), 4)
        assert_pinned_parity(graph, catalog, nodes, sample_pairs(graph, rng, 4))

    def test_overlapping_pin_sets_count_each_instance_once(self):
        graph = make_graph(3)
        catalog = delta_catalog()
        u, v = next(
            (a, b)
            for a, b in sorted(graph.edges(), key=repr)
            if graph.node_type(a) == graph.node_type(b) == "user"
        )
        friend = catalog[2]  # user-user: both pin orders reach one instance
        pin_sets = edge_pin_sets(graph, u, v)(friend)
        matrices = [compiled_pinned_matrix(graph, friend, pins) for pins in pin_sets]
        assert [m.shape[0] for m in matrices] == [1, 1]
        counts = count_embeddings(
            csr_view(graph), np.concatenate(matrices), anchor_symmetric_pairs(friend, "user")
        )
        assert counts.num_instances == 1
        expected = in_dict_form({2: oracle_counts(graph, friend, "user", pin_sets, None)})
        assert in_dict_form({2: counts}) == expected
        radius = catalog_radius(catalog)
        assert in_dict_form(_enumerate_for_edge(graph, catalog, [2], u, v, True, radius)) == expected

    def test_kinded_reactions(self):
        dataset = load_dataset("reactions", scale="tiny")
        graph = dataset.graph
        catalog = mine_catalog(
            graph, MinerConfig(max_nodes=4, min_support=2), anchor_type=dataset.anchor_type
        )
        assert graph.has_kinds and len(catalog) > 0
        rng = random.Random(0)
        nodes = rng.sample(sorted(graph.nodes(), key=repr), 6)
        seen = assert_pinned_parity(graph, catalog, nodes, sample_pairs(graph, rng, 6))
        assert seen > 0

    @pytest.mark.parametrize("kind", sorted(ADVERSARIAL_IDS))
    def test_adversarial_ids(self, kind):
        graph = make_graph(1, ids=ADVERSARIAL_IDS[kind])
        rng = random.Random(1)
        users = sorted(graph.nodes_of_type("user"), key=repr)
        seen = assert_pinned_parity(
            graph, delta_catalog(), rng.sample(users, 4), sample_pairs(graph, rng, 5)
        )
        assert seen > 0


def containing(graph, metagraph, nodes) -> int:
    """Instances holding every node of ``nodes``, by full re-enumeration."""
    return sum(
        1
        for inst in find_instances(SymISOMatcher(), graph, metagraph)
        if nodes <= inst.nodes
    )


class TestDeltaStats:
    @pytest.mark.parametrize("seed", range(3))
    def test_instance_totals_match_full_enumeration(self, seed):
        catalog = delta_catalog()
        graph = make_graph(seed)
        shadow = make_graph(seed)
        vectors, index = build_index(graph, catalog)
        delta = random_delta(graph, random.Random(seed + 100))
        retired = added = 0
        for edit in delta:
            if edit.op == "add_node":
                shadow.add_node(edit.u, edit.node_type)
                added += sum(containing(shadow, m, {edit.u}) for m in catalog)
            elif edit.op == "remove_node":
                retired += sum(containing(shadow, m, {edit.u}) for m in catalog)
                shadow.remove_node(edit.u)
            else:
                ends = {edit.u, edit.v}
                retired += sum(containing(shadow, m, ends) for m in catalog)
                if edit.op == "add_edge":
                    shadow.add_edge(edit.u, edit.v, edit.kind)
                else:
                    shadow.remove_edge(edit.u, edit.v)
                added += sum(containing(shadow, m, ends) for m in catalog)
        stats = apply_delta(graph, catalog, vectors, delta, index=index)
        assert stats.edits_applied == len(delta)
        assert (stats.instances_retired, stats.instances_added) == (retired, added)
        assert retired > 0 and added > 0


class TestStoreIndexAgreement:
    def test_disagreeing_index_rejected_before_the_first_edit(
        self, toy_graph, toy_metagraphs
    ):
        graph = toy_graph
        catalog = MetagraphCatalog(toy_metagraphs.values(), anchor_type="user")
        vectors, _ = build_index(graph, catalog)
        _, partial_index = build_index(graph, catalog, mg_ids=[0])
        u, v = "Kate", "456 White St"  # in M3 instances (id 2), unmatched here
        edges, version = sorted(graph.edges(), key=repr), graph.version
        before = vectors.compile()
        compiled = vectors.compile()
        totals = {m: partial_index.num_instances(m) for m in partial_index.matched_ids()}
        log: list = []
        with pytest.raises(CatalogMismatchError, match="index records"):
            apply_delta(
                graph,
                catalog,
                vectors,
                GraphDelta().remove_edge(u, v),
                index=partial_index,
                on_edit=log.append,
            )
        assert sorted(graph.edges(), key=repr) == edges
        assert graph.version == version
        assert vectors.compile() is before
        assert vectors.compile() is compiled
        assert {
            m: partial_index.num_instances(m) for m in partial_index.matched_ids()
        } == totals
        assert log == []
