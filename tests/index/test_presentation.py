"""Presentation invariance of the catalog and the Eq. 1–2 counts (ROADMAP item 14).

The mined catalog and the counts depend on the graph's structure and
labels, never on what the nodes are called or in which order nodes and
edges were added.  So relabelling every node through a random bijection
(int, str, tuple or mixed ids) and re-adding nodes and edges in a
random order must give

- the original's mining run: its patterns' canonical forms in order,
  their supports, ``candidates_tested`` and ``budget_hits``, and the
  catalog built from them;
- every ``|I(M)|``, ``m_x`` and ``m_xy`` of the original, mapped through
  the bijection — after the build and after one randomized
  :class:`GraphDelta` mapped the same way.  The store turns node ids
  into rows, so this is where a presentation leak would show.
"""

from __future__ import annotations

import random
from functools import lru_cache

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.graph.typed_graph import TypedGraph
from repro.index.delta import GraphDelta, apply_delta
from repro.index.parallel import build_index
from repro.metagraph.canonical import canonical_form
from repro.mining import GramiMiner, MinerConfig, build_catalog
from tests.oracles import ledger, pair_key

DATASETS = ("toy", "linkedin", "reactions")
ID_KINDS = ("int", "str", "tuple", "mixed")
NEWCOMER = ("newcomer",)
CONFIG = MinerConfig(max_nodes=4, min_support=2)


def mined(graph: TypedGraph, anchor_type: str) -> tuple:
    """What mining ``graph`` reports, as comparable values, and its catalog."""
    result = GramiMiner(CONFIG).mine(graph)
    catalog = build_catalog(result.patterns, anchor_type=anchor_type, max_nodes=CONFIG.max_nodes)
    report = (
        [canonical_form(m) for m in result.patterns],
        result.supports,
        result.candidates_tested,
        result.budget_hits,
        [canonical_form(catalog[mg_id]) for mg_id in catalog.ids()],
    )
    return report, catalog


@lru_cache(maxsize=None)
def original(name: str):
    """A tiny dataset graph, its mining report and catalog (shared, never mutated)."""
    dataset = load_dataset(name, scale="tiny")
    return dataset.graph, *mined(dataset.graph, dataset.anchor_type)


def bijection(nodes, kind: str, rng: random.Random) -> dict:
    """A random injective relabelling of ``nodes`` into ids of ``kind``."""
    shuffled = list(nodes)
    rng.shuffle(shuffled)
    names = {}
    for i, node in enumerate(shuffled):
        form = kind if kind != "mixed" else rng.choice(ID_KINDS[:3])
        names[node] = {"int": i, "str": str(i), "tuple": ("t", i)}[form]
    return names


def present(graph: TypedGraph, names: dict, rng: random.Random) -> TypedGraph:
    """``graph`` relabelled, its nodes and edges added in a random order."""
    shown = TypedGraph(name=graph.name)
    nodes = list(graph.nodes())
    rng.shuffle(nodes)
    for node in nodes:
        shown.add_node(names[node], graph.node_type(node))
    edges = list(graph.edges_with_kinds())
    rng.shuffle(edges)
    for u, v, kind in edges:
        if not kind.directed and rng.random() < 0.5:
            u, v = v, u
        shown.add_edge(names[u], names[v], kind)
    return shown


def random_edits(graph: TypedGraph, rng: random.Random) -> list[tuple]:
    """Edits touching every mutation kind, as ``GraphDelta`` method calls."""
    edges = sorted(graph.edges_with_kinds(), key=repr)
    (u1, v1, k1), (u2, v2, _), (u3, v3, k3) = rng.sample(edges, 3)
    victim = rng.choice(sorted((n for n in graph.nodes() if n != v3), key=repr))
    return [
        ("remove_edge", u1, v1),
        ("remove_edge", u2, v2),
        ("add_edge", u1, v1, k1),
        ("add_node", NEWCOMER, graph.node_type(u3)),
        ("add_edge", NEWCOMER, v3, k3),
        ("remove_node", victim),
    ]


def as_delta(edits: list[tuple], names: dict) -> GraphDelta:
    delta = GraphDelta()
    for op, *args in edits:
        if op == "add_node":
            getattr(delta, op)(names[args[0]], args[1])
        else:
            getattr(delta, op)(*(names[a] for a in args[:2]), *args[2:])
    return delta


def assert_mapped(built, shown, names: dict) -> None:
    """``shown``'s counts are ``built``'s, node ids mapped through ``names``."""
    (vectors, index), (shown_vectors, shown_index) = built, shown
    nodes, pairs = ledger(vectors)
    shown_nodes, shown_pairs = ledger(shown_vectors)
    assert shown_nodes == {names[x]: row for x, row in nodes.items()}
    assert shown_pairs == {
        pair_key(names[x], names[y]): row for (x, y), row in pairs.items()
    }
    assert shown_index.matched_ids() == index.matched_ids()
    for mg_id in index.matched_ids():
        assert shown_index.num_instances(mg_id) == index.num_instances(mg_id)


@given(
    name=st.sampled_from(DATASETS),
    kind=st.sampled_from(ID_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=24, deadline=None)
def test_catalog_follows_any_relabelling_and_insertion_order(name, kind, seed):
    base, report, catalog = original(name)
    rng = random.Random(seed)
    names = bijection(base.nodes(), kind, rng)
    shown_report, _ = mined(present(base, names, rng), catalog.anchor_type)
    assert shown_report == report


@given(
    name=st.sampled_from(DATASETS),
    kind=st.sampled_from(ID_KINDS),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=24, deadline=None)
def test_counts_follow_any_relabelling_and_insertion_order(name, kind, seed):
    base, _, catalog = original(name)
    graph = base.copy()
    rng = random.Random(seed)
    names = bijection([*graph.nodes(), NEWCOMER], kind, rng)
    shown_graph = present(graph, names, rng)

    built = build_index(graph, catalog)
    shown = build_index(shown_graph, catalog)
    assert_mapped(built, shown, names)

    edits = random_edits(graph, rng)
    apply_delta(graph, catalog, built[0], as_delta(edits, dict(zip(names, names))), index=built[1])
    apply_delta(shown_graph, catalog, shown[0], as_delta(edits, names), index=shown[1])
    assert_mapped(built, shown, names)
