"""Seeded inputs of the benchmark: two datasets and three request streams.

Everything the program is handed is made here, in the harness process,
from ``--seed``: the same seed gives the same inputs.

*wide* (3 000 users, patterns up to 4 nodes) passes the seed straight to
the repo's LinkedIn-like generator: another seed is another graph.  At
that size the costs the benchmark reports vary by a few percent between
seeds.

*deep* (300 users, patterns up to 5 nodes) cannot do that: on a graph
this small the mined catalog and the matching cost swing with the
topology (13.4 s to 19.0 s for one build over generator seeds 1-3), and
even an isomorphic relabelling moves the miner's early-exit support
test by seconds (3.3 s to 5.5 s), more than any regression bound.  It
is therefore one fixed graph; on the offline workloads the seed picks
only the requests the correctness gate and the ladder replay.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.datasets.base import LabeledGraphDataset
from repro.datasets.linkedin import LinkedInConfig, generate_linkedin
from repro.mining import MinerConfig

#: the generator seed of the fixed-topology dataset
TOPOLOGY_SEED = 7
CLASSES = ("college", "coworker")
K_CHOICES = (5, 10, 20)
BATCH = 64
ZIPF_A = 1.2
#: one operation of a request stream: (class, queries, k)
Request = tuple[str, list[str], int]


@dataclass(frozen=True)
class DatasetSpec:
    num_users: int
    max_nodes: int
    min_support: int
    seeded_topology: bool

    @property
    def miner_config(self) -> MinerConfig:
        return MinerConfig(max_nodes=self.max_nodes, min_support=self.min_support)


DATASETS = {
    "deep": DatasetSpec(300, 5, 8, seeded_topology=False),
    "wide": DatasetSpec(3000, 4, 8, seeded_topology=True),
}
#: `--smoke`: the same shapes, small enough for a whole run in seconds
SMOKE_DATASETS = {
    "deep": DatasetSpec(60, 5, 8, seeded_topology=False),
    "wide": DatasetSpec(200, 4, 8, seeded_topology=True),
}


def make_dataset(spec: DatasetSpec, seed: int) -> LabeledGraphDataset:
    topology = seed if spec.seeded_topology else TOPOLOGY_SEED
    return generate_linkedin(LinkedInConfig(num_users=spec.num_users, seed=topology))


def users_of(dataset: LabeledGraphDataset) -> list[str]:
    """Anchor nodes in a seed-independent order (the Zipf rank order)."""
    return sorted(dataset.graph.nodes_of_type(dataset.anchor_type), key=lambda u: int(u[1:]))


STREAMS = {"zipf": 1, "uniform": 2, "batch": 3}


def _rng(seed: int, stream: str, client: int) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream], client])


def _chunks(draw, seed: int, stream: str, client: int) -> Iterator:
    """An endless stream, drawn a chunk at a time from one seeded generator."""
    rng = _rng(seed, stream, client)
    while True:
        yield from draw(rng, 256)


def zipf_stream(users: list[str], seed: int, client: int) -> Iterator[Request]:
    """(class, [query], k) singles; rank r of Zipf(1.2) is user r-1."""

    def draw(rng, n):
        return [("college", [users[int(r - 1) % len(users)]], 10) for r in rng.zipf(ZIPF_A, n)]

    return _chunks(draw, seed, "zipf", client)


def uniform_stream(users: list[str], seed: int, client: int) -> Iterator[Request]:
    """(class, [query], k) singles, uniform over users x classes x k."""

    def draw(rng, n):
        picks = zip(
            rng.integers(len(users), size=n),
            rng.integers(len(CLASSES), size=n),
            rng.integers(len(K_CHOICES), size=n),
        )
        return [(CLASSES[c], [users[u]], K_CHOICES[k]) for u, c, k in picks]

    return _chunks(draw, seed, "uniform", client)


def batch_stream(users: list[str], seed: int, client: int) -> Iterator[Request]:
    """(class, 64 uniform users, k) batches."""

    def draw(rng, n):
        picks = rng.integers(len(users), size=(n, BATCH))
        return [("college", [users[u] for u in row], 10) for row in picks]

    return _chunks(draw, seed, "batch", client)


def toggle_edges(dataset: LabeledGraphDataset, seed: int, n: int) -> list[tuple[str, str]]:
    """Edges to remove and re-add, drawn without replacement."""
    edges = sorted(dataset.graph.edges(), key=repr)
    return random.Random(seed).sample(edges, min(n, len(edges)))
