"""Context-aware citation search (the paper's second motivating scenario).

"Given a paper as the query, which citations addressed the same core
problem?  Which are simply background?"  Each context is a semantic
class between *paper* nodes — demonstrating that the framework is not
user-specific: here ``anchor_type="paper"``.

We synthesise a citation HIN (papers, authors, venues, keywords), plant
two classes —

- **same-problem**: papers sharing a keyword AND a venue
  (the same community attacking the same topic);
- **same-group**: papers sharing an author (lab lineage / background
  citations);

— then learn each class supervised and show that the learned
characteristic metagraphs differ accordingly.

Run:  python examples/citation_contexts.py
"""

import random

from repro.datasets.base import LabeledGraphDataset, symmetric_labels
from repro.datasets.synthetic import (
    attach_group_attribute,
    pairs_sharing,
    partition_into_groups,
)
from repro.eval.harness import evaluate_ranker, model_ranker
from repro.eval.splits import split_queries
from repro.graph.builder import GraphBuilder
from repro.index.parallel import build_index
from repro.learning.examples import generate_triplets
from repro.learning.model import ProximityModel
from repro.learning.trainer import Trainer, TrainerConfig
from repro.mining import MinerConfig, mine_catalog


def build_citation_dataset(num_papers: int = 80, seed: int = 42) -> LabeledGraphDataset:
    """A seeded citation heterogeneous information network."""
    rng = random.Random(seed)
    builder = GraphBuilder(name="citations")
    papers = [f"paper{i}" for i in range(num_papers)]
    for paper in papers:
        builder.node(paper, "paper")

    # research groups: shared authors across a lab's papers
    groups = partition_into_groups(papers, 3, 6, rng)
    attach_group_attribute(builder, groups, "author", "author", rng, 0.9)

    # topics: keyword communities, venue-correlated
    topics = partition_into_groups(papers, 4, 8, rng)
    attach_group_attribute(builder, topics, "keyword", "kw", rng, 0.9)
    venues = [f"venue{i}" for i in range(6)]
    for venue in venues:
        builder.node(venue, "venue")
    for topic_index, topic in enumerate(topics):
        home_venue = venues[topic_index % len(venues)]
        for paper in topic:
            venue = home_venue if rng.random() < 0.75 else rng.choice(venues)
            if not builder.graph.has_edge(paper, venue):
                builder.edge(paper, venue)

    graph = builder.build()
    labels = {
        "same-problem": symmetric_labels(
            pairs_sharing(graph, "paper", "keyword", ("venue",))
        ),
        "same-group": symmetric_labels(
            pairs_sharing(graph, "paper", "author", ("author",))
        ),
    }
    return LabeledGraphDataset(
        name="citations", graph=graph, anchor_type="paper", labels=labels
    )


def main() -> None:
    dataset = build_citation_dataset()
    print(f"Citation graph: {dataset.graph}")

    catalog = mine_catalog(
        dataset.graph,
        MinerConfig(max_nodes=4, min_support=3),
        anchor_type="paper",
    )
    print(f"Catalog: {catalog}")
    vectors, _index = build_index(dataset.graph, catalog)
    trainer = Trainer(TrainerConfig(restarts=3, max_iterations=400, seed=0))

    for context in dataset.classes:
        labels = dataset.class_labels(context)
        split = split_queries(dataset.queries(context), 0.2, 1, seed=1)[0]
        triplets = generate_triplets(
            split.train, labels, dataset.universe, num_examples=200, seed=1
        )
        weights = trainer.train(triplets, vectors)
        model = ProximityModel(weights, vectors, name=context)
        quality = evaluate_ranker(
            model_ranker(model, dataset.universe), split.test, labels, k=10
        )
        print(f"\n=== context: {context} ===")
        print(f"  NDCG@10={quality.ndcg:.3f}  MAP@10={quality.map:.3f}")
        print("  characteristic metagraphs:")
        for mg_id, weight in model.top_metagraphs(k=3):
            if weight > 0.05:
                print(f"    w={weight:.2f}  {catalog[mg_id]!r}")
        query = split.test[0]
        ranked = model.rank(query, k=3)
        print(f"  e.g. {query} -> {[node for node, _s in ranked]}")


if __name__ == "__main__":
    main()
