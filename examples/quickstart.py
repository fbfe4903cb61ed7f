"""Quickstart: the paper's toy example (Fig. 1-2) end to end.

Builds the Fig. 1 social network, defines the Fig. 2 metagraphs,
computes metagraph vectors (Eq. 1-2), and shows how different
characteristic weights w turn the *same* MGP family (Def. 3) into
different semantic classes of proximity: classmate, close friend,
family.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.datasets.toy import toy_graph, toy_metagraphs
from repro.index.parallel import build_index
from repro.learning.model import ProximityModel
from repro.metagraph.catalog import MetagraphCatalog

USERS = ["Alice", "Bob", "Kate", "Jay", "Tom"]


def main() -> None:
    graph = toy_graph()
    print(f"Toy graph: {graph}")

    # The Fig. 2 metagraphs: M1 classmate, M2/M3 close friend, M4 family.
    catalog = MetagraphCatalog(toy_metagraphs().values(), anchor_type="user")
    print(f"Catalog: {catalog}\n")

    # Offline phase: match every metagraph and index the vectors.
    vectors, index = build_index(graph, catalog)
    for mg_id in catalog.ids():
        print(
            f"  {catalog[mg_id].name}: {index.num_instances(mg_id)} instances"
        )

    # Sect. III-A's example weights: each class is one weight vector.
    class_weights = {
        "classmate": [0.9, 0.0, 0.0, 0.0],
        "close friend": [0.0, 0.6, 0.4, 0.0],
        "family": [0.0, 0.0, 0.0, 0.8],
    }
    for class_name, weights in class_weights.items():
        model = ProximityModel(np.array(weights), vectors, name=class_name)
        print(f"\n=== {class_name} ===")
        for query in ("Kate", "Bob"):
            ranking = model.rank(query, universe=USERS, k=3)
            shown = ", ".join(
                f"{node} ({score:.2f})" for node, score in ranking if score > 0
            )
            print(f"  {query} -> {shown or '(no one)'}")

    # Expected (Fig. 1b): Kate's classmates = Jay; Kate's close friends =
    # Alice and Jay; Bob's family = Alice.


if __name__ == "__main__":
    main()
