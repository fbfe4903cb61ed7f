"""Ablation benches for the design choices DESIGN.md calls out.

1. **Instance semantics** — Def. 2's induced instances (node sets)
   vs raw embedding enumeration: instances are never more numerous, and
   the counting layer must cost only the dedup overhead.
2. **Matching order** — the paper's f(M) estimated-cost order vs the
   rarest-type static order vs random (SymISO vs SymISO-R isolates this
   inside one engine).
3. **Count transform** — identity vs log1p vectors: same sparsity, same
   ranking machinery, different damping.
"""

import pytest

from repro.index.transform import identity, log1p
from repro.index.parallel import build_index
from repro.graph.csr import csr_view
from repro.matching import MatchPlan, SymISOMatcher, backtrack_embeddings
from repro.matching.base import deduplicate_instances
from repro.matching.ordering import estimated_cost_order, rarest_type_order


def cost_order(graph, metagraph):
    return estimated_cost_order(metagraph, csr_view(graph))


@pytest.fixture(scope="module")
def workload(runner):
    phase = runner.offline("linkedin")
    largest = max(m.size for m in phase.catalog)
    metagraphs = [m for m in phase.catalog if m.size == largest]
    return phase, phase.dataset.graph, metagraphs


class TestInstanceSemanticsAblation:
    def test_bench_embedding_enumeration(self, benchmark, workload):
        _phase, graph, metagraphs = workload
        engine = SymISOMatcher()

        def embeddings():
            return sum(
                1
                for m in metagraphs
                for _ in engine.find_embeddings(graph, m)
            )

        count = benchmark(embeddings)
        assert count >= 0

    def test_bench_instance_dedup(self, benchmark, workload):
        _phase, graph, metagraphs = workload
        engine = SymISOMatcher()

        def instances():
            return sum(
                1
                for m in metagraphs
                for _ in deduplicate_instances(engine.find_embeddings(graph, m))
            )

        count = benchmark(instances)
        assert count >= 0


class TestOrderingAblation:
    @pytest.mark.parametrize("order_name", ["estimated", "rarest"])
    def test_bench_order(self, benchmark, workload, order_name):
        _phase, graph, metagraphs = workload
        order_fn = (
            cost_order if order_name == "estimated" else rarest_type_order
        )

        def match_all():
            total = 0
            for m in metagraphs:
                plan = MatchPlan(
                    m, order_fn(graph, m), induced=True, fixed=None
                )
                total += sum(1 for _ in backtrack_embeddings(graph, plan))
            return total

        total = benchmark(match_all)
        assert total >= 0


class TestTransformAblation:
    @pytest.mark.parametrize("transform", [identity, log1p], ids=["identity", "log1p"])
    def test_bench_vector_build(self, benchmark, workload, transform):
        phase, graph, _metagraphs = workload
        catalog = phase.catalog
        seed_ids = list(catalog.metapath_ids())

        def build():
            vectors, _index = build_index(
                graph, catalog, mg_ids=seed_ids, transform=transform
            )
            return vectors

        vectors = benchmark(build)
        assert vectors.matched_ids == frozenset(seed_ids)
