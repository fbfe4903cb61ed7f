"""Fig. 11: average matching time per metagraph, by metagraph size.

Compares the five engines — SymISO, SymISO-R, BoostISO, TurboISO,
QuickSI — on metagraphs of 3, 4 and 5 nodes drawn from each dataset's
catalog.  Timing covers the full instance computation (embedding
enumeration plus instance deduplication), matching the paper's "time
per metagraph".

Shape to reproduce: SymISO fastest (paper: 52% below the best baseline
on average, with the margin growing with metagraph size) and clearly
faster than SymISO-R (the matching order matters, ~45%).
"""

from __future__ import annotations

import time

from repro.experiments.config import ExperimentConfig
from repro.experiments.reporting import format_table
from repro.experiments.runner import OfflineRunner
from repro.matching import ALL_ENGINES
from repro.matching.base import deduplicate_instances

ENGINE_ORDER = ("SymISO", "SymISO-R", "BoostISO", "TurboISO", "QuickSI")


def sample_by_size(catalog, per_size: int) -> dict[int, list[int]]:
    """Up to ``per_size`` metagraph ids per node-count bucket (3..5)."""
    buckets: dict[int, list[int]] = {}
    for mg_id in catalog.ids():
        size = catalog[mg_id].size
        bucket = buckets.setdefault(size, [])
        if len(bucket) < per_size:
            bucket.append(mg_id)
    return {size: ids for size, ids in sorted(buckets.items()) if size >= 3}


def time_engine(
    engine_name: str, graph, metagraph, repeats: int = 1
) -> tuple[float, int]:
    """(best-of-``repeats`` seconds, |I(M)|) for one engine on one metagraph.

    Wall-clock noise only ever *adds* time, so the minimum over repeats
    is the most faithful estimate of an engine's cost.
    """
    engine = ALL_ENGINES[engine_name]()
    best = float("inf")
    count = 0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        count = sum(
            1
            for _ in deduplicate_instances(
                engine.find_embeddings(graph, metagraph)
            )
        )
        best = min(best, time.perf_counter() - start)
    return best, count


def run_dataset(runner: OfflineRunner, dataset_name: str) -> list[dict]:
    """Fig. 11 rows (per size bucket) for one dataset."""
    config = runner.config
    phase = runner.offline(dataset_name)
    graph = phase.dataset.graph
    samples = sample_by_size(phase.catalog, config.fig11_per_size)
    rows = []
    for size, mg_ids in samples.items():
        row: dict[str, object] = {
            "dataset": dataset_name,
            "|V_M|": size,
            "#metagraphs": len(mg_ids),
        }
        counts: dict[str, list[int]] = {}
        per_metagraph_ms: dict[str, list[float]] = {}
        for engine_name in ENGINE_ORDER:
            counts[engine_name] = []
            per_metagraph_ms[engine_name] = []
            for mg_id in mg_ids:
                seconds, count = time_engine(
                    engine_name,
                    graph,
                    phase.catalog[mg_id],
                    repeats=config.fig11_repeats,
                )
                per_metagraph_ms[engine_name].append(1000 * seconds)
                counts[engine_name].append(count)
            row[f"{engine_name} (ms)"] = round(
                sum(per_metagraph_ms[engine_name]) / len(mg_ids), 2
            )
        # engines must agree on |I(M)| — a cheap cross-check in the report
        reference = counts["QuickSI"]
        row["engines agree"] = all(c == reference for c in counts.values())
        # raw per-metagraph ids, counts and timings (underscore keys are
        # dropped from the rendered table): acceptance checks pin the
        # counts and compare robust timing medians
        row["_mg_ids"] = mg_ids
        row["_counts"] = counts
        row["_per_metagraph_ms"] = per_metagraph_ms
        rows.append(row)
    return rows


def run(config: ExperimentConfig, runner: OfflineRunner | None = None) -> list[dict]:
    """All Fig. 11 rows."""
    runner = runner or OfflineRunner(config)
    rows: list[dict] = []
    for dataset_name in ("linkedin", "facebook"):
        rows.extend(run_dataset(runner, dataset_name))
    return rows


def main(config: ExperimentConfig, runner: OfflineRunner | None = None) -> str:
    """Render Fig. 11."""
    rows = [
        {k: v for k, v in row.items() if not k.startswith("_")}
        for row in run(config, runner)
    ]
    return format_table(
        rows,
        title="Fig. 11: average matching time per metagraph "
        "(SymISO expected fastest; gap grows with |V_M|)",
    )
