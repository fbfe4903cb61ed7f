"""Bench for Fig. 11: per-engine matching time.

This is the harness's only *true* pytest-benchmark comparison: each of
the five engines is benchmarked on the same workload (every catalog
metagraph of the largest size on the tiny LinkedIn graph), so
``--benchmark-only`` output reproduces the Fig. 11 bar group directly —
compare the five ``test_bench_engine[...]`` rows.
"""

import hashlib
import json
import os
import statistics

import pytest

from repro.experiments import fig11
from repro.matching import ALL_ENGINES
from repro.matching.base import deduplicate_instances

ENGINES = ("SymISO", "SymISO-R", "BoostISO", "TurboISO", "QuickSI")

#: sha256 of every row's dataset, |V_M|, sampled metagraph ids,
#: per-engine per-metagraph |I(M)| lists and "engines agree" at the
#: quick scale; re-pin only on purpose, with the reason in CHANGES.md
FIG11_COUNTS_SHA256 = (
    "30c579b2d4ceafb6d65ebcd0f433b504a583583e50d1720f032f0076da8fc367"
)


def fig11_counts_digest(rows) -> str:
    payload = [
        [
            row["dataset"],
            row["|V_M|"],
            row["_mg_ids"],
            [row["_counts"][name] for name in fig11.ENGINE_ORDER],
            row["engines agree"],
        ]
        for row in rows
    ]
    return hashlib.sha256(json.dumps(payload).encode()).hexdigest()


@pytest.fixture(scope="module")
def workload(runner):
    phase = runner.offline("linkedin")
    largest = max(m.size for m in phase.catalog)
    metagraphs = [m for m in phase.catalog if m.size == largest]
    return phase.dataset.graph, metagraphs


@pytest.mark.parametrize("engine_name", ENGINES)
def test_bench_engine(benchmark, workload, engine_name):
    graph, metagraphs = workload
    engine = ALL_ENGINES[engine_name]()

    def match_all():
        total = 0
        for metagraph in metagraphs:
            total += sum(
                1
                for _ in deduplicate_instances(
                    engine.find_embeddings(graph, metagraph)
                )
            )
        return total

    total = benchmark(match_all)
    assert total >= 0


def test_bench_fig11_rows(benchmark, quick_config, runner):
    rows = benchmark(fig11.run, quick_config, runner)
    assert rows
    for row in rows:
        assert row["engines agree"], row
    assert fig11_counts_digest(rows) == FIG11_COUNTS_SHA256
    # shape: at the largest pattern size, SymISO beats the non-symmetric
    # engines (the paper's 52% average gap grows with |V_M|).  The
    # comparison uses per-metagraph best-of-N medians — single means
    # flake on small patterns where one scheduler hiccup dominates —
    # and the margin is tunable for noisy shared runners.
    margin = float(os.environ.get("REPRO_FIG11_MARGIN", "1.25"))
    largest = max(row["|V_M|"] for row in rows)
    for row in rows:
        if row["|V_M|"] != largest:
            continue
        per_mg = row["_per_metagraph_ms"]
        symiso = statistics.median(per_mg["SymISO"])
        baselines = min(
            statistics.median(per_mg[name])
            for name in ("BoostISO", "TurboISO", "QuickSI")
        )
        assert symiso <= baselines * margin, (
            f"SymISO median {symiso:.2f} ms vs best baseline median "
            f"{baselines:.2f} ms (margin {margin}x): {row}"
        )
