"""Compare two result files: ``python3 bench/compare.py A.json B.json``.

Both files come from ``run.py --out`` (any number of runs per workload,
ideally ten seeds each).  One row per workload and end-to-end metric:
both medians with their sample counts, the ratio B/A, the bound from
``BENCHMARK.json``, the run-to-run spread of each side (distance between
the quartiles over the median) and a verdict:

- ``regressed``  - B's median is worse than A's by more than the bound;
- ``unresolved`` - a side's spread is wider than the bound, so the
  comparison cannot tell either way;
- ``ok``         - otherwise.

Exits 1 when any row regressed.  A ratio is always B over A.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> dict[tuple[str, str], list[float]]:
    """Untraced values per (workload, metric) of one result file."""
    values: dict[tuple[str, str], list[float]] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if not run["trace"]:
            for metric, entry in run["metrics"].items():
                values.setdefault((run["workload"], metric), []).append(entry["value"])
    return values


def spread(values: list[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            key = (workload, metric["name"])
            if key not in a or key not in b:
                continue
            med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
            worse = (med_b - med_a) / med_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = spread(a[key]), spread(b[key])
            if max(spreads) > metric["bound"]:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regressed"
            else:
                verdict = "ok"
            rows.append({
                "workload": workload, "metric": metric["name"], "unit": metric["unit"],
                "a": med_a, "n_a": len(a[key]), "b": med_b, "n_b": len(b[key]),
                "ratio": med_b / med_a, "bound": metric["bound"],
                "spread_a": spreads[0], "spread_b": spreads[1], "verdict": verdict,
            })
    return rows


def render(rows: list[dict]) -> str:
    lines = [f"{'workload':18s} {'metric':13s} {'A median (n)':>18s} {'B median (n)':>18s} "
             f"{'B/A':>7s} {'bound':>6s} {'spread A':>9s} {'spread B':>9s}  verdict"]
    for r in rows:
        lines.append(
            f"{r['workload']:18s} {r['metric']:13s} {r['a']:13.3f} ({r['n_a']:2d}) "
            f"{r['b']:13.3f} ({r['n_b']:2d}) {r['ratio']:7.3f} {r['bound']:6.2f} "
            f"{r['spread_a']:9.3f} {r['spread_b']:9.3f}  {r['verdict']}"
        )
    return "\n".join(lines)


def main() -> int:
    if len(sys.argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    rows = compare(load(sys.argv[1]), load(sys.argv[2]))
    print(render(rows))
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
