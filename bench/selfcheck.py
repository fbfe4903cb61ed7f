"""Is the benchmark steady?  ``python3 bench/selfcheck.py [--runs 10] [--record]``.

Runs the full set twice on the same code, ``--runs`` seeds per workload
each time, hands both result files to ``compare.py`` and fails unless

- every operation and correctness check passed,
- every end-to-end metric's spread (distance between the quartiles over
  the median, per workload) stays within its bound - ``setup_s`` is
  exempt, it has one build sample per run - and
- the second set's median is not worse than the first's by more than
  the bound.

``--record`` keeps the first set's medians, quartiles, spreads and
sample counts in ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import compare

BENCH = Path(__file__).resolve().parent
OUT = BENCH / "out"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10, help="seeds per workload and set")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record", action="store_true", help="write bench/baseline.json")
    args = parser.parse_args()

    OUT.mkdir(exist_ok=True)
    files = [OUT / "selfcheck-A.json", OUT / "selfcheck-B.json"]
    passed = True
    for path in files:
        argv = [sys.executable, str(BENCH / "run.py"), "--repeat", str(args.runs),
                "--seed", str(args.seed), "--out", str(path)]
        passed &= subprocess.run(argv + (["--smoke"] if args.smoke else [])).returncode == 0
    a, b = (compare.load(str(path)) for path in files)
    rows = compare.compare(a, b)
    print(compare.render(rows))
    for row in rows:
        if row["verdict"] == "regressed" or (
            row["metric"] != "setup_s" and max(row["spread_a"], row["spread_b"]) > row["bound"]
        ):
            passed = False
            print(f"NOT STEADY: {row['workload']} {row['metric']}")
    if args.record:
        baseline = {"facts": json.loads(files[0].read_text())["facts"], "seeds": args.runs,
                    "metrics": {}}
        for (workload, metric), values in a.items():
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            baseline["metrics"].setdefault(workload, {})[metric] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": compare.spread(values), "n": len(values),
            }
        (BENCH / "baseline.json").write_text(json.dumps(baseline, indent=1) + "\n")
    print("selfcheck passed" if passed else "selfcheck FAILED")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
