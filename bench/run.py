"""Run the benchmark: ``python3 bench/run.py [--workload NAME ...] [--seed N]``.

With exactly one ``--workload`` the workload runs in this process and
the last line of standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"op_p50_ms": {"value": 43.97, "unit": "ms"}, ...}}

``--trace 0`` (default) reports every end-to-end metric of
``BENCHMARK.json``, ``--trace 1`` every per-layer metric, and writes the
spans to ``bench/out/trace-<workload>.jsonl``.  The exit code is 0 when
every operation and every correctness check passed.

With no ``--workload`` (or several) each workload runs as a child of
this process, one after the other, so that every measurement starts
from a fresh interpreter; ``--repeat N`` runs the set N times on seeds
``seed .. seed+N-1`` and ``--out FILE`` keeps all results for
``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def facts() -> dict:
    """The machine and the code the numbers belong to."""
    import numpy

    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def run_one(args: argparse.Namespace) -> int:
    """Run one workload here; print the result object as the last line."""
    if os.environ.get("PYTHONHASHSEED") != "0":
        # set iteration order decides how much work mining and the delta
        # path do; pin it so that one seed always means the same work
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    run = workloads.Run(
        workloads.WORKLOADS[args.workload[0]], args.seed, args.seconds, bool(args.trace),
        args.smoke,
    )
    try:
        metrics = workloads.run_workload(run)
    finally:
        run.close()
    expected = SPEC["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in expected} ^ set(metrics)
    if missing:
        raise workloads.BenchError(f"metrics do not match BENCHMARK.json: {sorted(missing)}")
    for error in run.errors:
        print(f"FAILED: {error}", file=sys.stderr)
    print("facts " + json.dumps(facts()))
    print("setup " + json.dumps(run.setup))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            m["name"]: {"value": float(metrics[m["name"]]), "unit": m["unit"]} for m in expected
        },
    }))
    return 0 if run.failed == 0 else 1


def run_child(workload: str, seed: int, args: argparse.Namespace) -> dict:
    """One workload in a child of its own; returns its result object."""
    import procs

    argv = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.smoke:
        argv.append("--smoke")
    children = procs.ChildSet(dict(os.environ))
    try:
        proc = children.spawn(argv, stdout=subprocess.PIPE, text=True)
        stdout, _ = proc.communicate(timeout=600)
    finally:
        leaked = children.close()
    lines = stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} (seed {seed}) exited with code {proc.returncode} "
                           "and printed no result")
    result = json.loads(lines[-1])
    result.update(workload=workload, seed=seed, trace=args.trace)
    if leaked:
        result["correct"] = False
        result["failed"] += len(leaked)
    return result


def run_many(args: argparse.Namespace) -> int:
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    runs = []
    for repeat in range(args.repeat):
        for name in names:
            result = run_child(name, args.seed + repeat, args)
            runs.append(result)
            status = "ok" if result["correct"] else f"{result['failed']} FAILED"
            print(f"{name}  seed={result['seed']}  attempted={result['attempted']}  {status}")
            for metric, entry in result["metrics"].items():
                print(f"    {metric:44s} {entry['value']:14.4f} {entry['unit']}")
            sys.stdout.flush()
    if args.out:
        Path(args.out).write_text(json.dumps({"facts": facts(), "runs": runs}, indent=1) + "\n")
    return 0 if all(r["correct"] for r in runs) else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", default=[],
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds, 1 with --smoke)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="60-user and 200-user graphs: checks the harness, measures nothing")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every result of a multi-workload run here")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(SPEC["run_seconds"])

    def terminate(signum, frame):
        # unwind through the finally blocks that stop the children
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, terminate)
    try:
        if len(args.workload) == 1 and args.repeat == 1 and not args.out:
            return run_one(args)
        return run_many(args)
    except Exception:  # noqa: BLE001 - the CLI boundary: report and fail
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
