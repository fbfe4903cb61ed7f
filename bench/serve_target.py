"""The HTTP serving target: one engine behind ``serve_forever``.

Started by the harness as a child process.  SIGTERM unwinds through
``finally`` so the engine closes its shard workers; without that an
interrupted ``serve_forever`` leaves orphan ``shard-worker`` processes.
"""

from __future__ import annotations

import argparse
import pickle
import signal
import sys


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--inputs", required=True, help="pickle written by the harness")
    parser.add_argument("--snapshot", required=True)
    parser.add_argument("--backend", choices=("thread", "process"), required=True)
    parser.add_argument("--listen", required=True)
    args = parser.parse_args()

    from repro import SemanticProximitySearch

    def terminate(signum, frame):
        sys.exit(0)

    signal.signal(signal.SIGTERM, terminate)
    with open(args.inputs, "rb") as handle:
        graph = pickle.load(handle)["dataset"].graph  # written by the harness
    tier = (
        {"serving_workers": 2} if args.backend == "thread" else {"replicas": 1}
    )
    engine = SemanticProximitySearch.from_index(
        args.snapshot, graph, mmap=True, shards=2, serving_backend=args.backend, **tier
    )
    try:
        engine.serve_forever(listen=args.listen)
    finally:
        engine.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
