"""Smoke test of the harness itself: ``python3 -m pytest bench/`` (about 30 s).

Not collected by the repo's tier-1 run (``testpaths`` names ``tests`` and
``benchmarks``).  Runs every workload on the ``--smoke`` graphs and
checks the shape of what comes out, not the numbers.
"""

from __future__ import annotations

import itertools
import json
import re
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PROGRAM = ("offline_pass.py", "serve_target.py", "repro.serving.worker")


def program_processes() -> set[int]:
    found = set()
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                cmdline = (entry / "cmdline").read_bytes().decode(errors="replace")
            except OSError:
                continue
            if any(part in cmdline for part in PROGRAM):
                found.add(int(entry.name))
    return found


def run(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke", *argv],
                          capture_output=True, text=True, timeout=300)


def check_result(result: dict, section: str) -> None:
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: e["unit"] for n, e in result["metrics"].items()} == expected
    for name, entry in result["metrics"].items():
        assert NAME.fullmatch(name) and UNIT.fullmatch(entry["unit"])
        assert isinstance(entry["value"], float)
        if section == "end_to_end":
            assert entry["value"] > 0, name


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"] and 1 <= SPEC["run_seconds"] <= 60
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("higher", "lower")


def test_workloads_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    assert list(workloads.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]


def test_every_workload_reports_every_end_to_end_metric(tmp_path):
    before = program_processes()
    out = tmp_path / "smoke.json"
    proc = run("--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    runs = json.loads(out.read_text())["runs"]
    assert [r["workload"] for r in runs] == [w["name"] for w in SPEC["workloads"]]
    for result in runs:
        check_result(result, "end_to_end")
    assert program_processes() <= before, "a child process outlived the run"


def test_traced_run_reports_every_layer_and_writes_spans():
    before = program_processes()
    proc = run("--workload", "update_mixed", "--trace", "1", "--seed", "11")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_result(json.loads(proc.stdout.strip().splitlines()[-1]), "per_layer")
    spans = [json.loads(line) for line in (BENCH / "out" / "trace-update_mixed.jsonl").open()]
    assert {"name", "layer", "start_ns", "end_ns", "parent", "workload", "op_id"} <= set(spans[0])
    layers = {span["layer"] for span in spans}
    assert {"http", "serving.frontend", "search", "serving.router", "serving.backend",
            "serving.protocol", "serving.shards", "learning.model", "mining", "index",
            "index.persist", "index.delta", "graph", "matching"} <= layers
    assert program_processes() <= before, "a child process outlived the run"


def test_seed_changes_the_inputs_not_their_shape():
    sys.path.insert(0, str(ROOT / "src"))
    import inputs

    wide = inputs.SMOKE_DATASETS["wide"]
    a, b, again = (inputs.make_dataset(wide, seed) for seed in (1, 2, 1))
    assert sorted(a.graph.edges()) == sorted(again.graph.edges()) and a.labels == again.labels
    assert sorted(a.graph.edges()) != sorted(b.graph.edges())
    assert a.graph.types == b.graph.types and sorted(a.labels) == sorted(b.labels)
    assert inputs.users_of(a) == inputs.users_of(b)
    # deep is one fixed graph (see inputs.py); there the seed picks the requests
    deep = inputs.SMOKE_DATASETS["deep"]
    assert sorted(inputs.make_dataset(deep, 1).graph.edges()) == sorted(
        inputs.make_dataset(deep, 2).graph.edges())
    users = inputs.users_of(a)
    for stream in (inputs.zipf_stream, inputs.uniform_stream, inputs.batch_stream):
        first, other, same = (list(itertools.islice(stream(users, seed, 0), 8)) for seed in (1, 2, 1))
        assert first == same and first != other
        assert all(len(request) == 3 for request in first + other)
