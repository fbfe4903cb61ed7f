"""Tier-1 gate: the shipped tree and its tests pass the invariant suite.

This is the test CI leans on: any change that breaks a determinism,
locking, lifecycle, wire-taxonomy or API invariant — or adds an
unjustified/unused suppression — fails here before review.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

from repro.analysis import run_lint

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
TESTS = REPO_ROOT / "tests"


def test_shipped_tree_is_lint_clean():
    report = run_lint([SRC, TESTS], root=REPO_ROOT)
    assert report.files_checked > 150
    assert report.clean, "\n".join(
        [str(f) for f in report.findings] + report.errors
    )


def test_seeded_violation_is_caught(tmp_path):
    """The gate actually gates: re-lint a copy with a seeded race."""
    victim = SRC / "repro" / "serving" / "cache.py"
    text = victim.read_text(encoding="utf-8")
    seeded = text + (
        "\n\ndef _seeded_backdoor(cache: ResultCache) -> None:\n"
        "    cache._entries.clear()\n"
    )
    target = tmp_path / "src" / "repro" / "serving" / "cache.py"
    target.parent.mkdir(parents=True)
    target.write_text(seeded, encoding="utf-8")
    report = run_lint([tmp_path / "src"], root=tmp_path)
    assert any(f.rule == "guarded-by" for f in report.findings)


def test_every_suppression_carries_a_justification():
    """Belt and braces over the meta-finding: grep the real tree."""
    for path in sorted(SRC.rglob("*.py")):
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if "repro-lint: ignore[" in line and not line.lstrip().startswith(
                ('"', "'")
            ):
                assert " -- " in line, f"{path}:{lineno} lacks justification"


def test_cli_lint_exits_zero_on_shipped_tree():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stdout
