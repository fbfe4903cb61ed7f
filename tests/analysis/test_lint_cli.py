"""The `repro lint` CLI verb: flags, formats, exit codes."""

from __future__ import annotations

import json
import textwrap

import pytest

from repro.cli import main, run_lint_cli


@pytest.fixture
def dirty_tree(tmp_path):
    bad = tmp_path / "src" / "repro" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(
        textwrap.dedent(
            """\
            try:
                pass
            except:
                pass
            """
        ),
        encoding="utf-8",
    )
    return tmp_path


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in (
        "api-hygiene", "guarded-by", "hot-path-entropy", "private-import",
        "resource-lifecycle", "unordered-iter", "wire-errors",
    ):
        assert rule in out


def test_findings_exit_one_text(dirty_tree, capsys):
    code = run_lint_cli([str(dirty_tree / "src")])
    out = capsys.readouterr().out
    assert code == 1
    assert "wire-errors" in out
    assert "[repro lint]" in out


def test_json_format_and_output_file(dirty_tree, capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code = run_lint_cli(
        [str(dirty_tree / "src"), "--format", "json", "--output", str(report_path)]
    )
    assert code == 1
    doc = json.loads(report_path.read_text(encoding="utf-8"))
    assert doc["clean"] is False
    assert doc == json.loads(capsys.readouterr().out)


def test_rules_subset(dirty_tree, capsys):
    # the only violation is wire-errors; restricting to another rule
    # (and with no suppressions in play) must come back clean
    code = run_lint_cli([str(dirty_tree / "src"), "--rules", "api-hygiene"])
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_unknown_rule_is_usage_error(dirty_tree, capsys):
    code = run_lint_cli([str(dirty_tree / "src"), "--rules", "nope"])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_lint_with_flags_before_verb_is_rejected(capsys):
    assert main(["--quick", "lint"]) == 2
    assert "repro lint" in capsys.readouterr().err


def test_clean_tree_exits_zero(tmp_path, capsys):
    good = tmp_path / "src" / "repro" / "fine.py"
    good.parent.mkdir(parents=True)
    good.write_text("X = 1\n", encoding="utf-8")
    assert run_lint_cli([str(tmp_path / "src")]) == 0
