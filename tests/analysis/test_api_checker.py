"""Self-tests for the api-hygiene checker."""

from __future__ import annotations


def test_unsorted_all_flagged(tree):
    tree.write(
        "pkg.py",
        '__all__ = ["beta", "alpha"]\nalpha = 1\nbeta = 2\n',
    )
    report = tree.lint(["api-hygiene"])
    assert any("not sorted" in f.message for f in report.findings)


def test_non_literal_all_flagged(tree):
    tree.write(
        "pkg.py",
        'NAMES = ["a"]\n__all__ = NAMES\na = 1\n',
    )
    report = tree.lint(["api-hygiene"])
    assert any("literal" in f.message for f in report.findings)


def test_phantom_export_flagged(tree):
    tree.write(
        "pkg.py",
        '__all__ = ["ghost"]\n',
    )
    report = tree.lint(["api-hygiene"])
    assert any("never binds" in f.message for f in report.findings)


def test_duplicate_export_flagged(tree):
    tree.write(
        "pkg.py",
        '__all__ = ["a", "a"]\na = 1\n',
    )
    report = tree.lint(["api-hygiene"])
    assert any("duplicates" in f.message for f in report.findings)


def test_underscored_export_flagged_but_dunder_allowed(tree):
    tree.write(
        "pkg.py",
        '__version__ = "1"\n_hidden = 2\n__all__ = ["__version__", "_hidden"]\n',
    )
    report = tree.lint(["api-hygiene"])
    messages = [f.message for f in report.findings]
    assert any("_hidden" in m for m in messages)
    assert not any("__version__" in m for m in messages)


def test_unannotated_exported_function_flagged(tree):
    tree.write(
        "pkg.py",
        """\
        __all__ = ["run"]

        def run(x):
            return x
        """,
    )
    report = tree.lint(["api-hygiene"])
    assert any("unannotated parameter" in f.message for f in report.findings)
    assert any("return annotation" in f.message for f in report.findings)


def test_annotated_export_clean(tree):
    tree.write(
        "pkg.py",
        """\
        __all__ = ["Runner", "run"]

        def run(x: int) -> int:
            return x

        class Runner:
            def __init__(self, depth: int = 1):
                self.depth = depth
        """,
    )
    assert tree.lint(["api-hygiene"]).clean


def test_imported_and_conditional_names_count_as_bound(tree):
    tree.write(
        "pkg.py",
        """\
        from os.path import join
        from typing import TYPE_CHECKING

        if TYPE_CHECKING:
            from os.path import split

        __all__ = ["join", "split"]
        """,
    )
    assert tree.lint(["api-hygiene"]).clean


def test_module_without_all_not_checked(tree):
    tree.write(
        "pkg.py",
        "def run(x):\n    return x\n",
    )
    assert tree.lint(["api-hygiene"]).clean


def test_ledger_private_read_flagged_outside_index(tree):
    tree.write(
        "search.py",
        """\
        class Engine:
            def __init__(self, vectors):
                self.vectors = vectors
                self._state = None  # the engine's own field: fine

            def pin(self):
                self._state = self.vectors._state
                return len(self.vectors._state), sorted(self.vectors._matched)

        def partners(store, x):
            return store._matched, store._state
        """,
    )
    # the store's own package reads its state by design
    tree.write("index/persist.py", "def rows(vectors):\n    return vectors._state\n")
    findings = tree.lint(["private-ledger-read"]).findings
    assert {f.path for f in findings} == {"src/repro/search.py"}
    assert sorted(f.line for f in findings) == [7, 8, 8, 11, 11]
    assert all("vectors.compile()" in f.message for f in findings)


def test_private_import_of_another_module_flagged(tree):
    tree.write(
        "mining/grami.py",
        """\
        from repro.matching.compiled import _batches, compiled_order
        from repro.matching import plan as _plan  # a private alias: fine


        def support():
            from repro.index.persist import _read_payload, load_compiled

            return _batches, _read_payload, compiled_order, load_compiled
        """,
    )
    tree.write("matching/compiled.py", "def _batches():\n    pass\n")
    findings = tree.lint(["private-import"]).findings
    assert {f.path for f in findings} == {"src/repro/mining/grami.py"}
    assert sorted(f.line for f in findings) == [1, 6]
    assert "`_batches`, private to `repro.matching.compiled`" in findings[0].message


def test_private_import_flags_relative_imports(tree):
    tree.write(
        "matching/kernel.py",
        """\
        from . import _helpers
        from .plan import _derive
        from ..index.persist import _read_payload
        """,
    )
    tree.write(
        "matching/__init__.py",
        "from .kernel import _private\n",
    )
    findings = tree.lint(["private-import"]).findings
    sources = sorted(f.message.split("private to ")[1] for f in findings)
    assert sources == [
        "`..index.persist`; give it a public name",
        "`.`; give it a public name",
        "`.kernel`; give it a public name",
        "`.plan`; give it a public name",
    ]


def test_private_import_allows_dunders_and_public_names(tree):
    tree.write(
        "pkg/mod.py",
        """\
        from __future__ import annotations

        from repro.pkg import __version__
        from repro.matching.plan import MatchPlan
        """,
    )
    assert tree.lint(["private-import"]).clean
