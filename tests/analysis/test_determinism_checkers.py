"""Self-tests for the unordered-iter and hot-path-entropy checkers."""

from __future__ import annotations


# ----------------------------------------------------------------------
# unordered-iter
# ----------------------------------------------------------------------
def test_for_loop_over_set_literal_flagged(tree):
    tree.write(
        "serving/merge.py",
        """\
        def merge(results):
            out = []
            for item in {1, 2, 3}:
                out.append(item)
            return out
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_for_loop_over_set_call_flagged(tree):
    tree.write(
        "index/build.py",
        """\
        def fold(pairs):
            out = []
            for node in set(pairs):
                out.append(node)
            return out
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_set_typed_name_tracked_through_assignment(tree):
    tree.write(
        "matching/engine.py",
        """\
        def candidates(xs):
            seen = set(xs)
            return [x for x in seen]
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_set_iteration_in_learning_flagged(tree):
    # stage schedules decide which metagraph ids the offline build
    # matches, so candidate order must not come from a set
    tree.write(
        "learning/stages.py",
        """\
        def next_batch(scores, matched):
            pending = set(scores)
            return [mg_id for mg_id in pending if mg_id not in matched]
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_set_iteration_in_mining_flagged(tree):
    # the miner's orbit and image sets decide which patterns are
    # frequent, so nothing may be read back out of a set in set order
    tree.write(
        "mining/support.py",
        """\
        def orbit_images(rows, orbit):
            members = set(orbit)
            return [row[u] for row in rows for u in members]
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_list_of_set_flagged(tree):
    tree.write(
        "serving/merge.py",
        "def snapshot(s):\n    return list({1, 2})\n",
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_set_algebra_propagates_setness(tree):
    tree.write(
        "serving/merge.py",
        """\
        def overlap(a, b):
            left = set(a)
            right = set(b)
            return [x for x in left & right]
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_sorted_over_set_is_clean(tree):
    tree.write(
        "serving/merge.py",
        """\
        def merge(results):
            return sorted({r for r in results})
        """,
    )
    assert tree.lint(["unordered-iter"]).clean


def test_order_insensitive_folds_are_clean(tree):
    tree.write(
        "index/build.py",
        """\
        def fold(pairs):
            total = sum(x for x in set(pairs))
            largest = max({p for p in pairs})
            return total, largest, len(set(pairs))
        """,
    )
    assert tree.lint(["unordered-iter"]).clean


def test_dict_iteration_is_exempt_by_design(tree):
    tree.write(
        "serving/merge.py",
        """\
        def merge(groups):
            out = []
            for key in groups:
                out.append(key)
            return [v for v in groups.values()]
        """,
    )
    assert tree.lint(["unordered-iter"]).clean


def test_out_of_scope_modules_not_checked(tree):
    tree.write(
        "eval/report.py",
        "def fold(xs):\n    return [x for x in set(xs)]\n",
    )
    assert tree.lint(["unordered-iter"]).clean


def test_metagraph_package_is_in_scope(tree):
    # kind-aware canonicalisation must not depend on set order, so the
    # checker's scope covers repro.metagraph too
    tree.write(
        "metagraph/forms.py",
        """\
        def collect(edges):
            out = []
            for entry in set(edges):
                out.append(entry)
            return out
        """,
    )
    assert "unordered-iter" in tree.rules_fired(["unordered-iter"])


def test_nested_function_set_names_stay_scoped(tree):
    # outer's `items` is a list; inner's `items` is a set — the walk
    # must not leak one scope's inference into the other
    tree.write(
        "serving/merge.py",
        """\
        def outer(xs):
            items = list(xs)
            def inner(ys):
                items = set(ys)
                return [y for y in items]
            return [x for x in items], inner
        """,
    )
    findings = tree.lint(["unordered-iter"]).findings
    assert len(findings) == 1
    assert findings[0].line == 5


# ----------------------------------------------------------------------
# hot-path-entropy
# ----------------------------------------------------------------------
def test_clock_read_in_hot_path_flagged(tree):
    tree.write(
        "serving/router.py",
        """\
        import time

        def merge(parts):
            started = time.monotonic()
            return parts, started
        """,
    )
    assert "hot-path-entropy" in tree.rules_fired(["hot-path-entropy"])


def test_random_import_in_hot_path_flagged(tree):
    tree.write(
        "learning/model.py",
        "import random\n",
    )
    assert "hot-path-entropy" in tree.rules_fired(["hot-path-entropy"])


def test_numpy_random_attribute_flagged(tree):
    tree.write(
        "index/compiled.py",
        """\
        import numpy as np

        def jitter(x):
            return x + np.random.random()
        """,
    )
    assert "hot-path-entropy" in tree.rules_fired(["hot-path-entropy"])


def test_clock_outside_hot_path_is_fine(tree):
    tree.write(
        "serving/frontend.py",
        """\
        import time

        def deadline(timeout):
            return time.monotonic() + timeout
        """,
    )
    assert tree.lint(["hot-path-entropy"]).clean


def test_justified_suppression_is_the_whitelist(tree):
    tree.write(
        "serving/router.py",
        """\
        import time

        def drain(timeout):
            # repro-lint: ignore[hot-path-entropy] -- drain deadline; never feeds a score
            deadline = time.monotonic() + timeout
            return deadline
        """,
    )
    assert tree.lint(["hot-path-entropy"]).clean
