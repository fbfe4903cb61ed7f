"""Determinism checkers: unordered iteration and hot-path entropy.

The repository's load-bearing guarantee is that rankings are
*bit-identical* across matcher engines, worker counts, shard counts,
replicas and failover.  Two classes of code break that silently:

- iterating a ``set``/``frozenset`` where the element order reaches an
  order-sensitive consumer (a loop body, ``list()``/``tuple()``,
  ``enumerate``/``zip``, ``str.join``): set iteration order depends on
  insertion history and per-process hash randomisation, so the same
  inputs produce differently-ordered results across runs and hosts.
  Order-insensitive folds (``sorted``/``min``/``max``/``sum``/``len``/
  ``any``/``all``/set|dict construction) are exempt — they erase the
  order again.  ``dict`` iteration is exempt by design: CPython dicts
  iterate in insertion order, which is deterministic whenever the
  insertions are.
- reading entropy (``random``, ``numpy.random``, wall/monotonic clocks,
  ``uuid``, ``os.urandom``) inside a scoring/merge hot-path module,
  where any such value could leak into a score, a tie-break or a merge
  and defeat replay debugging.  Deadline bookkeeping that provably
  never feeds a result must carry a justified suppression — that *is*
  the whitelist.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Checker, Finding, SourceFile, register

#: packages whose iteration order reaches results/merges
UNORDERED_SCOPE = (
    "repro.index",
    "repro.learning",
    "repro.matching",
    "repro.metagraph",
    "repro.mining",
    "repro.serving",
)

#: modules implementing scoring/merging itself: entropy-free zones
HOT_PATH_MODULES = frozenset(
    {
        "repro.index.compiled",
        "repro.learning.model",
        "repro.serving.protocol",
        "repro.serving.router",
        "repro.serving.shards",
    }
)

#: consumers that erase iteration order again (safe over a set)
_ORDER_INSENSITIVE_CALLS = frozenset(
    {
        "sorted", "min", "max", "sum", "len", "any", "all", "set",
        "frozenset", "dict", "Counter", "SortedUniverse",
    }
)

_ENTROPY_MODULES = {"random", "secrets", "uuid"}
_ENTROPY_ATTRS = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "monotonic_ns"),
    ("time", "perf_counter"),
    ("time", "perf_counter_ns"),
    ("time", "process_time"),
    ("os", "urandom"),
    ("os", "getrandom"),
    ("np", "random"),
    ("numpy", "random"),
}


def _call_name(node: ast.Call) -> str | None:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _is_set_expr(node: ast.AST, assigned_sets: set[str]) -> bool:
    """Whether ``node`` evaluates to a set/frozenset (syntactically)."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and _call_name(node) in ("set", "frozenset"):
        return True
    if isinstance(node, ast.Name) and node.id in assigned_sets:
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
    ):
        # set algebra propagates setness (a | b, a - b, ...)
        return _is_set_expr(node.left, assigned_sets) and _is_set_expr(
            node.right, assigned_sets
        )
    return False


def _function_set_names(func: ast.AST) -> set[str]:
    """Names assigned a set expression anywhere in ``func``'s body.

    Deliberately coarse (no flow sensitivity): a name is "a set" if any
    assignment in the function binds it to a syntactic set expression
    and no assignment binds it to something else.
    """
    set_names: set[str] = set()
    other_names: set[str] = set()
    for node in ast.walk(func):
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        elif isinstance(node, ast.AugAssign):
            targets, value = [node.target], None  # |= keeps setness unknown
        for target in targets:
            if isinstance(target, ast.Name):
                if value is not None and _is_set_expr(value, set_names):
                    set_names.add(target.id)
                elif value is not None:
                    other_names.add(target.id)
    return set_names - other_names


@register
class UnorderedIterationChecker(Checker):
    """Set iteration order must not reach order-sensitive consumers."""

    rule = "unordered-iter"
    description = "set/frozenset iteration feeding an order-sensitive consumer in " + ", ".join(
        f"{package.removeprefix('repro.')}/" for package in UNORDERED_SCOPE
    )

    def applies_to(self, src: SourceFile) -> bool:
        return src.module.startswith(UNORDERED_SCOPE)

    def check(self, src: SourceFile) -> Iterator[Finding]:
        # per-function set-name inference; module scope counts too
        scopes: list[ast.AST] = [src.tree]
        scopes.extend(
            node
            for node in ast.walk(src.tree)
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            )
        )
        for scope in scopes:
            set_names = _function_set_names(scope)
            yield from self._check_scope(src, scope, set_names)

    def _walk_scope(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk ``scope`` without descending into nested functions."""
        stack: list[ast.AST] = [scope]
        while stack:
            node = stack.pop()
            if node is not scope:
                yield node
            for child in ast.iter_child_nodes(node):
                if not isinstance(
                    child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
                ):
                    stack.append(child)

    def _check_scope(
        self,
        src: SourceFile,
        scope: ast.AST,
        set_names: set[str],
    ) -> Iterator[Finding]:
        for node in self._walk_scope(scope):
            if isinstance(node, ast.For) and _is_set_expr(node.iter, set_names):
                yield self._finding(src, node.iter, "a for-loop")
            elif isinstance(
                node, (ast.ListComp, ast.GeneratorExp, ast.DictComp)
            ):
                for gen in node.generators:
                    if _is_set_expr(gen.iter, set_names) and not (
                        self._order_erased(src, node)
                    ):
                        yield self._finding(src, gen.iter, "a comprehension")
            elif isinstance(node, ast.Call):
                name = _call_name(node)
                if name in ("list", "tuple", "enumerate", "zip", "join"):
                    for arg in node.args:
                        if _is_set_expr(arg, set_names):
                            yield self._finding(src, arg, f"{name}()")

    def _order_erased(self, src: SourceFile, comp: ast.AST) -> bool:
        """A comprehension directly inside sorted()/min()/... is safe."""
        parent = src.parent(comp)
        return (
            isinstance(parent, ast.Call)
            and comp in parent.args
            and _call_name(parent) in _ORDER_INSENSITIVE_CALLS
        )

    def _finding(self, src: SourceFile, node: ast.AST, consumer: str) -> Finding:
        return self.finding(
            src,
            node,
            f"set iteration order reaches {consumer}; wrap in sorted(...) "
            "or justify with a suppression (set order varies across "
            "processes and breaks bit-identical results)",
        )


@register
class HotPathEntropyChecker(Checker):
    """Scoring/merge modules must not read clocks or randomness."""

    rule = "hot-path-entropy"
    description = (
        "random/clock/uuid use inside a scoring or merge hot-path module"
    )

    def applies_to(self, src: SourceFile) -> bool:
        return src.module in HOT_PATH_MODULES

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name
            ):
                pair = (node.value.id, node.attr)
                if pair in _ENTROPY_ATTRS or (
                    node.value.id in _ENTROPY_MODULES
                ):
                    yield self.finding(
                        src,
                        node,
                        f"entropy source `{node.value.id}.{node.attr}` in a "
                        "scoring/merge hot path; values here must be pure "
                        "functions of the snapshot and the query",
                    )
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                module = getattr(node, "module", None) or ""
                names = [alias.name for alias in node.names]
                for bad in _ENTROPY_MODULES | {"numpy.random"}:
                    if bad in names or module == bad:
                        yield self.finding(
                            src,
                            node,
                            f"module `{bad}` imported in a scoring/merge "
                            "hot path; entropy must not be reachable here",
                        )
