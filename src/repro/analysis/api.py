"""Public-API hygiene checker: ``__all__`` and exported signatures.

The package re-exports its public surface through per-package
``__all__`` lists (``repro.serving``, ``repro.index``, ...).  Drift in
those lists is invisible until a downstream ``from repro.x import y``
breaks, so the checker pins the conventions:

- ``__all__`` must be a literal list/tuple of string constants (tools
  and humans both need to read it without executing the module);
- it must be **sorted** — diffs stay one-line and merge conflicts
  resolve themselves;
- every exported name must actually be bound at module top level (a
  def, class, assignment or import), and must not be underscored;
- an exported top-level function must be fully annotated: every
  parameter and the return type.  Exported classes get the same check
  on their ``__init__``.  Annotations are what make the public surface
  self-describing (and what ``mypy --strict`` enforces in CI).

A second checker, ``private-ledger-read``, keeps one *internal*
boundary: outside ``repro.index`` nothing may read
:class:`~repro.index.vectors.MetagraphVectors`' private state (the
snapshot with its pending patch, and the matched ids) — the counts
have one read path, ``vectors.compile()``.

A third, ``private-import``, keeps every module boundary: no module
may ``from <other module> import _name``.  An underscored name is its
module's own; a caller that needs it needs a public name.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.analysis.core import Checker, Finding, SourceFile, register


def _literal_strings(node: ast.expr) -> list[str] | None:
    """The string elements of a literal list/tuple, or None."""
    if not isinstance(node, (ast.List, ast.Tuple)):
        return None
    values = []
    for elt in node.elts:
        if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
            values.append(elt.value)
        else:
            return None
    return values


def _top_level_bindings(tree: ast.Module) -> dict[str, ast.AST]:
    """Names bound at module top level, mapped to their binding node."""
    bound: dict[str, ast.AST] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound[target.id] = node
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound[node.target.id] = node
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node
        elif isinstance(node, (ast.If, ast.Try)):
            # TYPE_CHECKING blocks, optional-dependency guards
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.setdefault(sub.name, sub)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            bound.setdefault(target.id, sub)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        name = alias.asname or alias.name.split(".")[0]
                        bound.setdefault(name, sub)
    return bound


def _unannotated_params(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    """Parameter names missing annotations (self/cls excluded)."""
    args = func.args
    params = list(args.posonlyargs) + list(args.args)
    missing = [
        arg.arg
        for index, arg in enumerate(params)
        if arg.annotation is None
        and not (index == 0 and arg.arg in ("self", "cls"))
    ]
    missing.extend(
        arg.arg for arg in args.kwonlyargs if arg.annotation is None
    )
    for star in (args.vararg, args.kwarg):
        if star is not None and star.annotation is None:
            missing.append(star.arg)
    return missing


@register
class ApiHygieneChecker(Checker):
    """``__all__`` consistency and annotated exported signatures."""

    rule = "api-hygiene"
    description = (
        "__all__ not a sorted literal of defined public names, or an "
        "exported signature missing annotations"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        dunder_all = self._find_all(src.tree)
        if dunder_all is None:
            return
        node, names = dunder_all
        if names is None:
            yield self.finding(
                src, node,
                "__all__ must be a literal list/tuple of string constants",
            )
            return
        if names != sorted(names):
            yield self.finding(
                src, node,
                "__all__ is not sorted; keep it alphabetical so diffs "
                "stay one-line",
            )
        if len(set(names)) != len(names):
            yield self.finding(src, node, "__all__ contains duplicates")
        bound = _top_level_bindings(src.tree)
        for name in names:
            is_dunder = name.startswith("__") and name.endswith("__")
            if name.startswith("_") and not is_dunder:
                # `__version__` etc. are conventional exports; a single
                # leading underscore in __all__ is always a mistake
                yield self.finding(
                    src, node,
                    f"__all__ exports underscored name `{name}`",
                )
            elif name not in bound:
                yield self.finding(
                    src, node,
                    f"__all__ exports `{name}` but the module never binds "
                    "it at top level",
                )
        yield from self._check_signatures(src, names, bound)

    def _find_all(
        self, tree: ast.Module
    ) -> tuple[ast.AST, list[str] | None] | None:
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and any(
                    isinstance(t, ast.Name) and t.id == "__all__"
                    for t in node.targets
                )
            ):
                return node, _literal_strings(node.value)
        return None

    def _check_signatures(
        self,
        src: SourceFile,
        names: list[str],
        bound: dict[str, ast.AST],
    ) -> Iterator[Finding]:
        for name in names:
            target = bound.get(name)
            if isinstance(target, ast.ClassDef):
                target = next(
                    (
                        item
                        for item in target.body
                        if isinstance(item, ast.FunctionDef)
                        and item.name == "__init__"
                    ),
                    None,
                )
                if target is None:
                    continue
            if not isinstance(target, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            missing = _unannotated_params(target)
            if missing:
                yield self.finding(
                    src, target,
                    f"exported `{name}` has unannotated parameter(s) "
                    f"{missing}",
                )
            if target.returns is None and target.name != "__init__":
                yield self.finding(
                    src, target,
                    f"exported `{name}` has no return annotation",
                )


@register
class LedgerPrivacyChecker(Checker):
    """Only ``repro.index`` may look inside the ``MetagraphVectors`` store.

    Readers of the Eq. 1–2 counts go through ``vectors.compile()``; an
    ``<expr>._field`` anywhere else (an object's own ``self._field``
    aside) is a second read path growing back.
    """

    rule = "private-ledger-read"
    description = (
        "MetagraphVectors private field (_state/_matched) read outside "
        "repro.index; go through vectors.compile()"
    )
    fields = frozenset({"_state", "_matched"})

    def applies_to(self, src: SourceFile) -> bool:
        return not src.module.startswith("repro.index")

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in self.fields
                and not (isinstance(node.value, ast.Name) and node.value.id == "self")
            ):
                yield self.finding(
                    src, node,
                    f"`{ast.unparse(node)}` reaches into the count store's "
                    "private state; read counts through `vectors.compile()`",
                )


@register
class PrivateImportChecker(Checker):
    """No module imports another module's underscored name."""

    rule = "private-import"
    description = (
        "`from <module> import _name` of another module's underscored "
        "name; make the name public"
    )

    def check(self, src: SourceFile) -> Iterator[Finding]:
        for node in ast.walk(src.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            # a relative import always reads another module
            source = "." * node.level + (node.module or "")
            if source == src.module:
                continue
            for alias in node.names:
                name = alias.name
                if name.startswith("_") and not (
                    name.startswith("__") and name.endswith("__")
                ):
                    yield self.finding(
                        src, node,
                        f"imports `{name}`, private to `{source}`; give it "
                        "a public name",
                    )
