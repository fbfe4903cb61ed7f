"""Invariant-analysis suite: ``repro lint``.

The codebase guarantees properties no generic linter understands:
rankings are bit-identical across shard counts, replicas and failover;
the serving wire boundary only carries
:class:`~repro.exceptions.ReproError` subclasses; serving state obeys
a drain-before-close lifecycle; and scoring/merge hot paths must stay
free of entropy (``random``/``time``) so replays reproduce.  This
package machine-checks those invariants with AST-based checkers:

- :mod:`~repro.analysis.determinism` — unordered ``set`` iteration
  feeding order-sensitive consumers in ``index/``/``matching/``/
  ``serving/``, and entropy sources in scoring/merge hot paths;
- :mod:`~repro.analysis.locks` — ``# guarded-by: <lock>`` attributes
  may only be touched under a matching ``with`` block;
- :mod:`~repro.analysis.lifecycle` — every executor/socket/process/
  temp-dir construction must reach a close/context-manager/ownership
  -transfer path;
- :mod:`~repro.analysis.wire` — code on the serving wire boundary may
  only raise ``ReproError`` subclasses; no bare ``except:`` anywhere;
  no exception smuggling through broad handlers;
- :mod:`~repro.analysis.api` — ``__all__`` consistency and annotated
  public signatures; no reads of the count store's private fields
  outside ``repro.index``.

Run it as ``repro lint [PATHS]`` (text or ``--format json``), or from
tests via :func:`~repro.analysis.core.run_lint`.  Findings are
suppressed per line and per rule with a justified comment::

    x = risky()  # repro-lint: ignore[rule-id] -- why this is safe

A suppression without a justification, or one that suppresses
nothing, is itself a finding.
"""

from repro.analysis import api, determinism, lifecycle, locks, wire  # noqa: F401
from repro.analysis.core import (
    Checker,
    Finding,
    LintReport,
    SourceFile,
    all_checkers,
    format_json,
    format_text,
    register,
    run_lint,
)

__all__ = [
    "Checker",
    "Finding",
    "LintReport",
    "SourceFile",
    "all_checkers",
    "format_json",
    "format_text",
    "register",
    "run_lint",
]
