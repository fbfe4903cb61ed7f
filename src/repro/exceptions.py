"""Exception hierarchy for the repro library.

All exceptions raised by the library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
still distinguishing finer-grained categories when needed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class GraphError(ReproError):
    """Base class for errors related to typed object graphs."""


class NodeNotFoundError(GraphError, KeyError):
    """A node id was referenced that does not exist in the graph."""

    def __init__(self, node):
        super().__init__(f"node {node!r} is not in the graph")
        self.node = node


class DuplicateNodeError(GraphError, ValueError):
    """A node id was added twice, possibly with conflicting types."""

    def __init__(self, node, existing_type, new_type):
        super().__init__(
            f"node {node!r} already exists with type {existing_type!r}; "
            f"cannot re-add with type {new_type!r}"
        )
        self.node = node
        self.existing_type = existing_type
        self.new_type = new_type


class EdgeError(GraphError, ValueError):
    """An edge is structurally invalid (self-loop, unknown endpoint, ...)."""


class SchemaError(GraphError, ValueError):
    """A node or edge violates the graph schema."""


class MetagraphError(ReproError):
    """Base class for errors related to metagraph construction/handling."""


class InvalidMetagraphError(MetagraphError, ValueError):
    """The metagraph is malformed (disconnected, self-loops, empty, ...)."""


class MatchingError(ReproError):
    """Base class for errors raised by subgraph matching engines."""


class LearningError(ReproError):
    """Base class for errors raised by the learning subsystem."""


class QueryError(ReproError, ValueError):
    """An online query references a node the index cannot rank.

    Raised instead of silently returning an all-zero ranking when the
    query (or pair member) is absent from the graph, or exists but is
    not of the engine's anchor type — both cases where Sect. IV's
    online phase is undefined and any answer would be confidently
    wrong.
    """


class ServingError(ReproError, RuntimeError):
    """The serving tier could not complete a request.

    Raised by the process-worker backend when a shard's replicas are
    all unreachable within the request deadline, when a worker speaks
    an unexpected protocol frame, or when the supervisor cannot start
    a worker.  Distinct from :class:`QueryError`: the *query* is fine,
    the *fleet* is not — retrying against a healthy fleet succeeds.
    """


class TrainingDataError(LearningError, ValueError):
    """Training examples are empty, malformed, or inconsistent."""


class IndexError_(ReproError):
    """Base class for errors raised by the instance-index subsystem.

    Named with a trailing underscore to avoid shadowing the builtin.
    """


class CatalogMismatchError(IndexError_, ValueError):
    """Vectors/weights refer to a different metagraph catalog than provided."""


class SnapshotError(IndexError_, ValueError):
    """A persisted index snapshot is missing, corrupt, or incompatible."""


class StaleIndexError(IndexError_, RuntimeError):
    """The graph mutated after the index was built, without a delta update.

    Raised by serving paths instead of silently answering from counts
    that no longer describe the graph; resolve by calling
    ``apply_updates()`` with the edits, or ``prepare()`` to rebuild.
    """


class DeltaError(IndexError_, ValueError):
    """An incremental index update is invalid or failed an invariant."""


class RewriteError(DeltaError):
    """A rewrite rule is malformed or cannot compile against a binding."""


class StaleSnapshotError(SnapshotError):
    """A snapshot's fingerprints do not match the current graph/catalog."""


class DatasetError(ReproError):
    """Base class for errors raised by dataset generators/loaders."""
