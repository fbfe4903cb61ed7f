"""Metagraph vectors m_x and m_xy (Eq. 1–2): the write-side count ledger.

:class:`MetagraphVectors` holds the sparse Eq. 1–2 counts for every
anchor node and anchor pair in the shape the *writers* need: the offline
build folds one metagraph at a time in (``add_counts``), the delta path
patches rows in place (``patch_counts``), and persistence walks the
dicts.  Nothing reads counts back out of it: :meth:`MetagraphVectors.compile`
freezes them into a :class:`~repro.index.compiled.CompiledVectors` CSR
snapshot, and that snapshot is what ranking, ``proximity``, ``explain``
and the trainer's triplet stacks all score against.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Iterable

from repro.exceptions import CatalogMismatchError, DeltaError, SnapshotError
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.index.compiled import CompiledVectors
from repro.index.instance_index import (
    InstanceIndex,
    MetagraphCounts,
    match_and_count,
)
from repro.index.transform import Transform, identity
from repro.matching.base import MatcherProtocol
from repro.metagraph.catalog import MetagraphCatalog


def encode_node_id(node: NodeId) -> object:
    """JSON-safe, losslessly reversible encoding of a node id.

    Scalars (str/int/float/bool/None) pass through; tuples become JSON
    arrays *recursively* — lists are unhashable and therefore can never
    be node ids, so the array form is unambiguous at every nesting
    level.  Adversarial string ids (separators, brackets, JSON-looking
    text) need no escaping because they stay ordinary JSON strings.
    Anything else cannot round-trip and is rejected up front rather
    than corrupting the artefact.
    """
    if isinstance(node, tuple):
        return [encode_node_id(part) for part in node]
    if node is None or isinstance(node, (str, int, float, bool)):
        return node
    raise SnapshotError(
        f"node id {node!r} of type {type(node).__name__} cannot be "
        "persisted; use str/int/float/bool/None or (nested) tuples of those"
    )


def decode_node_id(doc: object) -> NodeId:
    """Inverse of :func:`encode_node_id` (arrays back to tuples, deep)."""
    if isinstance(doc, list):
        return tuple(decode_node_id(part) for part in doc)
    return doc


class MetagraphVectors:
    """Sparse m_x / m_xy store over a fixed metagraph catalog."""

    def __init__(
        self,
        catalog_size: int,
        anchor_type: str = "user",
        transform: Transform = identity,
    ):
        self.catalog_size = catalog_size
        self.anchor_type = anchor_type
        self.transform = transform
        self._node: dict[NodeId, dict[int, int]] = {}
        self._pair: dict[tuple[NodeId, NodeId], dict[int, int]] = {}
        self._matched: set[int] = set()
        self._compiled: CompiledVectors | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_counts(self, mg_id: int, counts: MetagraphCounts) -> None:
        """Fold one metagraph's Eq. 1–2 counts into the store."""
        if not 0 <= mg_id < self.catalog_size:
            raise CatalogMismatchError(
                f"metagraph id {mg_id} outside catalog of size {self.catalog_size}"
            )
        if mg_id in self._matched:
            raise CatalogMismatchError(f"metagraph id {mg_id} already added")
        self._matched.add(mg_id)
        for node, count in counts.node_counts.items():
            self._node.setdefault(node, {})[mg_id] = count
        for pair, count in counts.pair_counts.items():
            self._pair.setdefault(pair, {})[mg_id] = count
        self._compiled = None

    @property
    def matched_ids(self) -> frozenset[int]:
        """Metagraph ids whose counts are present."""
        return frozenset(self._matched)

    def patch_counts(
        self, mg_id: int, retired: MetagraphCounts, added: MetagraphCounts
    ) -> None:
        """Apply an incremental delta to one metagraph's Eq. 1–2 counts.

        The inverse-and-forward of :meth:`add_counts` for dynamic graphs
        (:mod:`repro.index.delta`): ``retired`` contributions are
        subtracted, ``added`` ones folded in, and the sparse store is
        left bit-identical to a from-scratch rebuild on the mutated
        graph — emptied rows/pairs disappear and the compiled CSR
        snapshot is invalidated.
        """
        if mg_id not in self._matched:
            raise CatalogMismatchError(
                f"metagraph id {mg_id} has no counts to patch"
            )
        for table, plus, minus, what in (
            (self._node, added.node_counts, retired.node_counts, "node"),
            (self._pair, added.pair_counts, retired.pair_counts, "pair"),
        ):
            for key, count in plus.items():
                row = table.setdefault(key, {})
                row[mg_id] = row.get(mg_id, 0) + count
            for key, count in minus.items():
                row = table.get(key)
                remaining = (row or {}).get(mg_id, 0) - count
                if remaining < 0:
                    raise DeltaError(
                        f"metagraph {mg_id}: {what} count for {key!r} went negative"
                    )
                if remaining:
                    row[mg_id] = remaining
                else:
                    row.pop(mg_id, None)
                    if not row:
                        del table[key]
        self._compiled = None

    def verify_catalog(self, catalog: MetagraphCatalog) -> None:
        """Raise unless the store matches the catalog's id space."""
        catalog.verify_compatible(self.catalog_size)

    # ------------------------------------------------------------------
    # the read side
    # ------------------------------------------------------------------
    def compile(self) -> CompiledVectors:
        """Freeze the counts into the CSR snapshot readers use (cached).

        The snapshot is shared by every model and trainer over this
        store and is invalidated automatically when :meth:`add_counts`
        or :meth:`patch_counts` changes the counts.
        """
        if self._compiled is None:
            self._compiled = CompiledVectors.build(
                self._node,
                self._pair,
                catalog_size=self.catalog_size,
                transform=self.transform,
            )
        return self._compiled

    def adopt_compiled(self, compiled: CompiledVectors) -> CompiledVectors:
        """Install a pre-built snapshot (e.g. mmap-loaded) as current.

        The cold-start counterpart of :meth:`compile`: a snapshot
        restored straight from a format-v2 sidecar
        (:func:`~repro.index.persist.load_compiled`) serves without the
        CSR rebuild.  The caller vouches that the snapshot describes
        this store's counts — snapshot loading does so via the manifest
        digests.  Subsequent mutations invalidate it as usual.
        """
        if compiled.catalog_size != self.catalog_size:
            raise CatalogMismatchError(
                f"compiled snapshot over {compiled.catalog_size} metagraphs "
                f"does not match catalog size {self.catalog_size}"
            )
        self._compiled = compiled
        return compiled

    def is_current_snapshot(self, compiled: CompiledVectors) -> bool:
        """True iff ``compiled`` is this store's up-to-date snapshot.

        Checks identity against the cache without forcing a rebuild: a
        snapshot taken before the last mutation (the cache was cleared)
        or belonging to another store is simply not current.
        """
        return compiled is self._compiled


def build_vectors(
    graph: TypedGraph,
    catalog: MetagraphCatalog,
    mg_ids: Iterable[int] | None = None,
    matcher: MatcherProtocol | None = None,
    transform: Transform = identity,
    index: InstanceIndex | None = None,
    vectors: MetagraphVectors | None = None,
    on_metagraph: Callable[[int, float], None] | None = None,
) -> tuple[MetagraphVectors, InstanceIndex]:
    """Match metagraphs and build/extend the vector store.

    Parameters
    ----------
    mg_ids:
        Which catalog ids to match (default: all).  Dual-stage training
        calls this twice — first with the seed ids, later with the
        selected candidates — passing the same ``vectors``/``index`` to
        extend them in place.
    matcher:
        Matching engine (default: the compiled integer-CSR kernel,
        counted through its array fast path).  Every engine yields
        bit-identical counts; the choice is purely about speed.
    on_metagraph:
        Optional callback ``(mg_id, seconds)`` invoked after each
        metagraph is matched; the experiment harness uses it to record
        per-metagraph matching cost (Table III, Fig. 8, Fig. 11).
    """
    store = vectors if vectors is not None else MetagraphVectors(
        len(catalog), anchor_type=catalog.anchor_type, transform=transform
    )
    store.verify_catalog(catalog)
    idx = index if index is not None else InstanceIndex(
        len(catalog), anchor_type=catalog.anchor_type
    )
    ids = list(mg_ids) if mg_ids is not None else list(catalog.ids())
    for mg_id in ids:
        if idx.is_matched(mg_id):
            continue
        start = time.perf_counter()
        counts = match_and_count(
            graph, catalog[mg_id], anchor_type=catalog.anchor_type, matcher=matcher
        )
        elapsed = time.perf_counter() - start
        idx.add(mg_id, counts)
        store.add_counts(mg_id, counts)
        if on_metagraph is not None:
            on_metagraph(mg_id, elapsed)
    return store, idx
