"""Metagraph vectors m_x and m_xy (Eq. 1–2): the write-side count ledger.

:class:`MetagraphVectors` holds the sparse Eq. 1–2 counts for every
anchor node and anchor pair in the shape the *writers* need: the offline
build folds one metagraph at a time in (``add_counts``), the delta path
patches rows in place (``patch_counts``), and persistence walks the
dicts.  Nothing reads counts back out of it: :meth:`MetagraphVectors.compile`
freezes them into a :class:`~repro.index.compiled.CompiledVectors` CSR
snapshot, and that snapshot is what ranking, ``proximity``, ``explain``
and the trainer's triplet stacks all score against.  ``patch_counts``
records the keys it changes and keeps the last snapshot as a base, so
the compile after a delta splices only the touched rows into it.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping
from itertools import chain
from typing import TypeVar

from repro.exceptions import CatalogMismatchError, DeltaError, SnapshotError
from repro.graph.typed_graph import NodeId
from repro.index.compiled import CompiledVectors
from repro.index.instance_index import MetagraphCounts
from repro.index.transform import Transform, identity
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


Key = TypeVar("Key", bound=Hashable)


def _new_values(
    table: dict[Key, dict[int, int]],
    mg_id: int,
    plus: Mapping[Key, int],
    minus: Mapping[Key, int],
    what: str,
) -> dict[Key, int]:
    """Every count of column ``mg_id`` the patch changes, checked first.

    Raises :class:`DeltaError` before anything is written when a count
    would go negative.
    """
    values: dict[Key, int] = {}
    for key in chain(plus, minus):
        row = table.get(key)
        current = row.get(mg_id, 0) if row else 0
        value = current + plus.get(key, 0) - minus.get(key, 0)
        if value < 0:
            raise DeltaError(
                f"metagraph {mg_id}: {what} count for {key!r} went negative"
            )
        if value != current:
            values[key] = value
    return values


def _set_values(
    table: dict[Key, dict[int, int]],
    mg_id: int,
    values: Mapping[Key, int],
    dirty: dict[Key, bool] | None,
) -> None:
    """Write checked counts; emptied rows disappear.

    Each key goes into ``dirty`` (when tracking), mapped to whether its
    row was (re)created.  A (re)created row moves to the end of
    ``dirty``, as it does in ``table``.
    """
    for key, value in values.items():
        row = table.get(key)
        created = row is None
        if row is None:
            row = table[key] = {}
        if value:
            row[mg_id] = value
        else:
            del row[mg_id]
            if not row:
                del table[key]
        if dirty is None:
            continue
        if created:
            dirty.pop(key, None)
            dirty[key] = True
        else:
            dirty.setdefault(key, False)


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
        # what compile() splices when _compiled is stale: the last
        # snapshot plus the node and pair keys changed since, each mapped
        # to whether its row was (re)created (one tuple, so a concurrent
        # compile reads base and dirty rows together); None means no
        # base, so the next compile is a cold build
        self._pending: tuple[
            CompiledVectors,
            dict[NodeId, bool],
            dict[tuple[NodeId, NodeId], bool],
        ] | None = None

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
        # a new column touches rows everywhere: the next compile is cold
        self._compiled = self._pending = None

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
        graph — emptied rows/pairs disappear.  All or nothing: every
        subtraction is checked before anything changes, so a
        :class:`DeltaError` leaves the ledger and its snapshot as they
        were.  Every changed key is recorded, so the next
        :meth:`compile` rebuilds only those rows.
        """
        if mg_id not in self._matched:
            raise CatalogMismatchError(
                f"metagraph id {mg_id} has no counts to patch"
            )
        node_values = _new_values(
            self._node, mg_id, added.node_counts, retired.node_counts, "node"
        )
        pair_values = _new_values(
            self._pair, mg_id, added.pair_counts, retired.pair_counts, "pair"
        )
        if not node_values and not pair_values:
            return
        if self._compiled is not None:
            self._pending = (self._compiled, {}, {})
            self._compiled = None
        pending = self._pending
        _set_values(
            self._node, mg_id, node_values, None if pending is None else pending[1]
        )
        _set_values(
            self._pair, mg_id, pair_values, None if pending is None else pending[2]
        )

    def verify_catalog(self, catalog: MetagraphCatalog) -> None:
        """Raise unless the store matches the catalog's id space."""
        catalog.verify_compatible(self.catalog_size)

    # ------------------------------------------------------------------
    # the read side
    # ------------------------------------------------------------------
    def compile(self) -> CompiledVectors:
        """Freeze the counts into the CSR snapshot readers use (cached).

        The snapshot is shared by every model and trainer over this
        store and goes stale when :meth:`add_counts` or
        :meth:`patch_counts` changes the counts.  After patches, the
        last snapshot is spliced: the untouched rows are copied intact
        and only the patched ones are rebuilt
        (:meth:`CompiledVectors.splice`).  After :meth:`add_counts` (a
        new metagraph column touches rows everywhere) it is a cold
        build.  Both give the same arrays.
        """
        compiled = self._compiled
        if compiled is None:
            pending = self._pending
            if pending is None:
                compiled = CompiledVectors.build(
                    self._node,
                    self._pair,
                    catalog_size=self.catalog_size,
                    transform=self.transform,
                )
            else:
                base, dirty_nodes, dirty_pairs = pending
                compiled = base.splice(
                    self._node, self._pair, dirty_nodes, dirty_pairs, self.transform
                )
            self._compiled, self._pending = compiled, None
        return compiled

    def adopt_compiled(self, compiled: CompiledVectors) -> CompiledVectors:
        """Install a pre-built snapshot (e.g. mmap-loaded) as current.

        The cold-start counterpart of :meth:`compile`: a snapshot
        restored from disk (:func:`~repro.index.persist.load_index`)
        serves without the CSR rebuild.  The caller vouches that the
        snapshot describes this store's counts — snapshot loading does
        so via the manifest digests.  Subsequent patches splice into it
        like into any compiled snapshot.
        """
        if compiled.catalog_size != self.catalog_size:
            raise CatalogMismatchError(
                f"compiled snapshot over {compiled.catalog_size} metagraphs "
                f"does not match catalog size {self.catalog_size}"
            )
        self._compiled, self._pending = compiled, None
        return compiled

    def is_current_snapshot(self, compiled: CompiledVectors) -> bool:
        """True iff ``compiled`` is this store's up-to-date snapshot.

        Checks identity against the cache without forcing a rebuild: a
        snapshot taken before the last mutation (the cache was cleared)
        or belonging to another store is simply not current.
        """
        return compiled is self._compiled

