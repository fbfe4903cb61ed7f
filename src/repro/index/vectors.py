"""Metagraph vectors m_x and m_xy (Eq. 1–2): the writers' view of the one store.

:class:`MetagraphVectors` is the last compiled
:class:`~repro.index.compiled.CompiledVectors` snapshot — the integer
counts every reader and the snapshot writer use — plus a pending
integer patch.  The offline build queues one metagraph's whole column
at a time (``add_counts``); the delta path queues the count changes of
one edit (``patch_counts``), checked against the snapshot and what is
already pending before anything is recorded.  :meth:`MetagraphVectors.compile`
splices the pending patch into the snapshot
(:meth:`~repro.index.compiled.CompiledVectors.splice`), so after a delta
the cost follows the rows it touched, and a fresh store's first compile
is a cold build.  Counts arrive and stay as arrays
(:class:`~repro.index.instance_index.MetagraphCounts`); nothing is keyed
by node id except the table of nodes the snapshot has no row for yet.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.exceptions import CatalogMismatchError, DeltaError, SnapshotError
from repro.graph.typed_graph import NodeId
from repro.index.compiled import PAIR_STRIDE, CompiledVectors, patched_rows
from repro.index.instance_index import InstanceIndex, MetagraphCounts
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


_NO_ROWS = np.zeros((0, 3), dtype=np.int64)


def _packed_pairs(keys: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """The packed key of every pair row, given its ends' node keys."""
    ends = keys[pairs]
    return ends.min(axis=1) * PAIR_STRIDE + ends.max(axis=1)


def _rows(keys: np.ndarray, mg_id: int, delta: np.ndarray) -> np.ndarray:
    """Patch rows ``(key, mg_id, delta)``."""
    return np.column_stack([keys, np.full(len(keys), mg_id, dtype=np.int64), delta])


class MetagraphVectors:
    """Sparse m_x / m_xy store over a fixed metagraph catalog.

    ``compiled`` and ``matched_ids`` restore a saved store: the snapshot
    it serves and the metagraph ids counted into it.
    """

    def __init__(
        self,
        catalog_size: int,
        anchor_type: str = "user",
        transform: Transform = identity,
        compiled: CompiledVectors | None = None,
        matched_ids: Iterable[int] = (),
    ):
        if compiled is None:
            compiled = CompiledVectors.empty(catalog_size)
        elif compiled.catalog_size != catalog_size:
            raise CatalogMismatchError(
                f"compiled snapshot over {compiled.catalog_size} metagraphs "
                f"does not match catalog size {catalog_size}"
            )
        self.catalog_size = catalog_size
        self.anchor_type = anchor_type
        self.transform = transform
        self._matched: set[int] = set(matched_ids)
        # the last snapshot, the nodes it has no row for (each mapped to
        # its key: snapshot rows first, then these in arrival order) and
        # the pending node and pair patch rows — one tuple, replaced
        # whole, so a concurrent compile reads them together
        self._state: tuple[
            CompiledVectors, dict[NodeId, int], np.ndarray, np.ndarray
        ] = (compiled, {}, _NO_ROWS, _NO_ROWS)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def _keys(
        nodes: tuple[NodeId, ...], base: CompiledVectors, entering: dict[NodeId, int]
    ) -> np.ndarray:
        """The key of every node; nodes new to ``base`` join ``entering``."""
        keys = np.empty(len(nodes), dtype=np.int64)
        for i, node in enumerate(nodes):
            key = base.position(node)
            if key is None:
                key = entering.setdefault(node, base.num_nodes + len(entering))
            keys[i] = key
        return keys

    def add_counts(self, mg_id: int, counts: MetagraphCounts) -> None:
        """Queue one metagraph's Eq. 1–2 counts as a new column."""
        if not 0 <= mg_id < self.catalog_size:
            raise CatalogMismatchError(
                f"metagraph id {mg_id} outside catalog of size {self.catalog_size}"
            )
        if mg_id in self._matched:
            raise CatalogMismatchError(f"metagraph id {mg_id} already added")
        base, entering, node_patch, pair_patch = self._state
        entering = dict(entering)
        keys = self._keys(counts.nodes, base, entering)
        self._matched.add(mg_id)
        self._state = (
            base,
            entering,
            np.concatenate([node_patch, _rows(keys, mg_id, counts.node_count)]),
            np.concatenate(
                [pair_patch, _rows(_packed_pairs(keys, counts.pairs), mg_id, counts.pair_count)]
            ),
        )

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
        subtracted, ``added`` ones folded in, and the next
        :meth:`compile` is array-identical to a from-scratch rebuild on
        the mutated graph — emptied rows and pairs disappear.  All or
        nothing: every touched count is checked against the snapshot
        plus what is already pending before anything is recorded, so a
        :class:`DeltaError` leaves the store as it was.
        """
        if mg_id not in self._matched:
            raise CatalogMismatchError(
                f"metagraph id {mg_id} has no counts to patch"
            )
        base, entering, node_patch, pair_patch = self._state
        entering = dict(entering)
        old = self._keys(retired.nodes, base, entering)
        new = self._keys(added.nodes, base, entering)
        node = np.concatenate(
            [_rows(old, mg_id, -retired.node_count), _rows(new, mg_id, added.node_count)]
        )
        pair = np.concatenate(
            [
                _rows(_packed_pairs(old, retired.pairs), mg_id, -retired.pair_count),
                _rows(_packed_pairs(new, added.pairs), mg_id, added.pair_count),
            ]
        )
        n = base.num_nodes

        def node_rows(keys: np.ndarray) -> np.ndarray:
            return np.where(keys < n, keys, -1)

        def pair_rows(keys: np.ndarray) -> np.ndarray:
            lo, hi = np.divmod(keys, PAIR_STRIDE)
            return base.pair_rows(np.where(hi < n, lo, -1), hi)

        # every touched row as it would read: snapshot + pending + this
        for what, rows, pending, table, base_rows in (
            ("node", node, node_patch, base._node_table, node_rows),
            ("pair", pair, pair_patch, base._pair_table, pair_rows),
        ):
            keys, _, (indptr, _, counts) = patched_rows(
                table,
                np.concatenate([pending[pending[:, 1] == mg_id], rows]),
                base_rows,
                self.catalog_size,
            )
            if (counts < 0).any():
                names = (*base.nodes, *entering)
                key = int(keys[np.searchsorted(indptr, np.argmax(counts < 0), side="right") - 1])
                culprit = (
                    names[key]
                    if what == "node"
                    else tuple(names[end] for end in divmod(key, PAIR_STRIDE))
                )
                raise DeltaError(
                    f"metagraph {mg_id}: {what} count for {culprit!r} went negative"
                )
        self._state = (
            base, entering, np.concatenate([node_patch, node]), np.concatenate([pair_patch, pair])
        )

    def verify_catalog(
        self, catalog: MetagraphCatalog, index: InstanceIndex | None = None
    ) -> None:
        """Raise unless the store (and ``index``, with the same matched
        ids) matches the catalog's id space."""
        catalog.verify_compatible(self.catalog_size)
        if index is None:
            return
        catalog.verify_compatible(index.catalog_size)
        if self.matched_ids != index.matched_ids():
            raise CatalogMismatchError(
                f"vectors hold metagraphs {sorted(self.matched_ids)} but the "
                f"index records {sorted(index.matched_ids())}"
            )

    # ------------------------------------------------------------------
    # the read side
    # ------------------------------------------------------------------
    def compile(self) -> CompiledVectors:
        """The current snapshot: the last one with the pending patch spliced in.

        The snapshot is shared by every model and trainer over this
        store; a call with nothing pending returns it as is.  Otherwise
        only the patched rows are rebuilt
        (:meth:`CompiledVectors.splice`) — after the queued columns of a
        fresh store that is every row, a cold build.
        """
        state = self._state
        base, entering, node_patch, pair_patch = state
        if not len(node_patch) and not len(pair_patch):
            return base
        compiled = base.splice(tuple(entering), node_patch, pair_patch, self.transform)
        if self._state is state:
            self._state = (compiled, {}, _NO_ROWS, _NO_ROWS)
        return compiled
