"""SemanticProximitySearch: the one-object facade over the whole pipeline.

Wraps Fig. 3's offline and online phases behind the API a downstream
application wants:

>>> engine = SemanticProximitySearch(graph)                 # doctest: +SKIP
>>> engine.prepare()                        # mine + match + index (offline)
>>> engine.fit("classmate", labelled_queries)        # learn one class
>>> engine.query("classmate", "Kate", k=10)          # online ranking
>>> engine.query_many("classmate", ["Kate", "Bob"])  # batched serving
>>> engine.explain("classmate", "Kate", "Jay")       # why they are close

Classes are independent models over the shared metagraph vectors, so
adding a class never recomputes matching.  ``fit`` accepts either
labelled queries (positives per query) or raw pairwise triplets.

Serving is compiled: ``prepare()`` freezes the counts into
the CSR backend (:meth:`MetagraphVectors.compile`), every fitted model
scores against it, and the sorted anchor universe is computed once and
reused by ``query``/``query_many`` instead of being re-sorted per call.
With ``shards=K`` the compiled universe is partitioned into K
node-range shards and batches fan out over ``serving_workers`` router
workers (:mod:`repro.serving`) — rankings stay bit-identical to the
single-process path.  Queries are validated before scoring: a node
that is absent from the graph, or not of the anchor type, raises
:class:`~repro.exceptions.QueryError` instead of silently ranking as
all zeros.

The offline phase is restartable: ``prepare(cache_dir=...)`` reuses a
valid on-disk snapshot (and persists a fresh build), ``save_index()``
snapshots the prepared index plus fitted classes, and ``from_index()``
cold-starts an engine from a snapshot without mining or matching at
all.  Builds parallelise over a process pool via
:class:`~repro.index.parallel.IndexBuildConfig`.

The graph may keep evolving after ``prepare()``:
``apply_updates(delta)`` applies a batch of
:class:`~repro.index.delta.GraphEdit` mutations and incrementally
patches the Eq. 1–2 counts instead of rebuilding (bit-identical to a
rebuild; see :mod:`repro.index.delta`).  Mutating the graph *directly*
is detected via the graph's mutation counter: the anchor universe
re-sorts itself, and serving raises
:class:`~repro.exceptions.StaleIndexError` instead of silently
answering from desynchronised counts.
"""

from __future__ import annotations

import tempfile
import threading
import warnings
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path

from repro.exceptions import LearningError, SnapshotError, StaleIndexError
from repro.graph.typed_graph import NodeId, TypedGraph
from repro.serving.backend import (
    InProcessBackend,
    ShardBackend,
    SubprocessBackend,
)
from repro.serving.router import QueryRouter, ShardedVectors
from repro.serving.validation import validate_query_node
from repro.index.delta import DeltaStats, GraphDelta, GraphEdit, apply_delta
from repro.index.instance_index import InstanceIndex
from repro.index.parallel import IndexBuildConfig, build_index
from repro.index.persist import (
    MANIFEST_FILE,
    LoadedIndex,
    catalog_fingerprint,
    load_index,
    read_manifest,
    save_index,
    snapshot_digest,
)
from repro.index.transform import TRANSFORMS, Transform, identity
from repro.index.vectors import MetagraphVectors, build_vectors
from repro.learning.examples import generate_triplets
from repro.learning.model import ProximityModel, SortedUniverse, require_valid_k
from repro.learning.objective import Triplet
from repro.learning.trainer import Trainer, TrainerConfig
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.metagraph import Metagraph
from repro.mining import MinerConfig, mine_catalog


class SemanticProximitySearch:
    """Semantic proximity search over one heterogeneous graph.

    Parameters
    ----------
    graph:
        The typed object graph.
    anchor_type:
        The node type whose proximity is measured (``"user"`` default).
    miner_config:
        Mining knobs (pattern size, support threshold).
    trainer_config:
        Gradient-ascent knobs shared by all classes.
    transform:
        Count transform applied to the metagraph vectors.
    shards:
        Partition the compiled universe into this many node-range
        shards (:mod:`repro.serving`) and serve ``query``/``query_many``
        through the shard router.  ``1`` (default) keeps the
        single-process compiled path; any value produces bit-identical
        rankings.
    serving_workers:
        Worker threads the shard router fans a query batch out over
        (only meaningful with ``shards > 1``).
    serving_backend:
        Where shard scoring runs: ``"thread"`` (default) keeps every
        shard in this process; ``"process"`` supervises standalone
        shard-worker processes that mmap their slice from a format-v2
        snapshot and answer over the serving wire protocol — rankings
        stay bit-identical.
    replicas:
        Worker processes per shard with ``serving_backend="process"``
        (default: ``REPRO_SERVING_REPLICAS`` or 1); a shard request
        fails over to the next replica when a worker dies.
    """

    def __init__(
        self,
        graph: TypedGraph,
        anchor_type: str = "user",
        miner_config: MinerConfig | None = None,
        trainer_config: TrainerConfig | None = None,
        transform: Transform = identity,
        shards: int = 1,
        serving_workers: int = 1,
        serving_backend: str = "thread",
        replicas: int | None = None,
    ):
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if serving_workers < 1:
            raise ValueError(
                f"serving_workers must be >= 1, got {serving_workers}"
            )
        if serving_backend not in ("thread", "process"):
            raise ValueError(
                f"serving_backend must be 'thread' or 'process', got "
                f"{serving_backend!r}"
            )
        self.graph = graph
        self.anchor_type = anchor_type
        self.miner_config = miner_config or MinerConfig()
        self.trainer_config = trainer_config or TrainerConfig()
        self.transform = transform
        self.shards = shards
        self.serving_workers = serving_workers
        self.serving_backend = serving_backend
        self.replicas = replicas
        # double-checked locking: writes only under the serving lock;
        # the unlocked fast-path reads see either the old or the new
        # router, both of which serve correctly
        self._router: QueryRouter | None = None  # guarded-by: _serving_lock (writes)
        # serialises serving-tier (re)builds: concurrent queries racing
        # a snapshot change must produce ONE swap, not one per thread.
        # Reentrant so refresh_serving() works both standalone and from
        # under _serving_router()/reload_index()
        self._serving_lock = threading.RLock()
        # the compiled snapshot the router's backend was built over —
        # a change triggers a zero-downtime swap on the next query
        self._router_compiled = None  # guarded-by: _serving_lock (writes)
        # latest on-disk snapshot of the current compiled counts (the
        # process backend's workers mmap it); _snapshot_compiled pins
        # which CompiledVectors the path corresponds to and
        # _snapshot_digest is its manifest's self-digest as of that write
        self._snapshot_path: Path | None = None
        self._snapshot_compiled = None
        self._snapshot_digest: str | None = None
        self._snapshots_tmp: tempfile.TemporaryDirectory | None = None
        self._snapshot_seq = 0
        self.catalog: MetagraphCatalog | None = None
        self.vectors: MetagraphVectors | None = None
        self.index: InstanceIndex | None = None
        self._models: dict[str, ProximityModel] = {}
        self._universe: SortedUniverse | None = None
        self._universe_version: int | None = None
        # graph.version the counts describe; None until prepared.  A
        # direct graph mutation bumps graph.version past this, which
        # serving detects instead of answering from stale counts.
        self._index_graph_version: int | None = None
        # GraphEdit JSON records applied via apply_updates() since the
        # original build (persisted so snapshots stay reconstructible)
        self._update_log: list[dict] = []
        # True when this engine's catalog came from its own miner_config
        # (snapshots then record the knobs so staleness is detectable)
        self._catalog_from_mining = False

    # ------------------------------------------------------------------
    # offline phase
    # ------------------------------------------------------------------
    def prepare(
        self,
        catalog: MetagraphCatalog | None = None,
        cache_dir: str | Path | None = None,
        build_config: IndexBuildConfig | None = None,
    ) -> "SemanticProximitySearch":
        """Run the offline phase: mine (unless given a catalog), match, index.

        Re-preparing replaces the vector store, so previously fitted
        models (trained against the old counts) are dropped — refit
        each class afterwards (snapshot-restored classes excepted, see
        below).

        ``cache_dir`` makes the phase restartable: a valid snapshot for
        *this* graph (matching fingerprint, format version and
        transform) is loaded instead of mining and matching — restoring
        any classes it carries — and a fresh build is persisted there
        for the next cold start.  A stale or corrupt snapshot is
        rebuilt, never trusted.  ``build_config`` spreads the matching
        work across a process pool (:class:`IndexBuildConfig`); the
        result is identical for any worker count.
        """
        if cache_dir is not None:
            try:
                loaded = load_index(
                    cache_dir, graph=self.graph, transform=self.transform
                )
                self._check_snapshot_compatible(loaded)
                if catalog is not None:
                    if catalog_fingerprint(catalog) != loaded.manifest.get(
                        "catalog_sha256"
                    ):
                        raise SnapshotError(
                            "snapshot catalog differs from the provided catalog"
                        )
                else:
                    recorded_knobs = loaded.manifest.get("extra", {}).get(
                        "miner_config"
                    )
                    if (
                        recorded_knobs is not None
                        and recorded_knobs != self.miner_config.to_json_dict()
                    ):
                        raise SnapshotError(
                            f"snapshot was mined with {recorded_knobs}, this "
                            f"engine mines with {self.miner_config.to_json_dict()}"
                        )
            except SnapshotError as exc:
                # absent, stale, corrupt, or built under another engine
                # configuration: rebuild below (and overwrite — a cache
                # dir belongs to one engine configuration).  Anything
                # beyond a plain missing snapshot is worth a warning so
                # two engines ping-ponging one cache dir is diagnosable.
                if (Path(cache_dir) / MANIFEST_FILE).exists():
                    warnings.warn(
                        f"rebuilding index cache at {cache_dir}: {exc}",
                        stacklevel=2,
                    )
            else:
                self._install_loaded(loaded)
                return self
        if catalog is not None:
            self.catalog = catalog
            self._catalog_from_mining = False
        else:
            self.catalog = mine_catalog(
                self.graph, self.miner_config, anchor_type=self.anchor_type
            )
            self._catalog_from_mining = True
        self.vectors, self.index = build_index(
            self.graph, self.catalog, config=build_config, transform=self.transform
        )
        self.vectors.compile()
        # the old router serves the replaced snapshot: close it (and any
        # worker processes it supervises) before it can leak
        self._close_router()
        self._universe = None
        self._models.clear()
        self._index_graph_version = self.graph.version
        self._update_log = []
        if cache_dir is not None:
            self.save_index(cache_dir)
        return self

    def _check_snapshot_compatible(self, loaded: LoadedIndex) -> None:
        """Reject a snapshot this engine cannot serve from as stale."""
        if loaded.vectors.anchor_type != self.anchor_type:
            raise SnapshotError(
                f"snapshot anchors {loaded.vectors.anchor_type!r}, engine "
                f"anchors {self.anchor_type!r}"
            )
        recorded = loaded.manifest.get("transform")
        current = next(
            (name for name, fn in TRANSFORMS.items() if fn is self.transform),
            None,
        )
        if recorded != current:
            raise SnapshotError(
                f"snapshot counts use transform {recorded!r}, engine uses "
                f"{current!r}"
            )

    def _install_loaded(
        self, loaded: LoadedIndex, close_router: bool = True
    ) -> None:
        """Adopt a loaded snapshot as this engine's offline artefacts.

        ``close_router=False`` keeps the live serving tier up while the
        artefacts change underneath it — the :meth:`reload_index` hot
        path, which swaps the router onto the new snapshot afterwards
        instead of tearing it down.
        """
        if close_router:
            self._close_router()
        self.catalog = loaded.catalog
        self.vectors = loaded.vectors
        self._catalog_from_mining = (
            loaded.manifest.get("extra", {}).get("miner_config") is not None
        )
        # a snapshot saved without per-metagraph |I(M)| totals cannot
        # back an InstanceIndex: reconstruction would start every total
        # at 0, so delta updates would drive them negative (or persist
        # wrong totals as authoritative) — serve without one instead
        self.index = loaded.instance_index() if loaded.instance_totals else None
        self._universe = None
        self._index_graph_version = self.graph.version
        self._update_log = list(loaded.manifest.get("update_log", []))
        if loaded.compiled is not None:
            # format-v2 sidecar: the snapshot arrives mmap-loaded,
            # so serving starts without re-freezing the counts
            self.vectors.adopt_compiled(loaded.compiled)
        models = {
            name: ProximityModel(weights, self.vectors, name=name)
            for name, weights in loaded.models.items()
        }
        # one reference swap, not clear-then-refill: a concurrent query
        # during a hot reload sees the full old set or the full new set,
        # never a half-populated dict
        self._models = models

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def save_index(self, path: str | Path) -> Path:
        """Snapshot the offline artefacts (and fitted classes) to disk.

        The snapshot carries the catalog, the count store, per-metagraph
        instance totals, the graph fingerprint, and one weight vector
        per fitted class; :meth:`from_index` restores all of it.  When
        the catalog was mined (rather than supplied), the mining knobs
        are recorded too, so ``prepare(cache_dir=...)`` can detect a
        snapshot mined under different knobs and rebuild.

        A stale engine (graph mutated outside :meth:`apply_updates`)
        refuses to save: the snapshot would stamp the mutated graph's
        fingerprint onto pre-mutation counts, laundering the staleness
        past :meth:`from_index`'s fingerprint check.
        """
        catalog, vectors = self._require_fresh()
        extra = (
            {"miner_config": self.miner_config.to_json_dict()}
            if self._catalog_from_mining
            else None
        )
        target = save_index(
            path,
            vectors,
            catalog,
            graph=self.graph,
            index=self.index,
            models={name: model.weights for name, model in self._models.items()},
            extra=extra,
            update_log=self._update_log,
        )
        # the freshest on-disk copy of the current counts: process
        # shard workers mmap their slice from here
        self._pin_snapshot(target, snapshot_digest(target))
        return target

    def _pin_snapshot(self, path: Path, digest: str) -> None:
        """Record ``path`` as the on-disk copy of the current snapshot.

        ``digest`` is the manifest self-digest of what lies there *now*:
        re-saving to the same directory moves it, so it is recorded at
        every write/load instead of being remembered per path.
        """
        self._snapshot_path = path
        self._snapshot_compiled = self.vectors.compile()
        self._snapshot_digest = digest

    @classmethod
    def from_index(
        cls,
        path: str | Path,
        graph: TypedGraph,
        trainer_config: TrainerConfig | None = None,
        transform: Transform | None = None,
        shards: int = 1,
        serving_workers: int = 1,
        serving_backend: str = "thread",
        replicas: int | None = None,
        mmap: bool = True,
    ) -> "SemanticProximitySearch":
        """Cold-start an engine from a snapshot: no mining, no matching.

        ``graph`` must be the graph the snapshot was built on (checked
        by fingerprint).  Restored classes serve immediately;
        ``transform`` is only needed when the snapshot was built with a
        custom (unnamed) count transform.

        With ``mmap=True`` (default) a format-v2 snapshot's compiled
        sidecar is memory-mapped and adopted as the serving backend —
        near-zero copy, shared between worker processes on one host —
        instead of re-freezing the counts.  ``shards``/
        ``serving_workers``/``serving_backend``/``replicas`` configure
        the sharded serving tier exactly as in the constructor; with
        ``serving_backend="process"`` the shard workers mmap this very
        snapshot, no re-save needed.
        """
        loaded = load_index(path, graph=graph, transform=transform, mmap=mmap)
        engine = cls(
            graph,
            anchor_type=loaded.vectors.anchor_type,
            trainer_config=trainer_config,
            transform=loaded.vectors.transform,
            shards=shards,
            serving_workers=serving_workers,
            serving_backend=serving_backend,
            replicas=replicas,
        )
        engine._install_loaded(loaded)
        if loaded.compiled is not None:
            # process workers can mmap the very snapshot we loaded from
            engine._pin_snapshot(Path(path), snapshot_digest(loaded.manifest))
        return engine

    def universe(self) -> SortedUniverse:
        """The anchor universe sorted by repr, computed once and cached.

        Invalidated automatically whenever the graph mutates (tracked by
        :attr:`TypedGraph.version`), so added or removed anchor nodes
        are always reflected — no ``prepare()`` required.
        """
        if (
            self._universe is None
            or self._universe_version != self.graph.version
        ):
            self._universe = SortedUniverse(
                self.graph.nodes_of_type(self.anchor_type)
            )
            self._universe_version = self.graph.version
        return self._universe

    def _require_prepared(self) -> tuple[MetagraphCatalog, MetagraphVectors]:
        if self.catalog is None or self.vectors is None:
            raise LearningError(
                "offline phase not run: call prepare() before fit()/query()"
            )
        return self.catalog, self.vectors

    def _require_fresh(self) -> tuple[MetagraphCatalog, MetagraphVectors]:
        """Like :meth:`_require_prepared`, but also reject stale counts.

        The graph mutating outside :meth:`apply_updates` leaves the
        Eq. 1–2 counts describing an older graph; serving from them
        would silently return wrong rankings.
        """
        catalog, vectors = self._require_prepared()
        if self._index_graph_version != self.graph.version:
            raise StaleIndexError(
                f"graph mutated since the index was built (version "
                f"{self.graph.version} vs indexed "
                f"{self._index_graph_version}); route mutations through "
                "apply_updates(), or call prepare() to rebuild"
            )
        return catalog, vectors

    # ------------------------------------------------------------------
    # dynamic updates
    # ------------------------------------------------------------------
    def apply_updates(
        self, delta: GraphDelta | Iterable[GraphEdit]
    ) -> DeltaStats:
        """Apply graph edits and incrementally maintain the index.

        Mutates the graph and patches the Eq. 1–2 counts, the instance
        index, the compiled CSR snapshot and every fitted model's dot
        products in place of a full ``prepare()`` rebuild; the result is
        bit-identical to rebuilding on the mutated graph.  Fitted models
        keep their trained weights (retrain when the semantics of a
        class should track the new structure).
        """
        catalog, vectors = self._require_fresh()
        if not isinstance(delta, GraphDelta):
            delta = GraphDelta(delta)

        def record(edit: GraphEdit) -> None:
            # per-effective-edit checkpoint: a failing edit mid-batch
            # leaves everything before it applied, versioned and logged
            # — nothing after it touched, and no-ops never bloat the log
            self._index_graph_version = self.graph.version
            self._update_log.append(edit.to_json_dict())

        try:
            stats = apply_delta(
                self.graph, catalog, vectors, delta,
                index=self.index, on_edit=record,
            )
        finally:
            # eager, so the next query pays nothing; a cached no-op
            # when no edit touched the counts
            for model in self._models.values():
                model.compile()
        return stats

    # ------------------------------------------------------------------
    # learning
    # ------------------------------------------------------------------
    def fit(
        self,
        class_name: str,
        labels: Mapping[NodeId, frozenset[NodeId]] | None = None,
        queries: Sequence[NodeId] | None = None,
        triplets: Sequence[Triplet] | None = None,
        num_examples: int = 500,
        seed: int = 0,
    ) -> ProximityModel:
        """Learn one semantic class; returns (and stores) its model.

        Supply either raw ``triplets``, or ``labels`` (positives per
        query) with optional ``queries`` (defaults to every labelled
        query) from which triplets are sampled.
        """
        _catalog, vectors = self._require_fresh()
        if triplets is None:
            if labels is None:
                raise LearningError("fit() needs labels or triplets")
            if queries is None:
                queries = sorted(
                    (q for q, members in labels.items() if members), key=repr
                )
            triplets = generate_triplets(
                queries,
                labels,
                self.universe(),
                num_examples=num_examples,
                seed=seed,
            )
        trainer = Trainer(self.trainer_config)
        weights = trainer.train(triplets, vectors)
        model = ProximityModel(weights, vectors, name=class_name)
        self._models[class_name] = model
        return model

    @property
    def classes(self) -> tuple[str, ...]:
        """The fitted class names."""
        return tuple(sorted(self._models))

    def model(self, class_name: str) -> ProximityModel:
        """The fitted model of a class; raises for unknown classes."""
        try:
            return self._models[class_name]
        except KeyError:
            raise LearningError(
                f"class {class_name!r} not fitted; available: {list(self.classes)}"
            ) from None

    # ------------------------------------------------------------------
    # online phase
    # ------------------------------------------------------------------
    def _validate_query_node(self, node: NodeId, role: str = "query") -> None:
        """Reject nodes the online phase cannot rank (QueryError)."""
        validate_query_node(self.graph, node, self.anchor_type, role=role)

    @property
    def _routed(self) -> bool:
        """Whether ``query``/``query_many`` go through the shard router."""
        return self.shards > 1 or self.serving_backend == "process"

    def _close_router(self) -> None:
        """Tear the serving tier down (thread pools, worker processes)."""
        with self._serving_lock:
            router, self._router = self._router, None
            self._router_compiled = None
        if router is not None:
            router.close()

    def close(self) -> None:
        """Release serving resources: router, workers, owned snapshots.

        Idempotent; the engine stays usable (the serving tier rebuilds
        lazily on the next query).  Also available as a context
        manager: ``with SemanticProximitySearch(...) as engine: ...``.
        """
        self._close_router()
        if self._snapshots_tmp is not None:
            tmp, self._snapshots_tmp = self._snapshots_tmp, None
            self._snapshot_seq = 0
            if self._snapshot_path is not None and self._snapshot_path.is_relative_to(
                Path(tmp.name)
            ):
                self._snapshot_path = None
                self._snapshot_compiled = None
                self._snapshot_digest = None
            tmp.cleanup()

    def __enter__(self) -> "SemanticProximitySearch":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _process_snapshot(self, compiled) -> Path:
        """An on-disk format-v2 snapshot of ``compiled``, saving if needed.

        Process shard workers mmap their slice from disk, so serving a
        snapshot that only exists in memory (fresh ``prepare()``, or
        counts patched by :meth:`apply_updates`) first persists it into
        an engine-owned temporary directory, one versioned subdirectory
        per snapshot generation.  A user-supplied snapshot
        (:meth:`from_index` / :meth:`save_index`) is mmapped where it
        lies and never rewritten.
        """
        if (
            self._snapshot_path is not None
            and self._snapshot_compiled is compiled
        ):
            return self._snapshot_path
        if self._snapshots_tmp is None:
            self._snapshots_tmp = tempfile.TemporaryDirectory(
                prefix="repro-engine-snapshots-"
            )
        self._snapshot_seq += 1
        path = Path(self._snapshots_tmp.name) / f"v{self._snapshot_seq}"
        self.save_index(path)
        return path

    def _build_backend(self, compiled) -> ShardBackend:
        """A fresh, not-yet-started backend over one compiled snapshot."""
        if self.serving_backend == "process":
            return SubprocessBackend(
                self._process_snapshot(compiled),
                self.shards,
                replicas=self.replicas,
            )
        return InProcessBackend(ShardedVectors.partition(compiled, self.shards))

    def refresh_serving(self) -> None:
        """Rebuild the serving tier over the current snapshot, zero-downtime.

        The explicit swap hook: a new backend (fresh shard partitions;
        with ``serving_backend="process"``, a fresh worker fleet) warms
        while the old one keeps serving, new batches move over
        atomically, and the old backend drains its in-flight batches
        before closing.  ``query``/``query_many`` trigger the same swap
        lazily whenever the compiled snapshot changed; call this to
        force one — e.g. to re-point workers at a just-saved snapshot
        or pick up new ``REPRO_SERVING_*`` knobs.
        """
        if not self._routed:
            return
        _catalog, vectors = self._require_fresh()
        with self._serving_lock:
            compiled = vectors.compile()
            backend = self._build_backend(compiled)
            if self._router is None:
                self._router = QueryRouter(
                    backend, workers=self.serving_workers
                )
            else:
                self._router.swap(backend)
            self._router_compiled = compiled

    def serving_digest(self) -> str:
        """Content digest of the snapshot serving answers right now.

        The front-end's cache-key component: two engines (or one engine
        across a hot reload) report the same digest exactly when every
        ranking they serve is bit-identical.  An engine pinned to an
        on-disk snapshot reports that snapshot's manifest self-digest
        (so a frontend and a snapshot-directory watcher agree on
        identity); an engine whose counts only live in memory digests
        the compiled CSR arrays directly.
        """
        _catalog, vectors = self._require_fresh()
        compiled = vectors.compile()
        if (
            self._snapshot_digest is not None
            and self._snapshot_compiled is compiled
        ):
            return self._snapshot_digest
        return compiled.content_digest()

    def reload_index(self, path: str | Path, mmap: bool = True) -> str:
        """Hot-swap this engine onto an on-disk snapshot, zero-downtime.

        The serving-tier counterpart of :meth:`from_index`: the
        snapshot is validated and loaded *while the current router
        keeps answering*, the artefacts (counts, compiled sidecar,
        fitted classes) are adopted, and the router swaps onto the new
        snapshot via :meth:`QueryRouter.swap` — in-flight batches drain
        on the old backend, new batches take the new one, and nothing
        returns an error in between.  In-flight queries may resolve
        against either snapshot during the swap window.

        A snapshot whose recorded update log strictly *extends* this
        engine's (the publisher kept applying :meth:`apply_updates`
        after our last common point) replays the missing suffix onto
        the live graph once the snapshot has validated against it, so
        the fingerprint check still holds and the universe picks up
        added/removed anchors; a snapshot that fails validation changes
        nothing.  Returns the new :meth:`serving_digest`.
        """
        source = Path(path)
        manifest = read_manifest(source)
        recorded_log = list(manifest.get("update_log", []))
        ours = len(self._update_log)
        suffix = GraphDelta.from_json_list(
            recorded_log[ours:] if recorded_log[:ours] == self._update_log else []
        )
        # validate before anything live moves: the suffix is replayed
        # onto a copy first, so a rejected snapshot leaves the graph,
        # the digest and every ranking exactly as they were
        preview = self.graph.copy() if suffix else self.graph
        suffix.apply_to(preview)
        loaded = load_index(
            source, graph=preview, transform=self.transform, mmap=mmap
        )
        self._check_snapshot_compatible(loaded)
        suffix.apply_to(self.graph)
        self._install_loaded(loaded, close_router=False)
        self._pin_snapshot(source, snapshot_digest(loaded.manifest))
        with self._serving_lock:
            if self._router is not None:
                if self._routed:
                    self.refresh_serving()
                else:
                    self._close_router()
        return self.serving_digest()

    def frontend(self, config=None, cache=None):
        """A :class:`~repro.serving.frontend.QueryFrontend` over this engine.

        The batching/caching serving face: validates and coalesces
        concurrent single queries into dynamic ``query_many`` batches
        and memoises rankings under :meth:`serving_digest`-scoped keys.
        The frontend borrows the engine (closing the frontend leaves
        the engine open).
        """
        # lazy import: repro.serving.frontend imports this module's
        # collaborators; the facade stays importable without it
        from repro.serving.frontend import QueryFrontend

        return QueryFrontend(self, config=config, cache=cache)

    def serve_forever(
        self,
        listen: str = "127.0.0.1:8766",
        config=None,
        watch: str | Path | None = None,
    ) -> None:
        """Serve this engine over HTTP until interrupted (blocking).

        Binds ``HOST:PORT`` from ``listen`` and answers ``/query``,
        ``/reload``, ``/stats`` and ``/health``
        (:class:`~repro.serving.frontend.FrontendServer`).  ``watch``
        points at a snapshot directory to poll for hot reloads.
        """
        from repro.serving.frontend import (
            FrontendServer,
            QueryFrontend,
            parse_listen,
        )

        host, port = parse_listen(listen)
        front = QueryFrontend(self, config=config)
        try:
            if watch is not None:
                front.watch(watch)
            server = FrontendServer(front, host=host, port=port)
            try:
                server.serve_forever()
            finally:
                server.shutdown()
        finally:
            front.close()

    def _serving_router(self, model: ProximityModel) -> QueryRouter:
        """The shard router over the *current* compiled snapshot.

        Re-builds the backend lazily whenever the snapshot changed (new
        counts folded in, :meth:`apply_updates`, re-``prepare()``) —
        via :meth:`QueryRouter.swap`, so in-flight batches finish on
        the old snapshot while new ones take the new — and keeps the
        model's dot products in lock-step, mirroring
        :meth:`ProximityModel.rank`'s transparent recompile.
        """
        compiled = model.compile().compiled
        if self._router is None or self._router_compiled is not compiled:
            # double-checked under the serving lock: many query threads
            # may race one snapshot change, exactly one swaps
            with self._serving_lock:
                if (
                    self._router is None
                    or self._router_compiled is not compiled
                ):
                    self.refresh_serving()
        return self._router

    def query(
        self, class_name: str, query: NodeId, k: int | None = 10
    ) -> list[tuple[NodeId, float]]:
        """Rank anchor nodes by proximity to ``query`` for one class.

        Raises :class:`~repro.exceptions.StaleIndexError` when the graph
        mutated without a matching :meth:`apply_updates` — the counts no
        longer describe the graph, so serving would be silently wrong.
        Raises :class:`~repro.exceptions.QueryError` when ``query`` is
        not an anchor-typed node of the graph (the paper's online phase
        is undefined there, and an all-zero ranking would be served as a
        confidently wrong answer), and :class:`ValueError` for a
        negative ``k``.
        """
        self._require_fresh()
        model = self.model(class_name)
        require_valid_k(k)
        self._validate_query_node(query)
        if self._routed:
            return self._serving_router(model).rank(
                model, query, universe=self.universe(), k=k
            )
        return model.rank(query, universe=self.universe(), k=k)

    def query_many(
        self,
        class_name: str,
        queries: Sequence[NodeId],
        k: int | None = 10,
    ) -> list[list[tuple[NodeId, float]]]:
        """Rank a batch of queries for one class (one ranking each).

        Batched serving amortises everything shared across queries —
        the compiled CSR snapshot, the precomputed dot products and the
        sorted anchor universe — so each extra query costs only its own
        candidate slice.  With ``shards > 1`` the batch fans out across
        the shard router's workers and merges bit-identically to the
        single-process path.  The whole batch is validated before any
        ranking: one unknown or off-anchor query fails the batch with
        :class:`~repro.exceptions.QueryError`.
        """
        self._require_fresh()
        model = self.model(class_name)
        require_valid_k(k)
        queries = list(queries)  # validation + ranking both traverse it
        for query in queries:
            self._validate_query_node(query)
        universe = self.universe()
        if self._routed:
            return self._serving_router(model).rank_many(
                model, queries, universe=universe, k=k
            )
        return [model.rank(q, universe=universe, k=k) for q in queries]

    def proximity(self, class_name: str, x: NodeId, y: NodeId) -> float:
        """pi(x, y) under one class's learned weights.

        Both nodes must be anchor-typed nodes of the graph
        (:class:`~repro.exceptions.QueryError` otherwise — a silent 0.0
        for a typo'd node is indistinguishable from a true zero).
        """
        self._require_fresh()
        model = self.model(class_name)
        self._validate_query_node(x, role="pair")
        self._validate_query_node(y, role="pair")
        return model.proximity(x, y)

    def explain(
        self, class_name: str, x: NodeId, y: NodeId, k: int = 5
    ) -> list[tuple[Metagraph, float]]:
        """Top contributing metagraphs for a pair, as (metagraph, share).

        Like :meth:`proximity`, raises
        :class:`~repro.exceptions.QueryError` for unknown or
        off-anchor nodes instead of returning an empty explanation.
        """
        catalog, _vectors = self._require_fresh()
        model = self.model(class_name)
        self._validate_query_node(x, role="pair")
        self._validate_query_node(y, role="pair")
        return [
            (catalog[mg_id], contribution)
            for mg_id, contribution in model.explain(x, y, k=k)
        ]

    def __repr__(self) -> str:
        prepared = self.catalog is not None
        return (
            f"<SemanticProximitySearch: {self.graph!r}, prepared={prepared}, "
            f"classes={list(self.classes)}>"
        )
