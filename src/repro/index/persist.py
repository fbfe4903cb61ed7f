"""Content-addressed on-disk snapshots of the offline index.

The offline phase (mine → match → Eq. 1–2 counting) is by far the most
expensive part of the pipeline, yet its product — the sparse counts —
is tiny.  A snapshot freezes everything a cold-starting service needs
into one directory:

- ``manifest.json`` — the root of trust: format version, catalog and
  graph fingerprints, the graph schema, the node-id table, matched ids,
  ``|I(M)|`` totals, the fitted per-class weight vectors, the *value
  table* (every distinct count next to its transformed float) and the
  size and sha256 of every payload member;
- ``catalog-<sha12>.json`` — the metagraph catalog (its own JSON format);
- ``compiled/<member>-<sha12>.npy`` — the counts, stored once, in the
  :class:`~repro.index.compiled.CompiledVectors` CSR layout: its
  structure arrays plus int64 ``node_count`` / ``pair_count`` in the
  same row order, each a raw 64-byte-aligned ``.npy`` file that
  :func:`load_compiled` opens with ``mmap_mode="r"``, so co-hosted
  serving workers share the mapped pages.

The integer counts are the only copy of the data, written as the store
holds them; the float view every reader scores against is derived when
the snapshot is loaded, by one lookup through the value table
(:func:`~repro.index.compiled.float_view`).  :func:`load_compiled` uses
the recorded table, so a shard worker never needs the transform
callable; :func:`load_index` builds the table with its own transform —
the same Python function on the same integers as
:meth:`MetagraphVectors.compile`, hence the same bits — and wraps the
loaded arrays in a :class:`MetagraphVectors` store as they are.

Every file but the manifest carries its content digest in its name and
is written first; the manifest is written to a temporary file and
renamed into place, which is the commit.  An interrupted re-save leaves
the previous snapshot loadable, and files the new manifest no longer
names are removed only after the commit.

Loading validates before trusting: a manifest of another format version,
a malformed or tampered manifest, matched ids or ``|I(M)|`` totals that
do not fit the catalog, a missing or corrupt member, counts outside the
catalog or the value table, a catalog that no longer hashes to the
manifest's digest, or a graph whose fingerprint differs from the one
the index was built on all raise
:class:`~repro.exceptions.SnapshotError` (staleness as the
:class:`~repro.exceptions.StaleSnapshotError` subclass) instead of
silently serving wrong rankings.

Snapshots are byte-deterministic: every JSON key and array row is
written in sorted order, so two builds of the same counts — sequential
or parallel, any ``PYTHONHASHSEED`` — produce identical files.  The
determinism suite relies on this to prove the parallel builder exact.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import (
    CatalogMismatchError,
    SchemaError,
    SnapshotError,
    StaleSnapshotError,
)
from repro.graph.typed_graph import TypedGraph
from repro.index.compiled import CompiledVectors, float_view, value_table
from repro.index.instance_index import InstanceIndex, MetagraphCounts
from repro.index.transform import TRANSFORMS, Transform
from repro.index.vectors import MetagraphVectors, decode_node_id, encode_node_id
from repro.metagraph.catalog import MetagraphCatalog

# versions 1-3 kept the counts in a compressed archive (2 and 3 next to
# a second, transformed float copy); they are rejected with a "rebuild"
# message, which prepare(cache_dir=...) answers by rebuilding
FORMAT_VERSION = 4
MANIFEST_FILE = "manifest.json"
COMPILED_DIR = "compiled"

# the payload members: CompiledVectors' structure arrays plus the
# integer counts its float data is derived from
PAYLOAD_MEMBERS = (
    "node_indptr", "node_indices", "node_count",
    "pair_indptr", "pair_indices", "pair_count",
    "pair_ptr", "partner_pos", "entry_pair",
)

# what every manifest must carry, key by key: a JSON type, or a nested
# object of the same form
_MANIFEST_SHAPE = {
    "format_version": int,
    "manifest_sha256": str,
    "catalog_size": int,
    "anchor_type": str,
    "transform": (str, type(None)),
    "catalog_sha256": str,
    "graph_fingerprint": (str, type(None)),
    "schema": (dict, type(None)),
    "nodes": list,
    "matched_ids": list,
    "instance_totals": (list, type(None)),
    "models": dict,
    "value_table": {"counts": list, "floats": list},
    "compiled_arrays": {name: {"bytes": int, "sha256": str} for name in PAYLOAD_MEMBERS},
    "extra": dict,
    "update_log": list,
}
_ABSENT = object()


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def graph_fingerprint(graph: TypedGraph) -> str:
    """Content hash of a typed graph (nodes, types, edges; order-free).

    Node ids go through the snapshot codec, so the fingerprint is
    deterministic under hash randomisation and stable across processes.
    """
    nodes = sorted(
        ([encode_node_id(node), graph.node_type(node)] for node in graph.nodes()),
        key=repr,
    )
    # plain edges keep their historical 2-entry shape so plain-graph
    # fingerprints (and every snapshot keyed on them) are unchanged;
    # kinded edges extend to [u, v, label, directed], oriented u -> v
    edges = sorted(
        (
            [encode_node_id(u), encode_node_id(v)]
            if kind.label == "" and not kind.directed
            else [
                encode_node_id(u),
                encode_node_id(v),
                kind.label,
                1 if kind.directed else 0,
            ]
            for u, v, kind in graph.edges_with_kinds()
        ),
        key=repr,
    )
    doc = json.dumps([nodes, edges], separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()


def catalog_fingerprint(catalog: MetagraphCatalog) -> str:
    """Content hash of a metagraph catalog (via its canonical JSON)."""
    return hashlib.sha256(catalog.to_json().encode("utf-8")).hexdigest()


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def manifest_digest(manifest: dict) -> str:
    """Digest of every manifest field except the digest itself.

    The manifest is the snapshot's root of trust (node-id table, model
    weights, value table, recorded hashes), so it needs its own
    integrity check: JSON that parses fine after a bit flip inside a
    node id would otherwise attach every count row to the wrong node.
    """
    core = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return _sha256(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


# ----------------------------------------------------------------------
# the payload layout, shared by save and load
# ----------------------------------------------------------------------
def _content_name(stem: str, sha256: str, suffix: str) -> str:
    """A payload file's name, suffixed with its content digest.

    The digest in the *name* is what keeps a manifest from pairing up
    with files of another save without hashing on the mmap fast path:
    its recorded digests resolve to names only its own save wrote.
    """
    return f"{stem}-{sha256[:12]}{suffix}"


# ----------------------------------------------------------------------
# save
# ----------------------------------------------------------------------
def _transform_name(transform: Transform) -> str | None:
    for name, known in TRANSFORMS.items():
        if transform is known:
            return name
    return None


def _checked_weights(name: str, weights: object, catalog_size: int) -> np.ndarray:
    """One class's weight vector as float64, or :class:`SnapshotError`.

    Written and restored through the same gate: a vector of the wrong
    length scores the wrong metagraphs, and a NaN/inf one would make
    the ranking kernel divide inf by inf.
    """
    vector = np.asarray(weights, dtype=np.float64)
    if vector.ndim != 1 or len(vector) != catalog_size:
        raise SnapshotError(
            f"model {name!r} weights of shape {vector.shape} do not "
            f"match catalog size {catalog_size}"
        )
    if not np.all(np.isfinite(vector)):
        raise SnapshotError(f"model {name!r} weights are not finite")
    return vector


def _npy_bytes(array: np.ndarray) -> bytes:
    buffer = io.BytesIO()
    np.lib.format.write_array(
        buffer, np.ascontiguousarray(array), allow_pickle=False
    )
    return buffer.getvalue()


def _write_atomic(path: Path, payload: bytes) -> None:
    """Write through a temporary file and a rename, never in place.

    A reader that has the old file memory-mapped keeps its pages, and a
    crash mid-write never truncates a file some manifest still names.
    """
    staging = path.with_name(path.name + ".tmp")
    staging.write_bytes(payload)
    os.replace(staging, path)


def save_index(
    path: str | Path,
    vectors: MetagraphVectors,
    catalog: MetagraphCatalog,
    graph: TypedGraph | None = None,
    index: InstanceIndex | None = None,
    models: dict[str, np.ndarray] | None = None,
    extra: dict | None = None,
    update_log: list[dict] | None = None,
) -> Path:
    """Write a snapshot directory; returns its path.

    ``graph`` pins the snapshot to one graph via its fingerprint and
    schema — always pass it when available, it is what makes staleness
    detectable.  ``index`` contributes the per-metagraph ``|I(M)|``
    totals, ``models`` the fitted per-class weight vectors, and
    ``extra`` is free-form JSON provenance (dataset name, mining knobs,
    worker count) surfaced by ``repro index info``.  ``update_log``
    records the :class:`~repro.index.delta.GraphEdit` JSON documents
    applied since the original build; together with the base graph it
    reconstructs the (fingerprinted) graph this snapshot describes —
    see ``repro index update``.  Re-saving into a snapshot directory
    replaces it atomically: the old one stays loadable until the new
    manifest is in place.  An ``index`` that records other matched ids
    than ``vectors`` raises :class:`CatalogMismatchError` before
    anything is written.
    """
    vectors.verify_catalog(catalog, index)
    compiled = vectors.compile()
    distinct, floats = value_table(
        np.concatenate([compiled.node_count, compiled.pair_count]), vectors.transform
    )
    payloads = {name: _npy_bytes(getattr(compiled, name)) for name in PAYLOAD_MEMBERS}
    catalog_json = catalog.to_json().encode("utf-8")
    manifest = {
        "format_version": FORMAT_VERSION,
        "catalog_size": vectors.catalog_size,
        "anchor_type": vectors.anchor_type,
        "transform": _transform_name(vectors.transform),
        "catalog_sha256": _sha256(catalog_json),
        "graph_fingerprint": graph_fingerprint(graph) if graph is not None else None,
        # the realised schema (types and observed edge rules) lets
        # `repro index info` print it and loads against a graph that
        # disagrees on edge kinds fail fast
        "schema": None if graph is None else {
            "edge_kinds": graph.has_kinds,
            "types": sorted(graph.types),
            "edge_rules": sorted(
                [a, b, kind.label, 1 if kind.directed else 0]
                for a, b, kind in graph.observed_edge_rules()
            ),
        },
        "nodes": [encode_node_id(node) for node in compiled.nodes],
        "matched_ids": sorted(vectors.matched_ids),
        "instance_totals": None if index is None else [
            [mg_id, index.num_instances(mg_id)] for mg_id in sorted(index.matched_ids())
        ],
        "models": {
            name: _checked_weights(name, weights, vectors.catalog_size).tolist()
            for name, weights in sorted((models or {}).items())
        },
        "value_table": {"counts": distinct.tolist(), "floats": floats.tolist()},
        "compiled_arrays": {
            name: {"bytes": len(payload), "sha256": _sha256(payload)}
            for name, payload in payloads.items()
        },
        "extra": extra or {},
        "update_log": list(update_log or []),
    }
    manifest["manifest_sha256"] = manifest_digest(manifest)

    files = {
        Path(_content_name("catalog", manifest["catalog_sha256"], ".json")): catalog_json
    }
    for name, payload in payloads.items():
        digest = manifest["compiled_arrays"][name]["sha256"]
        files[Path(COMPILED_DIR, _content_name(name, digest, ".npy"))] = payload
    target = Path(path)
    (target / COMPILED_DIR).mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        _write_atomic(target / name, payload)
    # replacing the manifest is the commit
    _write_atomic(
        target / MANIFEST_FILE,
        json.dumps(manifest, sort_keys=True, indent=1).encode("utf-8"),
    )
    for stale in [*target.glob("catalog*"), *(target / COMPILED_DIR).iterdir()]:
        if stale.relative_to(target) not in files:
            stale.unlink()
    return target


# ----------------------------------------------------------------------
# load
# ----------------------------------------------------------------------
@dataclass
class LoadedIndex:
    """Everything a snapshot restores, ready for the online phase."""

    catalog: MetagraphCatalog
    vectors: MetagraphVectors
    models: dict[str, np.ndarray]
    manifest: dict
    instance_totals: dict[int, int]
    # whether that transform reproduces the manifest's value table bit
    # for bit — i.e. whether shard workers opening this directory with
    # load_compiled (recorded table) score with the very same floats
    floats_as_recorded: bool

    def instance_index(self) -> InstanceIndex:
        """Reconstruct the :class:`InstanceIndex` of matched ids.

        ``|I(M)|`` totals come from the snapshot when it carried them
        (0 otherwise — totals are not derivable from anchor counts
        alone).
        """
        index = InstanceIndex(
            self.vectors.catalog_size, anchor_type=self.vectors.anchor_type
        )
        for mg_id in self.vectors.matched_ids:
            index.add(
                mg_id,
                MetagraphCounts(num_instances=self.instance_totals.get(mg_id, 0)),
            )
        return index


def snapshot_digest(path_or_manifest: str | Path | dict) -> str:
    """One content id for a whole snapshot: its manifest's self-digest.

    The manifest digests every artefact it describes (catalog, payload
    members, value table, node table, models, update log), so this
    single hash changes whenever anything served from the snapshot
    could — the serving tier keys its result cache on it.  Accepts a
    snapshot directory or an already-read manifest.
    """
    manifest = (
        path_or_manifest
        if isinstance(path_or_manifest, dict)
        else read_manifest(path_or_manifest)
    )
    digest = manifest.get("manifest_sha256")
    if not digest:
        raise SnapshotError("snapshot manifest carries no digest")
    return digest


def _malformed(doc: object, shape: object, where: str = "") -> list[str]:
    """The paths in ``doc`` that lack or mistype what ``shape`` requires."""
    if not isinstance(shape, dict):
        return [] if isinstance(doc, shape) else [where]
    if not isinstance(doc, dict):
        return [where]
    return [
        bad
        for key, inner in shape.items()
        for bad in _malformed(
            doc.get(key, _ABSENT), inner, f"{where}.{key}" if where else key
        )
    ]


def read_manifest(path: str | Path) -> dict:
    """Parse, version-check and shape-check a snapshot manifest."""
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.is_file():
        raise SnapshotError(f"no index snapshot at {Path(path)!s} (missing manifest)")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SnapshotError("snapshot manifest is not a JSON object")
    version = manifest.get("format_version")
    if version != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot format version {version!r} is not supported (this "
            f"build reads version {FORMAT_VERSION}); rebuild the index"
        )
    if manifest.get("manifest_sha256") != manifest_digest(manifest):
        raise SnapshotError(
            "snapshot manifest does not match its own digest "
            "(corrupt or tampered snapshot)"
        )
    malformed = _malformed(manifest, _MANIFEST_SHAPE)
    if malformed:
        raise SnapshotError(
            f"snapshot manifest lacks or mistypes {', '.join(malformed)}"
        )
    return manifest


def _read_payload(
    source: Path, manifest: dict, mmap: bool
) -> dict[str, np.ndarray]:
    """Open every payload member, checked against the manifest.

    Checks each member's name and byte size, then streams the file
    through sha256 (from disk, never through a mapping), so a mapped
    load is verified once, when it opens, and the query path never
    touches the digest again.
    """
    arrays: dict[str, np.ndarray] = {}
    for name in PAYLOAD_MEMBERS:
        recorded = manifest["compiled_arrays"][name]
        filename = _content_name(name, recorded["sha256"], ".npy")
        member_path = source / COMPILED_DIR / filename
        if not member_path.is_file():
            # also what a manifest paired with another save's files
            # looks like: the digest-suffixed names never agree
            raise SnapshotError(f"snapshot is missing {filename}")
        size = member_path.stat().st_size
        if size != recorded["bytes"]:
            raise SnapshotError(
                f"snapshot member {filename} is {size} bytes, manifest "
                f"records {recorded['bytes']} (corrupt or tampered snapshot)"
            )
        digest = hashlib.sha256()
        with member_path.open("rb") as handle:
            while block := handle.read(1 << 20):
                digest.update(block)
        if digest.hexdigest() != recorded["sha256"]:
            raise SnapshotError(
                f"snapshot member {filename} does not match the "
                "manifest digest (corrupt or tampered snapshot)"
            )
        try:
            arrays[name] = np.load(
                member_path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
        except (ValueError, OSError) as exc:
            raise SnapshotError(
                f"unreadable snapshot member {filename}: {exc}"
            ) from exc
    return arrays


def _compiled_view(
    manifest: dict, arrays: dict[str, np.ndarray], floats: object
) -> CompiledVectors:
    """The serving view of a payload, with ``floats`` as the table's values.

    Every count must sit in a catalog column and in the value table: a
    payload that breaks either raises :class:`SnapshotError` here
    instead of failing (or silently mis-scoring) at the first query.
    """
    try:
        size = manifest["catalog_size"]
        distinct = np.asarray(manifest["value_table"]["counts"], dtype=np.int64)
        floats = np.asarray(floats, dtype=np.float64)
        nodes = tuple(decode_node_id(doc) for doc in manifest["nodes"])
        if len(nodes) + 1 != len(arrays["node_indptr"]):
            raise ValueError("node table and node arrays disagree in length")
        for name in ("node_indices", "pair_indices"):
            column = arrays[name]
            if len(column) and (column.min() < 0 or column.max() >= size):
                raise ValueError(f"{name} reach outside the catalog of size {size}")
        return CompiledVectors(
            nodes,
            (
                arrays["node_indptr"],
                arrays["node_indices"],
                arrays["node_count"],
                float_view(arrays["node_count"], distinct, floats),
            ),
            (
                arrays["pair_indptr"],
                arrays["pair_indices"],
                arrays["pair_count"],
                float_view(arrays["pair_count"], distinct, floats),
            ),
            arrays["pair_ptr"],
            arrays["partner_pos"],
            arrays["entry_pair"],
            catalog_size=size,
        )
    except (TypeError, ValueError, IndexError, CatalogMismatchError) as exc:
        raise SnapshotError(f"snapshot arrays are inconsistent: {exc}") from exc


def load_compiled(
    path: str | Path,
    manifest: dict | None = None,
    mmap: bool = True,
) -> CompiledVectors:
    """Open a snapshot's payload as a serving-ready backend.

    This is the cold-start fast path: with ``mmap=True`` (default) the
    CSR arrays are memory-mapped read-only — no decompression, no dict
    replay; ``mmap=False`` reads the members into memory.  Either way
    every member's sha256 digest is checked against the manifest once,
    streamed from disk before the mapping opens, so a shard worker
    verifies its snapshot at start and never on the query path.

    The floats come from the manifest's recorded value table, so no
    transform callable is needed — custom transforms serve too.
    Raises :class:`SnapshotError` for missing, resized or corrupted
    members.
    """
    source = Path(path)
    if manifest is None:
        manifest = read_manifest(source)
    arrays = _read_payload(source, manifest, mmap=mmap)
    return _compiled_view(manifest, arrays, manifest["value_table"]["floats"])


def load_compiled_shard(
    path: str | Path,
    shard_id: int,
    num_shards: int,
    manifest: dict | None = None,
    mmap: bool = True,
):
    """Open one node-range shard of a snapshot's payload.

    The standalone shard worker's cold-start path: the payload arrays
    are opened ``mmap_mode="r"`` (validated exactly like
    :func:`load_compiled`) and only shard ``shard_id``'s row range —
    plus the halo of partner rows its candidate lists reference — is
    gathered out of the mapping, so a worker's resident memory scales
    with its slice, not the universe.  The returned
    :class:`~repro.serving.shards.CompiledShard` is array-identical to
    the corresponding element of
    :func:`~repro.serving.shards.partition_compiled` over the same
    snapshot, which is what keeps process-sharded rankings bit-identical
    to the in-process router.
    """
    # lazy import: repro.serving imports this module for its own
    # cold-start path
    from repro.serving.shards import extract_shard

    compiled = load_compiled(path, manifest=manifest, mmap=mmap)
    return extract_shard(compiled, shard_id, num_shards)


def _checked_matched_ids(manifest: dict) -> set[int]:
    """The manifest's matched ids, or :class:`SnapshotError`.

    Each must be a catalog id, once; the ``|I(M)|`` totals, when
    present, must cover exactly those ids with non-negative totals.
    """
    size, matched = manifest["catalog_size"], manifest["matched_ids"]
    in_catalog = all(type(mg_id) is int and 0 <= mg_id < size for mg_id in matched)
    if not in_catalog or len(set(matched)) != len(matched):
        raise SnapshotError(
            f"snapshot matched ids {matched} are not distinct ids of a "
            f"catalog of size {size}"
        )
    totals = manifest["instance_totals"]
    if totals is not None and not (
        all(
            isinstance(entry, list)
            and len(entry) == 2
            and all(type(value) is int for value in entry)
            and entry[1] >= 0
            for entry in totals
        )
        and sorted(entry[0] for entry in totals) == sorted(matched)
    ):
        raise SnapshotError(
            "snapshot instance totals must give each matched id one "
            "non-negative total"
        )
    return set(matched)


def load_index(
    path: str | Path,
    graph: TypedGraph | None = None,
    transform: Transform | None = None,
    mmap: bool = True,
) -> LoadedIndex:
    """Validate and restore a snapshot written by :func:`save_index`.

    ``graph``, when given, must fingerprint to the graph the snapshot
    was built on (:class:`StaleSnapshotError` otherwise).  ``transform``
    overrides the manifest's named transform; it is required when the
    snapshot was built with a custom (unnamed) one.  The value table is
    rebuilt with it, so an override serves its own floats.

    Every member is hashed in full; with ``mmap=True`` (default) the
    arrays of the restored store's snapshot stay memory-mapped.
    """
    source = Path(path)
    manifest = read_manifest(source)

    if graph is not None:
        # every snapshot saved with a graph records its schema
        schema = manifest["schema"]
        recorded_kinds = bool(schema and schema.get("edge_kinds"))
        if schema is not None and graph.has_kinds != recorded_kinds:
            # a schema-flag mismatch is a structural error, not mere
            # staleness: the graph and the snapshot disagree on whether
            # edges carry kinds at all
            raise SchemaError(
                "snapshot schema mismatch: snapshot "
                f"{'has' if recorded_kinds else 'has no'} edge kinds but "
                f"the graph {'has' if graph.has_kinds else 'has no'} "
                "edge kinds"
            )
        recorded = manifest["graph_fingerprint"]
        current = graph_fingerprint(graph)
        if recorded != current:
            raise StaleSnapshotError(
                "snapshot was built on a different graph "
                f"(recorded fingerprint {str(recorded)[:12]}…, current "
                f"{current[:12]}…); rebuild the index"
            )

    catalog_path = source / _content_name("catalog", manifest["catalog_sha256"], ".json")
    if not catalog_path.is_file():
        raise SnapshotError(f"snapshot is missing {catalog_path.name}")
    catalog_json = catalog_path.read_bytes()
    if _sha256(catalog_json) != manifest["catalog_sha256"]:
        raise SnapshotError(
            f"snapshot {catalog_path.name} does not match the manifest "
            "digest (corrupt or tampered snapshot)"
        )

    if transform is None:
        transform = TRANSFORMS.get(manifest["transform"])
        if transform is None:
            raise SnapshotError(
                "snapshot was built with a custom transform; pass the same "
                "transform= to load it"
            )

    matched = _checked_matched_ids(manifest)
    catalog = MetagraphCatalog.from_json(catalog_json.decode("utf-8"))
    arrays = _read_payload(source, manifest, mmap=mmap)
    floats = np.asarray(
        [transform(count) for count in manifest["value_table"]["counts"]],
        dtype=np.float64,
    )
    store = MetagraphVectors(
        manifest["catalog_size"],
        anchor_type=manifest["anchor_type"],
        transform=transform,
        compiled=_compiled_view(manifest, arrays, floats),
        matched_ids=matched,
    )
    store.verify_catalog(catalog)
    recorded_floats = np.asarray(manifest["value_table"]["floats"], dtype=np.float64)
    return LoadedIndex(
        catalog=catalog,
        vectors=store,
        models={
            name: _checked_weights(name, weights, store.catalog_size)
            for name, weights in manifest["models"].items()
        },
        manifest=manifest,
        instance_totals=dict(manifest["instance_totals"] or []),
        floats_as_recorded=floats.tobytes() == recorded_floats.tobytes(),
    )
