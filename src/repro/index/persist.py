"""Versioned on-disk snapshots of the offline index.

The offline phase (mine → match → Eq. 1–2 counting) is by far the most
expensive part of the pipeline, yet its product — the sparse counts —
is tiny.  A snapshot freezes everything a cold-starting service needs
into one directory:

- ``manifest.json`` — format version, catalog/graph fingerprints, the
  node-id table, array checksums, per-class model names;
- ``catalog.json`` — the metagraph catalog (its own JSON format);
- ``arrays.npz`` — CSR-style count arrays and model weight vectors,
  compressed;
- ``compiled/`` (format v2) — the serving-tier sidecar: each
  :class:`~repro.index.compiled.CompiledVectors` array as a raw,
  64-byte-aligned ``.npy`` member that :func:`load_compiled` opens with
  ``mmap_mode="r"``, so a cold serving worker maps the snapshot pages
  instead of decompressing ``arrays.npz`` and replaying the counts into
  dicts.  Several workers on one host share the mapped pages.

Loading validates before trusting: a wrong format version, a tampered
or truncated arrays file, a catalog that no longer hashes to the
manifest's digest, or a graph whose fingerprint differs from the one
the index was built on all raise :class:`~repro.exceptions.SnapshotError`
(staleness as the :class:`~repro.exceptions.StaleSnapshotError`
subclass) instead of silently serving wrong rankings.

Snapshots are byte-deterministic: every JSON key and array row is
written in sorted order and the zip members carry a fixed timestamp, so
two builds of the same counts — sequential or parallel, any
``PYTHONHASHSEED`` — produce identical files.  The determinism suite
relies on this to prove the parallel builder exact.
"""

from __future__ import annotations

import hashlib
import io
import json
import shutil
import warnings
import zipfile
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
from repro.index.compiled import CompiledVectors
from repro.index.instance_index import InstanceIndex, MetagraphCounts
from repro.index.transform import TRANSFORMS, Transform
from repro.index.vectors import MetagraphVectors, decode_node_id, encode_node_id
from repro.metagraph.catalog import MetagraphCatalog

FORMAT_VERSION = 2
# snapshots of edge-kinded graphs bump to format 3 and carry a "schema"
# manifest block; plain graphs keep writing format 2 so their snapshot
# bytes are unchanged by the schema feature existing
KINDED_FORMAT_VERSION = 3
# format 1 snapshots (no compiled sidecar) still load; the sidecar fast
# path is simply unavailable for them
SUPPORTED_FORMAT_VERSIONS = frozenset({1, FORMAT_VERSION, KINDED_FORMAT_VERSION})
MANIFEST_FILE = "manifest.json"
CATALOG_FILE = "catalog.json"
ARRAYS_FILE = "arrays.npz"
COMPILED_DIR = "compiled"

# the CompiledVectors constructor arrays, in sidecar member order
_COMPILED_MEMBERS = (
    "node_indptr", "node_indices", "node_data",
    "pair_indptr", "pair_indices", "pair_data",
    "pair_ptr", "partner_pos", "entry_pair",
)

# fixed member timestamp (the zip epoch) so snapshot bytes never depend
# on the wall clock
_ZIP_EPOCH = (1980, 1, 1, 0, 0, 0)


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


def _manifest_digest(manifest: dict) -> str:
    """Digest of every manifest field except the digest itself.

    The manifest is the snapshot's root of trust (node-id table, model
    list, recorded hashes), so it needs its own integrity check: JSON
    that parses fine after a bit flip inside a node id would otherwise
    attach every count row to the wrong node.
    """
    core = {k: v for k, v in manifest.items() if k != "manifest_sha256"}
    return _sha256(
        json.dumps(core, sort_keys=True, separators=(",", ":")).encode("utf-8")
    )


# ----------------------------------------------------------------------
# deterministic npz
# ----------------------------------------------------------------------
def _deterministic_npz_bytes(arrays: dict[str, np.ndarray]) -> bytes:
    """``np.savez_compressed`` without its wall-clock zip timestamps."""
    buffer = io.BytesIO()
    with zipfile.ZipFile(buffer, "w", compression=zipfile.ZIP_DEFLATED) as archive:
        for name in sorted(arrays):
            payload = io.BytesIO()
            np.lib.format.write_array(
                payload, np.ascontiguousarray(arrays[name]), allow_pickle=False
            )
            info = zipfile.ZipInfo(f"{name}.npy", date_time=_ZIP_EPOCH)
            info.compress_type = zipfile.ZIP_DEFLATED
            info.external_attr = 0o644 << 16
            archive.writestr(info, payload.getvalue())
    return buffer.getvalue()


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
    """Write a versioned snapshot directory; returns its path.

    ``graph`` pins the snapshot to one graph via its fingerprint —
    always pass it when available, it is what makes staleness
    detectable.  ``index`` contributes the per-metagraph ``|I(M)|``
    totals, ``models`` the fitted per-class weight vectors, and
    ``extra`` is free-form JSON provenance (dataset name, mining knobs,
    worker count) surfaced by ``repro index info``.  ``update_log``
    records the :class:`~repro.index.delta.GraphEdit` JSON documents
    applied since the original build; together with the base graph it
    reconstructs the (fingerprinted) graph this snapshot describes —
    see ``repro index update``.
    """
    vectors.verify_catalog(catalog)
    target = Path(path)
    target.mkdir(parents=True, exist_ok=True)

    node_counts = vectors._node
    pair_counts = vectors._pair
    nodes = sorted(
        set(node_counts) | {n for pair in pair_counts for n in pair}, key=repr
    )
    position = {node: i for i, node in enumerate(nodes)}

    arrays: dict[str, np.ndarray] = {}
    arrays["matched_ids"] = np.asarray(sorted(vectors.matched_ids), dtype=np.int64)

    node_indptr = np.zeros(len(nodes) + 1, dtype=np.int64)
    node_mg: list[int] = []
    node_count: list[int] = []
    for i, node in enumerate(nodes):
        for mg_id, count in sorted(node_counts.get(node, {}).items()):
            node_mg.append(mg_id)
            node_count.append(count)
        node_indptr[i + 1] = len(node_mg)
    arrays["node_indptr"] = node_indptr
    arrays["node_mg"] = np.asarray(node_mg, dtype=np.int64)
    arrays["node_count"] = np.asarray(node_count, dtype=np.int64)

    pair_keys = sorted(
        pair_counts, key=lambda pair: (position[pair[0]], position[pair[1]])
    )
    pair_indptr = np.zeros(len(pair_keys) + 1, dtype=np.int64)
    pair_mg: list[int] = []
    pair_count: list[int] = []
    for r, key in enumerate(pair_keys):
        for mg_id, count in sorted(pair_counts[key].items()):
            pair_mg.append(mg_id)
            pair_count.append(count)
        pair_indptr[r + 1] = len(pair_mg)
    arrays["pair_indptr"] = pair_indptr
    arrays["pair_mg"] = np.asarray(pair_mg, dtype=np.int64)
    arrays["pair_count"] = np.asarray(pair_count, dtype=np.int64)
    arrays["pair_left"] = np.asarray(
        [position[x] for x, _ in pair_keys], dtype=np.int64
    )
    arrays["pair_right"] = np.asarray(
        [position[y] for _, y in pair_keys], dtype=np.int64
    )

    if index is not None:
        arrays["instance_totals"] = np.asarray(
            [index.num_instances(mg_id) for mg_id in sorted(index.matched_ids())],
            dtype=np.int64,
        )
        arrays["instance_total_ids"] = np.asarray(
            sorted(index.matched_ids()), dtype=np.int64
        )

    model_names = sorted(models) if models else []
    for slot, name in enumerate(model_names):
        arrays[f"model_{slot}"] = _checked_weights(
            name, models[name], vectors.catalog_size
        )

    catalog_json = catalog.to_json()
    npz_bytes = _deterministic_npz_bytes(arrays)
    compiled_members, compiled_staging = _stage_compiled_sidecar(
        target, vectors, nodes
    )
    # kinded graphs bump the format and record their schema (types and
    # observed edge rules) so `repro index info` can print it and loads
    # against a schema-mismatched graph fail fast; plain graphs write
    # neither, keeping their snapshot bytes identical to format 2
    kinded = graph is not None and graph.has_kinds
    manifest = {
        "format_version": KINDED_FORMAT_VERSION if kinded else FORMAT_VERSION,
        "compiled_arrays": compiled_members,
        "catalog_size": vectors.catalog_size,
        "anchor_type": vectors.anchor_type,
        "transform": _transform_name(vectors.transform),
        "catalog_sha256": _sha256(catalog_json.encode("utf-8")),
        "arrays_sha256": _sha256(npz_bytes),
        "graph_fingerprint": graph_fingerprint(graph) if graph is not None else None,
        "nodes": [encode_node_id(node) for node in nodes],
        "models": model_names,
        "extra": extra or {},
        "update_log": list(update_log or []),
        "stats": {
            "num_nodes": len(nodes),
            "num_pairs": len(pair_keys),
            "node_nnz": len(node_mg),
            "pair_nnz": len(pair_mg),
            "matched": len(vectors.matched_ids),
        },
    }
    if kinded:
        manifest["schema"] = {
            "edge_kinds": True,
            "types": sorted(graph.types),
            "edge_rules": sorted(
                [a, b, kind.label, 1 if kind.directed else 0]
                for a, b, kind in graph.observed_edge_rules()
            ),
        }
    manifest["manifest_sha256"] = _manifest_digest(manifest)
    (target / CATALOG_FILE).write_text(catalog_json, encoding="utf-8")
    (target / ARRAYS_FILE).write_bytes(npz_bytes)
    (target / MANIFEST_FILE).write_text(
        json.dumps(manifest, sort_keys=True, indent=1), encoding="utf-8"
    )
    _install_compiled_sidecar(target, compiled_staging)
    return target


def _member_filename(name: str, sha256: str) -> str:
    """Sidecar member filename, suffixed with its content digest.

    The digest in the *name* is what makes a stale sidecar detectable
    without hashing on the mmap fast path: after an interrupted re-save
    (manifest and ``compiled/`` from different builds, possibly with
    identical byte sizes) the manifest's recorded digest resolves to a
    filename that does not exist, and loading falls back to compiling
    from the fully-verified counts instead of silently serving the
    wrong build's arrays.
    """
    return f"{name}-{sha256[:12]}.npy"


def _stage_compiled_sidecar(
    target: Path, vectors: MetagraphVectors, nodes: list
) -> tuple[dict, Path]:
    """Write the format-v2 mmap sidecar into a staging directory.

    Each :class:`CompiledVectors` array becomes one raw ``.npy`` file
    (``np.save``'s layout pads the header to a 64-byte boundary, so the
    data region is alignment-friendly for mmap) named by
    :func:`_member_filename`.  The returned manifest record carries
    per-member byte sizes (checked cheaply on every mmap load) and
    sha256 digests (part of the filename; hashed in full on verifying
    loads).  Members are staged next to the final ``compiled/``
    directory and swapped in by :func:`_install_compiled_sidecar` only
    after the manifest is on disk, so a crash mid-save never leaves a
    half-written sidecar as the directory's only copy.
    """
    compiled = vectors.compile()
    if list(compiled.nodes) != nodes:
        # cannot happen for a consistent store (a pair member without a
        # node row fails compile() first), but never let a divergent
        # sidecar attach count rows to the wrong node ids
        raise SnapshotError(
            "compiled snapshot universe does not match the count arrays"
        )
    staging = target / (COMPILED_DIR + ".staging")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    members: dict[str, dict] = {}
    for name in _COMPILED_MEMBERS:
        buffer = io.BytesIO()
        np.lib.format.write_array(
            buffer,
            np.ascontiguousarray(getattr(compiled, name)),
            allow_pickle=False,
        )
        payload = buffer.getvalue()
        digest = _sha256(payload)
        (staging / _member_filename(name, digest)).write_bytes(payload)
        members[name] = {"bytes": len(payload), "sha256": digest}
    return members, staging


def _install_compiled_sidecar(target: Path, staging: Path) -> None:
    """Swap the staged sidecar into place as ``compiled/``."""
    final = target / COMPILED_DIR
    shutil.rmtree(final, ignore_errors=True)
    staging.rename(final)


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
    # the mmap-loaded serving snapshot when the snapshot carries a
    # format-v2 sidecar (None for v1 snapshots or mmap=False loads)
    compiled: CompiledVectors | None = None

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

    The manifest digests every artefact it describes (arrays, catalog,
    sidecar members, node table, models, update log), so this single
    hash changes whenever anything served from the snapshot could — the
    serving tier keys its result cache on it.  Accepts a snapshot
    directory or an already-read manifest.
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


def read_manifest(path: str | Path) -> dict:
    """Parse and version-check a snapshot manifest."""
    manifest_path = Path(path) / MANIFEST_FILE
    if not manifest_path.is_file():
        raise SnapshotError(f"no index snapshot at {Path(path)!s} (missing manifest)")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise SnapshotError(f"unreadable snapshot manifest: {exc}") from exc
    version = manifest.get("format_version")
    if version not in SUPPORTED_FORMAT_VERSIONS:
        raise SnapshotError(
            f"snapshot format version {version!r} is not supported "
            f"(this build reads versions "
            f"{sorted(SUPPORTED_FORMAT_VERSIONS)})"
        )
    if manifest.get("manifest_sha256") != _manifest_digest(manifest):
        raise SnapshotError(
            "snapshot manifest does not match its own digest "
            "(corrupt or tampered snapshot)"
        )
    return manifest


def load_compiled(
    path: str | Path,
    manifest: dict | None = None,
    mmap: bool = True,
) -> CompiledVectors:
    """Open a snapshot's format-v2 sidecar as a serving-ready backend.

    This is the cold-start fast path: with ``mmap=True`` (default) the
    CSR arrays are memory-mapped read-only — no decompression, no dict
    replay, near-zero copy — and only per-member file sizes are checked
    (mapped pages cannot be hashed without reading them all, which
    would defeat the point).  ``mmap=False`` reads the members into
    memory and verifies their sha256 digests against the manifest; use
    it when integrity matters more than start-up latency.

    The returned snapshot carries the transform the snapshot was saved
    with, already applied.  Raises :class:`SnapshotError` for v1
    snapshots (no sidecar) and for missing, resized, or (verifying
    loads) corrupted members.
    """
    source = Path(path)
    if manifest is None:
        manifest = read_manifest(source)
    members = manifest.get("compiled_arrays")
    if not members:
        raise SnapshotError(
            f"snapshot at {source!s} has no compiled sidecar (format "
            f"version {manifest.get('format_version')!r}); re-save it to "
            "enable mmap serving"
        )
    arrays: dict[str, np.ndarray] = {}
    for name in _COMPILED_MEMBERS:
        recorded = members.get(name)
        if recorded is None:
            raise SnapshotError(f"snapshot sidecar is missing member {name}")
        filename = _member_filename(name, recorded["sha256"])
        member_path = source / COMPILED_DIR / filename
        if not member_path.is_file():
            # also the interrupted-re-save signature: a manifest and a
            # sidecar from different builds never agree on the
            # digest-suffixed filenames
            raise SnapshotError(f"snapshot sidecar is missing {filename}")
        size = member_path.stat().st_size
        if size != recorded["bytes"]:
            raise SnapshotError(
                f"snapshot sidecar member {filename} is {size} bytes, "
                f"manifest records {recorded['bytes']} (corrupt or "
                "tampered snapshot)"
            )
        if not mmap:
            payload = member_path.read_bytes()
            if _sha256(payload) != recorded["sha256"]:
                raise SnapshotError(
                    f"snapshot sidecar member {filename} does not match "
                    "the manifest digest (corrupt or tampered snapshot)"
                )
        try:
            arrays[name] = np.load(
                member_path,
                mmap_mode="r" if mmap else None,
                allow_pickle=False,
            )
        except (ValueError, OSError) as exc:
            raise SnapshotError(
                f"unreadable snapshot sidecar member {filename}: {exc}"
            ) from exc
    nodes = tuple(decode_node_id(doc) for doc in manifest["nodes"])
    try:
        return CompiledVectors(
            nodes,
            (arrays["node_indptr"], arrays["node_indices"], arrays["node_data"]),
            (arrays["pair_indptr"], arrays["pair_indices"], arrays["pair_data"]),
            arrays["pair_ptr"],
            arrays["partner_pos"],
            arrays["entry_pair"],
            catalog_size=manifest["catalog_size"],
        )
    except (ValueError, IndexError, CatalogMismatchError) as exc:
        raise SnapshotError(
            f"snapshot sidecar arrays are inconsistent: {exc}"
        ) from exc


def load_compiled_shard(
    path: str | Path,
    shard_id: int,
    num_shards: int,
    manifest: dict | None = None,
    mmap: bool = True,
):
    """Open one node-range shard of a snapshot's format-v2 sidecar.

    The standalone shard worker's cold-start path: the sidecar arrays
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
    snapshot was built with a custom (unnamed) one.

    With ``mmap=True`` (default) a format-v2 compiled sidecar is opened
    memory-mapped and returned as :attr:`LoadedIndex.compiled`, letting
    serving adopt it instead of re-freezing the counts.  The sidecar is
    only trusted when the manifest names the transform being used — a
    custom ``transform=`` override falls back to compiling from the raw
    counts.
    """
    source = Path(path)
    manifest = read_manifest(source)

    if graph is not None:
        schema = manifest.get("schema") or {}
        recorded_kinds = bool(schema.get("edge_kinds", False))
        if (
            manifest.get("graph_fingerprint") is not None
            and graph.has_kinds != recorded_kinds
        ):
            # a schema-flag mismatch is a structural error, not mere
            # staleness: the graph and the snapshot disagree on whether
            # edges carry kinds at all
            raise SchemaError(
                "snapshot schema mismatch: snapshot "
                f"{'has' if recorded_kinds else 'has no'} edge kinds but "
                f"the graph {'has' if graph.has_kinds else 'has no'} "
                "edge kinds"
            )
        recorded = manifest.get("graph_fingerprint")
        current = graph_fingerprint(graph)
        if recorded != current:
            raise StaleSnapshotError(
                "snapshot was built on a different graph "
                f"(recorded fingerprint {str(recorded)[:12]}…, current "
                f"{current[:12]}…); rebuild the index"
            )

    catalog_path = source / CATALOG_FILE
    arrays_path = source / ARRAYS_FILE
    for required in (catalog_path, arrays_path):
        if not required.is_file():
            raise SnapshotError(f"snapshot is missing {required.name}")
    catalog_json = catalog_path.read_text(encoding="utf-8")
    if _sha256(catalog_json.encode("utf-8")) != manifest.get("catalog_sha256"):
        raise SnapshotError(
            "snapshot catalog.json does not match the manifest digest "
            "(corrupt or tampered snapshot)"
        )
    npz_bytes = arrays_path.read_bytes()
    if _sha256(npz_bytes) != manifest.get("arrays_sha256"):
        raise SnapshotError(
            "snapshot arrays.npz does not match the manifest digest "
            "(corrupt or tampered snapshot)"
        )

    if transform is None:
        name = manifest.get("transform")
        if name is None:
            raise SnapshotError(
                "snapshot was built with a custom transform; pass the same "
                "transform= to load it"
            )
        transform = TRANSFORMS[name]

    catalog = MetagraphCatalog.from_json(catalog_json)
    try:
        with np.load(io.BytesIO(npz_bytes), allow_pickle=False) as archive:
            arrays = {name: archive[name] for name in archive.files}
    except (ValueError, OSError, zipfile.BadZipFile) as exc:
        raise SnapshotError(f"unreadable snapshot arrays: {exc}") from exc

    nodes = [decode_node_id(doc) for doc in manifest["nodes"]]
    store = MetagraphVectors(
        manifest["catalog_size"],
        anchor_type=manifest["anchor_type"],
        transform=transform,
    )
    store.verify_catalog(catalog)
    store._matched = set(int(i) for i in arrays["matched_ids"])

    # cold-start latency is the point of a snapshot, so the row loops
    # run over plain python lists — per-element numpy indexing is an
    # order of magnitude slower at this shape
    node_indptr = arrays["node_indptr"].tolist()
    node_mg = arrays["node_mg"].tolist()
    node_count = arrays["node_count"].tolist()
    if len(node_indptr) != len(nodes) + 1:
        raise SnapshotError("node table and node arrays disagree in length")
    for i, node in enumerate(nodes):
        lo, hi = node_indptr[i], node_indptr[i + 1]
        if lo < hi:
            store._node[node] = dict(zip(node_mg[lo:hi], node_count[lo:hi]))

    pair_indptr = arrays["pair_indptr"].tolist()
    pair_mg = arrays["pair_mg"].tolist()
    pair_count = arrays["pair_count"].tolist()
    pair_left = arrays["pair_left"].tolist()
    pair_right = arrays["pair_right"].tolist()
    for r in range(len(pair_indptr) - 1):
        x, y = nodes[pair_left[r]], nodes[pair_right[r]]
        lo, hi = pair_indptr[r], pair_indptr[r + 1]
        store._pair[(x, y)] = dict(zip(pair_mg[lo:hi], pair_count[lo:hi]))

    instance_totals: dict[int, int] = {}
    if "instance_total_ids" in arrays:
        instance_totals = {
            int(mg_id): int(total)
            for mg_id, total in zip(
                arrays["instance_total_ids"], arrays["instance_totals"]
            )
        }

    models: dict[str, np.ndarray] = {}
    for slot, name in enumerate(manifest.get("models", [])):
        if f"model_{slot}" not in arrays:
            raise SnapshotError(
                f"snapshot lists model {name!r} but carries no weights for it"
            )
        models[name] = _checked_weights(
            name, arrays[f"model_{slot}"], store.catalog_size
        )

    compiled = None
    named = manifest.get("transform")
    if (
        mmap
        and manifest.get("compiled_arrays")
        and named is not None
        and transform is TRANSFORMS.get(named)
    ):
        try:
            compiled = load_compiled(source, manifest=manifest, mmap=True)
        except SnapshotError as exc:
            # the sidecar is derived data — the verified counts above
            # remain the source of truth, so a missing or damaged
            # sidecar (interrupted re-save, manual deletion) costs the
            # fast path, not the snapshot
            warnings.warn(
                f"ignoring unusable compiled sidecar at {source!s} "
                f"(serving will re-compile from the counts): {exc}",
                stacklevel=2,
            )

    return LoadedIndex(
        catalog=catalog,
        vectors=store,
        models=models,
        manifest=manifest,
        instance_totals=instance_totals,
        compiled=compiled,
    )
