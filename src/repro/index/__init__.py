"""Metagraph vectors (Eq. 1–2), the instance index, and persistence."""

from repro.index.compiled import CompiledVectors
from repro.index.delta import (
    DeltaStats,
    GraphDelta,
    GraphEdit,
    affected_region,
    apply_delta,
    catalog_radius,
)
from repro.index.instance_index import InstanceIndex, MetagraphCounts
from repro.index.parallel import IndexBuildConfig, build_index
from repro.index.persist import (
    FORMAT_VERSION,
    LoadedIndex,
    catalog_fingerprint,
    graph_fingerprint,
    load_compiled,
    load_index,
    read_manifest,
    save_index,
    snapshot_digest,
)
from repro.index.rewrite import RewriteRule, RuleBook
from repro.index.transform import (
    TRANSFORMS,
    Transform,
    get_transform,
    identity,
    log1p,
    sqrt,
)
from repro.index.vectors import (
    MetagraphVectors,
    decode_node_id,
    encode_node_id,
)

__all__ = [
    "CompiledVectors",
    "DeltaStats",
    "FORMAT_VERSION",
    "GraphDelta",
    "GraphEdit",
    "IndexBuildConfig",
    "InstanceIndex",
    "LoadedIndex",
    "MetagraphCounts",
    "MetagraphVectors",
    "RewriteRule",
    "RuleBook",
    "TRANSFORMS",
    "Transform",
    "affected_region",
    "apply_delta",
    "build_index",
    "catalog_fingerprint",
    "catalog_radius",
    "decode_node_id",
    "encode_node_id",
    "get_transform",
    "graph_fingerprint",
    "identity",
    "load_compiled",
    "load_index",
    "log1p",
    "read_manifest",
    "save_index",
    "snapshot_digest",
    "sqrt",
]
