"""Metagraphs: typed pattern graphs characterising semantic classes."""

from repro.metagraph.canonical import are_isomorphic, canonical_form, canonicalize
from repro.metagraph.catalog import MetagraphCatalog
from repro.metagraph.decomposition import Decomposition, TwinFamily, decompose
from repro.metagraph.describe import describe, describe_weights
from repro.metagraph.metagraph import Metagraph, metapath
from repro.metagraph.similarity import (
    functional_similarity,
    mcs_size,
    structural_similarity,
)
from repro.metagraph.symmetry import (
    anchor_symmetric_pairs,
    automorphisms,
    is_symmetric,
    orbits,
    symmetric_pairs,
    symmetric_partners,
    symmetry_conditions,
)

__all__ = [
    "Decomposition",
    "Metagraph",
    "MetagraphCatalog",
    "TwinFamily",
    "anchor_symmetric_pairs",
    "are_isomorphic",
    "automorphisms",
    "canonical_form",
    "canonicalize",
    "decompose",
    "describe",
    "describe_weights",
    "functional_similarity",
    "is_symmetric",
    "mcs_size",
    "metapath",
    "orbits",
    "structural_similarity",
    "symmetric_pairs",
    "symmetric_partners",
    "symmetry_conditions",
]
