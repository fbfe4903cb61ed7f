"""MetagraphCatalog: the indexed set M of metagraphs on a graph.

The learning subsystem addresses metagraphs by dense integer id — the
positions of the weight vector ``w`` and the metagraph vectors ``m_x``,
``m_xy``.  :class:`MetagraphCatalog` provides that id space, deduplicates
by canonical form, and precomputes the structural facts the rest of the
pipeline needs (metapath flags for seed selection, symmetry flags for
the paper's symmetric-class restriction).
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Iterator
from pathlib import Path

from repro.exceptions import CatalogMismatchError, MetagraphError
from repro.metagraph.canonical import (
    CanonicalForm,
    canonical_form,
    canonicalize,
    decode_form,
    encode_edges,
)
from repro.metagraph.metagraph import Metagraph
from repro.metagraph.symmetry import anchor_symmetric_pairs, is_symmetric


class MetagraphCatalog:
    """An ordered, deduplicated collection of metagraphs.

    Parameters
    ----------
    metagraphs:
        Initial members; duplicates (up to isomorphism) are rejected.
    anchor_type:
        The node type whose proximity is being measured (``user`` in the
        paper).  Stored so that dependent artefacts can verify they were
        built against the same catalog.

    Examples
    --------
    >>> from repro.metagraph.metagraph import metapath
    >>> catalog = MetagraphCatalog([metapath("user", "school", "user")], "user")
    >>> len(catalog)
    1
    >>> catalog.metapath_ids()
    (0,)
    """

    def __init__(
        self,
        metagraphs: Iterable[Metagraph] = (),
        anchor_type: str = "user",
    ):
        self.anchor_type = anchor_type
        self._members: list[Metagraph] = []
        self._forms: dict[CanonicalForm, int] = {}
        for metagraph in metagraphs:
            self.add(metagraph)

    def add(self, metagraph: Metagraph) -> int:
        """Add a metagraph; returns its id.  Duplicates raise."""
        form = canonical_form(metagraph)
        if form in self._forms:
            raise MetagraphError(
                f"metagraph {metagraph!r} duplicates catalog member "
                f"#{self._forms[form]}"
            )
        mg_id = len(self._members)
        stored = canonicalize(metagraph)
        if not stored.name:
            stored = stored.with_name(f"M{mg_id}")
        self._members.append(stored)
        self._forms[form] = mg_id
        return mg_id

    def add_if_new(self, metagraph: Metagraph) -> tuple[int, bool]:
        """Add unless an isomorphic member exists; returns (id, added)."""
        form = canonical_form(metagraph)
        if form in self._forms:
            return self._forms[form], False
        return self.add(metagraph), True

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __iter__(self) -> Iterator[Metagraph]:
        return iter(self._members)

    def __getitem__(self, mg_id: int) -> Metagraph:
        return self._members[mg_id]

    def __contains__(self, metagraph: Metagraph) -> bool:
        return canonical_form(metagraph) in self._forms

    def id_of(self, metagraph: Metagraph) -> int:
        """Id of an isomorphic member; raises if absent."""
        form = canonical_form(metagraph)
        try:
            return self._forms[form]
        except KeyError:
            raise MetagraphError(f"{metagraph!r} is not in the catalog") from None

    def ids(self) -> range:
        """All member ids 0..len-1."""
        return range(len(self._members))

    def metapath_ids(self) -> tuple[int, ...]:
        """Ids of members that are metapaths — Alg. 1's seed set K0."""
        return tuple(i for i, m in enumerate(self._members) if m.is_path)

    def non_metapath_ids(self) -> tuple[int, ...]:
        """Ids of members that are not metapaths — Alg. 1's M \\ K0."""
        return tuple(i for i, m in enumerate(self._members) if not m.is_path)

    def symmetric_ids(self) -> tuple[int, ...]:
        """Ids of members that are symmetric per Def. 1."""
        return tuple(i for i, m in enumerate(self._members) if is_symmetric(m))

    def anchor_pair_ids(self) -> tuple[int, ...]:
        """Ids whose members have ≥1 symmetric pair of anchor-type nodes.

        Only these metagraphs can contribute to the proximity between
        two anchor-type nodes (Eq. 1).
        """
        return tuple(
            i
            for i, m in enumerate(self._members)
            if anchor_symmetric_pairs(m, self.anchor_type)
        )

    def subset(self, ids: Iterable[int]) -> "MetagraphCatalog":
        """A new catalog containing only the given members (re-indexed)."""
        return MetagraphCatalog(
            (self._members[i] for i in ids), anchor_type=self.anchor_type
        )

    def verify_compatible(self, expected_size: int) -> None:
        """Raise :class:`CatalogMismatchError` unless sizes agree.

        Dependent artefacts (vectors, weight vectors) carry the catalog
        size they were built against and call this before use.
        """
        if len(self) != expected_size:
            raise CatalogMismatchError(
                f"catalog has {len(self)} metagraphs but the artefact was "
                f"built against {expected_size}"
            )

    # ------------------------------------------------------------------
    # serialisation
    # ------------------------------------------------------------------
    def to_json(self) -> str:
        """Serialise the catalog to JSON."""
        doc = {
            "anchor_type": self.anchor_type,
            "metagraphs": [
                {
                    "name": m.name,
                    "types": list(m.types),
                    "edges": encode_edges(m.edges, m.kind_items, m.nodes()),
                }
                for m in self._members
            ],
        }
        return json.dumps(doc, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "MetagraphCatalog":
        """Parse a catalog from :meth:`to_json` output."""
        doc = json.loads(text)
        catalog = cls(anchor_type=doc["anchor_type"])
        for entry in doc["metagraphs"]:
            catalog.add(
                decode_form(
                    (entry["types"], entry["edges"]), name=entry.get("name", "")
                )
            )
        return catalog

    def save(self, path: str | Path) -> None:
        """Write the catalog to a JSON file."""
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "MetagraphCatalog":
        """Read a catalog from a JSON file."""
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    def __repr__(self) -> str:
        return (
            f"<MetagraphCatalog: {len(self)} metagraphs, "
            f"{len(self.metapath_ids())} metapaths, anchor={self.anchor_type!r}>"
        )
