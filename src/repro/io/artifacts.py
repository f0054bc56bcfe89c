"""Disk artifact codecs for the build cache's disk tier.

The cache layer (:mod:`repro.cache`) is format-agnostic: it names files
by stage fingerprint, publishes them atomically and maps every decode
failure to a miss.  *This* module owns the formats — one codec per
artifact kind:

Both kinds are ``.npz`` archives of raw arrays, so loads take
array-copy time instead of rebuild time.  A header (version, kind, the
store's code table, a SHA-256 digest over the table and every array's
name/dtype/shape/bytes) rides along as a JSON string inside the archive.

* **Catalogs** store the :class:`~repro.catalog.CatalogColumns` arrays
  (int64 ``ids``, ``audiences``, ``topic_codes``; the topic table in the
  header) and a ``names`` array, empty when names derive from id and
  topic.  :func:`repro.io.save_catalog`'s JSON is a separate format.
* **Panels** store the :class:`~repro.population.columnar.PanelColumns`
  arrays — ``user_ids`` (int64), ``country_index`` (int16; the country
  table in the header), ``gender_index`` (int8), ``ages`` (int16) and
  the CSR ``indptr`` (int64) / ``interest_ids`` (int32).

Round-trips are dtype- and content-exact: ``decode(encode(panel))``
yields columns for which ``PanelColumns.content_equals`` holds with the
original — and since the cache key is a content fingerprint, a
disk-hydrated build is bit-identical to an in-memory one.

Any mismatch — wrong :data:`ARTIFACT_FORMAT_VERSION`, wrong kind, digest
mismatch, missing arrays, a catalog that breaks its invariants (unequal
lengths, unsorted or duplicate ids, negative audiences, topic codes
outside the table), truncated file — raises
:class:`~repro.errors.ArtifactError` (or whatever the underlying parser
raises), which the disk tier treats as a miss and rebuilds from source.
Bumping the version tag therefore invalidates every existing artifact
cleanly: old files simply stop decoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..cache import BuildCache, catalog_stage_key
from ..catalog import CatalogColumns, InterestCatalog
from ..errors import ArtifactError, CatalogError
from ..population.columnar import PanelColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fdvt → exec → reach)
    from ..fdvt.panel import FDVTPanel

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "CATALOG_CODEC",
    "CatalogArtifactCodec",
    "PanelArtifactCodec",
    "cached_catalog",
]

#: On-disk format version, embedded in every artifact header and checked
#: on load.  Bump it whenever the serialised layout changes; every
#: artifact written under the old version then decodes as a miss.
ARTIFACT_FORMAT_VERSION = 1

#: The ``CatalogColumns`` arrays persisted in a catalog ``.npz``, in digest
#: order.  ``topics`` (the code table) travels in the header.
_CATALOG_ARRAYS = ("ids", "audiences", "topic_codes", "names")

#: The ``PanelColumns`` arrays persisted in a panel ``.npz``, in digest
#: order.  ``country_codes`` (the code table) travels in the header.
_PANEL_ARRAYS = (
    "user_ids",
    "country_index",
    "gender_index",
    "ages",
    "indptr",
    "interest_ids",
)


def _canonical_bytes(payload: Any) -> bytes:
    """The canonical JSON encoding digests are computed over."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _check_header(header: Any, kind: str) -> dict:
    """Validate an artifact header's version and kind tags."""
    if not isinstance(header, dict):
        raise ArtifactError("artifact header is not a mapping")
    version = header.get("format_version")
    if version != ARTIFACT_FORMAT_VERSION:
        raise ArtifactError(
            f"unsupported artifact format version: {version!r} "
            f"(expected {ARTIFACT_FORMAT_VERSION})"
        )
    found = header.get("kind")
    if found != kind:
        raise ArtifactError(f"artifact kind mismatch: {found!r} != {kind!r}")
    return header


def _digest(table: Any, arrays: dict[str, np.ndarray]) -> str:
    """SHA-256 over a JSON table and every array's name/dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(_canonical_bytes(table))
    for name, array in arrays.items():
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(_canonical_bytes(list(array.shape)))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


def _write_npz(path: Path, kind: str, table_key: str, table: Any, arrays: dict) -> None:
    """Write ``arrays`` plus a header holding ``table`` and their digest."""
    header = {
        "format_version": ARTIFACT_FORMAT_VERSION,
        "kind": kind,
        table_key: table,
        "digest": _digest(table, arrays),
    }
    with open(path, "wb") as handle:
        np.savez(handle, header=np.array(json.dumps(header, sort_keys=True)), **arrays)


def _read_npz(path: Path, kind: str, table_key: str, names: tuple) -> tuple[Any, dict]:
    """``(table, arrays)`` of a :func:`_write_npz` archive, checked end to end."""
    with np.load(path, allow_pickle=False) as data:
        try:
            header = _check_header(json.loads(str(data["header"][()])), kind)
            arrays = {name: data[name] for name in names}
            table = header[table_key]
        except KeyError as exc:
            raise ArtifactError(f"{kind} artifact missing entry: {exc}") from exc
    if _digest(table, arrays) != header.get("digest"):
        raise ArtifactError(f"{kind} artifact digest mismatch: {path}")
    return table, arrays


class CatalogArtifactCodec:
    """Catalog ↔ ``.npz`` of its :class:`~repro.catalog.CatalogColumns`."""

    kind = "catalog"
    extension = "catalog.npz"

    def encode(self, artifact: InterestCatalog, path: Path) -> None:
        columns = artifact.to_columns()
        arrays = dict(zip(_CATALOG_ARRAYS, columns[:3]))
        # An empty ``names`` array stands for derived names.
        arrays["names"] = np.array(columns.names or (), dtype=str)
        _write_npz(path, self.kind, "topics", list(columns.topics), arrays)

    def decode(self, path: Path) -> InterestCatalog:
        topics, arrays = _read_npz(path, self.kind, "topics", _CATALOG_ARRAYS)
        ids, audiences, codes, names = arrays.values()
        names = tuple(names.tolist()) or None
        try:
            return InterestCatalog(CatalogColumns(ids, audiences, codes, topics, names))
        except CatalogError as exc:
            raise ArtifactError(f"invalid catalog artifact {path}: {exc}") from exc


#: The process-wide catalog codec (stateless, shared by every stage).
CATALOG_CODEC = CatalogArtifactCodec()


def cached_catalog(
    config: Any, seed: int | None, world_population: float, cache: BuildCache | None
) -> InterestCatalog:
    """``InterestCatalog.generate``, through ``cache`` when given.

    Every catalog build (the pipeline stage, worker-side reach-model and
    assigner rebuilds) shares one :func:`~repro.cache.catalog_stage_key`
    entry, which a disk tier stores with :data:`CATALOG_CODEC`.
    """

    generate = partial(
        InterestCatalog.generate, config, world_population=world_population, seed=seed
    )
    if cache is None:
        return generate()
    key = catalog_stage_key(config, seed, world_population)
    return cache.get_or_build(key, generate, codec=CATALOG_CODEC)


@dataclass(frozen=True)
class PanelArtifactCodec:
    """Panel ↔ columnar ``.npz`` archive (header JSON + raw arrays).

    Decoding needs the catalog the panel was assigned from — the panel
    fingerprint already pins the catalog stage, so binding the resolved
    catalog here is safe — and returns an
    :meth:`~repro.fdvt.panel.FDVTPanel.from_columns` view of the decoded
    store.
    """

    catalog: InterestCatalog

    kind = "panel"
    extension = "panel.npz"

    def encode(self, artifact: "FDVTPanel", path: Path) -> None:
        columns = artifact.columns
        arrays = {name: getattr(columns, name) for name in _PANEL_ARRAYS}
        _write_npz(
            path, self.kind, "country_codes", list(columns.country_codes), arrays
        )

    def decode(self, path: Path) -> "FDVTPanel":
        from ..fdvt.panel import FDVTPanel

        codes, arrays = _read_npz(path, self.kind, "country_codes", _PANEL_ARRAYS)
        columns = PanelColumns(country_codes=tuple(codes), **arrays)
        return FDVTPanel.from_columns(columns, self.catalog)
