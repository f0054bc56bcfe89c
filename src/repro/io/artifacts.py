"""Disk artifact codecs for the build cache's disk tier.

The cache layer (:mod:`repro.cache`) is format-agnostic: it names files
by stage fingerprint, publishes them atomically and maps every decode
failure to a miss.  *This* module owns the formats — one codec per
artifact kind:

* **Catalogs** serialise as a single JSON document (the same
  ``to_dicts()`` view :func:`repro.io.save_catalog` uses) wrapped in a
  header carrying the format version, the kind tag and a SHA-256 digest
  of the canonical payload encoding.
* **Panels** serialise as a compact columnar ``.npz`` of the
  :class:`~repro.population.columnar.PanelColumns` arrays — ``user_ids``
  (int64), ``country_index`` (int16, plus the per-store code table),
  ``gender_index`` (int8), ``ages`` (int16) and the CSR ``indptr``
  (int64) / ``interest_ids`` (int32) — so a million-user panel loads in
  array-copy time instead of rebuild time.  The header (version, kind,
  code table, digest over every array's name/dtype/shape/bytes) rides
  along as a JSON string inside the archive.

Round-trips are dtype- and content-exact: ``decode(encode(panel))``
yields columns for which ``PanelColumns.content_equals`` holds with the
original — and since the cache key is a content fingerprint, a
disk-hydrated build is bit-identical to an in-memory one.

Any mismatch — wrong :data:`ARTIFACT_FORMAT_VERSION`, wrong kind, digest
mismatch, missing arrays, truncated file — raises
:class:`~repro.errors.ArtifactError` (or whatever the underlying parser
raises), which the disk tier treats as a miss and rebuilds from source.
Bumping the version tag therefore invalidates every existing artifact
cleanly: old files simply stop decoding.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from ..catalog import InterestCatalog
from ..errors import ArtifactError
from ..population.columnar import PanelColumns

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (fdvt → exec → reach)
    from ..fdvt.panel import FDVTPanel

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "CATALOG_CODEC",
    "CatalogArtifactCodec",
    "PanelArtifactCodec",
]

#: On-disk format version, embedded in every artifact header and checked
#: on load.  Bump it whenever the serialised layout changes; every
#: artifact written under the old version then decodes as a miss.
ARTIFACT_FORMAT_VERSION = 1

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


class CatalogArtifactCodec:
    """Catalog ↔ versioned, digest-checked JSON document."""

    kind = "catalog"
    extension = "catalog.json"

    def encode(self, artifact: InterestCatalog, path: Path) -> None:
        payload = {"interests": artifact.to_dicts()}
        document = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": self.kind,
            "digest": hashlib.sha256(_canonical_bytes(payload)).hexdigest(),
            "payload": payload,
        }
        Path(path).write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":")),
            encoding="utf-8",
        )

    def decode(self, path: Path) -> InterestCatalog:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
        header = _check_header(document, self.kind)
        payload = header.get("payload")
        digest = hashlib.sha256(_canonical_bytes(payload)).hexdigest()
        if digest != header.get("digest"):
            raise ArtifactError(f"catalog artifact digest mismatch: {path}")
        return InterestCatalog.from_dicts(payload["interests"])


#: The process-wide catalog codec (stateless, shared by every stage).
CATALOG_CODEC = CatalogArtifactCodec()


def _columns_digest(columns: PanelColumns) -> str:
    """SHA-256 over the code table and every array's name/dtype/shape/bytes."""
    digest = hashlib.sha256()
    digest.update(_canonical_bytes(list(columns.country_codes)))
    for name in _PANEL_ARRAYS:
        array = getattr(columns, name)
        digest.update(name.encode("utf-8"))
        digest.update(array.dtype.str.encode("utf-8"))
        digest.update(_canonical_bytes(list(array.shape)))
        digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


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
        header = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "kind": self.kind,
            "country_codes": list(columns.country_codes),
            "digest": _columns_digest(columns),
        }
        arrays = {name: getattr(columns, name) for name in _PANEL_ARRAYS}
        with open(path, "wb") as handle:
            np.savez(
                handle,
                header=np.array(json.dumps(header, sort_keys=True)),
                **arrays,
            )

    def decode(self, path: Path) -> "FDVTPanel":
        from ..fdvt.panel import FDVTPanel

        with np.load(path, allow_pickle=False) as data:
            try:
                header = _check_header(json.loads(str(data["header"][()])), self.kind)
                arrays = {name: data[name] for name in _PANEL_ARRAYS}
            except KeyError as exc:
                raise ArtifactError(f"panel artifact missing entry: {exc}") from exc
        columns = PanelColumns(
            country_codes=tuple(header["country_codes"]), **arrays
        )
        if _columns_digest(columns) != header.get("digest"):
            raise ArtifactError(f"panel artifact digest mismatch: {path}")
        return FDVTPanel.from_columns(columns, self.catalog)
