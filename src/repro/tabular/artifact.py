"""Versioned on-disk artifact for :class:`TabularBenchmark`.

An artifact is a directory of two files, both written through the
:mod:`repro.runstate` atomic helpers (write-then-rename — a crash never
leaves a torn artifact):

* ``columns.npz`` — the dense columns (``index``, ``accuracy``, one
  ``latency__<device>`` per device, optional ``energy``);
* ``manifest.json`` — schema version, space fingerprint, optional
  layout name, recipe, build seed, device list, and a sha256 checksum
  per column (over dtype + shape + raw bytes).

Loading verifies the schema version, every checksum, and the space
fingerprint before a single lookup is served; any mismatch raises
:class:`TabularArtifactError` with a one-line actionable message. A
corrupted, truncated, or wrong-space artifact therefore fails loudly —
silent garbage replay is the failure mode this module exists to close.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro.runstate.atomic import atomic_path, atomic_write_json
from repro.space.encoding import space_cardinality
from repro.space.search_space import SearchSpace
from repro.tabular.table import TabularBenchmark, space_fingerprint

# Bump when the artifact's payload shape changes; loaders refuse other
# versions loudly instead of returning garbage lookups.
SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
COLUMNS_NAME = "columns.npz"


class TabularArtifactError(ValueError):
    """A tabular artifact that cannot be trusted (or found)."""


def _column_sha256(column: np.ndarray) -> str:
    digest = hashlib.sha256()
    digest.update(str(column.dtype).encode("utf-8"))
    digest.update(str(column.shape).encode("utf-8"))
    digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def _index_column(table: TabularBenchmark) -> np.ndarray:
    indices = table.indices
    if not indices or indices[-1] <= np.iinfo(np.int64).max:
        return np.asarray(indices, dtype=np.int64)
    # Paper-scale indices overflow int64; store them as decimal strings.
    return np.asarray([str(i) for i in indices], dtype=np.str_)


def save_artifact(
    table: TabularBenchmark,
    path: Union[str, Path],
    layout: Optional[str] = None,
) -> Path:
    """Write ``table`` as a versioned, checksummed artifact directory.

    ``layout`` (when the caller knows it) lets :func:`load_artifact`
    reconstruct the space without being handed one.
    """
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    columns: Dict[str, np.ndarray] = {"index": _index_column(table)}
    columns["accuracy"] = table.accuracy_column()
    for device in table.devices:
        columns[f"latency__{device}"] = table.latency_column(device)
    energy = table.energy_column()
    if energy is not None:
        columns["energy"] = energy
    with atomic_path(out / COLUMNS_NAME) as tmp:
        with open(tmp, "wb") as handle:
            np.savez(handle, **columns)
    manifest = {
        "format": SCHEMA_VERSION,
        "fingerprint": table.fingerprint,
        "layout": layout,
        "cardinality": str(space_cardinality(table.space)),
        "num_archs": len(table),
        "exhaustive": table.exhaustive,
        "recipe": table.recipe,
        "build_seed": table.build_seed,
        "devices": list(table.devices),
        "primary_device": table.primary_device,
        "columns": {
            name: _column_sha256(column)
            for name, column in columns.items()
        },
    }
    atomic_write_json(out / MANIFEST_NAME, manifest)
    return out


def load_manifest(path: Union[str, Path]) -> dict:
    """The parsed, version-checked manifest of an artifact directory."""
    root = Path(path)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        raise TabularArtifactError(
            f"{root} is not a tabular artifact (no {MANIFEST_NAME})"
        )
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise TabularArtifactError(
            f"{manifest_path} is not valid JSON: {exc}"
        ) from exc
    if int(manifest.get("format", 0)) != SCHEMA_VERSION:
        raise TabularArtifactError(
            f"{root} is schema v{manifest.get('format')}; this build "
            f"reads v{SCHEMA_VERSION} — rebuild the artifact"
        )
    return manifest


def load_artifact(
    path: Union[str, Path], space: Optional[SearchSpace] = None
) -> TabularBenchmark:
    """Reopen an artifact, verifying schema, checksums, and fingerprint.

    Pass ``space`` to replay into an explicitly constructed (possibly
    shrunk) space; otherwise the manifest's recorded ``layout`` is
    resolved through :func:`repro.space.space_for_layout`. Either way
    the space fingerprint must match the manifest's — a table is never
    silently replayed against the wrong space.
    """
    root = Path(path)
    manifest = load_manifest(root)
    if space is None:
        layout = manifest.get("layout")
        if layout is None:
            raise TabularArtifactError(
                f"{root} records no layout; pass the search space "
                "explicitly to load_artifact"
            )
        from repro.space import space_for_layout

        space = space_for_layout(layout)
    expected = space_fingerprint(space)
    found = str(manifest["fingerprint"])
    if found != expected:
        raise TabularArtifactError(
            f"{root} was built for a different space: fingerprint "
            f"{found[:12]} != {expected[:12]} (check the layout and any "
            "shrink state before replaying)"
        )
    columns_path = root / COLUMNS_NAME
    if not columns_path.exists():
        raise TabularArtifactError(f"{root} is missing {COLUMNS_NAME}")
    with np.load(columns_path, allow_pickle=False) as payload:
        columns = {name: payload[name] for name in payload.files}
    checksums = manifest.get("columns", {})
    if sorted(checksums) != sorted(columns):
        raise TabularArtifactError(
            f"{root} column set {sorted(columns)} does not match its "
            f"manifest {sorted(checksums)}"
        )
    for name, column in columns.items():
        if _column_sha256(column) != checksums[name]:
            raise TabularArtifactError(
                f"{root} column {name!r} fails its checksum — the "
                "artifact is corrupt; rebuild it"
            )
    # int64 or decimal-string index column; both decode to Python ints.
    indices = [int(value) for value in columns.pop("index")]
    latency = {
        name[len("latency__"):]: column
        for name, column in columns.items()
        if name.startswith("latency__")
    }
    return TabularBenchmark(
        space,
        indices=indices,
        accuracy=columns["accuracy"],
        latency=latency,
        energy=columns.get("energy"),
        exhaustive=bool(manifest["exhaustive"]),
        primary_device=manifest["primary_device"],
        recipe=manifest.get("recipe", "custom"),
        build_seed=int(manifest.get("build_seed", 0)),
    )
