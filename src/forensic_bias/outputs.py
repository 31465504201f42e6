"""Byte-deterministic artifact writers.

Given identical inputs these produce identical bytes on every platform:
CSV rows use the csv module's RFC 4180 dialect (CRLF line endings) with
floats rendered by repr (shortest round-trip form), and JSON is written
with sorted keys.  Manifests carry no timestamps or host details, so a
rerun with the same seed is byte-for-byte comparable.

format_value is the canonical text of one CSV field.  write_csv takes a
table as columns, a {header: column} mapping of equal-length sequences,
and formats it a column slice at a time: a slice whose values all have
one exact type among float, int, str and bool maps that type's formatter
over it, which gives format_value's text; any other slice (mixed types,
enums, numpy scalars, fractions) goes through format_value value by
value.  Columns of unequal length are a ValueError, not ragged lines.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
    "sha256_file",
    "RunManifest",
    "MANIFEST_NAME",
    "write_manifest",
    "read_manifest",
    "verify_artifacts",
]

MANIFEST_NAME = "manifest.json"


def format_value(value: object) -> str:
    """Canonical text for one CSV field."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return str(value.value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


# Formatters equal to format_value on values of exactly these types.
_COLUMN_FORMATTERS = {
    float: float.__repr__,
    int: int.__repr__,
    str: str,
    bool: {True: "true", False: "false"}.__getitem__,
}

# Rows formatted at once: bounds the text held in memory on large tables.
_BLOCK_ROWS = 1024


def _format_column(values: Sequence[object]) -> list[str]:
    types = set(map(type, values))
    formatter = _COLUMN_FORMATTERS.get(types.pop()) if len(types) == 1 else None
    return list(map(formatter or format_value, values))


def write_csv(path: Path, columns: Mapping[str, Sequence[object]]) -> None:
    """Write columns, a {header: column} mapping, as a CSV table."""
    n_rows = len(next(iter(columns.values()), ()))
    for name, column in columns.items():
        if len(column) != n_rows:
            first = next(iter(columns))
            raise ValueError(
                f"{path}: column {name!r} has {len(column)} values, column {first!r} has {n_rows}"
            )
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns.keys())
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            writer.writerows(zip(*(_format_column(c[start:stop]) for c in columns.values())))


def _jsonable(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_json(path: Path, obj: object) -> None:
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n", encoding="utf-8")


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclass(frozen=True)
class RunManifest:
    """What was run and what it produced; enough to re-create everything."""

    preset: str
    seed: int
    parameters: dict
    artifacts: dict  # filename -> sha256 hex digest
    tool_version: str


def write_manifest(out_dir: Path, manifest: RunManifest) -> Path:
    path = out_dir / MANIFEST_NAME
    write_json(
        path,
        {
            "preset": manifest.preset,
            "seed": manifest.seed,
            "parameters": manifest.parameters,
            "artifacts": manifest.artifacts,
            "tool_version": manifest.tool_version,
        },
    )
    return path


def read_manifest(out_dir: Path) -> RunManifest:
    """Parse out_dir's manifest.

    Raises OSError when it cannot be read and ValueError when it is not
    JSON, lacks a field, or lists an artifact by anything but a plain
    file name and a digest string.
    """
    data = json.loads((out_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    try:
        manifest = RunManifest(
            preset=data["preset"],
            seed=data["seed"],
            parameters=data["parameters"],
            artifacts=data["artifacts"],
            tool_version=data["tool_version"],
        )
    except (KeyError, TypeError):
        raise ValueError(
            "not a run manifest (needs preset, seed, parameters, artifacts, tool_version)"
        ) from None
    artifacts = manifest.artifacts
    if not isinstance(artifacts, dict) or not all(
        isinstance(digest, str) and name not in ("", "..") and Path(name).name == name
        for name, digest in artifacts.items()
    ):
        raise ValueError("'artifacts' must map plain file names to sha256 digests")
    return manifest


def verify_artifacts(out_dir: Path, manifest: RunManifest) -> dict[str, str]:
    """Status of every file in out_dir and every artifact the manifest lists.

    Maps each name, sorted, to "ok" (checksum matches), "mismatch",
    "missing" (listed, not a file in out_dir) or "unlisted" (in out_dir,
    not listed; the manifest itself excepted).
    """
    status = {p.name: "unlisted" for p in out_dir.iterdir() if p.name != MANIFEST_NAME}
    for name, digest in manifest.artifacts.items():
        path = out_dir / name
        if not path.is_file():
            status[name] = "missing"
        else:
            status[name] = "ok" if sha256_file(path) == digest else "mismatch"
    return dict(sorted(status.items()))
