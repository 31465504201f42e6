"""Byte-deterministic artifact writers.

Given identical inputs these produce identical bytes on every platform:
write_csv emits the csv module's excel dialect itself (CRLF line endings,
a field quoted only when it must be) with floats rendered by repr, and
JSON is written with sorted keys.  Manifests carry no timestamps or host
details, so a rerun with the same seed is byte-for-byte comparable.

format_value is the canonical text of one CSV field.  write_csv takes a
table as columns, a {header: column} mapping of equal-length columns,
and formats each column once: one whose values all have one exact type
among float, int, str and bool maps that type's formatter over it, any
other goes through format_value value by value.  An ndarray column's
rows are its elements in C order, with the text of their .tolist()
values; each stored element is formatted once, so a broadcast view costs
what the array it repeats costs.  Unequal columns are a ValueError.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

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

# Characters that make the excel dialect quote a field.
_NEEDS_QUOTES = re.compile('[,"\r\n]')

# Rows joined into one write: bounds the size of each string written.
_BLOCK_ROWS = 1024


def _quote_minimal(fields: list[str], lone: bool) -> list[str]:
    """fields as excel's QUOTE_MINIMAL writes them; lone: a one-column table's, where "" is quoted."""
    if _NEEDS_QUOTES.search("".join(fields)):
        fields = ['"' + f.replace('"', '""') + '"' if _NEEDS_QUOTES.search(f) else f for f in fields]
    return [f or '""' for f in fields] if lone and "" in fields else fields


def _format_column(column: Sequence[object] | np.ndarray, lone: bool) -> list[str]:
    if isinstance(column, np.ndarray):
        # Index 0 on the stride-0 axes, which a broadcast view repeats.
        stored = column[(*(slice(None) if s else slice(0, 1) for s in column.strides), ...)]
        text = _format_column(stored.ravel().tolist(), lone)
        if stored.size == column.size:
            return text
        return np.broadcast_to(np.array(text, dtype=object).reshape(stored.shape), column.shape).ravel().tolist()
    types = set(map(type, column))
    kind = types.pop() if len(types) == 1 else None
    text = list(map(_COLUMN_FORMATTERS.get(kind) or format_value, column))
    return text if kind in (float, int, bool) else _quote_minimal(text, lone)


def write_csv(path: Path, columns: Mapping[str, Sequence[object] | np.ndarray]) -> None:
    """Write columns, a {header: column} mapping, as a CSV table."""
    sizes = [c.size if isinstance(c, np.ndarray) else len(c) for c in columns.values()]
    n_rows = sizes[0] if sizes else 0
    for name, size in zip(columns, sizes):
        if size != n_rows:
            first = next(iter(columns))
            raise ValueError(f"{path}: column {name!r} has {size} values, column {first!r} has {n_rows}")
    lone = len(columns) == 1
    texts = [_format_column(c, lone) for c in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(_quote_minimal(list(columns), lone)) + "\r\n")
        for start in range(0, n_rows, _BLOCK_ROWS):
            rows = zip(*(t[start : start + _BLOCK_ROWS] for t in texts))
            fh.write("\r\n".join(map(",".join, rows)) + "\r\n")


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
