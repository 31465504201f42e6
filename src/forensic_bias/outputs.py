"""Byte-deterministic artifact writers.

Given identical inputs these produce identical bytes on every platform:
write_csv emits the csv module's excel dialect itself (CRLF line endings,
a field quoted only when it must be) with floats rendered by repr, and
JSON is written with sorted keys.  Every writer encodes its text as
UTF-8 and writes the bytes in binary mode, so no newline is translated,
and returns the sha256 of exactly the bytes it wrote.  Manifests carry
no timestamps or host details, so a rerun with the same seed is
byte-for-byte comparable.

format_value is the canonical text of one CSV field.  write_csv takes a
table as columns, a {header: column} mapping of equal-length columns,
and formats each column once: one whose values all have one exact type
among float, int, str and bool maps that type's formatter over it, any
other goes through format_value value by value.  An ndarray column's
rows are its elements in C order, with the text of their .tolist()
values; each stored element is formatted once, so a broadcast view costs
what the array it repeats costs.  A float64 array column, or a list or
tuple of exact floats, of at least _DISTINCT_MIN stored values formats
each distinct float bit pattern once and indexes the texts back, so a
column of few distinct values costs what those values cost.  Unequal
columns are a ValueError.

Every field's text carries the separator that follows it: "," or, in
the last column, CR LF.  Quoting, the empty field of a one-column table
included, is decided on the bare text before the separator is added.
Each block of _BLOCK_ROWS rows is then one "".join over a list of fields
filled column by column by strided slice assignment, so no row is built
or joined on its own.

A column of at least _SHORTEST_MIN distinct floats gets repr's text
without calling repr: float_text computes the shortest decimal that
round-trips on the uint64 bit patterns by Schubfach (Giulietti 2020),
and lays it out by repr's rules, the separator's characters included.
The text equals repr's, at ≈0.45 µs a value against repr's ≈0.7, but
each call costs ≈0.3 ms, so smaller columns keep repr.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

__all__ = [
    "format_value",
    "write_csv",
    "write_json",
    "write_text",
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

# Float columns of at least this many stored values are formatted once per
# distinct value (_float_texts).  Below it, np.unique costs about what the
# repr calls it can save or more, and its first call in a process raises
# the peak RSS by ≈0.4 MB (numpy 2.4.6), which would show in runs that
# write only small tables.
_DISTINCT_MIN = 64
# Float columns of at least this many distinct values have repr's text
# computed on arrays (float_text.shortest_texts); fewer go through
# float.__repr__ one by one.  A kernel call costs ≈0.3 ms whatever its
# size, then ≈0.45 µs a value against repr's ≈0.7 µs, and it broke even at
# 500-800 values (Linux, 2 shared cores, Python 3.11.7, numpy 2.4.6).
# feedback's columns (at most 149 distinct values) and the small tables
# stay on repr; propagation's results.csv columns (5,000 and 8,197) take
# the kernel.
_SHORTEST_MIN = 1024


def _quote_minimal(fields: list[str], lone: bool) -> list[str]:
    """fields as excel's QUOTE_MINIMAL writes them; lone: a one-column table's, where "" is quoted."""
    if _NEEDS_QUOTES.search("".join(fields)):
        fields = ['"' + f.replace('"', '""') + '"' if _NEEDS_QUOTES.search(f) else f for f in fields]
    return [f or '""' for f in fields] if lone and "" in fields else fields


def _float_texts(values: np.ndarray, sep: str) -> list[str]:
    """repr + sep of each value of a 1-d float64 array, each distinct bit pattern formatted once.

    Bit patterns, not values, are compared, so -0.0 and 0.0 stay apart
    and every NaN keeps its own text.
    """
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    if bits.size >= _SHORTEST_MIN:
        # Imported here, so that runs without a large float column never load it.
        from .float_text import shortest_texts

        texts = shortest_texts(bits.view(np.uint64), sep)
    else:
        texts = np.array([repr(v) + sep for v in bits.view(np.float64).tolist()], dtype=object)
    return texts[inverse].tolist()


def _format_column(column: Sequence[object] | np.ndarray, lone: bool, sep: str) -> list[str]:
    """The fields of one column, each followed by sep; lone as in _quote_minimal."""
    if isinstance(column, np.ndarray):
        # Index 0 on the stride-0 axes, which a broadcast view repeats.
        stored = column[(*(slice(None) if s else slice(0, 1) for s in column.strides), ...)]
        if stored.dtype == np.float64 and stored.size >= _DISTINCT_MIN:
            text = _float_texts(stored.ravel(), sep)
        else:
            text = _format_column(stored.ravel().tolist(), lone, sep)
        if stored.size == column.size:
            return text
        return np.broadcast_to(np.array(text, dtype=object).reshape(stored.shape), column.shape).ravel().tolist()
    types = set(map(type, column))
    kind = types.pop() if len(types) == 1 else None
    if kind is float and len(column) >= _DISTINCT_MIN:
        return _float_texts(np.array(column, dtype=np.float64), sep)
    text = list(map(_COLUMN_FORMATTERS.get(kind) or format_value, column))
    if kind not in (float, int, bool):
        text = _quote_minimal(text, lone)
    return [t + sep for t in text]


def _blocks(texts: list[list[str]], n_rows: int) -> Iterator[str]:
    """The CSV text of n_rows rows, one str per _BLOCK_ROWS, from columns of fields with their separators."""
    width = len(texts)
    for start in range(0, n_rows, _BLOCK_ROWS):
        stop = min(n_rows, start + _BLOCK_ROWS)
        fields = [""] * (width * (stop - start))
        for j, text in enumerate(texts):
            fields[j::width] = text[start:stop]
        yield "".join(fields)


def write_csv(path: Path, columns: Mapping[str, Sequence[object] | np.ndarray]) -> str:
    """Write columns, a {header: column} mapping, as a CSV table; returns its sha256."""
    sizes = [c.size if isinstance(c, np.ndarray) else len(c) for c in columns.values()]
    n_rows = sizes[0] if sizes else 0
    for name, size in zip(columns, sizes):
        if size != n_rows:
            first = next(iter(columns))
            raise ValueError(f"{path}: column {name!r} has {size} values, column {first!r} has {n_rows}")
    lone = len(columns) == 1
    seps = [","] * (len(columns) - 1) + ["\r\n"]
    texts = [_format_column(c, lone, sep) for c, sep in zip(columns.values(), seps)]
    header = ",".join(_quote_minimal(list(columns), lone)) + "\r\n"
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in itertools.chain([header], _blocks(texts, n_rows)):
            data = block.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def _jsonable(value: object) -> object:
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, Mapping):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_text(path: Path, text: str) -> str:
    """Write text as UTF-8, newlines untranslated; returns the sha256 of the bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, obj: object) -> str:
    """Write obj as JSON with sorted keys; returns the sha256 of the bytes."""
    text = json.dumps(_jsonable(obj), indent=2, sort_keys=True, allow_nan=False)
    return write_text(path, text + "\n")


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
