"""Byte-deterministic artifact writers.

Given identical inputs these produce identical bytes on every platform:
write_csv emits the csv module's excel dialect itself (CRLF line endings,
a field quoted only when it must be) with floats rendered by repr, and
write_json dumps the object it is given, as json does, with sorted keys.
That object holds dicts, lists, tuples, str, int, float, bool and None;
an Enum or any other object json cannot write, or a dict whose keys
cannot be sorted together, is a TypeError, and a nan or an infinity a
ValueError.  Every writer writes UTF-8 bytes in binary mode, so no
newline is translated, and returns the sha256 of exactly the bytes it
wrote.  Manifests carry no timestamps or host details, so a rerun with
the same seed is byte-for-byte comparable.

format_value is the canonical text of one CSV field.  write_csv takes a
table as columns, a {header: column} mapping of equal-length columns,
and formats each column once: one whose values all have one exact type
among float, int, str and bool maps that type's formatter over it, any
other goes through format_value value by value.  An ndarray column's
rows are its elements in C order, with the text of their .tolist()
values; only its stored elements (index 0 on each stride-0 axis) are
formatted.  A float64 array column, or a list or tuple of exact floats,
of at least _DISTINCT_MIN stored values sorts its bit patterns once and,
when some repeat, formats each distinct one once and indexes the texts
back.  Unequal columns are a ValueError.

Every field is the UTF-8 bytes of its text and the separator that
follows it: "," or, in the last column, CR LF.  Quoting, the empty field
of a one-column table included, is decided on the bare text.  A table
with no ndarray column (none can be one while numpy is not imported) is
one write of its rows, zipped from each column's list of fields; it
imports numpy only for _float_texts.  Otherwise a column's fields keep
its stored shape.  When every column has one
shape, each block of whole leading-axis slices, about _BLOCK_ROWS rows,
is one b"".join over an object array filled by broadcast assignment of
each column's fields, so no broadcast column is expanded to one field
per row.  Columns of unequal shapes are flattened to rows first.

A column of at least _SHORTEST_MIN distinct floats gets repr's text
without calling repr: float_text computes the shortest decimal that
round-trips on the uint64 bit patterns by Schubfach (Giulietti 2020),
and lays it out by repr's rules as bytes, the separator's included.
The text equals repr's, at ≈0.45 µs a value against repr's ≈0.7, but
each call costs ≈0.3 ms, so smaller columns keep repr.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import re
import sys
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

from ._lazy import np

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
    """Canonical text for one CSV field; a NumPy scalar (none while numpy is not imported) reads as its Python value."""
    if "numpy" in sys.modules and isinstance(value, np.generic):
        value = value.item()
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

# Rows joined into one write: bounds the size of each block of bytes.
_BLOCK_ROWS = 1024

# Float columns of at least this many stored values sort their bit
# patterns (_float_texts).  Below it, the sort costs about what the repr
# calls it can save or more, and its first call in a process raises the
# peak RSS by ≈0.4 MB (numpy 2.4.6), which would show in runs that write
# only small tables.
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


def _float_texts(values: np.ndarray, sep: str) -> np.ndarray:
    """repr + sep of each value of a 1-d float64 array as bytes, each distinct bit pattern formatted once.

    One argsort of the bit patterns finds the repeats; a column without
    any is formatted in its own order.  Bit patterns, not values, are
    compared, so -0.0 and 0.0 stay apart and every NaN keeps its own text.
    """
    bits = values.view(np.int64)
    order = bits.argsort()
    ordered = bits[order]
    first = np.concatenate(([True], ordered[1:] != ordered[:-1]))
    # Not first.all(): its buffers grew a process's peak RSS by ≈0.13 MB (numpy 2.4.6).
    distinct = bits if np.count_nonzero(first) == bits.size else ordered[first]
    if distinct.size >= _SHORTEST_MIN:
        # Imported here, so that runs without a large float column never load it.
        from .float_text import shortest_texts

        texts = shortest_texts(distinct.view(np.uint64), sep)
    else:
        texts = np.array([(repr(v) + sep).encode() for v in distinct.view(np.float64).tolist()], dtype=object)
    if distinct is bits:
        return texts
    inverse = np.empty(bits.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return texts[inverse]


def _list_fields(values: Sequence[object], lone: bool, sep: str) -> list[bytes]:
    """The fields of a column of Python values, each followed by sep, as bytes; lone as in _quote_minimal."""
    types = set(map(type, values))
    kind = types.pop() if len(types) == 1 else None
    if kind is float and len(values) >= _DISTINCT_MIN:
        return _float_texts(np.array(values, dtype=np.float64), sep).tolist()
    text = list(map(_COLUMN_FORMATTERS.get(kind) or format_value, values))
    if kind in (float, int, bool):
        # These texts hold no NUL: one join, encode and split make the fields.
        return (sep + "\0").join(text + [""]).encode().split(b"\0")[:-1]
    return [(t + sep).encode() for t in _quote_minimal(text, lone)]


def _format_column(column: Sequence[object] | np.ndarray, lone: bool, sep: str) -> np.ndarray:
    """The fields of one column, each followed by sep, as bytes of its stored shape; lone as in _quote_minimal."""
    if not isinstance(column, np.ndarray):
        return np.array(_list_fields(column, lone, sep), dtype=object)
    # Index 0 on the stride-0 axes, which a broadcast view repeats.
    stored = column[(*(slice(None) if s else slice(0, 1) for s in column.strides), ...)]
    if stored.dtype == np.float64 and stored.size >= _DISTINCT_MIN:
        texts = _float_texts(stored.ravel(), sep)
    else:
        texts = np.array(_list_fields(stored.ravel().tolist(), lone, sep), dtype=object)
    return texts.reshape(stored.shape)


def _blocks(texts: list[np.ndarray], shape: tuple[int, ...]) -> Iterator[bytes]:
    """The CSV bytes of a nonempty table of this shape, from fields that broadcast to it, by leading-axis slices."""
    lead = shape[0]
    step = max(1, _BLOCK_ROWS // math.prod(shape[1:]))
    fields = np.empty((min(step, lead), *shape[1:], len(texts)), dtype=object)
    for start in range(0, lead, step):
        block = fields[: lead - start]
        for j, text in enumerate(texts):
            block[..., j] = text if text.shape[0] == 1 else text[start : start + step]
        yield b"".join(block.ravel().tolist())


def write_csv(path: Path, columns: Mapping[str, Sequence[object] | np.ndarray]) -> str:
    """Write columns, a {header: column} mapping, as a CSV table; returns its sha256."""
    arrays = "numpy" in sys.modules and any(isinstance(c, np.ndarray) for c in columns.values())
    shapes = [c.shape if arrays and isinstance(c, np.ndarray) else (len(c),) for c in columns.values()]
    sizes = [math.prod(shape) for shape in shapes]
    n_rows = sizes[0] if sizes else 0
    for name, size in zip(columns, sizes):
        if size != n_rows:
            first = next(iter(columns))
            raise ValueError(f"{path}: column {name!r} has {size} values, column {first!r} has {n_rows}")
    lone = len(columns) == 1
    seps = [","] * (len(columns) - 1) + ["\r\n"]
    if arrays:
        texts = [_format_column(c, lone, sep) for c, sep in zip(columns.values(), seps)]
        if len(set(shapes)) != 1 or not shapes[0]:
            texts = [np.broadcast_to(t, s).reshape(n_rows) for t, s in zip(texts, shapes)]
            shapes = [(n_rows,)]
        blocks = _blocks(texts, shapes[0]) if n_rows else ()
    else:
        texts = [_list_fields(c, lone, sep) for c, sep in zip(columns.values(), seps)]
        blocks = [b"".join(itertools.chain.from_iterable(zip(*texts)))]
    header = (",".join(_quote_minimal(list(columns), lone)) + "\r\n").encode("utf-8")
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for block in itertools.chain([header], blocks):
            digest.update(block)
            fh.write(block)
    return digest.hexdigest()


def write_text(path: Path, text: str) -> str:
    """Write text as UTF-8, newlines untranslated; returns the sha256 of the bytes."""
    data = text.encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)
    return hashlib.sha256(data).hexdigest()


def write_json(path: Path, obj: object) -> str:
    """Write obj as JSON with sorted keys; returns the sha256 of the bytes."""
    text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
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
    # A shallow dict gives the same JSON as asdict, without its deep copy.
    write_json(path, {field.name: getattr(manifest, field.name) for field in fields(manifest)})
    return path


def read_manifest(out_dir: Path) -> RunManifest:
    """Parse out_dir's manifest.

    Raises OSError when it cannot be read and ValueError when it is not
    JSON, lacks a field, or lists an artifact by anything but a plain
    file name and a digest string.
    """
    data = json.loads((out_dir / MANIFEST_NAME).read_text(encoding="utf-8"))
    names = [f.name for f in fields(RunManifest)]
    try:
        manifest = RunManifest(**{name: data[name] for name in names})
    except (KeyError, TypeError):
        raise ValueError(f"not a run manifest (needs {', '.join(names)})") from None
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
