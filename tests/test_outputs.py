"""The column-wise CSV writer against the per-value reference writer."""

import csv
import hashlib
import math
import random
import tracemalloc
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

from forensic_bias import float_text, outputs
from forensic_bias.outputs import _DISTINCT_MIN, _SHORTEST_MIN, format_value, write_csv
from forensic_bias.propagation import ChainParams, monte_carlo_chains


def _reference_write_csv(path, header, rows):
    """The per-value writer: one format_value call per field, row by row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([format_value(v) for v in row])


class Colour(Enum):
    RED = "red"
    BLUE = 2


CASES = {
    "empty": {"a": [], "b": []},
    "bool-next-to-int": {"flag": [True, False, True], "n": [1, 0, 2]},
    "mixed-int-float": {"x": [1, 2.5, 3, 0.1]},
    "mixed-int-bool": {"x": [1, True, 0, False]},
    "enum": {"colour": [Colour.RED, Colour.BLUE], "i": [1, 2]},
    "numpy-scalars": {
        "f": [np.float64(0.1), np.float64(1e16)],
        "i": [np.int64(3), np.int64(-4)],
        "b": [np.bool_(True), np.bool_(False)],
    },
    "fractions": {"q": [Fraction(1, 3), Fraction(-7, 2)]},
    "special-floats": {"v": [math.nan, math.inf, -math.inf, -0.0, 1e-05, 1e16]},
    "quoting": {"text": ["a,b", 'say "hi"', "line\r\nbreak", "", "plain"], "n": [1, 2, 3, 4, 5]},
    "single-empty-string": {"s": ["", "x", ""]},
    "none": {"v": [None, None]},
    "float-table-3000": {
        "i": list(range(3000)),
        "x": [i / 7.0 for i in range(3000)],
        "y": [math.sqrt(i) * 1e-3 for i in range(3000)],
    },
    "tuple-and-range-columns": {"i": range(2050), "x": tuple(i * 0.5 for i in range(2050))},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_equal_reference(tmp_path, case):
    columns = CASES[case]
    write_csv(tmp_path / "got.csv", columns)
    _reference_write_csv(tmp_path / "want.csv", list(columns), zip(*columns.values()))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


ARRAY_CASES = {
    "float64": {"x": np.array([0.1, -0.0, math.nan, math.inf, 1e16, 1 / 3])},
    "int64": {"n": np.array([-4, 0, 2**62]), "i": [1, 2, 3]},
    "bool": {"b": np.array([True, False, True])},
    "object": {"o": np.array(["a,b", Colour.RED, 3, 2.5, True, None, ""], dtype=object)},
    "stride-0-first": {"x": np.broadcast_to([0.5, 1.5, 2.5], (4, 3)), "i": np.arange(12)},
    "stride-0-middle": {"x": np.broadcast_to(np.arange(6.0).reshape(2, 1, 3), (2, 4, 3))},
    "stride-0-last": {
        "x": np.broadcast_to(np.array([[0.1], [0.2]]), (2, 5)),
        "s": np.broadcast_to(np.array(["a", 'say "b"'])[:, None], (2, 5)),
    },
    "stride-0-lone-empty-strings": {"s": np.broadcast_to(np.array(["", "x"])[:, None], (2, 3))},
    "stride-0-past-a-block": {
        "run": np.broadcast_to(np.arange(600)[:, None, None], (600, 2, 3)),
        "mode": np.broadcast_to(np.array(["p", "q"])[:, None], (600, 2, 3)),
        "x": [i / 3.0 for i in range(3600)],
    },
    "non-contiguous": {"x": np.arange(40.0).reshape(4, 10)[::2, 1::3], "b": np.arange(6) % 2 == 0},
    "0-d": {"x": np.array(0.25), "o": np.array("a,b", dtype=object), "i": [7]},
    "empty": {"x": np.array([]), "i": np.broadcast_to(np.array([1, 2]), (0, 2)), "s": []},
    # Blocks are whole slices of the leading axis: 1537 runs of 14 rows do
    # not divide _BLOCK_ROWS, and the columns are stored as (n,1,1),
    # (1,2,1), (1,1,k), (n,1,k) and (n,2,k).
    "leading-axis-not-dividing-a-block": {
        "run": np.broadcast_to(np.arange(1537)[:, None, None], (1537, 2, 7)),
        "mode": np.broadcast_to(np.array(["p", "q,r"])[:, None], (1537, 2, 7)),
        "index": np.broadcast_to(np.arange(1, 8), (1537, 2, 7)),
        "share": np.broadcast_to(np.random.default_rng(20).random((1537, 1, 7)), (1537, 2, 7)),
        "ratio": np.random.default_rng(21).lognormal(0.0, 2.0, (1537, 2, 7)),
        "flag": np.broadcast_to((np.arange(1537) % 3 == 0)[:, None, None], (1537, 2, 7)),
    },
    # One slice of the leading axis holds more rows than a block.
    "inner-axes-past-a-block": {
        "row": np.broadcast_to(np.arange(3)[:, None], (3, 2000)),
        "x": np.arange(6000.0).reshape(3, 2000) / 7.0,
        "s": np.broadcast_to(np.array(["a", "", 'b"'])[:, None], (3, 2000)),
    },
    # Unequal shapes, as in feedback's trajectory.csv, are flattened to rows.
    "mixed-shapes": {
        "step": np.broadcast_to(np.arange(1, 1501), (2, 1500)),
        "mean": np.random.default_rng(22).integers(0, 300, (2, 1500)) / 7.0,
        "regime": np.broadcast_to(np.array(["truthful", "biased"])[:, None], (2, 1500)),
        "seed": np.broadcast_to(0, 3000),
        "i": range(3000),
    },
    # A column of distinct floats skips the inverse; its neighbour repeats.
    "distinct-next-to-repeats": {
        "distinct": np.random.default_rng(23).lognormal(0.0, 3.0, 3000),
        "repeats": np.tile(np.random.default_rng(24).lognormal(0.0, 3.0, 1500), 2),
        "few": np.tile([0.5, -0.0, 1e16], 1000),
    },
}


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_array_columns_equal_reference(tmp_path, case):
    columns = ARRAY_CASES[case]
    write_csv(tmp_path / "got.csv", columns)
    values = [c.ravel().tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    _reference_write_csv(tmp_path / "want.csv", list(columns), zip(*values))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


# A table of lists takes the writer's list path, which loads no numpy; the
# same table as ndarrays takes the array path.  Each kind of column, as a
# list and the dtype of its ndarray:
_KINDS = {
    "int": ([0, -1, 2**62, 7, -(2**63), 3], np.int64),
    "bool": ([True, False, False, True, True, False], np.bool_),
    "enum": ([Colour.RED, Colour.BLUE] * 3, object),
    "float": ([-0.0, math.inf, math.nan, 5e-324, 1e16, -math.inf], np.float64),
    "quoted": (['a,"b"', "line\r\nbreak", "", "plain", 'q"', "x\ny"], np.str_),
    "mixed": ([1, 0.5, "x,y", True, None, Colour.BLUE], object),
}
PARITY_CASES = {
    **{kind: {kind: column} for kind, column in _KINDS.items()},
    "every-kind": _KINDS,
    "lone-empty-string": {"s": ([""], np.str_)},
    # At least _DISTINCT_MIN floats, which both paths format through _float_texts.
    "many-floats": {"x": (_KINDS["float"][0] * 20, np.float64)},
}


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_lists_and_arrays_write_the_same_bytes(tmp_path, case):
    table = PARITY_CASES[case]
    lists = {name: values for name, (values, _) in table.items()}
    arrays = {name: np.array(values, dtype=dtype) for name, (values, dtype) in table.items()}
    digests = [write_csv(tmp_path / "lists.csv", lists), write_csv(tmp_path / "arrays.csv", arrays)]
    _reference_write_csv(tmp_path / "want.csv", list(table), zip(*lists.values()))
    want = (tmp_path / "want.csv").read_bytes()
    assert (tmp_path / "lists.csv").read_bytes() == want
    assert (tmp_path / "arrays.csv").read_bytes() == want
    assert digests == [hashlib.sha256(want).hexdigest()] * 2


# Float columns of at least _DISTINCT_MIN stored values format each distinct
# bit pattern once; -0.0 and 0.0, and NaNs of any sign or payload, must
# still read as format_value reads them.
_SPECIAL = [0.0, -0.0, 5e-324, 1e308, 1e16, 0.1 + 0.2, math.inf, -math.inf, math.nan]
_NANS = np.array([0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001], dtype=np.uint64).view(np.float64)
_MIXED = np.random.default_rng(3).permutation(np.concatenate([np.repeat(_SPECIAL, 12), _NANS, -_NANS]))

# Columns of at least _SHORTEST_MIN distinct values take the array kernel,
# specials and all; the gate counts distinct values, not stored ones.
_MANY = np.random.default_rng(4).lognormal(0.0, 3.0, _SHORTEST_MIN)
_MANY[::7] *= -1.0

DISTINCT_CASES = {
    # (column, whether it takes the distinct-value path, whether the kernel)
    "special-array-with-repeats": (_MIXED, True, False),
    "special-list-with-repeats": (_MIXED.tolist(), True, False),
    "broadcast-view-with-repeats": (np.broadcast_to(np.tile([0.1, -0.0, 0.1, 1e16], 20)[:, None], (80, 3)), True, False),
    "tuple": (tuple(_MIXED.tolist()), True, False),
    "array-below-the-floor": (_MIXED[: _DISTINCT_MIN - 1], False, False),
    "array-at-the-floor": (_MIXED[:_DISTINCT_MIN], True, False),
    "list-below-the-floor": (_MIXED[: _DISTINCT_MIN - 1].tolist(), False, False),
    "list-at-the-floor": (_MIXED[:_DISTINCT_MIN].tolist(), True, False),
    "mixed-int-float-list": ([1, 0.5, -0.0, 2, math.nan] * _DISTINCT_MIN, False, False),
    "below-the-gate": (_MANY[1:], True, False),
    "at-the-gate": (_MANY, True, True),
    "at-the-gate-list": (_MANY.tolist(), True, True),
    "at-the-gate-with-specials": (np.concatenate([_MANY, _MIXED]), True, True),
    "repeats-below-the-gate": (np.tile(_MANY[1:], 3), True, False),
    "broadcast-at-the-gate": (np.broadcast_to(_MANY[:, None], (_SHORTEST_MIN, 3)), True, True),
}


@pytest.mark.parametrize("case", sorted(DISTINCT_CASES))
def test_distinct_float_formatting_equals_per_value(tmp_path, monkeypatch, case):
    column, distinct, kernel = DISTINCT_CASES[case]
    calls, kernel_calls = [], []
    float_texts, shortest_texts = outputs._float_texts, float_text.shortest_texts
    monkeypatch.setattr(
        outputs, "_float_texts", lambda values, sep: calls.append(values.size) or float_texts(values, sep)
    )
    monkeypatch.setattr(
        float_text,
        "shortest_texts",
        lambda bits, sep="": kernel_calls.append(bits.size) or shortest_texts(bits, sep),
    )
    write_csv(tmp_path / "got.csv", {"x": column})
    assert bool(calls) is distinct
    assert bool(kernel_calls) is kernel
    values = column.ravel().tolist() if isinstance(column, np.ndarray) else list(column)
    _reference_write_csv(tmp_path / "want.csv", ["x"], ([v] for v in values))
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    assert got.decode().split("\r\n")[1:-1] == [format_value(v) for v in values]


# Every field carries the separator that follows it: "," or, in the last
# column, CR LF.  Kernel columns get theirs from float_text's own slots.
_ROWS = outputs._BLOCK_ROWS + 1
_QUOTED = ['a,"b"', "plain", "line\nbreak", "", 'q"'] * (_SHORTEST_MIN // 5 + 1)

SEPARATOR_CASES = {
    # (columns, the separator of each kernel call in order)
    "kernel-last": ({"i": np.arange(_SHORTEST_MIN), "x": _MANY}, ["\r\n"]),
    "kernel-middle": ({"i": np.arange(_SHORTEST_MIN), "x": _MANY, "n": list(range(_SHORTEST_MIN))}, [","]),
    "kernel-with-specials": (
        {
            "a": np.concatenate([_MANY, _MIXED]),
            "b": -np.concatenate([_MIXED, _MANY]),
            "i": range(_MANY.size + _MIXED.size),
        },
        [",", ","],
    ),
    "kernel-lone": ({"x": _MANY}, ["\r\n"]),
    "kernel-lone-with-specials": ({"x": np.concatenate([_MIXED, -_MANY])}, ["\r\n"]),
    "str-lone-with-empty": ({"s": ["", "a,b", "x", "", 'say "hi"']}, []),
    "zero-rows": ({"x": np.array([]), "s": [], "i": np.arange(0)}, []),
    "block-plus-one-rows": (
        {
            "i": range(_ROWS),
            "x": np.random.default_rng(5).lognormal(0.0, 3.0, _ROWS),
            "s": ["a,b", "c"] * (_ROWS // 2) + [""],
        },
        [","],
    ),
    "block-plus-one-rows-kernel-last": (
        {"s": ["", 'x"'] * (_ROWS // 2) + ["z"], "x": np.random.default_rng(6).normal(0.0, 1e9, _ROWS)},
        ["\r\n"],
    ),
    "quoted-str-next-to-kernel": ({"label": _QUOTED[:_SHORTEST_MIN], "x": _MANY}, ["\r\n"]),
    "kernel-next-to-quoted-str": ({"x": _MANY, "label, quoted": _QUOTED[:_SHORTEST_MIN]}, [","]),
}


@pytest.mark.parametrize("case", sorted(SEPARATOR_CASES))
def test_fields_with_separators_equal_reference(tmp_path, monkeypatch, case):
    columns, kernel_seps = SEPARATOR_CASES[case]
    seps, shortest_texts = [], float_text.shortest_texts
    monkeypatch.setattr(
        float_text, "shortest_texts", lambda bits, sep="": seps.append(sep) or shortest_texts(bits, sep)
    )
    write_csv(tmp_path / "got.csv", columns)
    assert seps == kernel_seps
    values = [c.ravel().tolist() if isinstance(c, np.ndarray) else c for c in columns.values()]
    _reference_write_csv(tmp_path / "want.csv", list(columns), zip(*values))
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_broadcast_view_formats_each_stored_element_once(tmp_path):
    formatted = []

    class Tag:
        def __init__(self, i):
            self.i = i

        def __str__(self):
            formatted.append(self.i)
            return f"t{self.i}"

    stored = np.array([Tag(0), Tag(1), Tag(2)], dtype=object)
    write_csv(tmp_path / "t.csv", {"t": np.broadcast_to(stored[:, None], (3, 4))})
    assert sorted(formatted) == [0, 1, 2]
    assert (tmp_path / "t.csv").read_bytes() == b"t\r\n" + b"".join(4 * f"t{i}\r\n".encode() for i in range(3))


def test_fuzzed_str_tables_equal_csv_writer(tmp_path):
    rng = random.Random(8)
    alphabet = ["a", ",", '"', "\r", "\n", " "]

    def text():
        return "".join(rng.choices(alphabet, k=rng.randint(0, 4)))

    for _ in range(500):
        n_cols = rng.randint(1, 3)
        header = list(dict.fromkeys(text() for _ in range(n_cols)))
        rows = [[text() for _ in header] for _ in range(rng.randint(0, 4))]
        write_csv(tmp_path / "got.csv", {name: [row[j] for row in rows] for j, name in enumerate(header)})
        with open(tmp_path / "want.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes(), (header, rows)


def test_numpy_scalars_read_as_python_values(tmp_path):
    write_csv(tmp_path / "n.csv", CASES["numpy-scalars"])
    assert (tmp_path / "n.csv").read_bytes() == b"f,i,b\r\n0.1,3,true\r\n1e+16,-4,false\r\n"
    assert [format_value(v) for v in (np.float64(0.1), np.bool_(True), np.int64(-4))] == ["0.1", "true", "-4"]


def test_single_empty_field_is_quoted(tmp_path):
    write_csv(tmp_path / "s.csv", CASES["single-empty-string"])
    assert (tmp_path / "s.csv").read_bytes() == b's\r\n""\r\nx\r\n""\r\n'


@pytest.mark.parametrize(
    "columns, name, length, first_length",
    [
        ({"a": [1, 2], "b": [4], "c": [7, 8]}, "b", 1, 2),
        ({"a": [1] * 1500, "b": [2] * 1500, "c": [3] * 1501}, "c", 1501, 1500),
        ({"a": [1], "b": [], "c": [3]}, "b", 0, 1),
        ({"a": [1, 2], "b": np.zeros((2, 2)), "c": [7, 8]}, "b", 4, 2),
    ],
    ids=["short-middle", "long-last-past-a-block", "empty-middle", "ndarray-by-size"],
)
def test_unequal_columns_rejected(tmp_path, columns, name, length, first_length):
    with pytest.raises(
        ValueError, match=rf"column '{name}' has {length} values, column 'a' has {first_length}"
    ):
        write_csv(tmp_path / "r.csv", columns)
    assert not (tmp_path / "r.csv").exists()


def test_writers_return_the_sha256_of_the_bytes_written(tmp_path):
    big = {"x": np.arange(3 * outputs._BLOCK_ROWS + 5) / 7, "label": ["é,\"q\""] * (3 * outputs._BLOCK_ROWS + 5)}
    written = {
        "small.csv": write_csv(tmp_path / "small.csv", CASES["mixed-int-float"]),
        "big.csv": write_csv(tmp_path / "big.csv", big),
        "report.json": outputs.write_json(tmp_path / "report.json", {"b": [1, 2.5], "a": "é\nline"}),
        "grid.txt": outputs.write_text(tmp_path / "grid.txt", "m.?\n.m.\n"),
    }
    for name, digest in written.items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(), name
    # "\n" is written as is, never as the platform's line separator.
    assert (tmp_path / "report.json").read_bytes().count(b"\r") == 0
    assert (tmp_path / "grid.txt").read_bytes() == b"m.?\n.m.\n"


@pytest.mark.parametrize(
    "obj, error",
    [
        ({"colour": Colour.RED}, TypeError),
        ({1: "a", "b": 2}, TypeError),
        ({"x": [1.0, math.nan]}, ValueError),
    ],
    ids=["enum", "mixed-keys", "nan"],
)
def test_json_is_written_as_given_or_not_at_all(tmp_path, obj, error):
    # No value is converted: an Enum is not replaced by its value, keys are not
    # made strings before sorting, and a nan is not written as NaN.
    with pytest.raises(error):
        outputs.write_json(tmp_path / "r.json", obj)
    assert not (tmp_path / "r.json").exists()


def test_results_csv_write_memory(tmp_path):
    """write_csv's own tracemalloc peak on propagation's results.csv at 200,000 rows.

    Measured 21.6 MiB (numpy 2.4.6); the writer that expanded every
    broadcast column to one str per row peaked at 32.6 MiB.  The texts of
    each column's stored values still grow with the rows.
    """
    study = monte_carlo_chains(ChainParams(), 20_000, master_seed=7)
    tracemalloc.start()
    try:
        write_csv(tmp_path / "results.csv", study.columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 26 * 2**20


# The array kernel against repr, on its own.  Random bit patterns carry
# either sign; the structured cases are positive, with negatives where the
# sign meets a boundary.
def _half_ulp_boundaries():
    """Floats whose rounding interval ends on a shorter decimal than any inside it.

    In [2**54, 2**55) floats are 4 apart, so a float ending in 8 or 2 has
    a multiple of 10 exactly 2 away: repr names that decimal only when the
    float's significand is even, as round-half-even reads it back.
    """
    base = 2**54 + 4 * np.arange(0, 40_000, dtype=np.int64)
    return base[(base % 10 == 8) | (base % 10 == 2)].astype(np.float64)


_TENS = np.array([float(f"1e{k}") for k in range(-323, 309)])
_EDGES = [5e-324, 1e-323, 1.5e-323, 2.2250738585072014e-308, 2.225073858507201e-308, 1.7976931348623157e308, 1e308]

ORACLE_CASES = {
    "subnormals": lambda: np.concatenate(
        [
            np.arange(1, 200_000, dtype=np.uint64).view(np.float64),
            np.random.default_rng(11).integers(1, 2**52, 50_000, dtype=np.uint64).view(np.float64),
            np.array([2**52 - 1], dtype=np.uint64).view(np.float64),
        ]
    ),
    "extremes": lambda: np.array(_EDGES + [-v for v in _EDGES]),
    "integers": lambda: np.concatenate(
        [
            np.arange(2**20 + 1, dtype=np.float64),
            np.random.default_rng(12).integers(0, 2**53, 100_000, dtype=np.int64).astype(np.float64),
            np.array([2**53 - 1, 2**53, 2**53 + 2, 2**63, 2**64, -(2**53)], dtype=np.float64),
        ]
    ),
    "powers-of-ten-and-neighbours": lambda: np.concatenate(
        [_TENS, np.nextafter(_TENS, 0.0), np.nextafter(_TENS, np.inf)]
    ),
    "notation-switches": lambda: np.concatenate(
        [
            10.0 ** np.random.default_rng(13).uniform(-6.0, -3.0, 50_000),
            10.0 ** np.random.default_rng(14).uniform(14.0, 17.0, 50_000),
            np.array([1e-4, 9.999999999999999e-05, 1.0000000000000002e-04, 1e-5, 9.999999999999999e-06, -1e-5]),
            np.array([1e15, 999999999999999.9, 1e16, 9999999999999998.0, 1e16 + 2, 1e17, -1e16]),
        ]
    ),
    "round-half": lambda: np.concatenate(
        [
            _half_ulp_boundaries(),
            -_half_ulp_boundaries()[:100],
            np.arange(0.5, 50_000.5, 1.0),
            2.0 ** -np.arange(1, 1075, dtype=np.float64),
            np.array([0.1 + 0.2, 1e23, 9.999999999999999e22, 0.0, -0.0, math.inf, -math.inf, math.nan]),
        ]
    ),
    "log-normal": lambda: np.random.default_rng(15).lognormal(0.0, 30.0, 100_000),
}


def _kernel_mismatches(values: np.ndarray) -> list[tuple[bytes, bytes]]:
    got = float_text.shortest_texts(values.view(np.uint64)).tolist()
    want = [repr(v).encode() for v in values.tolist()]
    return [(g, w) for g, w in zip(got, want) if g != w]


@pytest.mark.parametrize("sep", ["", ",", "\r\n"])
def test_shortest_texts_append_the_separator(sep):
    values = np.concatenate([_MIXED, _MANY, -_MANY, ORACLE_CASES["extremes"]()])
    got = float_text.shortest_texts(values.view(np.uint64), sep).tolist()
    assert got == [(repr(v) + sep).encode() for v in values.tolist()]


def test_shortest_texts_rejects_other_separators():
    with pytest.raises(KeyError):
        float_text.shortest_texts(np.array([1.5]).view(np.uint64), ";")


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_shortest_texts_equal_repr(case):
    values = np.asarray(ORACLE_CASES[case](), dtype=np.float64)
    assert values.size
    assert _kernel_mismatches(values)[:5] == []


def test_shortest_texts_equal_repr_on_random_bit_patterns():
    rng = np.random.default_rng(10)
    for _ in range(10):  # 10**6 patterns, 10**5 at a time
        bits = rng.integers(0, 2**64, 100_000, dtype=np.uint64)
        assert _kernel_mismatches(bits.view(np.float64))[:5] == []
