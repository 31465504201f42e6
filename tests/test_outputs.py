"""The column-wise CSV writer against the per-value reference writer."""

import csv
import math
import random
from enum import Enum
from fractions import Fraction

import numpy as np
import pytest

from forensic_bias.outputs import format_value, write_csv


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
}


@pytest.mark.parametrize("case", sorted(ARRAY_CASES))
def test_array_columns_equal_reference(tmp_path, case):
    columns = ARRAY_CASES[case]
    write_csv(tmp_path / "got.csv", columns)
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
