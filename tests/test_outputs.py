"""The column-wise CSV writer against the per-value reference writer."""

import csv
import math
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


def test_single_empty_field_is_quoted(tmp_path):
    write_csv(tmp_path / "s.csv", CASES["single-empty-string"])
    assert (tmp_path / "s.csv").read_bytes() == b's\r\n""\r\nx\r\n""\r\n'


@pytest.mark.parametrize(
    "columns, name, length, first_length",
    [
        ({"a": [1, 2], "b": [4], "c": [7, 8]}, "b", 1, 2),
        ({"a": [1] * 1500, "b": [2] * 1500, "c": [3] * 1501}, "c", 1501, 1500),
        ({"a": [1], "b": [], "c": [3]}, "b", 0, 1),
    ],
    ids=["short-middle", "long-last-past-a-block", "empty-middle"],
)
def test_unequal_columns_rejected(tmp_path, columns, name, length, first_length):
    with pytest.raises(
        ValueError, match=rf"column '{name}' has {length} values, column 'a' has {first_length}"
    ):
        write_csv(tmp_path / "r.csv", columns)
    assert not (tmp_path / "r.csv").exists()
