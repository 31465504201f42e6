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
    "empty": (("a", "b"), []),
    "bool-next-to-int": (("flag", "n"), [(True, 1), (False, 0), (True, 2)]),
    "mixed-int-float": (("x",), [(1,), (2.5,), (3,), (0.1,)]),
    "mixed-int-bool": (("x",), [(1,), (True,), (0,), (False,)]),
    "enum": (("colour", "i"), [(Colour.RED, 1), (Colour.BLUE, 2)]),
    "numpy-scalars": (
        ("f", "i", "b"),
        [(np.float64(0.1), np.int64(3), np.bool_(True)), (np.float64(1e16), np.int64(-4), np.bool_(False))],
    ),
    "fractions": (("q",), [(Fraction(1, 3),), (Fraction(-7, 2),)]),
    "special-floats": (("v",), [(math.nan,), (math.inf,), (-math.inf,), (-0.0,), (1e-05,), (1e16,)]),
    "quoting": (
        ("text", "n"),
        [("a,b", 1), ('say "hi"', 2), ("line\r\nbreak", 3), ("", 4), ("plain", 5)],
    ),
    "none": (("v",), [(None,), (None,)]),
    "float-table-3000": (
        ("i", "x", "y"),
        [(i, i / 7.0, math.sqrt(i) * 1e-3) for i in range(3000)],
    ),
    "no-columns": ((), [(), ()]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bytes_equal_reference(tmp_path, case):
    header, rows = CASES[case]
    write_csv(tmp_path / "got.csv", header, rows)
    _reference_write_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_accepts_a_generator(tmp_path):
    header, rows = CASES["float-table-3000"]
    write_csv(tmp_path / "got.csv", header, iter(rows))
    _reference_write_csv(tmp_path / "want.csv", header, rows)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize(
    "rows, number, length",
    [
        ([(1, 2, 3), (4, 5)], 2, 2),
        ([(1, 2, 3)] * 1500 + [(1, 2, 3, 4)], 1501, 4),
        ([()], 1, 0),
    ],
)
def test_ragged_row_rejected(tmp_path, rows, number, length):
    with pytest.raises(ValueError, match=rf"row {number} has {length} fields, the header has 3"):
        write_csv(tmp_path / "r.csv", ("a", "b", "c"), rows)
