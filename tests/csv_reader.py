"""Test-local reader of the CSVs fcpso writes, built on the stdlib csv module."""

import csv

COMPARISON_HEADER = ("problem", "indicator", "variant_a", "median_a", "variant_b", "median_b",
                     "p_value", "winner", "error")
COMPARISON_FLOATS = ("median_a", "median_b", "p_value")


def read_records(path, record, header, floats=()):
    """The rows of a CSV as `record` instances, after checking that its
    header is `header` in order: an empty cell is None, a cell of a
    column in `floats` a float, any other cell a str."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        assert reader.fieldnames == list(header)
        return [
            record(**{k: None if v == "" else float(v) if k in floats else v for k, v in row.items()})
            for row in reader
        ]
