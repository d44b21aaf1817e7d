"""Deterministic CSV/JSON emission.

CSV files use a header row, LF line endings, '.' decimal separator and
scientific notation with 17 significant digits (the shortest lossless
round-trip for doubles).  JSON bundles carry a schema-version field and
serialize matrices row-major with explicit dimensions.  Identical inputs
produce byte-identical files; wall-clock timing therefore never enters a
bundle and is reported on stderr by the command line layer instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Table:
    """Column-named rows destined for one CSV file."""

    columns: tuple
    rows: tuple

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row length does not match column count")


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if not np.isfinite(value):
            raise RuntimeError(
                "internal error: non-finite value reached CSV emission "
                "(divergences must use the flag-column convention)"
            )
        return f"{value:.16e}"
    if isinstance(value, str):
        if "," in value or "\n" in value:
            raise ValueError("string cells must not contain separators")
        return value
    raise TypeError(f"unsupported cell type {type(value)!r}")


def emit_csv(table: Table, path) -> None:
    lines = [",".join(table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path) -> Table:
    """Read back an emitted CSV; numeric cells become floats/ints."""
    with open(path, "r", newline="\n") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty CSV file")
    columns = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        cells = []
        for cell in line.split(","):
            try:
                cells.append(int(cell))
            except ValueError:
                try:
                    cells.append(float(cell))
                except ValueError:
                    cells.append(cell)
        rows.append(tuple(cells))
    return Table(columns=columns, rows=tuple(rows))


def matrix_to_json(matrix: np.ndarray) -> dict:
    """Row-major matrix encoding with explicit dimensions."""
    m = np.asarray(matrix)
    if m.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "real": [float(v) for v in np.real(m).ravel()],
        "imag": [float(v) for v in np.imag(m).ravel()],
    }


@dataclass
class ResultBundle:
    """Inputs echo plus per-task outputs of one command-line run."""

    task: str
    inputs: dict
    outputs: dict
    version: str
    schema_version: str = SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "tool": "floquetdd",
            "version": self.version,
            "task": self.task,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ResultBundle":
        return cls(
            task=data["task"],
            inputs=data["inputs"],
            outputs=data["outputs"],
            version=data["version"],
            schema_version=data["schema_version"],
        )


def _check_finite(obj) -> None:
    if isinstance(obj, float) and not np.isfinite(obj):
        raise RuntimeError("internal error: non-finite value reached JSON emission")
    if isinstance(obj, dict):
        for v in obj.values():
            _check_finite(v)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _check_finite(v)


def emit_json(bundle: ResultBundle, path) -> None:
    data = bundle.to_dict()
    _check_finite(data)
    with open(path, "w", newline="\n") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> ResultBundle:
    with open(path, "r") as fh:
        return ResultBundle.from_dict(json.load(fh))
