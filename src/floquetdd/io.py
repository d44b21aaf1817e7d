"""Deterministic CSV/JSON emission.

CSV files use a header row, LF line endings and a '.' decimal separator.
A :class:`Table` is a set of named columns, and each column's dtype
decides the text of all its cells at once: float columns must be finite
everywhere and print in scientific notation with 17 significant digits
(``%.16e``, the shortest lossless round-trip for doubles), integer and
boolean columns print as ``%d``, string columns verbatim (a cell holding
',' or a newline is refused), and any other dtype is a ``TypeError``.
The rows are then written one line at a time.  JSON bundles carry a
schema-version field and serialize matrices row-major with explicit
dimensions.  Identical inputs produce byte-identical files; wall-clock
timing therefore never enters a bundle and is reported on stderr by the
command line layer instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class Table:
    """Named columns destined for one CSV file: ``data`` holds one sequence per name."""

    columns: tuple
    data: tuple

    def __post_init__(self):
        if len(self.data) != len(self.columns):
            raise ValueError("every column needs exactly one name")
        if len({len(column) for column in self.data}) > 1:
            raise ValueError("columns differ in length")

    @property
    def rows(self) -> tuple:
        """The cells row by row."""
        return tuple(zip(*self.data))


def _cell_format(column: np.ndarray) -> str:
    """The %-format of every cell of one column, decided by its dtype."""
    kind = column.dtype.kind
    if kind == "f":
        if not np.all(np.isfinite(column)):
            raise RuntimeError(
                "internal error: non-finite value reached CSV emission "
                "(divergences must use the flag-column convention)"
            )
        return "%.16e"
    if kind in "biu":
        return "%d"
    if kind == "U":
        if any("," in cell or "\n" in cell for cell in column):
            raise ValueError("string cells must not contain separators")
        return "%s"
    raise TypeError(f"unsupported column dtype {column.dtype}")


def emit_csv(table: Table, path) -> None:
    columns = [np.asarray(column) for column in table.data]
    line = ",".join(_cell_format(column) for column in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(table.columns) + "\n")
        fh.writelines(line % row for row in zip(*columns))


def _parse_cell(cell: str):
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell


def read_csv(path) -> Table:
    """Read back an emitted CSV; numeric cells become floats/ints."""
    with open(path, "r", newline="\n") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError("empty CSV file")
    columns = tuple(lines[0].split(","))
    rows = [tuple(_parse_cell(cell) for cell in line.split(",")) for line in lines[1:]]
    if any(len(row) != len(columns) for row in rows):
        raise ValueError("row length does not match column count")
    return Table(columns=columns, data=tuple(zip(*rows)) if rows else ((),) * len(columns))


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

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool": "floquetdd",
            "version": self.version,
            "task": self.task,
            "inputs": self.inputs,
            "outputs": self.outputs,
        }


def emit_json(bundle: ResultBundle, path) -> None:
    try:
        text = json.dumps(bundle.to_dict(), indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise RuntimeError("internal error: non-finite value reached JSON emission") from None
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def read_json(path) -> ResultBundle:
    """Read back an emitted bundle; one of another schema version is a ``ValueError``."""
    with open(path, "r") as fh:
        data = json.load(fh)
    found = data.get("schema_version")
    if found != SCHEMA_VERSION:
        raise ValueError(f"bundle schema version {found!r} is not {SCHEMA_VERSION!r}")
    return ResultBundle(data["task"], data["inputs"], data["outputs"], data["version"])
