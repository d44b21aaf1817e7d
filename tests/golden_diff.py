"""Size of every change between the kept golden-run files of two trees.

    PYTHONPATH=src python tests/test_golden.py --keep DIR_A   (on one tree)
    PYTHONPATH=src python tests/test_golden.py --keep DIR_B   (on the other)
    python tests/golden_diff.py DIR_A DIR_B

prints one line per changed CSV column, JSON value or stdout of a run, in
the form ``<run>/<file> <where>: max |change| <d> of max |value| <m>
(relative <d/m>), <k> of <n> entries changed``.  A CSV column and a JSON
list of numbers (a matrix's ``real`` or ``imag`` list, a rate list) are
each one array: the change is relative to the largest magnitude of the
first tree's array.  A changed stdout line is printed as it reads in both
trees; a file present in one tree only is named.
"""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path


def _number(value):
    """The float of a CSV cell or JSON leaf, or None for text and booleans."""
    if isinstance(value, bool):
        return None
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _compare(where: str, old: list, new: list) -> str | None:
    """One line on the change from ``old`` to ``new`` (same-length value lists), or None."""
    changed = sum(a != b for a, b in zip(old, new))
    if not changed:
        return None
    pairs = [(_number(a), _number(b)) for a, b in zip(old, new)]
    if any(a is None or b is None for a, b in pairs):
        return f"{where}: {changed} of {len(old)} entries changed (not numeric)"
    delta = max(abs(a - b) for a, b in pairs)
    scale = max(abs(a) for a, _ in pairs)
    relative = f"{delta / scale:.2e}" if scale else "inf"
    return (
        f"{where}: max |change| {delta:.3e} of max |value| {scale:.3e} "
        f"(relative {relative}), {changed} of {len(old)} entries changed"
    )


def _csv_lines(old: Path, new: Path) -> list:
    with old.open(newline="") as fa, new.open(newline="") as fb:
        rows_a, rows_b = list(csv.reader(fa)), list(csv.reader(fb))
    if rows_a[0] != rows_b[0] or len(rows_a) != len(rows_b):
        shapes = [f"{rows[0]} x {len(rows) - 1}" for rows in (rows_a, rows_b)]
        return [f"columns or row count changed: {shapes[0]} -> {shapes[1]}"]
    lines = []
    for k, name in enumerate(rows_a[0]):
        line = _compare(f"column {name}", [r[k] for r in rows_a[1:]], [r[k] for r in rows_b[1:]])
        if line:
            lines.append(line)
    return lines


def _json_lines(old, new, where: str = "") -> list:
    if isinstance(old, dict) and isinstance(new, dict):
        lines = [f"{where}/{key}: only in one tree" for key in sorted(old.keys() ^ new.keys())]
        for key in sorted(old.keys() & new.keys()):
            lines += _json_lines(old[key], new[key], f"{where}/{key}")
        return lines
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        if all(not isinstance(v, (dict, list)) for v in old + new):
            line = _compare(where or "/", old, new)
            return [line] if line else []
        return [line for k, (a, b) in enumerate(zip(old, new)) for line in _json_lines(a, b, f"{where}/{k}")]
    line = _compare(where or "/", [old], [new])
    return [line] if line else []


def _stdout_lines(old: Path, new: Path) -> list:
    a, b = old.read_text().splitlines(), new.read_text().splitlines()
    if len(a) != len(b):
        return [f"{len(a)} -> {len(b)} lines"]
    return [f"line {k + 1}: {x!r} -> {y!r}" for k, (x, y) in enumerate(zip(a, b)) if x != y]


def diff_trees(dir_a: Path, dir_b: Path) -> list:
    """One line per changed value of every file kept under both directories."""
    files_a = {p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file()}
    lines = [f"{name}: only under {dir_a}" for name in sorted(files_a - files_b)]
    lines += [f"{name}: only under {dir_b}" for name in sorted(files_b - files_a)]
    for name in sorted(files_a & files_b):
        old, new = dir_a / name, dir_b / name
        if old.read_bytes() == new.read_bytes():
            continue
        if name.suffix == ".csv":
            found = _csv_lines(old, new)
        elif name.suffix == ".json":
            found = _json_lines(json.loads(old.read_text()), json.loads(new.read_text()))
        else:
            found = _stdout_lines(old, new)
        lines += [f"{name} {line}" for line in found] or [f"{name}: bytes differ"]
    return lines


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit("usage: python tests/golden_diff.py DIR_A DIR_B")
    for line in diff_trees(Path(sys.argv[1]), Path(sys.argv[2])):
        print(line)
