"""Byte-identity sweep of the command line over a fixed set of runs.

Every run calls ``floquetdd.cli.main`` in-process and is reduced to a record:
the exit code, stdout, the ``error:`` line of stderr (the rest of stderr
holds wall-clock time) and the SHA-256 of every file written to the output
directory.  ``tests/golden.json`` holds the expected record of each run and
the Python and numpy versions it was made with: libm, pocketfft and LAPACK
decide the last bits of the outputs, so a manifest made under other versions
is reported as such instead of as a list of changed hashes.  No run loads
scipy (``tests/test_bath.py::TestConstants::test_import_loads_no_scipy``),
so its version is not recorded.

Rewrite the manifest after an intended output change with

    PYTHONPATH=src python tests/test_golden.py [--keep DIR]

which prints one line per run it added, removed or changed against the old
manifest (naming the changed fields and files), and list every changed
hash, with its reason, in CHANGES.md.  With ``--keep DIR`` each run's
scenario, output files (``out/``) and stdout (``stdout.txt``) stay under
``DIR/<run>/``; ``tests/golden_diff.py`` then gives the size of each change
between the kept files of two trees.
"""

import contextlib
import hashlib
import io
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

from floquetdd import cli
from floquetdd import io as floquetdd_io
from floquetdd.cli import main
import golden_diff

MANIFEST = Path(__file__).with_name("golden.json")

OMEGA = 1e10
RYDBERG = {
    "drive": {"omega": OMEGA, "rabi": 1e8, "omega_eg": 1e10, "frequency_convention": "angular"},
    "geometry": {"separation": 40e-6, "dipole_ea0": 1000.0, "theta_d": np.pi / 2},
    "bath": {"temperature": 0.0},
}
WARM = {**RYDBERG, "bath": {"temperature": 1.0}}
# A near-resonant drive given by its detuning, in Hz.
ORDINARY_DETUNING = {
    **RYDBERG,
    "drive": {"omega": 1.5e9, "rabi": 1.5e7, "detuning": 1.5e7, "frequency_convention": "ordinary"},
}
# Separation of one drive wavelength (c / omega): the far-field, retarded pair.
RETARDED = {
    "drive": {"omega": OMEGA, "rabi": 1e9, "omega_eg": 1.6e10, "frequency_convention": "angular"},
    "geometry": {"separation": 299792458.0 / OMEGA, "dipole_ea0": 4e8, "theta_d": np.pi / 2},
    "bath": {"temperature": 0.0},
}
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
# The Rydberg pair with its positions written as strings and its axis as booleans.
STRING_POSITIONS = {
    "positions": [["0", "0", "0"], ["4e-5", "0", "0"]],
    "dipole_axis": [False, False, True],
    "dipole_ea0": 1000.0,
}

TAUMAP_TASK = {
    "rabi_over_omega_min": 0.0,
    "rabi_over_omega_max": 0.5,
    "n_rabi": 3,
    "omega_eg_over_omega_min": 0.5,
    "omega_eg_over_omega_max": 1.5,
    "n_omega_eg": 3,
}
# (run-name suffix, subcommand, task block) of every subcommand.
TASKS = (
    ("floquet", "floquet", None),
    ("coefficients", "coefficients", None),
    ("channels", "channels", None),
    ("evolve-fme", "evolve", {"model": "fme", "t_final": 1e-4, "n_times": 51, "initial_state": "pm"}),
    ("evolve-obe", "evolve", {"model": "obe", "t_final": 1e-4, "n_times": 51, "initial_state": "eg"}),
    ("steady-fme", "steady", {"model": "fme"}),
    ("steady-obe", "steady", {"model": "obe"}),
    ("spinmodel", "spinmodel", None),
    ("taumap", "taumap", TAUMAP_TASK),
    ("compare", "compare", {"horizon": 5e-6}),
    ("reproduce-paper", "reproduce-paper", None),
)


def _with(base, **blocks):
    """``base`` with the given top-level blocks replaced (a ``None`` block is dropped)."""
    out = {**base, **blocks}
    return {key: value for key, value in out.items() if value is not None}


def _spin_task(n_atoms):
    positions = [[1e-5 * k, 0.3e-5 * k * k, 0.0] for k in range(n_atoms)]
    return {"n_atoms": n_atoms, "positions": positions, "dipole_axis": [0.0, 0.0, 1.0]}


def _runs() -> dict:
    """name -> (subcommand, scenario dict) of every run that reads a scenario."""
    runs = {}
    detuned = {**RYDBERG["drive"], "omega_eg": 0.98e10}
    for label, base in (("rydberg", RYDBERG), ("warm", WARM), ("retarded", RETARDED)):
        for suffix, subcommand, task in TASKS:
            runs[f"{label}-{suffix}"] = (subcommand, _with(base, task=task))
    for name in ("taumap_small", "undriven_pair", "rydberg_pair"):
        scenario = json.loads((SCENARIOS / f"{name}.json").read_text())
        subcommands = ("taumap",) if name == "taumap_small" else ("floquet", "coefficients", "channels")
        for sub in subcommands:
            runs[f"{name}-{sub}"] = (sub, scenario)
    for n_atoms in (2, 3, 6):
        runs[f"spinmodel-positions-{n_atoms}"] = ("spinmodel", _with(RYDBERG, task=_spin_task(n_atoms)))
    # Detuned, so the atomic frequency differs from the drive frequency.
    runs["spinmodel-evaluate-at-atom"] = (
        "spinmodel",
        _with(RYDBERG, drive=detuned, task={**_spin_task(3), "evaluate_at": "atom"}),
    )
    for sub in ("floquet", "reproduce-paper"):
        runs[f"ordinary-detuning-{sub}"] = (sub, ORDINARY_DETUNING)
    undriven_resonant = {**RYDBERG["drive"], "rabi": 0.0}
    undriven_above = {**undriven_resonant, "omega_eg": 1.6e10}
    # Quasienergy spacing 5e-13 omega, below the collision floor of 1e-12 omega.
    undriven_near_edge = {**undriven_resonant, "omega_eg": OMEGA * (1.0 - 5e-13)}
    unresolved = {**RYDBERG["drive"], "rabi": 2e11, "omega_eg": 9e9}
    evolve_task = {"model": "obe", "t_final": 1e-6, "n_times": 3, "initial_state": "gg"}
    runs.update(
        {
            # exit 1: invalid scenario values
            "exit1-unknown-key": ("floquet", _with(RYDBERG, drive={**RYDBERG["drive"], "rabbi": 1.0})),
            "exit1-removed-key": ("floquet", _with(RYDBERG, numerics={"n_samples": 1024, "sideband_cutoff": 16})),
            "exit1-n-samples": ("floquet", _with(RYDBERG, numerics={"n_samples": 100})),
            "exit1-n-atoms": ("spinmodel", _with(RYDBERG, task=_spin_task(7))),
            "exit1-initial-state": ("compare", _with(RYDBERG, task={"horizon": 1e-5, "initial_state": "xx"})),
            "exit1-taumap-rabi": ("taumap", _with(RYDBERG, task={**TAUMAP_TASK, "rabi_over_omega_min": -0.1})),
            "exit1-taumap-n-rabi": ("taumap", _with(RYDBERG, task={**TAUMAP_TASK, "n_rabi": 0})),
            # counts beyond the cap lindblad.MAX_COUNT
            "exit1-taumap-n-rabi-huge": ("taumap", _with(RYDBERG, task={**TAUMAP_TASK, "n_rabi": 1e20})),
            "exit1-evolve-n-times-huge": ("evolve", _with(RYDBERG, task={**evolve_task, "n_times": 1e20})),
            # 1e300 * drive.omega overflows to inf
            "exit1-taumap-overflow": ("taumap", _with(RYDBERG, task={**TAUMAP_TASK, "rabi_over_omega_max": 1e300})),
            "exit1-evolve-model": ("evolve", _with(RYDBERG, task={**evolve_task, "model": "xyz"})),
            "exit1-evolve-t-final": ("evolve", _with(RYDBERG, task={**evolve_task, "t_final": 0})),
            "exit1-evolve-n-times": ("evolve", _with(RYDBERG, task={**evolve_task, "n_times": 1})),
            "exit1-spinmodel-evaluate-at": ("spinmodel", _with(RYDBERG, task={"evaluate_at": "bath"})),
            "exit1-spinmodel-no-positions": ("spinmodel", _with(RYDBERG, task={"n_atoms": 3})),
            "exit1-spinmodel-positions-count": (
                "spinmodel",
                _with(RYDBERG, task={**_spin_task(3), "positions": _spin_task(2)["positions"]}),
            ),
            "exit1-spinmodel-axis-no-positions": ("spinmodel", _with(RYDBERG, task={"dipole_axis": [1.0, 0.0, 0.0]})),
            "exit1-spinmodel-positions-no-axis": (
                "spinmodel",
                _with(RYDBERG, task={"positions": _spin_task(2)["positions"]}),
            ),
            "exit1-compare-horizon": ("compare", _with(RYDBERG, task={"horizon": 0})),
            # Position entries are numbers: a string or a boolean is refused, not converted.
            "exit1-geometry-positions-str": ("coefficients", _with(RYDBERG, geometry=STRING_POSITIONS)),
            "exit1-spinmodel-axis-bool": (
                "spinmodel",
                _with(RYDBERG, task={**_spin_task(3), "dipole_axis": [False, False, True]}),
            ),
            # exit 2: physics-domain refusals
            "exit2-degenerate": ("floquet", _with(RYDBERG, drive=undriven_resonant)),
            "exit2-near-degenerate": ("floquet", _with(RYDBERG, drive=undriven_near_edge)),
            "exit2-unresolved-sidebands": ("floquet", _with(RYDBERG, drive=unresolved, numerics={"n_samples": 64})),
            "exit2-compare-undriven": ("compare", _with(RYDBERG, drive=undriven_resonant, task={"horizon": 1e-5})),
            # shorter than the 10/omega_gen = 1e-7 s window of the Bloch average
            "exit2-compare-short-horizon": ("compare", _with(RYDBERG, task={"horizon": 5e-8})),
            # about 2.5e8 report times, beyond lindblad.MAX_COUNT
            "exit2-compare-long-horizon": ("compare", _with(RYDBERG, task={"horizon": 1.0})),
            "exit2-reproduce-undriven": ("reproduce-paper", _with(RYDBERG, drive=undriven_above)),
            "exit2-long-evolve": (
                "evolve",
                _with(RYDBERG, task={"model": "obe", "t_final": 0.1, "n_times": 3, "initial_state": "gg"}),
            ),
        }
    )
    return runs


RUNS = _runs()
# Usage errors never reach a scenario: the argv is given whole.
USAGE = {
    "exit1-usage-missing-args": ["floquet"],
    "exit1-usage-unknown-command": ["not-a-command"],
}


def _versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _record(name: str, tmp_path: Path) -> dict:
    out = tmp_path / "out"
    if name in USAGE:
        argv = USAGE[name]
    else:
        subcommand, scenario = RUNS[name]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario))
        argv = [subcommand, "--scenario", str(path), "--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    (tmp_path / "stdout.txt").write_text(stdout.getvalue())
    errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
    files = sorted(out.iterdir()) if out.is_dir() else []
    return {
        "exit": code,
        "stdout": stdout.getvalue(),
        "error": "\n".join(errors).replace(str(tmp_path), "<tmp>") or None,
        "files": {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files},
    }


def _manifest() -> dict:
    return json.loads(MANIFEST.read_text())


def _diff(old: dict, new: dict) -> list:
    """One line per run added, removed or changed from the ``old`` to the ``new`` records."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old:
            lines.append(f"added {name}")
        elif name not in new:
            lines.append(f"removed {name}")
        elif old[name] != new[name]:
            fields = [key for key in ("exit", "stdout", "error") if old[name][key] != new[name][key]]
            before, after = old[name]["files"], new[name]["files"]
            fields += [f for f in sorted(before.keys() | after.keys()) if before.get(f) != after.get(f)]
            lines.append(f"changed {name}: {', '.join(fields)}")
    return lines


def test_diff_names_added_removed_and_changed_runs():
    record = {"exit": 0, "stdout": "", "error": None, "files": {"a.csv": "1", "b.json": "2"}}
    changed = {**record, "stdout": "x", "files": {"a.csv": "1", "b.json": "3"}}
    old = {"kept": record, "gone": record, "edited": record}
    new = {"kept": record, "edited": changed, "fresh": record}
    assert _diff(old, new) == ["changed edited: stdout, b.json", "added fresh", "removed gone"]


def test_golden_diff_sizes_each_changed_column_and_value(tmp_path):
    for tree, (x, rate, line) in {"a": ("1.0", 2.0, "rates: 2"), "b": ("1.5", 2.0, "rates: 3")}.items():
        run = tmp_path / tree / "run"
        (run / "out").mkdir(parents=True)
        (run / "out" / "t.csv").write_text(f"label,x,y\nu,{x},4.0\nv,-2.0,5.0\n")
        (run / "out" / "b.json").write_text(json.dumps({"outputs": {"rates": [rate, -4.0], "n": int(x == "1.5")}}))
        (run / "stdout.txt").write_text(f"{line}\n")
    (tmp_path / "b" / "run" / "extra.txt").write_text("")
    assert golden_diff.diff_trees(tmp_path / "a", tmp_path / "b") == [
        f"run/extra.txt: only under {tmp_path / 'b'}",
        "run/out/b.json /outputs/n: max |change| 1.000e+00 of max |value| 0.000e+00 (relative inf), 1 of 1 entries changed",
        "run/out/t.csv column x: max |change| 5.000e-01 of max |value| 2.000e+00 (relative 2.50e-01), 1 of 2 entries changed",
        "run/stdout.txt line 1: 'rates: 2' -> 'rates: 3'",
    ]


def test_manifest_names_every_run():
    assert sorted(_manifest()["runs"]) == sorted([*RUNS, *USAGE])


# A golden run of each column mix that io.emit_csv writes with its vectorized
# writer, and one of numbers only that stays on the row-by-row path, so that
# moving io._VECTOR_CELLS cannot take either writer out of the hashed outputs.
# No subcommand writes a boolean column (taumap's diverged flag is an int).
CSV_WRITERS = {
    "rydberg-compare": ("vectorized", "f"),
    "rydberg-evolve-fme": ("vectorized", "f"),
    "spinmodel-positions-6": ("vectorized", "fi"),
    "taumap_small-taumap": ("vectorized", "fi"),
    "rydberg-coefficients": ("rows", "fi"),
}


def test_golden_runs_cover_both_csv_writers(tmp_path, monkeypatch):
    writers = set()
    emit = cli.emit_csv

    def spy(table, path):
        columns = [np.asarray(column) for column in table.data]
        kinds = "".join(sorted({column.dtype.kind for column in columns}))
        writers.add((name, "vectorized" if floquetdd_io._vectorized(columns) else "rows", kinds))
        emit(table, path)

    monkeypatch.setattr(cli, "emit_csv", spy)
    for name in CSV_WRITERS:
        (tmp_path / name).mkdir()
        _record(name, tmp_path / name)
    assert {(name, *writer) for name, writer in CSV_WRITERS.items()} <= writers


@pytest.mark.parametrize("name", [*RUNS, *USAGE])
def test_golden(name, tmp_path):
    manifest = _manifest()
    assert manifest["versions"] == _versions(), (
        f"tests/golden.json was made with {manifest['versions']}, this run uses {_versions()}; "
        "the last bits of the outputs depend on them, so rewrite the manifest for these versions"
    )
    assert _record(name, tmp_path) == manifest["runs"][name]


if __name__ == "__main__":
    import argparse
    import tempfile

    parser = argparse.ArgumentParser(description="Rewrite tests/golden.json from the current tree.")
    parser.add_argument("--keep", type=Path, metavar="DIR", help="keep each run's files under DIR/<run>/")
    args = parser.parse_args()
    old = _manifest() if MANIFEST.exists() else {"versions": None, "runs": {}}
    records = {}
    for name in [*RUNS, *USAGE]:
        if args.keep:
            (args.keep / name).mkdir(parents=True, exist_ok=False)
            records[name] = _record(name, args.keep / name)
            continue
        with tempfile.TemporaryDirectory() as tmp:
            records[name] = _record(name, Path(tmp))
    MANIFEST.write_text(json.dumps({"versions": _versions(), "runs": records}, indent=1, sort_keys=True) + "\n")
    if old["versions"] != _versions():
        print(f"versions {old['versions']} -> {_versions()}")
    for line in _diff(old["runs"], records):
        print(line)
    print(f"wrote {len(records)} runs to {MANIFEST}", file=sys.stderr)
