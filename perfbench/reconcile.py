"""Reproduce the per-layer baseline figures quoted in ROADMAP.md with the tracer.

    python3 perfbench/reconcile.py

Times the canonical Rydberg pair (scenarios/rydberg_pair.json): floquet_solve
at 1024 samples and its propagate_period share, build_channels, emit_csv
inside the CLI ``compare`` subcommand (horizon 3e-5 s), and ``import
floquetdd`` in a fresh interpreter.  Each figure is the median of REPEATS.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from run import BLAS_CAPS  # noqa: E402

os.environ.update(BLAS_CAPS)

import floquetdd  # noqa: E402
from floquetdd import bath, cli, dipole, floquet  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

REPEATS = 15
# (figure, ROADMAP baseline in seconds)
BASELINE = {
    "floquet_solve at 1024 samples": 6.7e-3,
    "  of which propagate_period": 5.5e-3,
    "build_channels": 2.9e-3,
    "compare: emit_csv": 0.56,
    "compare: whole subcommand": 1.0,
    "import floquetdd": 0.4,
}


def _spans_median(fn, names):
    """Median over REPEATS traced calls of the summed duration of each span name."""
    samples = {name: [] for name in names}
    for _ in range(REPEATS):
        tracer = Tracer()
        with tracer:
            fn()
        for name in names:
            samples[name].append(sum(s.duration for s in tracer.spans if s.name == name))
    return {name: statistics.median(v) for name, v in samples.items()}


def main() -> int:
    drive = floquet.DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
    geometry = bath.AtomGeometry(**workloads.rydberg_geometry())
    vacuum = bath.BathParams(0.0)
    grid = floquet.TimeGrid.for_drive(drive, 1024)
    measured = {}

    solve = _spans_median(
        lambda: floquet.floquet_solve(drive, grid), ["floquet.floquet_solve", "floquet.propagate_period"]
    )
    measured["floquet_solve at 1024 samples"] = solve["floquet.floquet_solve"]
    measured["  of which propagate_period"] = solve["floquet.propagate_period"]

    sol = floquet.floquet_solve(drive, grid)
    table = dipole.matrix_elements(sol)
    channels = _spans_median(
        lambda: dipole.build_channels(table, sol, geometry, vacuum), ["dipole.build_channels"]
    )
    measured["build_channels"] = channels["dipole.build_channels"]

    work = ROOT / ".bench_work" / f"reconcile-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        scenario = workloads._scenario((1e8, 1e10), workloads.rydberg_geometry(), 0.0, task={"horizon": 3e-5})
        path = work / "rydberg_compare.json"
        path.write_text(json.dumps(scenario))
        argv = ["compare", "--scenario", str(path), "--out", str(work / "out")]
        sink = open(os.devnull, "w")
        stdout, stderr = sys.stdout, sys.stderr
        sys.stdout = sys.stderr = sink
        try:
            compare = _spans_median(lambda: cli.main(argv), ["cli.compare", "io.emit_csv"])
        finally:
            sys.stdout, sys.stderr = stdout, stderr
            sink.close()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    measured["compare: emit_csv"] = compare["io.emit_csv"]
    measured["compare: whole subcommand"] = compare["cli.compare"]

    imports = []
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for _ in range(5):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import floquetdd"], env=env, check=True)
        imports.append(time.perf_counter() - started)
    measured["import floquetdd"] = statistics.median(imports)

    print(f"{'figure':<32} {'baseline':>10} {'measured':>10} {'ratio':>7}")
    for name, base in BASELINE.items():
        value = measured[name]
        print(f"{name:<32} {base * 1e3:>8.2f}ms {value * 1e3:>8.2f}ms {value / base:>7.2f}")
    print(f"floquetdd {floquetdd.__version__}, {os.cpu_count()} cpus, python {sys.version.split()[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
