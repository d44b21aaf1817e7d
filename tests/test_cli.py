import importlib.util
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy import constants

from floquetdd import cli, floquet, lindblad
from floquetdd.cli import main
from floquetdd.io import read_csv
from floquetdd.lindblad import MAX_COUNT

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
REPO = Path(__file__).resolve().parents[1]


DRIVE = {"omega": 1e10, "rabi": 1e8, "omega_eg": 1e10, "frequency_convention": "angular"}


def write_scenario(tmp_path, name="scenario.json", **overrides):
    data = {
        "drive": dict(DRIVE),
        "geometry": {"separation": 40e-6, "dipole_ea0": 1000.0, "theta_d": np.pi / 2},
        "bath": {"temperature": 0.0},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run(subcommand, scenario, out, *extra):
    return main([subcommand, "--scenario", str(scenario), "--out", str(out), *extra])


class TestFloquetCommand:
    def test_undriven_quasienergies(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabi": 0.0,
                "omega_eg": 1.6e10,
                "frequency_convention": "angular",
            },
        )
        out = tmp_path / "out"
        assert run("floquet", scenario, out) == 0
        table = read_csv(out / "quasienergies.csv")
        values = {row[0]: row[1] for row in table.rows}
        # fold(omega_eg / 2) = fold(0.8e10) = -0.2e10; detuning < 0 puts "+"
        # on the excited branch
        assert values["plus"] == pytest.approx(-0.2e10, rel=1e-9)
        assert values["minus"] == pytest.approx(0.2e10, rel=1e-9)

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run("floquet", scenario, out_a) == 0
        assert run("floquet", scenario, out_b) == 0
        for name in ("floquet.json", "quasienergies.csv", "sidebands.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


class TestSpinmodelCommand:
    def test_endpoint_ratios(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert run("spinmodel", scenario, out) == 0
        bundle = json.loads((out / "spinmodel.json").read_text())
        [jt] = bundle["outputs"]["j_tensors"]
        assert jt["pair"] == [0, 1]
        assert jt["j_xx"] / jt["j_yy"] == pytest.approx(2.0, abs=1e-10)
        assert jt["j_xx"] / jt["j_zz"] == pytest.approx(2.0, abs=1e-10)
        ham = read_csv(out / "spin_hamiltonian.csv")
        assert len(ham.rows) == 16

    def test_three_atoms_via_task(self, tmp_path):
        side = 40e-6
        scenario = write_scenario(
            tmp_path,
            task={
                "n_atoms": 3,
                "positions": [
                    [0.0, 0.0, 0.0],
                    [side, 0.0, 0.0],
                    [side / 2, side * np.sqrt(3) / 2, 0.0],
                ],
                "dipole_axis": [0.0, 0.0, 1.0],
            },
        )
        out = tmp_path / "out"
        assert run("spinmodel", scenario, out) == 0
        ham = read_csv(out / "spin_hamiltonian.csv")
        assert len(ham.rows) == 64

    def test_reported_tensors_are_the_written_pair_couplings(self, tmp_path):
        # Three atoms 10 um apart on a line, closer than the geometry block's
        # 40 um: each reported tensor is the Pauli projection
        # tr(H P_i Q_j) / 2^N of the written Hamiltonian onto its own pair.
        n_atoms = 3
        scenario = write_scenario(tmp_path, task=spin_task(n_atoms))
        out = tmp_path / "out"
        assert run("spinmodel", scenario, out) == 0
        written = read_csv(out / "spin_hamiltonian.csv")
        ham = np.zeros((2**n_atoms, 2**n_atoms))
        for row, col, value in written.rows:
            ham[row, col] = value
        paulis = {"x": floquet.SIGMA_X, "y": floquet.SIGMA_Y, "z": floquet.SIGMA_Z}
        tensors = read_csv(out / "jtensor.csv")
        bundle = json.loads((out / "spinmodel.json").read_text())["outputs"]["j_tensors"]
        assert [row[:2] for row in tensors.rows] == [(0, 1), (0, 2), (1, 2)]
        assert [entry["pair"] for entry in bundle] == [[0, 1], [0, 2], [1, 2]]
        scale = np.max(np.abs(ham))
        for (i, j, *values), entry in zip(tensors.rows, bundle):
            for name, value in zip(("j_xx", "j_yy", "j_zz", "j_xz"), values):
                op = floquet.site_op(paulis[name[2]], i, n_atoms) @ floquet.site_op(paulis[name[3]], j, n_atoms)
                projection = np.trace(ham @ op).real / 2**n_atoms
                assert value == pytest.approx(projection, rel=1e-12, abs=1e-12 * scale)
                assert entry[name] == value
        # near field, 1/r^3: the two ends, twice as far apart, couple 8 times more weakly
        assert tensors.rows[0][2] / tensors.rows[1][2] == pytest.approx(8.0, rel=1e-3)


def spin_task(n_atoms, coincide=False, axis=(0.0, 0.0, 1.0)):
    positions = [[1e-5 * k, 0.0, 0.0] for k in range(n_atoms)]
    if coincide:
        positions[1] = positions[0]
    return {"n_atoms": n_atoms, "positions": positions, "dipole_axis": list(axis)}


def taumap_task(**overrides):
    task = {
        "rabi_over_omega_min": 0.0,
        "rabi_over_omega_max": 0.5,
        "n_rabi": 3,
        "omega_eg_over_omega_min": 0.5,
        "omega_eg_over_omega_max": 1.5,
        "n_omega_eg": 3,
    }
    task.update(overrides)
    return task


# Refused scenario entries, each with exit 1 and the key named: values out of
# range or of the wrong type, and numerics.sideband_cutoff, a key the schema
# no longer has (floquet_solve chooses the sideband truncation itself).
OUT_OF_RANGE = [
    *[
        (sub, {"numerics": {"n_samples": 1024, "sideband_cutoff": 16}, "task": task}, "numerics.sideband_cutoff")
        for sub, task in (
            ("floquet", {}),
            ("coefficients", {}),
            ("channels", {}),
            ("reproduce-paper", {}),
            ("evolve", {"model": "fme", "t_final": 1e-6, "initial_state": "pm"}),
            ("steady", {"model": "fme"}),
            ("taumap", taumap_task()),
        )
    ],
    ("spinmodel", {"task": spin_task(7)}, "task.n_atoms"),
    ("spinmodel", {"task": spin_task(1)}, "task.n_atoms"),
    ("spinmodel", {"task": spin_task(3, coincide=True)}, "task.positions"),
    ("spinmodel", {"task": spin_task(3, axis=[0.0, 0.0, 0.0])}, "task.dipole_axis"),
    ("compare", {"task": {"horizon": 1e-5, "initial_state": "xx"}}, "task.initial_state"),
    ("taumap", {"task": taumap_task(rabi_over_omega_min=-0.1)}, "task.rabi_over_omega_min"),
    ("taumap", {"task": taumap_task(omega_eg_over_omega_min=0.0)}, "task.omega_eg_over_omega_min"),
    # fractional values of integer keys are refused, not truncated
    ("taumap", {"task": taumap_task(n_rabi=3.9)}, "task.n_rabi"),
    ("taumap", {"task": taumap_task(n_omega_eg=2.5)}, "task.n_omega_eg"),
    ("spinmodel", {"task": {"n_atoms": 2.5}}, "task.n_atoms"),
    (
        "evolve",
        {"task": {"model": "fme", "t_final": 1e-6, "initial_state": "pm", "n_times": 10.5}},
        "task.n_times",
    ),
    ("floquet", {"numerics": {"n_samples": 256.7}}, "numerics.n_samples"),
    # every number key refuses strings, bools and ints beyond float range
    ("evolve", {"task": {"model": "obe", "t_final": "1e-9", "initial_state": "gg"}}, "task.t_final"),
    ("evolve", {"task": {"model": "obe", "t_final": True, "initial_state": "gg"}}, "task.t_final"),
    ("compare", {"task": {"horizon": "3e-5"}}, "task.horizon"),
    ("coefficients", {"numerics": {"n_samples": 10**400}}, "numerics.n_samples"),
    ("floquet", {"drive": {**DRIVE, "rabi": 10**400}}, "drive.rabi"),
]


class TestErrorPaths:
    def test_unknown_key_exit_one(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabbi": 1e8,
                "omega_eg": 1e10,
                "frequency_convention": "angular",
            },
        )
        code = run("floquet", scenario, tmp_path / "out")
        assert code == 1
        assert "rabbi" in capsys.readouterr().err

    def test_physics_error_exit_two(self, tmp_path):
        # resonant undriven atom: degenerate monodromy
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabi": 0.0,
                "omega_eg": 1e10,
                "frequency_convention": "angular",
            },
        )
        assert run("floquet", scenario, tmp_path / "out") == 2

    def test_io_error_exit_three(self, tmp_path):
        assert run("floquet", tmp_path / "missing.json", tmp_path / "out") == 3

    def test_usage_error_exit_one(self, tmp_path):
        assert main(["floquet"]) == 1
        assert main(["not-a-command"]) == 1
        scenario = write_scenario(tmp_path)
        assert run("floquet", scenario, tmp_path / "out", "--seed", "7") == 1
        # --threads belongs to taumap alone
        assert run("floquet", scenario, tmp_path / "out", "--threads", "2") == 1

    @pytest.mark.parametrize("threads", ["0", "-1", "two"])
    def test_taumap_threads_must_be_positive(self, tmp_path, capsys, threads):
        scenario = write_scenario(tmp_path, numerics={"n_samples": 256}, task=taumap_task())
        assert run("taumap", scenario, tmp_path / "out", "--threads", threads) == 1
        assert "--threads" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "subcommand, overrides, key", OUT_OF_RANGE, ids=[f"{s}-{k}" for s, _, k in OUT_OF_RANGE]
    )
    def test_out_of_range_value_exit_one(self, tmp_path, capsys, subcommand, overrides, key):
        scenario = write_scenario(tmp_path, **overrides)
        assert run(subcommand, scenario, tmp_path / "out") == 1
        assert key in capsys.readouterr().err

    # A count above MAX_COUNT, or a taumap grid of more cells, is refused by
    # name before any array is allocated; at the parent n_rabi: 1e20 died in
    # np.linspace with a traceback.
    @pytest.mark.parametrize(
        "subcommand, task, message",
        [
            ("taumap", taumap_task(n_rabi=1e20), "invalid task.n_rabi: must lie in [1, 1e+06], got 1e+20"),
            (
                "taumap",
                taumap_task(n_omega_eg=MAX_COUNT + 1),
                "invalid task.n_omega_eg: must lie in [1, 1e+06], got 1000001",
            ),
            (
                "evolve",
                {"model": "obe", "t_final": 1e-6, "initial_state": "gg", "n_times": MAX_COUNT + 1},
                "invalid task.n_times: must lie in [2, 1e+06], got 1000001",
            ),
            (
                "taumap",
                taumap_task(n_rabi=1001, n_omega_eg=1000),
                "invalid task.n_omega_eg: the grid of n_rabi x n_omega_eg = 1001000 cells exceeds 1e+06",
            ),
        ],
        ids=["taumap-n-rabi", "taumap-n-omega-eg", "evolve-n-times", "taumap-cells"],
    )
    def test_task_counts_are_capped(self, tmp_path, capsys, subcommand, task, message):
        assert run(subcommand, write_scenario(tmp_path, task=task), tmp_path / "out") == 1
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    # Position and axis entries are numbers: strings and booleans are refused, not converted.
    @pytest.mark.parametrize(
        "task, key",
        [
            ({**spin_task(3), "positions": [[0.0, 0.0, 0.0], ["1e-5", 0.0, 0.0], [2e-5, 0.0, 0.0]]}, "task.positions"),
            (spin_task(3, axis=[False, False, True]), "task.dipole_axis"),
            (spin_task(3, axis=["0", "0", "1"]), "task.dipole_axis"),
        ],
        ids=["positions-str", "axis-bool", "axis-str"],
    )
    def test_spinmodel_position_entries_must_be_numbers(self, tmp_path, capsys, task, key):
        assert run("spinmodel", write_scenario(tmp_path, task=task), tmp_path / "out") == 1
        assert f"invalid {key}: must be a number" in capsys.readouterr().err

    def test_long_evolve_horizon_exit_two(self, tmp_path, capsys):
        # ||L|| t_final = 2e7 on the Bloch pair: round-off loses the trace
        task = {"model": "obe", "t_final": 0.1, "n_times": 3, "initial_state": "gg"}
        out = tmp_path / "out"
        assert run("evolve", write_scenario(tmp_path, task=task), out) == 2
        assert "t_final" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()
        task["t_final"] = 1e-2
        assert run("evolve", write_scenario(tmp_path, task=task), out) == 0
        assert (out / "trajectory.csv").exists()

    @pytest.mark.parametrize("subcommand, rabi, truncation", [("floquet", 2e11, 34), ("coefficients", 1e11, 22)])
    def test_unresolved_sidebands_exit_two(self, tmp_path, capsys, subcommand, rabi, truncation):
        # 64 samples give at most 16 sidebands: the modes of these drives keep
        # 0.42 and 5.9e-7 of their Fourier weight beyond them.  256 samples
        # resolve both, at the smallest cutoff that leaves below 1e-12.
        drive = {**DRIVE, "rabi": rabi, "omega_eg": 9e9}
        coarse = write_scenario(tmp_path, "coarse.json", drive=drive, numerics={"n_samples": 64})
        assert run(subcommand, coarse, tmp_path / "coarse") == 2
        assert "numerics.n_samples" in capsys.readouterr().err
        fine = write_scenario(tmp_path, "fine.json", drive=drive, numerics={"n_samples": 256})
        assert run(subcommand, fine, tmp_path / "fine") == 0
        assert run("floquet", fine, tmp_path / "solve") == 0
        bundle = json.loads((tmp_path / "solve" / "floquet.json").read_text())
        assert bundle["outputs"]["truncation"] == truncation

    def test_compare_refusal_exit_two(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabi": 0.0,
                "omega_eg": 1e10,
                "frequency_convention": "angular",
            },
            task={"horizon": 1e-5},
        )
        assert run("compare", scenario, tmp_path / "out") == 2

    def test_compare_long_horizon_exit_two(self, tmp_path, capsys, monkeypatch):
        # 1 s is about 2.5e8 report times on the Rydberg pair; it is refused
        # before either model is built, naming the longest horizon taken
        # (MAX_COUNT - 1 report times, 3.927e-3 s, rounded down).
        def unbuilt(*args):
            raise AssertionError("model built before the horizon was checked")

        monkeypatch.setattr(lindblad, "fme_model", unbuilt)
        monkeypatch.setattr(lindblad, "obe_reference", unbuilt)
        out = tmp_path / "out"
        assert run("compare", write_scenario(tmp_path, task={"horizon": 1.0}), out) == 2
        err = capsys.readouterr().err
        assert "task.horizon 1.0 s asks for about 2.55e+08 report times" in err
        assert "give a horizon of at most 0.00392 s" in err
        assert list(out.iterdir()) == []


def _written(out):
    """File name -> bytes of everything a run wrote into ``out``."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}


def _error_lines(stderr):
    return [line for line in stderr.splitlines() if line.startswith("error:")]


# One fresh interpreter runs evolve (fme and obe) and compare on the canonical
# Rydberg pair through cli.main, each into DIR/<run>/, then prints the scipy
# modules loaded: python -c FRESH_CLI_RUNS DIR SCENARIO
FRESH_CLI_RUNS = """
import json, sys
from pathlib import Path
from floquetdd import cli
root, base = Path(sys.argv[1]), json.loads(Path(sys.argv[2]).read_text())
for name, subcommand, task in (
    ("evolve-fme", "evolve", {"model": "fme", "t_final": 1e-4, "n_times": 51, "initial_state": "pm"}),
    ("evolve-obe", "evolve", {"model": "obe", "t_final": 1e-4, "n_times": 51, "initial_state": "eg"}),
    ("compare", "compare", {"horizon": 5e-6}),
):
    scenario = root / (name + ".json")
    scenario.write_text(json.dumps({**base, "task": task}))
    assert cli.main([subcommand, "--scenario", str(scenario), "--out", str(root / name)]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def fresh_cli_runs(root, **env):
    """Run FRESH_CLI_RUNS into ``root`` with ``env`` added to the environment;
    its last stdout line, the scipy modules loaded."""
    root.mkdir()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]), **env)
    scenario = REPO / "scenarios" / "rydberg_pair.json"
    out = subprocess.run(
        [sys.executable, "-c", FRESH_CLI_RUNS, str(root), str(scenario)],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return out.stdout.splitlines()[-1]


# The files a run writes do not depend on the number of BLAS threads.
def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    one = tmp_path / "one"
    two = tmp_path / "two"
    fresh_cli_runs(one, OPENBLAS_NUM_THREADS="1")
    fresh_cli_runs(two, OPENBLAS_NUM_THREADS="2")
    for run_dir in sorted(p for p in one.iterdir() if p.is_dir()):
        written = _written(run_dir)
        assert written and written == _written(two / run_dir.name)


class TestSharedParser:
    """``main`` builds the parser once per process; a later call behaves as
    it would in a process of its own."""

    CALLS = [
        ("taumap", "--threads", "2"),
        ("floquet",),
        ("taumap", "--threads", "0"),
    ]

    def test_one_parser_gives_what_fresh_processes_give(self, tmp_path, capsys, monkeypatch):
        progs = []
        init = cli._Parser.__init__

        def counted(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        cli.build_parser.cache_clear()
        monkeypatch.setattr(cli._Parser, "__init__", counted)
        scenario = write_scenario(tmp_path, numerics={"n_samples": 256}, task=taumap_task())
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        codes = []
        for k, (subcommand, *extra) in enumerate(self.CALLS):
            shared, fresh = tmp_path / f"shared{k}", tmp_path / f"fresh{k}"
            code = run(subcommand, scenario, shared, *extra)
            errors = _error_lines(capsys.readouterr().err)
            argv = [subcommand, "--scenario", str(scenario), "--out", str(fresh), *extra]
            proc = subprocess.run(
                [sys.executable, "-m", "floquetdd", *argv], env=env, capture_output=True, text=True
            )
            assert (code, errors) == (proc.returncode, _error_lines(proc.stderr))
            assert _written(shared) == _written(fresh)
            codes.append(code)
        assert codes == [0, 0, 1]
        assert "--threads" in errors[0]
        # the parser and its nine subparsers, each built once over the three calls
        built = ["floquetdd", *(f"floquetdd {name}" for name in cli._RUNNERS)]
        assert sorted(progs) == sorted(built)


class TestPipelineCommands:
    def test_coefficients(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert run("coefficients", scenario, out) == 0
        bundle = json.loads((out / "coefficients.json").read_text())
        c_pp = bundle["outputs"]["c_pp"]
        c_pm = bundle["outputs"]["c_pm"]
        assert c_pp == pytest.approx(c_pm, rel=0.01)
        table = read_csv(out / "coefficients.csv")
        total = sum(row[1] for row in table.rows)
        assert total == pytest.approx(c_pp, rel=1e-12)

    # Each number is written once: the sideband weights, the coefficient
    # breakdowns and the spin Hamiltonian are in the CSV files alone.
    @pytest.mark.parametrize(
        "subcommand, keys",
        [
            ("floquet", {"mu_plus", "mu_minus", "truncation"}),
            ("coefficients", {"c_pp", "c_pm"}),
            ("spinmodel", {"theta_m", "j_tensors"}),
        ],
    )
    def test_bundle_holds_no_table(self, tmp_path, subcommand, keys):
        out = tmp_path / "out"
        assert run(subcommand, write_scenario(tmp_path), out) == 0
        assert set(json.loads((out / f"{subcommand}.json").read_text())["outputs"]) == keys

    def test_channels(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert run("channels", scenario, out) == 0
        table = read_csv(out / "channels.csv")
        assert len(table.rows) == 6
        assert all(row[2] >= 0.0 for row in table.rows)

    def test_channels_under_the_benchmark_tracer(self, tmp_path, monkeypatch):
        # The benchmark's trace mode counts emitted CSV rows through Table.rows.
        spec = importlib.util.spec_from_file_location(
            "perfbench_tracer", REPO / "perfbench" / "tracer.py"
        )
        tracer = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses look it up
        spec.loader.exec_module(tracer)
        with tracer.Tracer() as traced:
            assert run("channels", REPO / "scenarios" / "rydberg_pair.json", tmp_path / "out") == 0
        assert traced.counts["io.emit_csv.rows"] == 6

    def test_evolve_trajectory(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            task={
                "model": "fme",
                "t_final": 1e-4,
                "n_times": 41,
                "initial_state": "pm",
            },
        )
        out = tmp_path / "out"
        assert run("evolve", scenario, out) == 0
        table = read_csv(out / "trajectory.csv")
        assert len(table.rows) == 41
        traces = [row[-1] for row in table.rows]
        assert all(abs(t - 1.0) < 1e-9 for t in traces)

    def test_evolve_obe_model(self, tmp_path):
        # resonant, undriven: the Bloch model has no detuning term, so the
        # dynamics run on the (comparable) decay and exchange scales
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabi": 0.0,
                "omega_eg": 1e10,
                "frequency_convention": "angular",
            },
            geometry={
                "separation": constants.c / 1e10,
                "dipole_ea0": 4e8,
                "theta_d": np.pi / 2,
            },
            task={
                "model": "obe",
                "t_final": 1e-7,
                "n_times": 11,
                "initial_state": "eg",
            },
        )
        out = tmp_path / "out"
        assert run("evolve", scenario, out) == 0
        table = read_csv(out / "trajectory.csv")
        assert table.columns[1:5] == ("pop_ee", "pop_eg", "pop_ge", "pop_gg")
        # decay moves population toward the ground pair
        assert table.rows[-1][4] > table.rows[0][4]

    def test_evolve_bad_initial_state(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            task={
                "model": "fme",
                "t_final": 1e-6,
                "initial_state": "xx",
            },
        )
        assert run("evolve", scenario, tmp_path / "out") == 1

    def test_steady_well_conditioned(self, tmp_path):
        # retardation phase ~ 1.6 so the subradiant gap is resolvable
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabi": 0.0,
                "omega_eg": 1.6e10,
                "frequency_convention": "angular",
            },
            geometry={
                "separation": constants.c / 1e10,
                "dipole_ea0": 4e8,
                "theta_d": np.pi / 2,
            },
            task={"model": "fme"},
        )
        out = tmp_path / "out"
        assert run("steady", scenario, out) == 0
        bundle = json.loads((out / "steady.json").read_text())
        mat = bundle["outputs"]["steady_state"]
        diag = [mat["real"][i * 4 + i] for i in range(4)]
        # vacuum bath absorbs all excitation: everything in the lowest state
        assert max(diag) == pytest.approx(1.0, abs=1e-8)

    def test_taumap(self, tmp_path):
        scenario = write_scenario(
            tmp_path,
            numerics={"n_samples": 256},
            task={
                "rabi_over_omega_min": 0.0,
                "rabi_over_omega_max": 0.5,
                "n_rabi": 3,
                "omega_eg_over_omega_min": 0.5,
                "omega_eg_over_omega_max": 1.5,
                "n_omega_eg": 3,
            },
        )
        out = tmp_path / "out"
        assert run("taumap", scenario, out) == 0
        table = read_csv(out / "taumap.csv")
        assert table.columns == ("omega_R", "omega_eg", "tau_mu_inv_over_omega", "diverged")
        assert len(table.rows) == 9
        # row-major: omega_R outer, omega_eg inner
        assert table.rows[0][0] == table.rows[1][0] == table.rows[2][0]
        assert table.rows[0][1] < table.rows[1][1] < table.rows[2][1]

    def test_taumap_threads_same_bytes(self, tmp_path):
        scenario = write_scenario(
            tmp_path, numerics={"n_samples": 256}, task=taumap_task(n_rabi=8, n_omega_eg=5)
        )
        self.assert_threads_write_same_bytes(scenario, tmp_path)

    # 130 x 130 cells reach the size at which numpy's temporary elision
    # reordered the operator-written SU(2) product: the two files differed.
    def test_taumap_threads_same_bytes_on_a_large_grid(self, tmp_path):
        task = taumap_task(
            rabi_over_omega_max=0.8,
            omega_eg_over_omega_min=0.1,
            omega_eg_over_omega_max=1.9,
            n_rabi=130,
            n_omega_eg=130,
        )
        scenario = write_scenario(tmp_path, numerics={"n_samples": 64}, task=task)
        self.assert_threads_write_same_bytes(scenario, tmp_path)

    @staticmethod
    def assert_threads_write_same_bytes(scenario, tmp_path):
        one, two = tmp_path / "one", tmp_path / "two"
        assert run("taumap", scenario, one, "--threads", "1") == 0
        assert run("taumap", scenario, two, "--threads", "2") == 0
        for name in ("taumap.csv", "taumap.json"):
            assert (one / name).read_bytes() == (two / name).read_bytes()

    # 3.1e-5 s: the np.linspace report grid has several distinct spacings
    @pytest.mark.parametrize("horizon", [5e-6, 3.1e-5])
    def test_compare(self, tmp_path, horizon):
        scenario = write_scenario(tmp_path, task={"horizon": horizon})
        out = tmp_path / "out"
        assert run("compare", scenario, out) == 0
        bundle = json.loads((out / "compare.json").read_text())
        assert bundle["outputs"]["max_deviation"] <= 0.05
        smoothed = read_csv(out / "compare_populations.csv")
        raw = read_csv(out / "compare_raw.csv")
        assert len(smoothed.rows) < len(raw.rows)
        # the Floquet-Markov populations are written once, to compare_raw.csv
        assert smoothed.columns == ("time_s", *(f"obe_smoothed_{b}" for b in ("pp", "pm", "mp", "mm")))

    # tracemalloc peak of one in-process compare of the Rydberg pair at 1e5
    # report times: 0.329 kB per report time, one 4x4 stack (0.256 kB) while
    # it is evolved and the populations of both models (0.064 kB).  Read as
    # views of the diagonals, the populations kept both stacks: 0.617 kB.
    PEAK_KB_PER_REPORT = 0.4

    def test_compare_holds_no_stack(self, tmp_path):
        # 16 report times per dressed beat 2 pi / rabi (resonant drive)
        horizon = 1e5 / 16 * 2.0 * np.pi / DRIVE["rabi"]
        scenario = write_scenario(tmp_path, task={"horizon": horizon})
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert run("compare", scenario, out) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_times = json.loads((out / "compare.json").read_text())["outputs"]["n_times"]
        assert n_times == 100_001
        assert peak / 1e3 / n_times < self.PEAK_KB_PER_REPORT

    def test_reproduce_paper(self, tmp_path):
        scenario = write_scenario(tmp_path)
        out = tmp_path / "out"
        assert run("reproduce-paper", scenario, out) == 0
        table = read_csv(out / "paper_endpoints.csv")
        values = {row[0]: row[1] for row in table.rows}
        assert abs(values["omega_dd_angular_reading"] - 9.6e4) / 9.6e4 < 0.2
        assert values["j_xx_over_j_yy"] == pytest.approx(2.0, abs=1e-10)
        assert values["c_pp_rel_dev"] < 0.02
        bundle = json.loads((out / "paper_endpoints.json").read_text())
        assert bundle["outputs"]["hierarchy_ok"] is True

    # Each run needs one Floquet solution; every later request gets it back.
    @pytest.mark.parametrize(
        "subcommand, overrides",
        [("compare", {"task": {"horizon": 5e-6}}), ("reproduce-paper", {})],
    )
    def test_one_propagation_per_run(self, tmp_path, monkeypatch, subcommand, overrides):
        calls = []
        propagate = floquet.propagate_period

        def counted(drive, grid):
            calls.append(drive)
            return propagate(drive, grid)

        floquet.floquet_solve.cache_clear()
        monkeypatch.setattr(floquet, "propagate_period", counted)
        assert run(subcommand, write_scenario(tmp_path, **overrides), tmp_path / "out") == 0
        assert len(calls) == 1

    # Undriven: theta_m = 0 above resonance and pi below it; J_zz vanishes.
    @pytest.mark.parametrize("omega_eg", [1.6e10, 0.6e10])
    def test_reproduce_paper_undriven_exit_two(self, tmp_path, capsys, omega_eg):
        scenario = write_scenario(
            tmp_path,
            drive={
                "omega": 1e10,
                "rabi": 0.0,
                "omega_eg": omega_eg,
                "frequency_convention": "angular",
            },
        )
        out = tmp_path / "out"
        assert run("reproduce-paper", scenario, out) == 2
        assert "non-zero rabi" in capsys.readouterr().err
        assert not (out / "paper_endpoints.csv").exists()
