"""Batch command line front end.

Every subcommand reads one strict JSON scenario and computes
deterministically; its runner returns the CSV tables, bundle outputs and
stdout summary of the run, and ``main`` alone writes them: the CSVs and one
JSON result bundle into the output directory, then the summary.
Exit codes: 0 success, 1 invalid scenario or usage, 2 physics-domain
failure (degeneracies, truncation, hierarchy violations), 3 I/O failure.
Wall-clock timing goes to stderr only, keeping all emitted files
byte-identical across repeated runs.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict, astuple, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .bath import omega_dd
from .dipole import build_channels, coupling_coefficients, matrix_elements
from .errors import PhysicsError, ScenarioError
from .floquet import TimeGrid, dressed_states, floquet_solve
from .io import ResultBundle, Table, emit_csv, emit_json, matrix_to_json
from .lindblad import (
    DRESSED_PAIR_LABELS,
    coarse_grained_coefficients,
    evolve,
    fme_model,
    fme_vs_obe_compare,
    obe_reference,
    steady_state,
)
from .scenario import Scenario, integer, load_scenario, number, numbers, task_params
from .spin import build_spin_hamiltonian, j_tensor, pair_geometries_from_positions, pair_tensors
from .validity import scan_tau_map, timescale_report


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to the invalid-scenario code
        raise ScenarioError(message)


def _solve(scenario: Scenario):
    grid = TimeGrid.for_drive(scenario.drive, scenario.n_samples)
    return floquet_solve(scenario.drive, grid)


def _coefficients(scenario: Scenario):
    sol = _solve(scenario)
    return coupling_coefficients(matrix_elements(sol), sol, scenario.geometry)


@dataclass(frozen=True)
class _Run:
    """What one subcommand writes: its CSV tables by file name, in order, the
    file name and ``outputs`` of its result bundle, and its stdout summary."""

    tables: dict
    bundle: str
    outputs: dict
    summary: str


def _run_floquet(scenario: Scenario) -> _Run:
    sol = _solve(scenario)
    mus = np.array([sol.mu_plus, sol.mu_minus])
    weights_p = sol.sideband_weights(0)
    weights_m = sol.sideband_weights(1)
    tables = {
        "quasienergies.csv": Table(
            columns=("branch", "quasienergy_rad_per_s", "quasienergy_over_omega"),
            data=(("plus", "minus"), mus, mus / scenario.drive.omega),
        ),
        "sidebands.csv": Table(
            columns=("n", "weight_plus", "weight_minus"),
            data=(np.arange(-sol.truncation, sol.truncation + 1), weights_p, weights_m),
        ),
    }
    outputs = {
        "mu_plus": sol.mu_plus,
        "mu_minus": sol.mu_minus,
        "truncation": sol.truncation,
        "sideband_weights_plus": [float(w) for w in weights_p],
        "sideband_weights_minus": [float(w) for w in weights_m],
    }
    summary = f"quasienergies: mu_plus={sol.mu_plus:.9e}  mu_minus={sol.mu_minus:.9e}"
    return _Run(tables, "floquet.json", outputs, summary)


def _run_coefficients(scenario: Scenario) -> _Run:
    coeff = _coefficients(scenario)
    table = Table(
        columns=("m", "c_pp_contribution", "c_pm_contribution"),
        data=(coeff.m_values, coeff.breakdown_pp, coeff.breakdown_pm),
    )
    outputs = {
        "c_pp": coeff.c_pp,
        "c_pm": coeff.c_pm,
        "m_values": [int(m) for m in coeff.m_values],
        "breakdown_pp": [float(v) for v in coeff.breakdown_pp],
        "breakdown_pm": [float(v) for v in coeff.breakdown_pm],
    }
    summary = f"coefficients: c_pp={coeff.c_pp:.9e}  c_pm={coeff.c_pm:.9e}"
    return _Run({"coefficients.csv": table}, "coefficients.json", outputs, summary)


def _run_channels(scenario: Scenario) -> _Run:
    sol = _solve(scenario)
    channels = build_channels(matrix_elements(sol), sol, scenario.geometry, scenario.bath)
    table = Table(
        columns=("channel", "label", "rate_rad_per_s"),
        data=(np.arange(1, 7), channels.labels, channels.rates),
    )
    outputs = {
        "rates": [float(r) for r in channels.rates],
        "labels": list(channels.labels),
        "operators": [matrix_to_json(op) for op in channels.operators],
    }
    summary = "channel rates: " + " ".join(f"{r:.6e}" for r in channels.rates)
    return _Run({"channels.csv": table}, "channels.json", outputs, summary)


# Column labels of each model's basis states, in matrix order: the FME
# product Floquet basis (DRESSED_PAIR_LABELS) and the bare OBE basis.
_BASES = {"fme": ("pp", "pm", "mp", "mm"), "obe": ("ee", "eg", "ge", "gg")}


def _model_name(value) -> str:
    """task.model: one of the keys of ``_BASES``."""
    if not isinstance(value, str) or value not in _BASES:
        raise ValueError("must be 'fme' or 'obe'")
    return value


def _model(scenario: Scenario, name: str):
    """The Floquet-Markov model or the Bloch-equation reference of the pair."""
    if name == "fme":
        return fme_model(_solve(scenario), scenario.geometry, scenario.bath)
    return obe_reference(scenario.drive, scenario.geometry, scenario.bath)


def _initial_state(label: str, model: str) -> np.ndarray:
    states = _BASES[model]
    if label not in states:
        raise ScenarioError(
            f"initial_state must be one of {sorted(states)} for model '{model}'"
        )
    k = states.index(label)
    rho = np.zeros((4, 4), dtype=complex)
    rho[k, k] = 1.0
    return rho


def _run_evolve(scenario: Scenario) -> _Run:
    params = task_params(
        scenario,
        {
            "model": (True, _model_name),
            "t_final": (True, number),
            "n_times": (False, integer),
            "initial_state": (True, str),
        },
        "evolve",
    )
    model_name = params["model"]
    if params["t_final"] <= 0.0:
        raise ScenarioError("task.t_final must be positive")
    n_times = params.get("n_times", 201)
    if n_times < 2:
        raise ScenarioError("task.n_times must be at least 2")
    model = _model(scenario, model_name)
    rho0 = _initial_state(params["initial_state"], model_name)
    times = np.linspace(0.0, params["t_final"], n_times)
    traj = evolve(model, rho0, times)
    pops = np.real(np.einsum("tii->ti", traj))
    basis = _BASES[model_name]
    table = Table(
        columns=("time_s",) + tuple(f"pop_{b}" for b in basis) + ("trace",),
        data=(times, *pops.T, np.trace(traj, axis1=1, axis2=2).real),
    )
    outputs = {
        "model": model_name,
        "basis": list(basis),
        "final_state": matrix_to_json(traj[-1]),
    }
    summary = f"evolved {model_name} to t={params['t_final']:.3e} s; final populations: {pops[-1]}"
    return _Run({"trajectory.csv": table}, "evolve.json", outputs, summary)


def _run_steady(scenario: Scenario) -> _Run:
    params = task_params(scenario, {"model": (True, _model_name)}, "steady")
    rho = steady_state(_model(scenario, params["model"]))
    table = Table(
        columns=("row", "col", "real", "imag"),
        data=(*np.divmod(np.arange(rho.size), rho.shape[1]), rho.real.ravel(), rho.imag.ravel()),
    )
    outputs = {"model": params["model"], "steady_state": matrix_to_json(rho)}
    summary = f"steady-state populations: {np.real(np.diag(rho))}"
    return _Run({"steady_state.csv": table}, "steady.json", outputs, summary)


def _run_spinmodel(scenario: Scenario) -> _Run:
    params = task_params(
        scenario,
        {
            "n_atoms": (False, integer),
            "positions": (False, numbers),
            "dipole_axis": (False, numbers),
            "evaluate_at": (False, str),
        },
        "spinmodel",
    )
    n_atoms = params.get("n_atoms", 2)
    if not 2 <= n_atoms <= 6:
        raise ScenarioError("task.n_atoms must lie in 2..6")
    evaluate_at = params.get("evaluate_at", "drive")
    if evaluate_at not in ("drive", "atom"):
        raise ScenarioError("task.evaluate_at must be 'drive' or 'atom'")
    for key, other in (("positions", "dipole_axis"), ("dipole_axis", "positions")):
        if key in params and other not in params:
            raise ScenarioError(f"spinmodel with task.{key} requires task.{other}")
    if n_atoms == 2 and "positions" not in params:
        pair_geoms = {(0, 1): scenario.geometry}
    else:
        if "positions" not in params:
            raise ScenarioError(
                "spinmodel with n_atoms != 2 requires task.positions and task.dipole_axis"
            )
        try:
            pos = np.asarray(params["positions"], dtype=float)
            if pos.shape != (n_atoms, 3):
                raise ScenarioError("task.positions must list one 3-vector per atom")
            pair_geoms = pair_geometries_from_positions(
                pos, scenario.geometry.dipole_mag, params["dipole_axis"]
            )
        except ValueError as err:
            raise ScenarioError(f"invalid task.positions or task.dipole_axis: {err}") from err
    tensors = pair_tensors(pair_geoms, scenario.drive, evaluate_at)
    ham = build_spin_hamiltonian(n_atoms, pair_geoms, scenario.drive, evaluate_at=evaluate_at)
    pairs = np.array(list(tensors)).T
    values = np.array([astuple(jt) for jt in tensors.values()]).T
    tables = {
        "jtensor.csv": Table(columns=("i", "j", "j_xx", "j_yy", "j_zz", "j_xz"), data=(*pairs, *values)),
        "spin_hamiltonian.csv": Table(
            columns=("row", "col", "value_rad_per_s"),
            data=(*np.divmod(np.arange(ham.size), ham.shape[1]), ham.ravel()),
        ),
    }
    outputs = {
        "theta_m": dressed_states(scenario.drive).theta_m,
        "j_tensors": [{"pair": list(pair), **asdict(jt)} for pair, jt in tensors.items()],
        "hamiltonian": matrix_to_json(ham),
    }
    summary = "\n".join(
        f"J tensor of pair {i}-{j} (rad/s): "
        f"xx={jt.j_xx:.6e} yy={jt.j_yy:.6e} zz={jt.j_zz:.6e} xz={jt.j_xz:.6e}"
        for (i, j), jt in tensors.items()
    )
    return _Run(tables, "spinmodel.json", outputs, summary)


def _run_taumap(scenario: Scenario, threads: int) -> _Run:
    params = task_params(
        scenario,
        {
            "rabi_over_omega_min": (True, number),
            "rabi_over_omega_max": (True, number),
            "n_rabi": (True, integer),
            "omega_eg_over_omega_min": (True, number),
            "omega_eg_over_omega_max": (True, number),
            "n_omega_eg": (True, integer),
        },
        "taumap",
    )
    for key in ("n_rabi", "n_omega_eg"):
        if params[key] < 1:
            raise ScenarioError(f"task.{key} must be positive")
    for key in ("rabi_over_omega_min", "rabi_over_omega_max"):
        if params[key] < 0.0:
            raise ScenarioError(f"task.{key} must be non-negative")
    for key in ("omega_eg_over_omega_min", "omega_eg_over_omega_max"):
        if params[key] <= 0.0:
            raise ScenarioError(f"task.{key} must be positive")
    omega = scenario.drive.omega
    rabi = np.linspace(
        params["rabi_over_omega_min"] * omega,
        params["rabi_over_omega_max"] * omega,
        params["n_rabi"],
    )
    omega_eg = np.linspace(
        params["omega_eg_over_omega_min"] * omega,
        params["omega_eg_over_omega_max"] * omega,
        params["n_omega_eg"],
    )
    tau_map = scan_tau_map(
        rabi, omega_eg, omega, n_samples=scenario.n_samples, threads=threads
    )
    table = Table(
        columns=("omega_R", "omega_eg", "tau_mu_inv_over_omega", "diverged"),
        data=(
            np.repeat(rabi, omega_eg.size),
            np.tile(omega_eg, rabi.size),
            tau_map.tau_inv_over_omega.ravel(),
            tau_map.diverged.ravel(),
        ),
    )
    outputs = {
        "omega": omega,
        "n_rabi": params["n_rabi"],
        "n_omega_eg": params["n_omega_eg"],
        "n_diverged": int(tau_map.diverged.sum()),
    }
    summary = f"taumap: {params['n_rabi']}x{params['n_omega_eg']} cells, {outputs['n_diverged']} flagged"
    return _Run({"taumap.csv": table}, "taumap.json", outputs, summary)


def _run_compare(scenario: Scenario) -> _Run:
    params = task_params(
        scenario,
        {"horizon": (True, number), "initial_state": (False, str)},
        "compare",
    )
    if params["horizon"] <= 0.0:
        raise ScenarioError("task.horizon must be positive")
    label = params.get("initial_state", "+-")
    if label not in DRESSED_PAIR_LABELS:
        raise ScenarioError(
            f"task.initial_state must be one of {list(DRESSED_PAIR_LABELS)} for compare"
        )
    comparison = fme_vs_obe_compare(
        scenario.drive,
        scenario.geometry,
        scenario.bath,
        params["horizon"],
        initial_label=label,
        n_samples=scenario.n_samples,
    )
    basis = _BASES["fme"]
    interior = comparison.interior
    tables = {
        "compare_raw.csv": Table(
            columns=("time_s",)
            + tuple(f"fme_{b}" for b in basis)
            + tuple(f"obe_{b}" for b in basis),
            data=(comparison.times, *comparison.pop_fme.T, *comparison.pop_obe.T),
        ),
        "compare_populations.csv": Table(
            columns=("time_s",)
            + tuple(f"fme_{b}" for b in basis)
            + tuple(f"obe_smoothed_{b}" for b in basis),
            data=(
                comparison.times[interior],
                *comparison.pop_fme[interior].T,
                *comparison.pop_obe_smoothed.T,
            ),
        ),
    }
    outputs = {
        "max_deviation": comparison.max_deviation,
        "window_samples": comparison.window_samples,
        "n_times": int(comparison.times.size),
        "initial_state": label,
    }
    summary = f"max dressed-population deviation: {comparison.max_deviation:.6e}"
    return _Run(tables, "compare.json", outputs, summary)


def _run_reproduce_paper(scenario: Scenario) -> _Run:
    """Quantitative endpoints: interaction energy, J ratios, coefficient check.

    The J tensor and the closed-form coefficients take the interaction
    energy at the atomic frequency, omega_dd(omega_eg), not at the drive
    frequency; on the near-field Rydberg pair the two readings agree to
    about 2e-7 relative even at 10% detuning.
    """
    drive = scenario.drive
    if drive.rabi == 0.0:  # theta_m is 0 or pi: J_zz ~ sin^2(theta_m) vanishes
        raise PhysicsError(
            "reproduce-paper needs a driven atom: at rabi = 0 J_zz vanishes and "
            "J_xx/J_zz is undefined; give the drive a non-zero rabi"
        )
    geometry = scenario.geometry
    raw_drive = scenario.raw["drive"]
    raw_omega_eg = (
        raw_drive["omega_eg"]
        if "omega_eg" in raw_drive
        else raw_drive["omega"] - raw_drive["detuning"]
    )
    w_eg_angular = raw_omega_eg  # read the quoted number as rad/s
    w_eg_ordinary = 2.0 * np.pi * raw_omega_eg  # read it as Hz

    om_angular = omega_dd(w_eg_angular, geometry)
    om_ordinary = omega_dd(w_eg_ordinary, geometry)

    theta = dressed_states(drive).theta_m
    om_drive = omega_dd(drive.omega_eg, geometry)
    jt = j_tensor(theta, om_drive)

    coeff = _coefficients(scenario)
    cg_pp, cg_pm = coarse_grained_coefficients(theta, om_drive)
    rel_pp = abs(coeff.c_pp - cg_pp) / abs(cg_pm)
    rel_pm = abs(coeff.c_pm - cg_pm) / abs(cg_pm)

    report = timescale_report(drive, geometry, scenario.bath, n_samples=scenario.n_samples)

    endpoints = {
        "omega_dd_angular_reading": om_angular,
        "omega_dd_ordinary_reading": om_ordinary,
        "j_xx": jt.j_xx,
        "j_yy": jt.j_yy,
        "j_zz": jt.j_zz,
        "j_xz": jt.j_xz,
        "j_xx_over_j_yy": jt.j_xx / jt.j_yy,
        "j_xx_over_j_zz": jt.j_xx / jt.j_zz,
        "c_pp_numeric": coeff.c_pp,
        "c_pm_numeric": coeff.c_pm,
        "c_pp_closed_form": cg_pp,
        "c_pm_closed_form": cg_pm,
        "c_pp_rel_dev": rel_pp,
        "c_pm_rel_dev": rel_pm,
        "tau_omega_s": report.tau_omega,
        "tau_mu_s": report.tau_mu,
        "tau_omega_gen_s": report.tau_omega_gen,
        "tau_s_s": report.tau_s,
    }
    table = Table(columns=("quantity", "value"), data=(tuple(endpoints), tuple(endpoints.values())))
    outputs = {name: float(value) for name, value in endpoints.items()}
    outputs["hierarchy_ok"] = bool(report.hierarchy_ok)
    summary = (
        f"omega_dd (angular reading): {om_angular:.6e} rad/s\n"
        f"J_xx/J_yy = {jt.j_xx / jt.j_yy:.12f}, J_xx/J_zz = {jt.j_xx / jt.j_zz:.12f}\n"
        f"coefficient closed-form deviations: {rel_pp:.3e}, {rel_pm:.3e}"
    )
    return _Run({"paper_endpoints.csv": table}, "paper_endpoints.json", outputs, summary)


_RUNNERS = {
    "floquet": _run_floquet,
    "coefficients": _run_coefficients,
    "channels": _run_channels,
    "evolve": _run_evolve,
    "steady": _run_steady,
    "spinmodel": _run_spinmodel,
    "taumap": _run_taumap,
    "compare": _run_compare,
    "reproduce-paper": _run_reproduce_paper,
}


def _positive_int(text: str) -> int:
    """--threads: a positive integer."""
    if not (text.isdecimal() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="floquetdd", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--scenario", required=True, help="path to the JSON scenario")
        p.add_argument("--out", required=True, help="output directory (created if absent)")
        if name == "taumap":
            p.add_argument(
                "--threads", type=_positive_int, default=1, help="worker threads for the map scan"
            )
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        options = {"threads": args.threads} if args.subcommand == "taumap" else {}
        scenario = load_scenario(args.scenario)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        started = time.perf_counter()
        run = _RUNNERS[args.subcommand](scenario, **options)
        for name, table in run.tables.items():
            emit_csv(table, outdir / name)
        bundle = ResultBundle(args.subcommand, scenario.raw, run.outputs, __version__)
        emit_json(bundle, outdir / run.bundle)
        print(run.summary)
        print(
            f"{args.subcommand} finished in {time.perf_counter() - started:.2f} s",
            file=sys.stderr,
        )
    except ScenarioError as err:
        print(f"error: invalid scenario: {err}", file=sys.stderr)
        return 1
    except PhysicsError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: I/O failure: {err}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
