"""Acceptance suite: one test per quantitative criterion, each printing a
PASS line with its runtime when it completes within tolerance and budget."""

import time

import numpy as np
import pytest
import scipy.linalg
from scipy import constants

from floquetdd.bath import AtomGeometry, BathParams, gamma_thermal_pair, gamma_thermal_single, omega_dd
from floquetdd.dipole import build_channels, build_hdp2, coupling_coefficients, matrix_elements
from floquetdd.floquet import DriveParams, TimeGrid, dressed_states, floquet_solve
from floquetdd.lindblad import (
    LindbladModel,
    build_liouvillian,
    coarse_grained_coefficients,
    evolve,
)
from floquetdd.spin import j_tensor
from floquetdd.validity import scan_tau_map, tau_mu
from oracles import (
    diagonalize_dissipator,
    dissipator_blocks,
    dissipator_matrix,
    dressed_bare_equivalence,
    fold_to_zone,
)

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
OMEGA = 1e10
RYDBERG = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
VACUUM = BathParams(temperature=0.0)


class _Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.name} exceeded its runtime budget: "
                f"{self.elapsed:.2f} s > {self.seconds} s"
            )
            print(f"{self.name} PASS ({self.elapsed:.2f} s)")


def solve(rabi, omega_eg, n=1024):
    drive = DriveParams(omega=OMEGA, rabi=rabi, omega_eg=omega_eg)
    return floquet_solve(drive, TimeGrid.for_drive(drive, n)), drive


def test_a1_interaction_energy_endpoint():
    with _Budget("A1", 1.0):
        angular = omega_dd(1e10, RYDBERG)
        assert abs(angular - 9.6e4) / 9.6e4 < 0.20
        # ordinary-frequency reading reported for transparency
        ordinary = omega_dd(2 * np.pi * 1e10, RYDBERG)
        assert np.isfinite(ordinary)
        print(f"A1 values: angular={angular:.4e} ordinary={ordinary:.4e} rad/s")


def test_a2_j_tensor_ratios():
    with _Budget("A2", 1.0):
        drive = DriveParams(omega=OMEGA, rabi=0.01 * OMEGA, omega_eg=OMEGA)
        theta = dressed_states(drive).theta_m
        w = omega_dd(OMEGA, RYDBERG)
        jt = j_tensor(theta, w)
        assert jt.j_xx / jt.j_yy == pytest.approx(2.0, rel=1e-10)
        assert jt.j_xx / jt.j_zz == pytest.approx(2.0, rel=1e-10)
        assert abs(jt.j_xz) <= 1e-10 * jt.j_xx
        assert jt.j_xx == pytest.approx(w / 2, rel=1e-14)


def test_a3_coarse_graining_equivalence():
    with _Budget("A3", 10.0):
        sol, drive = solve(0.01 * OMEGA, OMEGA)
        table = matrix_elements(sol)
        coeff = coupling_coefficients(table, sol, RYDBERG)
        theta = dressed_states(drive).theta_m
        cg_pp, cg_pm = coarse_grained_coefficients(theta, omega_dd(OMEGA, RYDBERG))
        assert coeff.c_pp == pytest.approx(cg_pp, rel=0.02)
        assert coeff.c_pm == pytest.approx(cg_pm, rel=0.02)


def test_a4_quasienergy_accuracy():
    with _Budget("A4", 10.0):
        for rabi_frac in np.linspace(0.001, 0.02, 20):
            sol, drive = solve(rabi_frac * OMEGA, OMEGA)
            rwa_plus = fold_to_zone((OMEGA + rabi_frac * OMEGA) / 2, OMEGA)
            rwa_minus = fold_to_zone((OMEGA - rabi_frac * OMEGA) / 2, OMEGA)
            assert abs(sol.mu_plus - rwa_plus) <= 1e-4 * OMEGA
            assert abs(sol.mu_minus - rwa_minus) <= 1e-4 * OMEGA
            doubled = floquet_solve(drive, TimeGrid.for_drive(drive, 2048))
            assert abs(sol.mu_plus - doubled.mu_plus) < 1e-9 * OMEGA
            assert abs(sol.mu_minus - doubled.mu_minus) < 1e-9 * OMEGA


def test_a5_sum_rule_random_drives():
    with _Budget("A5", 30.0):
        rng = np.random.RandomState(12345)
        for _ in range(50):
            rabi = rng.uniform(0.0, 0.8) * OMEGA
            omega_eg = rng.uniform(0.1, 1.9) * OMEGA
            sol, _ = solve(rabi, omega_eg)
            table = matrix_elements(sol)
            for beta in (0, 1):
                assert table.column_weight(beta) == pytest.approx(1.0, abs=1e-10)


def test_a6_lindblad_sanity():
    with _Budget("A6", 30.0):
        close = AtomGeometry(
            separation=constants.c / OMEGA, dipole_mag=1000 * E_A0, theta_d=np.pi / 2
        )
        sol, _ = solve(0.15 * OMEGA, 0.9 * OMEGA)
        table = matrix_elements(sol)
        coeff = coupling_coefficients(table, sol, close)
        channels = build_channels(table, sol, close, VACUUM)
        model = LindbladModel(
            hamiltonian=build_hdp2(coeff), channels=tuple(channels)
        )
        horizon = 10.0 / model.max_rate
        times = np.linspace(0.0, horizon, 9)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[1, 1] = 1.0
        traj = evolve(model, rho0, times)
        for rho in traj:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() >= -1e-9
        liou = build_liouvillian(model)
        oracle = (scipy.linalg.expm(liou * horizon) @ rho0.reshape(-1)).reshape(4, 4)
        assert np.max(np.abs(traj[-1] - oracle)) < 1e-7


def test_a7_channel_equivalence():
    with _Budget("A7", 5.0):
        bath = BathParams(temperature=0.05)
        sol, _ = solve(0.2 * OMEGA, 0.9 * OMEGA)
        table = matrix_elements(sol)
        closed = dissipator_matrix(build_channels(table, sol, RYDBERG, bath))
        generic = dissipator_matrix(
            diagonalize_dissipator(dissipator_blocks(table, sol, RYDBERG, bath))
        )
        assert np.linalg.norm(closed - generic) <= 1e-10 * np.linalg.norm(closed)


def test_a8_undriven_reduction():
    with _Budget("A8", 1.0):
        omega_eg = 1.6 * OMEGA
        sol, _ = solve(0.0, omega_eg)
        table = matrix_elements(sol)
        coeff = coupling_coefficients(table, sol, RYDBERG)
        w = omega_dd(omega_eg, RYDBERG)
        assert coeff.c_pp == 0.0
        assert coeff.c_pm == pytest.approx(w, rel=1e-12)
        h = build_hdp2(coeff)
        flip_flop = np.zeros((4, 4), dtype=complex)
        flip_flop[1, 2] = flip_flop[2, 1] = w
        assert np.max(np.abs(h - flip_flop)) <= 1e-12 * abs(w)
        channels = build_channels(table, sol, RYDBERG, VACUUM)
        g11 = gamma_thermal_single(omega_eg, RYDBERG, VACUUM)
        g12 = gamma_thermal_pair(omega_eg, RYDBERG, VACUUM)
        assert channels.rates[2] == pytest.approx(g11 + g12, rel=1e-10)
        assert channels.rates[3] == pytest.approx(g11 - g12, rel=1e-6)
        heating = max(channels.rates[4], channels.rates[5])
        assert heating <= 1e-12 * channels.rates[2]


def test_a9_tau_mu_behavior():
    with _Budget("A9", 60.0):
        for rabi_frac, delta_frac in (
            (0.005, 0.0),
            (0.02, 0.0),
            (0.05, 0.0),
            (0.01, 0.03),
            (0.03, -0.02),
        ):
            drive = DriveParams.from_detuning(
                omega=OMEGA, rabi=rabi_frac * OMEGA, detuning=delta_frac * OMEGA
            )
            sol = floquet_solve(drive, TimeGrid.for_drive(drive, 1024))
            omega_gen = dressed_states(drive).omega_gen
            assert 1.0 / tau_mu(drive, sol) == pytest.approx(omega_gen, rel=0.05)

        rabi = np.linspace(0.0, 0.8 * OMEGA, 200)
        omega_eg = np.linspace(0.1 * OMEGA, 1.9 * OMEGA, 200)
        tmap = scan_tau_map(rabi, omega_eg, OMEGA, n_samples=512)
        flags = tmap.diverged.astype(bool)
        assert flags.sum() > 0
        # quarter-zone stripes: the undriven row crosses |mu| = w/4 at
        # omega_eg = 0.5 w and 1.5 w
        for target in (0.5 * OMEGA, 1.5 * OMEGA):
            j = int(np.argmin(np.abs(omega_eg - target)))
            assert flags[0, j - 1 : j + 2].any()
        # stripes are curves, not isolated pixels
        for i in range(flags.shape[0]):
            for j in range(flags.shape[1]):
                if flags[i, j]:
                    window = flags[max(0, i - 1) : i + 2, max(0, j - 1) : j + 2]
                    assert window.sum() > 1


def test_a10_j_tensor_dual_path():
    with _Budget("A10", 1.0):
        w = omega_dd(OMEGA, RYDBERG)
        for theta in np.linspace(0.0, np.pi, 101):
            closed = j_tensor(theta, w)
            transformed, residual = dressed_bare_equivalence(
                coarse_grained_coefficients(theta, w), theta
            )
            assert residual <= 1e-12 * abs(w)
            assert transformed.j_xx == pytest.approx(closed.j_xx, rel=1e-12, abs=1e-12 * abs(w))
            assert transformed.j_yy == pytest.approx(closed.j_yy, rel=1e-12, abs=1e-12 * abs(w))
            assert transformed.j_zz == pytest.approx(closed.j_zz, rel=1e-12, abs=1e-12 * abs(w))
            assert abs(transformed.j_xz) == pytest.approx(
                abs(closed.j_xz), rel=1e-12, abs=1e-12 * abs(w)
            )
