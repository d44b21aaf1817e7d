import numpy as np
import pytest
from scipy import constants

from floquetdd.bath import AtomGeometry, BathParams
from floquetdd.floquet import (
    DriveParams,
    FloquetSolution,
    TimeGrid,
    dressed_states,
    floquet_solve,
    quasienergy_magnitude_map,
)
from floquetdd.validity import HIERARCHY_MARGIN, scan_tau_map, tau_mu, timescale_report

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
OMEGA = 1e10
RYDBERG = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
VACUUM = BathParams(temperature=0.0)


def solve(rabi, omega_eg, n=1024):
    drive = DriveParams(omega=OMEGA, rabi=rabi, omega_eg=omega_eg)
    return floquet_solve(drive, TimeGrid.for_drive(drive, n)), drive


def fake_solution(drive, mu_plus):
    grid = TimeGrid.for_drive(drive, 64)
    return FloquetSolution(
        drive=drive,
        grid=grid,
        mu_plus=mu_plus,
        modes=np.zeros((2, 64, 2), dtype=complex),
        fourier=np.zeros((2, 3, 2), dtype=complex),
    )


class TestTauMu:
    def test_resonant_moderate_drive(self):
        sol, drive = solve(0.05 * OMEGA, OMEGA)
        # |mu_+| = 0.475 w: spacings (0.05, 0.95, 0.9) w -> 0.05 w wins
        assert 1.0 / tau_mu(drive, sol) == pytest.approx(0.05 * OMEGA, rel=1e-3)

    def test_quarter_zone_divergence(self):
        drive = DriveParams(omega=OMEGA, rabi=0.1 * OMEGA, omega_eg=OMEGA)
        sol = fake_solution(drive, 0.25 * OMEGA)
        assert tau_mu(drive, sol) == np.inf

    def test_weak_drive_inverse_is_generalized_rabi(self):
        for rabi_frac in (0.01, 0.03, 0.05):
            sol, drive = solve(rabi_frac * OMEGA, OMEGA)
            omega_gen = dressed_states(drive).omega_gen
            assert 1.0 / tau_mu(drive, sol) == pytest.approx(omega_gen, rel=0.05)

    def test_weak_drive_one_percent_band(self):
        for rabi_frac in (0.005, 0.01, 0.02):
            sol, drive = solve(rabi_frac * OMEGA, OMEGA)
            rwa = dressed_states(drive).omega_gen
            assert 1.0 / tau_mu(drive, sol) == pytest.approx(rwa, rel=0.01)

    def test_never_exceeds_center_spacing(self):
        for rabi_frac, eg_frac in ((0.1, 1.0), (0.4, 0.7), (0.7, 1.5)):
            sol, drive = solve(rabi_frac * OMEGA, eg_frac * OMEGA)
            assert 1.0 / tau_mu(drive, sol) <= 2 * abs(sol.mu_plus) * (1 + 1e-12)

    def test_zone_violation_rejected(self):
        drive = DriveParams(omega=OMEGA, rabi=0.1 * OMEGA, omega_eg=OMEGA)
        sol = fake_solution(drive, 0.5 * OMEGA)
        with pytest.raises(ValueError):
            tau_mu(drive, sol)


class TestScanTauMap:
    def test_single_point_matches_direct(self):
        sol, drive = solve(0.2 * OMEGA, 0.8 * OMEGA, n=512)
        tmap = scan_tau_map([0.2 * OMEGA], [0.8 * OMEGA], OMEGA, n_samples=512)
        direct = 1.0 / tau_mu(drive, sol) / OMEGA
        assert tmap.tau_inv_over_omega[0, 0] == pytest.approx(direct, rel=1e-12)

    def test_detuning_mirror_symmetry(self):
        # Oracle: direct evaluation at the mirrored points.  |mu_+| depends
        # on detuning^2 only within the rotating wave approximation; beyond
        # it the counter-rotating (Bloch-Siegert) correction ~ rabi^2/(4 w)
        # breaks the reflection, so exact 1e-8 symmetry is only reachable
        # where that correction is below tolerance.
        rabi_tiny = np.array([2e-5, 5e-5, 1e-4]) * OMEGA
        deltas = np.linspace(0.005 * OMEGA, 0.04 * OMEGA, 6)
        upper = scan_tau_map(rabi_tiny, OMEGA + deltas, OMEGA, n_samples=512)
        lower = scan_tau_map(rabi_tiny, OMEGA - deltas, OMEGA, n_samples=512)
        np.testing.assert_allclose(
            upper.tau_inv_over_omega, lower.tau_inv_over_omega, atol=1e-8
        )
        # full weak-drive strip: asymmetry bounded by the Bloch-Siegert scale
        rabi = np.linspace(0.01 * OMEGA, 0.05 * OMEGA, 5)
        upper = scan_tau_map(rabi, OMEGA + deltas, OMEGA, n_samples=512)
        lower = scan_tau_map(rabi, OMEGA - deltas, OMEGA, n_samples=512)
        asymmetry = np.abs(upper.tau_inv_over_omega - lower.tau_inv_over_omega)
        assert asymmetry.max() <= (rabi.max() / OMEGA) ** 2 / 2

    def test_weak_drive_column_vanishes_on_resonance(self):
        tmap = scan_tau_map(np.linspace(0.0, 0.04, 5) * OMEGA, [OMEGA], OMEGA, n_samples=512)
        values = tmap.tau_inv_over_omega[:, 0]
        assert values[0] == 0.0
        assert tmap.diverged[0, 0] == 1
        assert np.all(np.diff(values) > 0)
        np.testing.assert_allclose(values[1:], np.linspace(0.01, 0.04, 4), rtol=1e-3)

    def test_stripes_are_connected(self):
        rabi = np.linspace(0.0, 0.8 * OMEGA, 60)
        omega_eg = np.linspace(0.1 * OMEGA, 1.9 * OMEGA, 60)
        tmap = scan_tau_map(rabi, omega_eg, OMEGA, n_samples=256)
        flags = tmap.diverged.astype(bool)
        assert flags.sum() > 0
        for i in range(flags.shape[0]):
            for j in range(flags.shape[1]):
                if flags[i, j]:
                    window = flags[max(0, i - 1) : i + 2, max(0, j - 1) : j + 2]
                    assert window.sum() > 1, f"isolated divergence flag at {(i, j)}"

    # The undriven atom at the zone edge, omega_eg = omega (1 - eps), and the
    # zone centre, omega_eg = 2 omega (1 - eps): the exact minimal spacing is
    # omega - omega_eg and 2 omega - omega_eg.  Re alpha lies within
    # (pi eps)^2 / 2 of -1 or +1 there, where arccos(Re alpha) kept only half
    # the digits and reported spacings off by up to 1.2e-7 omega.
    @pytest.mark.parametrize("n_samples", [256, 512, 1024])
    @pytest.mark.parametrize("zone_omegas", [1.0, 2.0], ids=["edge", "centre"])
    def test_zone_edge_and_centre_resolved(self, n_samples, zone_omegas):
        eps = np.array([1e-11, 1e-10, 1e-9, 1e-8, 3e-8, 1e-7, 1e-5])
        omega_eg = zone_omegas * OMEGA * (1.0 - eps)
        tmap = scan_tau_map([0.0], omega_eg, OMEGA, n_samples=n_samples)
        values = tmap.tau_inv_over_omega[0]
        exact = (zone_omegas * OMEGA - omega_eg) / OMEGA
        assert np.max(np.abs(values - exact)) <= 1e-14
        assert not tmap.diverged.any()
        for value, w_eg in zip(values, omega_eg):
            sol, drive = solve(0.0, w_eg, n=n_samples)
            assert abs(value - 1.0 / tau_mu(drive, sol) / OMEGA) <= 1e-14

    @pytest.mark.parametrize("n_samples", [0, -4, 63, 100])
    def test_sample_count_refused(self, n_samples):
        with pytest.raises(ValueError, match="power of two"):
            quasienergy_magnitude_map([0.1 * OMEGA], [OMEGA], OMEGA, n_samples)
        with pytest.raises(ValueError, match="power of two"):
            scan_tau_map([0.1 * OMEGA], [OMEGA], OMEGA, n_samples=n_samples)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            scan_tau_map([], [1e9], OMEGA, n_samples=512)

    # NaN passes the sign checks (every comparison with it is false) and inf
    # passes them too; either one gave a wrong, unflagged cell.
    @pytest.mark.parametrize(
        "rabi, omega_eg", [([np.nan, 1e9], [1e10]), ([1e9], [np.inf])], ids=["nan", "inf"]
    )
    def test_non_finite_grid_refused(self, rabi, omega_eg):
        with pytest.raises(ValueError, match="finite"):
            scan_tau_map(rabi, omega_eg, OMEGA, n_samples=64)
        with pytest.raises(ValueError, match="finite"):
            quasienergy_magnitude_map(rabi, omega_eg, OMEGA, 64)

    def test_thread_count_does_not_change_results(self):
        rabi = np.linspace(0.0, 0.5 * OMEGA, 16)
        omega_eg = np.linspace(0.5 * OMEGA, 1.5 * OMEGA, 8)
        a = scan_tau_map(rabi, omega_eg, OMEGA, n_samples=256, threads=1)
        b = scan_tau_map(rabi, omega_eg, OMEGA, n_samples=256, threads=4)
        assert np.array_equal(a.tau_inv_over_omega, b.tau_inv_over_omega)
        assert np.array_equal(a.diverged, b.diverged)

    # From 16,384 cells on, a whole grid reaches the size at which numpy's
    # temporary elision reorders an operator-written complex product, while
    # the two thread halves do not: with the SU(2) product so written, 1,807
    # and 2,896 cells differed between one and two threads.
    @pytest.mark.parametrize("side", [130, 181])
    def test_thread_count_does_not_change_large_grids(self, side):
        rabi = np.linspace(0.0, 0.8 * OMEGA, side)
        omega_eg = np.linspace(0.1 * OMEGA, 1.9 * OMEGA, side)
        one, two = (scan_tau_map(rabi, omega_eg, OMEGA, n_samples=64, threads=t) for t in (1, 2))
        assert np.array_equal(one.tau_inv_over_omega, two.tau_inv_over_omega)
        assert np.array_equal(one.diverged, two.diverged)


class TestTimescaleReport:
    def test_rydberg_example(self):
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        report = timescale_report(drive, RYDBERG, VACUUM, n_samples=1024)
        assert report.tau_omega == pytest.approx(1e-10)
        assert report.tau_omega_gen == pytest.approx(1e-8)
        assert report.tau_mu == pytest.approx(1e-8, rel=1e-3)
        assert report.tau_s == pytest.approx(1e-5, rel=0.1)
        assert report.hierarchy_ok

    def test_undriven_resonant_divergence(self):
        drive = DriveParams(omega=1e10, rabi=0.0, omega_eg=1e10)
        report = timescale_report(drive, RYDBERG, VACUUM, n_samples=1024)
        assert report.tau_mu == np.inf
        assert not report.hierarchy_ok

    def test_distant_atoms_keep_hierarchy(self):
        far = AtomGeometry(separation=1e20, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        report = timescale_report(drive, far, VACUUM, n_samples=1024)
        assert report.hierarchy_ok
        assert report.tau_s / report.tau_mu > 1e6

    def test_margin_factor_is_configurable(self):
        # Both sides of the margin: rabi/omega = 0.05 gives tau_mu/tau_omega
        # = 20, above HIERARCHY_MARGIN; rabi/omega = 0.2 gives 5, below it.
        assert HIERARCHY_MARGIN == 10.0
        holds = timescale_report(DriveParams(omega=1e10, rabi=5e8, omega_eg=1e10), RYDBERG, VACUUM, 1024)
        fails = timescale_report(DriveParams(omega=1e10, rabi=2e9, omega_eg=1e10), RYDBERG, VACUUM, 1024)
        assert holds.tau_mu / holds.tau_omega == pytest.approx(20.0, rel=1e-3)
        assert holds.hierarchy_ok
        assert fails.tau_mu / fails.tau_omega < HIERARCHY_MARGIN
        assert not fails.hierarchy_ok
