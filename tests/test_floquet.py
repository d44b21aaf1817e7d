import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floquetdd import floquet
from floquetdd.errors import (
    DegenerateQuasienergiesError,
    SidebandTruncationError,
    UndefinedMixingAngleError,
)
from floquetdd.floquet import (
    SIGMA_X,
    SIGMA_Z,
    DriveParams,
    TimeGrid,
    dressed_states,
    floquet_solve,
    propagate_period,
    quasienergy_magnitude_map,
)
from floquetdd.validity import tau_mu
from oracles import fold_to_zone, sambe_floquet

OMEGA = 1e10


def lab_hamiltonian(drive, t):
    """H(t) = rabi cos(w t) sigma_x + (omega_eg / 2) sigma_z in the basis {|e>, |g>}."""
    return drive.rabi * np.cos(drive.omega * t) * SIGMA_X + 0.5 * drive.omega_eg * SIGMA_Z


def sequential_cf4_propagators(drive, n):
    """Reference U(t_k, 0): the CF4 steps as scipy expm, multiplied one by one."""
    from scipy.linalg import expm

    dt = drive.period / n
    c1, c2 = 0.5 - np.sqrt(3.0) / 6.0, 0.5 + np.sqrt(3.0) / 6.0
    a1, a2 = 0.25 - np.sqrt(3.0) / 6.0, 0.25 + np.sqrt(3.0) / 6.0
    out = [np.eye(2, dtype=complex)]
    for k in range(n):
        h1 = lab_hamiltonian(drive, (k + c1) * dt)
        h2 = lab_hamiltonian(drive, (k + c2) * dt)
        step = expm(-1j * dt * (a1 * h1 + a2 * h2)) @ expm(-1j * dt * (a2 * h1 + a1 * h2))
        out.append(step @ out[-1])
    return np.array(out)


def solve(rabi, omega_eg, n=1024, omega=OMEGA):
    drive = DriveParams(omega=omega, rabi=rabi, omega_eg=omega_eg)
    return floquet_solve(drive, TimeGrid.for_drive(drive, n))


class TestFoldToZone:
    """The zone fold of the rotating-wave references (tests/oracles.py)."""

    def test_examples(self):
        assert fold_to_zone(0.75 * OMEGA, OMEGA) == pytest.approx(-0.25 * OMEGA)
        assert fold_to_zone(0.0, OMEGA) == 0.0
        assert fold_to_zone(0.55 * OMEGA, OMEGA) == pytest.approx(-0.45 * OMEGA)

    def test_edge_maps_to_plus_half(self):
        assert fold_to_zone(0.5 * OMEGA, OMEGA) == pytest.approx(0.5 * OMEGA)
        assert fold_to_zone(-0.5 * OMEGA, OMEGA) == pytest.approx(0.5 * OMEGA)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            fold_to_zone(np.nan, OMEGA)
        with pytest.raises(ValueError):
            fold_to_zone(1.0, np.inf)

    @given(
        mu=st.floats(-50.0, 50.0),
        omega=st.floats(0.1, 10.0),
    )
    def test_in_zone_and_congruent(self, mu, omega):
        folded = fold_to_zone(mu, omega)
        assert -0.5 * omega < folded <= 0.5 * omega * (1 + 1e-12)
        cycles = (mu - folded) / omega
        assert abs(cycles - round(cycles)) < 1e-9


class TestPropagatePeriod:
    def test_undriven_is_diagonal_phase(self):
        drive = DriveParams(omega=OMEGA, rabi=0.0, omega_eg=0.3 * OMEGA)
        grid = TimeGrid.for_drive(drive, 256)
        props = propagate_period(drive, grid)
        times = np.append(grid.times(), grid.period)
        for k in (0, 17, 100, 256):
            expected = np.diag(
                [
                    np.exp(-0.5j * drive.omega_eg * times[k]),
                    np.exp(+0.5j * drive.omega_eg * times[k]),
                ]
            )
            np.testing.assert_allclose(props[k], expected, atol=1e-12)

    @pytest.mark.parametrize("n", [64, 2048])
    @pytest.mark.parametrize("rabi_frac", [0.0, 0.8])
    @pytest.mark.parametrize("omega_eg_frac", [0.1, 1.9])
    def test_every_sample_matches_sequential_product(self, n, rabi_frac, omega_eg_frac):
        drive = DriveParams(omega=OMEGA, rabi=rabi_frac * OMEGA, omega_eg=omega_eg_frac * OMEGA)
        props = propagate_period(drive, TimeGrid.for_drive(drive, n))
        reference = sequential_cf4_propagators(drive, n)
        assert np.max(np.abs(props - reference)) <= 1e-13

    def test_unitarity(self):
        drive = DriveParams(omega=OMEGA, rabi=0.6 * OMEGA, omega_eg=1.3 * OMEGA)
        props = propagate_period(drive, TimeGrid.for_drive(drive, 512))
        for u in props[:: 64]:
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)
        assert np.allclose(props[0], np.eye(2))

    def test_monodromy_matches_refined_grid(self):
        # Oracle: the same propagation on an 8x finer grid.
        drive = DriveParams(omega=OMEGA, rabi=0.01 * OMEGA, omega_eg=OMEGA)
        coarse = propagate_period(drive, TimeGrid.for_drive(drive, 512))[-1]
        fine = propagate_period(drive, TimeGrid.for_drive(drive, 4096))[-1]
        phases_c = np.sort(np.angle(np.linalg.eigvals(coarse)))
        phases_f = np.sort(np.angle(np.linalg.eigvals(fine)))
        assert np.max(np.abs(phases_c - phases_f)) <= 1e-10 * 2 * np.pi

    def test_monodromy_matches_adaptive_ode_solver(self):
        # Independent oracle: scipy's adaptive integrator on the Schrodinger
        # equation in natural units.
        from scipy.integrate import solve_ivp

        drive = DriveParams(omega=1.0, rabi=0.35, omega_eg=0.8)

        def rhs(t, y):
            u = y.reshape(2, 2)
            return (-1j * lab_hamiltonian(drive, t) @ u).reshape(-1)

        result = solve_ivp(
            rhs,
            (0.0, drive.period),
            np.eye(2, dtype=complex).reshape(-1),
            rtol=1e-12,
            atol=1e-14,
        )
        reference = result.y[:, -1].reshape(2, 2)
        ours = propagate_period(drive, TimeGrid.for_drive(drive, 1024))[-1]
        assert np.max(np.abs(ours - reference)) < 1e-9


class TestFloquetSolve:
    def test_undriven_atom(self):
        sol = solve(0.0, 0.3 * OMEGA)
        assert {round(sol.mu_plus / OMEGA, 9), round(sol.mu_minus / OMEGA, 9)} == {
            0.15,
            -0.15,
        }
        # detuning > 0 puts the "+" branch on |g>, the lower folded branch
        assert sol.mu_plus == pytest.approx(-0.15 * OMEGA, rel=1e-12)
        spread = np.max(np.abs(sol.modes - sol.modes[:, :1, :]), axis=(1, 2))
        assert np.all(spread < 1e-12)
        weights = sol.sideband_weights(0)
        center = sol.truncation
        assert weights[center] == pytest.approx(1.0, abs=1e-12)
        assert np.sum(weights) - weights[center] < 1e-12

    def test_weak_drive_matches_folded_rwa(self):
        # Oracle: dressed quasienergies (omega +- omega_gen)/2, zone folded.
        for rabi_frac in (0.005, 0.01, 0.02):
            sol = solve(rabi_frac * OMEGA, OMEGA)
            omega_gen = dressed_states(sol.drive).omega_gen
            rwa_plus, rwa_minus = 0.5 * (OMEGA + omega_gen), 0.5 * (OMEGA - omega_gen)
            assert abs(sol.mu_plus - fold_to_zone(rwa_plus, OMEGA)) <= 1e-4 * OMEGA
            assert abs(sol.mu_minus - fold_to_zone(rwa_minus, OMEGA)) <= 1e-4 * OMEGA

    def test_equal_time_orthonormality(self):
        sol = solve(0.4 * OMEGA, 0.9 * OMEGA)
        for k in (0, 100, 777):
            gram = sol.modes[:, k, :].conj() @ sol.modes[:, k, :].T
            np.testing.assert_allclose(gram, np.eye(2), atol=1e-10)

    def test_parseval(self):
        for rabi_frac in (0.0, 0.3, 0.8):
            sol = solve(rabi_frac * OMEGA, 0.7 * OMEGA)
            for branch in (0, 1):
                total = np.sum(sol.sideband_weights(branch))
                assert total == pytest.approx(1.0, abs=1e-10)

    def test_zone_condition(self):
        sol = solve(0.5 * OMEGA, OMEGA)
        assert 2 * abs(sol.mu_plus) < OMEGA

    def test_degenerate_monodromy_raises(self):
        with pytest.raises(DegenerateQuasienergiesError):
            solve(0.0, OMEGA)

    def test_grid_doubling_convergence(self):
        for rabi_frac in (0.02, 0.2, 0.5):
            sol_a = solve(rabi_frac * OMEGA, OMEGA, n=1024)
            sol_b = solve(rabi_frac * OMEGA, OMEGA, n=2048)
            assert abs(sol_a.mu_plus - sol_b.mu_plus) < 1e-9 * OMEGA
            assert abs(sol_a.mu_minus - sol_b.mu_minus) < 1e-9 * OMEGA

    def test_label_continuity_along_sweep(self):
        # No branch swap between neighboring Rabi values at fixed detuning.
        delta = 0.1 * OMEGA
        sweep = np.arange(0.05, 0.3, 1e-3) * OMEGA
        previous = None
        for rabi in sweep:
            sol = solve(rabi, OMEGA - delta, n=256)
            if previous is not None:
                assert abs(sol.mu_plus - previous) < 2e-3 * OMEGA
            previous = sol.mu_plus

    def test_truncation_bounds(self):
        # The cutoff is the smallest of 16, 18, ..., n/4 that leaves below
        # 1e-12 of the Fourier weight; at n = 64 even 16 sidebands leave 0.42.
        drive = DriveParams(omega=OMEGA, rabi=20.0 * OMEGA, omega_eg=0.9 * OMEGA)
        with pytest.raises(SidebandTruncationError, match="numerics.n_samples"):
            floquet_solve(drive, TimeGrid.for_drive(drive, 64))
        sol = floquet_solve(drive, TimeGrid.for_drive(drive, 256))
        assert sol.truncation == 34
        weights = [sol.sideband_weights(branch) for branch in (0, 1)]
        assert max(1.0 - w.sum() for w in weights) < 1e-12
        assert max(1.0 - w[2:-2].sum() for w in weights) >= 1e-12  # 32 would not do


class TestClosedForm:
    """floquet_solve reads mu and the Floquet vectors from the monodromy pair."""

    # An undriven atom has the quasienergies +-omega_eg / 2: omega_eg near 0
    # puts the spacing 2|mu_+| at the zone centre, near omega the spacing
    # omega - 2|mu_+| at the zone edge.
    @pytest.mark.parametrize("edge", [False, True], ids=["centre", "edge"])
    def test_collision_floor(self, edge):
        def undriven(spacing):
            return solve(0.0, OMEGA * (1.0 - spacing) if edge else OMEGA * spacing)

        with pytest.raises(DegenerateQuasienergiesError, match="5.0e-13 omega lies below the floor 1e-12"):
            undriven(5e-13)
        sol = undriven(2e-12)
        spacing = OMEGA - 2.0 * abs(sol.mu_plus) if edge else 2.0 * abs(sol.mu_plus)
        assert spacing == pytest.approx(2e-12 * OMEGA, rel=1e-3)
        # tau_mu reads the same floor: finite where the solve succeeds
        assert np.isfinite(tau_mu(sol.drive, sol))

    def test_pair_and_vectors_on_random_drives(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(2 ** rng.integers(6, 12))
            sol = solve(rng.uniform(0.0, 0.8) * OMEGA, rng.uniform(0.1, 1.9) * OMEGA, n=n)
            assert sol.mu_minus == -sol.mu_plus
            vectors = sol.modes[:, 0, :]  # phi_b(0), the Floquet vectors
            assert np.max(np.abs(vectors.conj() @ vectors.T - np.eye(2))) <= 1e-15
            # eigenpairs of the monodromy: measured residual 1.4e-14
            monodromy = propagate_period(sol.drive, sol.grid)[-1]
            for vector, mu in zip(vectors, (sol.mu_plus, sol.mu_minus)):
                residual = monodromy @ vector - np.exp(-1j * mu * sol.grid.period) * vector
                assert np.max(np.abs(residual)) <= 3e-14


class TestRememberedSolution:
    """floquet_solve hands back its last solution for an equal (drive, grid)."""

    @pytest.fixture
    def propagations(self, monkeypatch):
        """Start from an empty slot and count the calls of propagate_period."""
        calls = []

        def counted(drive, grid):
            calls.append((drive, grid))
            return propagate_period(drive, grid)

        floquet_solve.cache_clear()
        monkeypatch.setattr(floquet, "propagate_period", counted)
        return calls

    def test_repeat_returns_the_same_object(self, propagations):
        drive = DriveParams(omega=OMEGA, rabi=0.2 * OMEGA, omega_eg=0.9 * OMEGA)
        first = floquet_solve(drive, TimeGrid.for_drive(drive, 256))
        again = floquet_solve(
            DriveParams(omega=OMEGA, rabi=0.2 * OMEGA, omega_eg=0.9 * OMEGA),
            TimeGrid.for_drive(drive, 256),
        )
        assert again is first
        assert len(propagations) == 1

    @pytest.mark.parametrize(
        "changed",
        [
            {"rabi": 0.3 * OMEGA},
            {"omega_eg": 0.8 * OMEGA},
            {"n_samples": 512},
        ],
        ids=["rabi", "omega_eg", "n_samples"],
    )
    def test_changed_input_recomputes(self, propagations, changed):
        base = {"rabi": 0.2 * OMEGA, "omega_eg": 0.9 * OMEGA, "n_samples": 256}
        first = solve(base["rabi"], base["omega_eg"], n=base["n_samples"])
        other = {**base, **changed}
        second = solve(other["rabi"], other["omega_eg"], n=other["n_samples"])
        assert second is not first
        assert len(propagations) == 2
        assert second.drive.rabi == other["rabi"]
        assert second.drive.omega_eg == other["omega_eg"]
        assert second.grid.n_samples == other["n_samples"]

    def test_arrays_are_read_only(self):
        sol = solve(0.2 * OMEGA, 0.9 * OMEGA, n=256)
        with pytest.raises(ValueError, match="read-only"):
            sol.modes[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            sol.fourier[0, 0, 0] = 1.0

    def test_refused_solve_raises_on_every_repeat(self, propagations):
        degenerate = DriveParams(omega=OMEGA, rabi=0.0, omega_eg=OMEGA)
        unresolved = DriveParams(omega=OMEGA, rabi=20.0 * OMEGA, omega_eg=0.9 * OMEGA)
        for _ in range(2):
            with pytest.raises(DegenerateQuasienergiesError):
                floquet_solve(degenerate, TimeGrid.for_drive(degenerate, 256))
        for _ in range(2):
            with pytest.raises(SidebandTruncationError):
                floquet_solve(unresolved, TimeGrid.for_drive(unresolved, 64))
        assert len(propagations) == 4

    def test_negative_zero_rabi_matches_a_fresh_solve(self):
        plus = DriveParams(omega=OMEGA, rabi=0.0, omega_eg=0.9 * OMEGA)
        minus = DriveParams(omega=OMEGA, rabi=-0.0, omega_eg=0.9 * OMEGA)
        grid = TimeGrid.for_drive(plus, 256)
        floquet_solve(plus, grid)
        reused = floquet_solve(minus, grid)
        floquet_solve.cache_clear()
        fresh = floquet_solve(minus, grid)
        assert fresh is not reused
        assert reused.modes.tobytes() == fresh.modes.tobytes()
        assert reused.fourier.tobytes() == fresh.fourier.tobytes()
        assert (reused.mu_plus, reused.mu_minus, reused.truncation) == (
            fresh.mu_plus,
            fresh.mu_minus,
            fresh.truncation,
        )


class TestSambeOracle:
    # Oracle: the truncated Sambe-Shirley Floquet Hamiltonian, which shares no
    # code with the CF4 propagation.  +-40 blocks hold the sidebands of every
    # drive here (rabi <= 0.8 w) far below the bound; measured 2.8e-13 w on
    # the quasienergies and 5.9e-13 on the sideband weights.
    N_BLOCKS = 40
    BOUND = 1e-10

    def test_quasienergies_and_sideband_weights(self):
        rng = np.random.default_rng(0)
        drives = [(0.5, rng.uniform(0.1, 1.9))]
        drives += [(rng.uniform(0.0, 0.8), rng.uniform(0.1, 1.9)) for _ in range(29)]
        for rabi_frac, omega_eg_frac in drives:
            sol = solve(rabi_frac * OMEGA, omega_eg_frac * OMEGA)
            values, blocks = sambe_floquet(sol.drive, self.N_BLOCKS)
            for branch, mu in enumerate((sol.mu_plus, sol.mu_minus)):
                k = int(np.argmin(np.abs(values - mu)))
                assert abs(values[k] - mu) <= self.BOUND * OMEGA
                weights = np.sum(np.abs(blocks[:, :, k]) ** 2, axis=1)
                kept = weights[self.N_BLOCKS - sol.truncation : self.N_BLOCKS + sol.truncation + 1]
                assert np.max(np.abs(kept - sol.sideband_weights(branch))) <= self.BOUND


class TestDressedStates:
    def test_resonant(self):
        ds = dressed_states(DriveParams(omega=OMEGA, rabi=1e8, omega_eg=OMEGA))
        assert ds.theta_m == pytest.approx(np.pi / 2)
        assert ds.omega_gen == pytest.approx(1e8)

    def test_equal_detuning_and_rabi(self):
        # delta = rabi > 0 means cos(theta) = -1/sqrt(2)
        drive = DriveParams(omega=OMEGA, rabi=1e8, omega_eg=OMEGA - 1e8)
        assert dressed_states(drive).theta_m == pytest.approx(0.75 * np.pi)

    def test_weak_drive_positive_detuning_limit(self):
        drive = DriveParams(omega=OMEGA, rabi=1.0, omega_eg=0.7 * OMEGA)
        ds = dressed_states(drive)
        assert ds.theta_m == pytest.approx(np.pi, abs=1e-6)
        np.testing.assert_allclose(ds.plus_state(), [0.0, 1.0], atol=1e-6)

    def test_zero_generalized_rabi_rejected(self):
        with pytest.raises(UndefinedMixingAngleError):
            dressed_states(DriveParams(omega=OMEGA, rabi=0.0, omega_eg=OMEGA))

    @given(
        rabi=st.floats(1e-3, 1.0),
        detuning=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=50)
    def test_defining_relations(self, rabi, detuning):
        drive = DriveParams.from_detuning(omega=10.0, rabi=rabi, detuning=detuning)
        ds = dressed_states(drive)
        assert np.cos(ds.theta_m) == pytest.approx(-detuning / ds.omega_gen, abs=1e-12)
        overlap = np.vdot(ds.plus_state(), ds.minus_state())
        assert abs(overlap) < 1e-12


class TestDriveParams:
    def test_detuning_is_derived(self):
        drive = DriveParams(omega=OMEGA, rabi=0.0, omega_eg=0.7 * OMEGA)
        assert drive.detuning == OMEGA - 0.7 * OMEGA
        same = DriveParams.from_detuning(omega=OMEGA, rabi=0.0, detuning=0.3 * OMEGA)
        assert same.omega_eg == pytest.approx(0.7 * OMEGA)

    def test_validation(self):
        with pytest.raises(ValueError):
            DriveParams(omega=-1.0, rabi=0.0, omega_eg=1.0)
        with pytest.raises(ValueError):
            DriveParams(omega=1.0, rabi=-0.1, omega_eg=1.0)
        with pytest.raises(ValueError):
            DriveParams(omega=1.0, rabi=np.inf, omega_eg=1.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(n_samples=100, period=1.0)
        with pytest.raises(ValueError):
            TimeGrid(n_samples=32, period=1.0)

    # A grid of another period would propagate over the wrong interval: twice
    # the Rydberg period gave mu_+ = +0.005 omega instead of -0.495 omega.
    @pytest.mark.parametrize("period", [2.0 * 2.0 * np.pi / OMEGA, 1.0], ids=["double", "one-second"])
    def test_grid_of_another_period_is_refused(self, period):
        drive = DriveParams(omega=OMEGA, rabi=0.01 * OMEGA, omega_eg=OMEGA)
        grid = TimeGrid(n_samples=1024, period=period)
        for call in (propagate_period, floquet_solve):
            message = f"grid period {period!r} s differs from the drive period {drive.period!r} s"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(drive, grid)

    def test_hamiltonian_samples(self):
        # the lab-frame H(t) that the CF4 and ODE references above integrate
        drive = DriveParams(omega=2.0, rabi=0.5, omega_eg=1.4)
        h0 = lab_hamiltonian(drive, 0.0)
        np.testing.assert_allclose(h0, [[0.7, 0.5], [0.5, -0.7]], atol=1e-15)
        quarter = lab_hamiltonian(drive, np.pi / 2)  # cos(w t) = -1
        np.testing.assert_allclose(quarter, [[0.7, -0.5], [-0.5, -0.7]], atol=1e-12)


class TestQuasienergyMap:
    def test_matches_full_solve(self):
        rabi = np.array([0.0, 0.1 * OMEGA, 0.3 * OMEGA])
        omega_eg = np.array([0.8 * OMEGA, 1.2 * OMEGA])
        mu_abs, half_trace = quasienergy_magnitude_map(rabi, omega_eg, OMEGA, n_samples=512)
        for i, r in enumerate(rabi):
            for j, w in enumerate(omega_eg):
                sol = solve(r, w, n=512)
                assert mu_abs[i, j] == pytest.approx(abs(sol.mu_plus), rel=1e-10)
                monodromy = propagate_period(sol.drive, sol.grid)[-1]
                assert abs(half_trace[i, j] - 0.5 * np.trace(monodromy).real) <= 1e-13

    def test_input_validation(self):
        with pytest.raises(ValueError):
            quasienergy_magnitude_map([], [1.0], 1.0, 512)
        with pytest.raises(ValueError):
            quasienergy_magnitude_map([1.0], [1.0], -1.0, 512)
