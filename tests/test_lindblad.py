import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants
from scipy.integrate import solve_ivp

from floquetdd.bath import AtomGeometry, BathParams, gamma_thermal_pair, gamma_thermal_single
from floquetdd.errors import HierarchyViolationError, SteadyStateDegeneracyError
from floquetdd.floquet import DriveParams
from floquetdd.lindblad import (
    LindbladModel,
    build_liouvillian,
    coarse_grained_coefficients,
    evolve,
    fme_vs_obe_compare,
    obe_reference,
    smoothed_populations,
    steady_state,
    validate_density_matrix,
)

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
LOWER = np.array([[0, 0], [1, 0]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

RYDBERG = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
VACUUM = BathParams(temperature=0.0)

# geometry with retardation phase ~ 1 so collective and single-atom rates
# differ at order one and steady-state gaps are resolvable
CLOSE = AtomGeometry(separation=constants.c / 1e10, dipole_mag=4e8 * E_A0, theta_d=np.pi / 2)


def excited():
    return np.diag([1.0, 0.0]).astype(complex)


class TestModelValidation:
    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            LindbladModel(hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            LindbladModel(hamiltonian=np.zeros((2, 2)), channels=((-1.0, LOWER),))

    def test_roundoff_negative_rate_clamped(self):
        with pytest.warns(UserWarning):
            model = LindbladModel(
                hamiltonian=np.zeros((2, 2)),
                channels=((1.0, LOWER), (-1e-13, LOWER)),
            )
        assert model.channels[1][0] == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            LindbladModel(hamiltonian=np.zeros((4, 4)), channels=((1.0, LOWER),))


class TestLiouvillian:
    def test_amplitude_damping_decay(self):
        gamma = 2.0
        model = LindbladModel(hamiltonian=np.zeros((2, 2)), channels=((gamma, LOWER),))
        times = np.linspace(0.0, 3.0, 13)
        traj = evolve(model, excited(), times)
        for t, rho in zip(times, traj):
            assert rho[0, 0].real == pytest.approx(np.exp(-gamma * t), abs=1e-8)

    def test_spectrum_structure(self):
        model = LindbladModel(hamiltonian=0.7 * SZ, channels=((0.3, LOWER),))
        liou = build_liouvillian(model)
        eigenvalues = np.linalg.eigvals(liou)
        scale = np.abs(eigenvalues).max()
        assert eigenvalues.real.max() <= 1e-10 * scale
        assert np.min(np.abs(eigenvalues)) <= 1e-10 * scale

    def test_trace_preservation(self):
        model = LindbladModel(hamiltonian=1.3 * SX, channels=((0.4, LOWER),))
        liou = build_liouvillian(model)
        identity_vec = np.eye(2, dtype=complex).reshape(-1)
        assert np.linalg.norm(identity_vec.conj() @ liou) < 1e-12 * np.linalg.norm(liou)

    @pytest.mark.parametrize("d", [2, 4, 8])
    def test_equals_kron_assembly(self, d):
        # Oracle: the same formula assembled with np.kron, term for term in
        # the same order; the superoperator must agree to the last bit.
        rng = np.random.default_rng(d)
        for _ in range(20):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (a + a.conj().T)
            channels = tuple(
                (rng.uniform(0.0, 3.0), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for _ in range(rng.integers(1, 7))
            )
            ident = np.eye(d, dtype=complex)
            expected = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
            for rate, op in channels:
                ldl = op.conj().T @ op
                expected += rate * (
                    np.kron(op, op.conj()) - 0.5 * np.kron(ldl, ident) - 0.5 * np.kron(ident, ldl.T)
                )
            liou = build_liouvillian(LindbladModel(hamiltonian=h, channels=channels))
            np.testing.assert_array_equal(liou, expected)

    def test_evolve_matches_ode_oracle_on_random_model(self):
        # Oracle: the matrix-form master equation integrated by an adaptive
        # Runge-Kutta solver, independent of the superoperator layout.  The
        # times are non-uniform, repeat one entry and start after t = 0.
        rng = np.random.RandomState(7)
        a = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        h = 0.5 * (a + a.conj().T)
        jumps = [rng.randn(4, 4) + 1j * rng.randn(4, 4) for _ in range(2)]
        model = LindbladModel(hamiltonian=h, channels=((0.8, jumps[0]), (0.3, jumps[1])))
        rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        times = np.array([0.15, 0.2, 0.2, 0.45, 0.7, 1.3])

        def rhs(_, y):
            rho = y.reshape(4, 4)
            out = -1j * (h @ rho - rho @ h)
            for rate, op in model.channels:
                ldl = op.conj().T @ op
                out += rate * (op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
            return out.reshape(-1)

        t_eval, repeat = np.unique(times, return_inverse=True)
        oracle = solve_ivp(
            rhs, (0.0, times[-1]), rho0.reshape(-1), method="DOP853",
            t_eval=t_eval, rtol=1e-12, atol=1e-14,
        )
        expected = oracle.y.T.reshape(-1, 4, 4)[repeat]
        traj = evolve(model, rho0, times)
        assert np.max(np.abs(traj - expected)) < 1e-9


class TestEvolve:
    def test_unitary_precession_preserves_purity(self):
        model = LindbladModel(hamiltonian=0.5 * 2.1 * SZ)
        plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        traj = evolve(model, plus, np.linspace(0.0, 5.0, 11))
        for rho in traj:
            purity = np.trace(rho @ rho).real
            assert purity == pytest.approx(1.0, abs=1e-10)

    def test_trace_and_positivity_invariants(self):
        model = LindbladModel(hamiltonian=1.1 * SX, channels=((0.7, LOWER),))
        traj = evolve(model, excited(), np.linspace(0.0, 12.0, 25))
        for rho in traj:
            assert abs(np.trace(rho).real - 1.0) < 1e-9
            assert np.linalg.eigvalsh(rho).min() >= -1e-9
            assert np.trace(rho @ rho).real <= 1.0 + 1e-10

    def test_zero_generator_is_constant(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)))
        traj = evolve(model, excited(), np.array([0.0, 1.0, 100.0]))
        np.testing.assert_allclose(traj[-1], excited())

    def test_stiff_hamiltonian_with_slow_decay(self):
        # 21 orders of magnitude between the precession and the decay rate:
        # a fixed-step integrator resolving the precession needs ~1e17 steps.
        gamma, t = 1e-9, 1e3
        model = LindbladModel(hamiltonian=1e12 * SZ, channels=((gamma, LOWER),))
        traj = evolve(model, excited(), np.array([t]))
        assert traj[-1, 0, 0].real == pytest.approx(np.exp(-gamma * t), abs=1e-12)

    def test_invalid_initial_state(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            evolve(model, np.array([[0.7, 0.0], [0.0, 0.7]]), np.array([1.0]))


class TestSteadyState:
    def test_pure_decay_reaches_ground(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)), channels=((1.0, LOWER),))
        rho = steady_state(model)
        np.testing.assert_allclose(rho, np.diag([0.0, 1.0]), atol=1e-12)

    def test_driven_atom_matches_bloch_oracle(self):
        # Oracle: steady state of the three-variable Bloch system
        #   d<sx>/dt = -delta <sy> - G/2 <sx>
        #   d<sy>/dt = +delta <sx> - rabi <sz> - G/2 <sy>
        #   d<sz>/dt = +rabi <sy> - G (<sz> + 1)
        rabi, delta, g = 1.3, 0.0, 0.9
        a = np.array(
            [
                [-g / 2, -delta, 0.0],
                [delta, -g / 2, -rabi],
                [0.0, rabi, -g],
            ]
        )
        b = np.array([0.0, 0.0, g])  # moves the constant -G to the right side
        sx_v, sy_v, sz_v = np.linalg.solve(a, b)
        expected_ee = 0.5 * (1.0 + sz_v)

        model = LindbladModel(
            hamiltonian=0.5 * rabi * SX - 0.5 * delta * SZ, channels=((g, LOWER),)
        )
        rho = steady_state(model)
        assert rho[0, 0].real == pytest.approx(expected_ee, abs=1e-12)
        assert rho[0, 0].real == pytest.approx(
            (rabi**2 / 4) / (rabi**2 / 2 + g**2 / 4), abs=1e-12
        )

    def test_degenerate_null_space_reported(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)))
        with pytest.raises(SteadyStateDegeneracyError) as excinfo:
            steady_state(model)
        assert excinfo.value.dimension >= 2


class TestObeReference:
    def test_single_atom_channels(self):
        # Each atom of the pair decays at the single-atom rate: the channels
        # add up to sum_k g_k L_k^+ L_k = G11 (n_1 + n_2) + G12 (s1+ s2- + s2+ s1-).
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        model = obe_reference(drive, CLOSE, VACUUM)
        assert model.dimension == 4
        assert len(model.channels) == 2
        g11 = gamma_thermal_single(1e10, CLOSE, VACUUM)
        g12 = gamma_thermal_pair(1e10, CLOSE, VACUUM)
        s1, s2 = np.kron(LOWER, np.eye(2)), np.kron(np.eye(2), LOWER)
        expected = g11 * (s1.T @ s1 + s2.T @ s2) + g12 * (s1.T @ s2 + s2.T @ s1)
        total = sum(rate * op.conj().T @ op for rate, op in model.channels)
        np.testing.assert_allclose(total, expected, rtol=0.0, atol=1e-12 * g11)

    def test_dicke_pair_decay_rates(self):
        # Undriven two-atom sector decay: symmetric state at G11 + G12,
        # antisymmetric at G11 - G12.
        drive = DriveParams(omega=1e10, rabi=0.0, omega_eg=1e10)
        model = obe_reference(drive, CLOSE, VACUUM)
        g11 = gamma_thermal_single(1e10, CLOSE, VACUUM)
        g12 = gamma_thermal_pair(1e10, CLOSE, VACUUM)
        for sign, expected in ((1.0, g11 + g12), (-1.0, g11 - g12)):
            psi = np.zeros(4, dtype=complex)
            psi[1] = 1 / np.sqrt(2)
            psi[2] = sign / np.sqrt(2)
            rho0 = np.outer(psi, psi.conj())
            t = 0.1 / expected
            traj = evolve(model, rho0, np.array([t]))
            survival = np.real(np.vdot(psi, traj[-1] @ psi))
            assert survival == pytest.approx(np.exp(-expected * t), abs=2e-4)

    def test_flip_flop_conserves_total_excitation(self):
        drive = DriveParams(omega=1e10, rabi=0.0, omega_eg=1e10)
        model = obe_reference(drive, RYDBERG, VACUUM)
        number = np.diag([2.0, 1.0, 1.0, 0.0]).astype(complex)
        comm = model.hamiltonian @ number - number @ model.hamiltonian
        assert np.max(np.abs(comm)) < 1e-12 * np.abs(model.hamiltonian).max()

    def test_single_atom_resonant_steady_state(self):
        # Oracle: the three-variable Bloch null space; the big dipole makes
        # the decay rate comparable to the Rabi frequency so the population
        # sits measurably below saturation.
        big = AtomGeometry(separation=constants.c / 1e10, dipole_mag=4e8 * E_A0, theta_d=np.pi / 2)
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        g = gamma_thermal_single(drive.omega_eg, big, VACUUM)
        # the one-atom Bloch model in the rotating frame, basis {|e>, |g>}
        h = 0.5 * drive.rabi * SX - 0.5 * drive.detuning * SZ
        model = LindbladModel(hamiltonian=h, channels=((g, LOWER),))
        rho = steady_state(model)
        expected = (drive.rabi**2 / 4) / (drive.rabi**2 / 2 + g**2 / 4)
        assert rho[0, 0].real == pytest.approx(expected, rel=1e-10)
        assert expected < 0.49  # meaningfully below saturation

    def test_thermal_bath_adds_raising_channels(self):
        drive = DriveParams(omega=1e9, rabi=0.0, omega_eg=1e9)
        warm = BathParams(temperature=1.0)
        model = obe_reference(drive, CLOSE, warm)
        assert len(model.channels) == 4


class TestCoarseGrainedCoefficients:
    def test_resonant_split(self):
        c_pp, c_pm = coarse_grained_coefficients(np.pi / 2, 1.0)
        assert c_pp == pytest.approx(0.5)
        assert c_pm == pytest.approx(0.5)

    def test_flip_flop_limit(self):
        c_pp, c_pm = coarse_grained_coefficients(0.0, 1.0)
        assert c_pp == 0.0
        assert c_pm == 1.0

    @given(theta=st.floats(0.0, np.pi))
    @settings(max_examples=80)
    def test_sum_identity(self, theta):
        c_pp, c_pm = coarse_grained_coefficients(theta, 2.5)
        assert c_pp + c_pm == pytest.approx(2.5, rel=4e-16)

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            coarse_grained_coefficients(-0.1, 1.0)


class TestComparison:
    def test_rydberg_scenario_agrees(self):
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        comparison = fme_vs_obe_compare(drive, RYDBERG, VACUUM, 3e-5, "+-", 1024)
        assert comparison.max_deviation <= 0.05
        # populations must show the excitation exchange actually happening
        assert comparison.pop_fme[:, 2].max() > 0.5

    def test_undriven_resonant_refused(self):
        drive = DriveParams(omega=1e10, rabi=0.0, omega_eg=1e10)
        with pytest.raises(HierarchyViolationError):
            fme_vs_obe_compare(drive, RYDBERG, VACUUM, 1e-5, "+-", 1024)

    def test_smoothing_window_alignment(self):
        pops = np.ones((40, 4))
        smoothed, interior = smoothed_populations(pops, 7)
        assert smoothed.shape == (34, 4)
        assert interior == slice(3, 37)
        np.testing.assert_allclose(smoothed, 1.0)
        with pytest.raises(ValueError):
            smoothed_populations(pops, 6)

    def test_window_samples_is_the_averaged_count(self):
        # at 1e-6 s the computed window is even (40); the average takes 41
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        comparison = fme_vs_obe_compare(drive, RYDBERG, VACUUM, 1e-6, "+-", 1024)
        window = comparison.window_samples
        assert window == 41
        assert comparison.times.size - comparison.pop_obe_smoothed.shape[0] + 1 == window
        np.testing.assert_allclose(
            comparison.pop_obe_smoothed[0], comparison.pop_obe[:window].mean(axis=0), atol=1e-14
        )

    def test_symmetric_state_commutes_with_swap(self):
        # Symmetric initial state of identical atoms stays exchange
        # symmetric under both master equations.
        from floquetdd.dipole import build_channels, build_hdp2, coupling_coefficients, matrix_elements
        from floquetdd.floquet import TimeGrid, floquet_solve

        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        sol = floquet_solve(drive, TimeGrid.for_drive(drive, 1024))
        table = matrix_elements(sol)
        coeff = coupling_coefficients(table, sol, RYDBERG)
        fme = LindbladModel(
            hamiltonian=build_hdp2(coeff),
            channels=tuple(build_channels(table, sol, RYDBERG, VACUUM)),
        )
        obe = obe_reference(drive, RYDBERG, VACUUM)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        psi = np.array([0.0, 1.0, 1.0, 0.0], dtype=complex) / np.sqrt(2)
        rho0 = np.outer(psi, psi.conj())
        for model, horizon in ((fme, 2e-5), (obe, 2e-7)):
            traj = evolve(model, rho0, np.linspace(0.0, horizon, 5))
            for rho in traj:
                comm = rho @ swap - swap @ rho
                assert np.max(np.abs(comm)) < 1e-8

    def test_fme_vacuum_steady_state_is_double_ground(self):
        # Undriven pair in vacuum relaxes to both atoms in the lower branch;
        # retardation phase ~ 1 keeps the subradiant gap resolvable.
        from floquetdd.dipole import build_channels, build_hdp2, coupling_coefficients, matrix_elements
        from floquetdd.floquet import TimeGrid, floquet_solve

        geom = AtomGeometry(
            separation=constants.c / 1e10, dipole_mag=4e8 * E_A0, theta_d=np.pi / 2
        )
        drive = DriveParams(omega=1e10, rabi=0.0, omega_eg=1.6e10)
        sol = floquet_solve(drive, TimeGrid.for_drive(drive, 1024))
        table = matrix_elements(sol)
        coeff = coupling_coefficients(table, sol, geom)
        fme = LindbladModel(
            hamiltonian=build_hdp2(coeff),
            channels=tuple(build_channels(table, sol, geom, VACUUM)),
        )
        rho = steady_state(fme)
        # detuning < 0: "+" is the excited branch, so |--> is the ground pair
        expected = np.zeros((4, 4))
        expected[3, 3] = 1.0
        np.testing.assert_allclose(rho, expected, atol=1e-9)

    def test_exchange_symmetry_under_both_models(self):
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        comparison = fme_vs_obe_compare(drive, RYDBERG, VACUUM, 5e-6, "+-", 1024)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        # symmetric initial state: (|+-> + |-+>)/sqrt(2) not offered via label,
        # so check instead that the |+-> start maps onto |-+> under swap in
        # both trajectories (exchange covariance of identical atoms)
        sym_start = fme_vs_obe_compare(drive, RYDBERG, VACUUM, 5e-6, "-+", 1024)
        np.testing.assert_allclose(
            comparison.pop_fme[:, [0, 2, 1, 3]], sym_start.pop_fme, atol=1e-8
        )
        np.testing.assert_allclose(
            comparison.pop_obe[:, [0, 2, 1, 3]], sym_start.pop_obe, atol=1e-8
        )


def test_validate_density_matrix():
    good = np.diag([0.5, 0.5]).astype(complex)
    validate_density_matrix(good)
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([0.7, 0.7]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.diag([1.5, -0.5]))
    # a stack passes only when every state does
    validate_density_matrix(np.stack([good, np.diag([1.0, 0.0])]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.stack([good, np.diag([1.5, -0.5])]))
    with pytest.raises(ValueError):
        validate_density_matrix(np.stack([good, np.full((2, 2), np.nan)]))
