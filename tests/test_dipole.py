import numpy as np
import pytest
from scipy import constants

from floquetdd.bath import AtomGeometry, BathParams, gamma_thermal_pair, gamma_thermal_single, omega_dd
from floquetdd.dipole import (
    MINUS,
    PLUS,
    MatrixElementTable,
    build_channels,
    build_hdp2,
    coupling_coefficients,
    matrix_elements,
)
from floquetdd.errors import SidebandTruncationError
from floquetdd.floquet import DriveParams, TimeGrid, dressed_states, floquet_solve
from floquetdd.lindblad import coarse_grained_coefficients
from oracles import (
    build_D_operators,
    diagonalize_dissipator,
    dissipator_matrix,
    quasienergy_difference_classes,
    sambe_matrix_elements,
)

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
OMEGA = 1e10
RYDBERG = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
VACUUM = BathParams(temperature=0.0)


def entry(table, alpha, beta, m):
    """<<phi_alpha|sigma_x|phi_beta>>_m from the table."""
    assert abs(m) <= table.truncation
    return complex(table.entries[alpha, beta, table.truncation + m])


def solve(rabi, omega_eg, n=1024):
    drive = DriveParams(omega=OMEGA, rabi=rabi, omega_eg=omega_eg)
    return floquet_solve(drive, TimeGrid.for_drive(drive, n))


@pytest.fixture(scope="module")
def undriven():
    sol = solve(0.0, 0.3 * OMEGA)
    return sol, matrix_elements(sol)


@pytest.fixture(scope="module")
def resonant_weak():
    sol = solve(0.01 * OMEGA, OMEGA)
    return sol, matrix_elements(sol)


@pytest.fixture(scope="module")
def driven_detuned():
    sol = solve(0.2 * OMEGA, 0.9 * OMEGA)
    return sol, matrix_elements(sol)


class TestMatrixElements:
    def test_undriven_cross_element_is_kronecker(self, undriven):
        _, table = undriven
        for m in range(-table.truncation, table.truncation + 1):
            expected = 1.0 if m == 0 else 0.0
            assert abs(entry(table, 1, 0, m)) == pytest.approx(expected, abs=1e-12)

    def test_weak_resonant_diagonal_element(self, resonant_weak):
        # Oracle: dressed modes give <phi_+|sx|phi_+> = sin(theta) cos(w t),
        # so the +-1 sidebands carry sin(theta)/2 = 1/2 on resonance.
        _, table = resonant_weak
        assert abs(entry(table, 0, 0, 1)) == pytest.approx(0.5, abs=1e-4)
        assert abs(entry(table, 0, 0, -1)) == pytest.approx(0.5, abs=1e-4)

    def test_weak_resonant_cross_element_folded_positions(self, resonant_weak):
        # With mu_+ folded below the zone edge the (-,+) element sits at
        # m = 0 (weight sin^2(theta/2)) and m = +2 (weight cos^2(theta/2)).
        # the cross element carries a first-order counter-rotating
        # correction ~ rabi / (4 omega), hence the looser tolerance
        _, table = resonant_weak
        assert abs(entry(table, 1, 0, 0)) == pytest.approx(0.5, abs=2e-3)
        assert abs(entry(table, 1, 0, 2)) == pytest.approx(0.5, abs=2e-3)
        assert abs(entry(table, 1, 0, 1)) < 1e-5

    def test_sum_rule(self, driven_detuned):
        _, table = driven_detuned
        for beta in (0, 1):
            assert table.column_weight(beta) == pytest.approx(1.0, abs=1e-10)

    def test_conjugation_symmetry(self, driven_detuned):
        _, table = driven_detuned
        for alpha in (0, 1):
            for beta in (0, 1):
                for m in (-5, -1, 0, 1, 2, 7):
                    assert entry(table, alpha, beta, m) == pytest.approx(
                        np.conj(entry(table, beta, alpha, -m)), abs=1e-12
                    )


class TestCouplingCoefficients:
    def test_undriven_limit(self, undriven):
        sol, table = undriven
        coeff = coupling_coefficients(table, sol, RYDBERG)
        assert coeff.c_pp == 0.0
        assert coeff.c_pm == pytest.approx(omega_dd(0.3 * OMEGA, RYDBERG), rel=1e-12)

    def test_weak_resonant_matches_coarse_grained(self, resonant_weak):
        # Oracle: the time-averaged flip-flop closed forms at theta = pi/2.
        sol, table = resonant_weak
        coeff = coupling_coefficients(table, sol, RYDBERG)
        theta = dressed_states(sol.drive).theta_m
        cg_pp, cg_pm = coarse_grained_coefficients(theta, omega_dd(OMEGA, RYDBERG))
        assert coeff.c_pp == pytest.approx(cg_pp, rel=0.02)
        assert coeff.c_pm == pytest.approx(cg_pm, rel=0.02)

    def test_vanishing_drive_limit_theta_zero(self):
        # rabi -> 0 with negative detuning: theta -> 0, c_pp -> 0, c_pm -> W.
        sol = solve(1e-4 * OMEGA, 1.6 * OMEGA)
        table = matrix_elements(sol)
        coeff = coupling_coefficients(table, sol, RYDBERG)
        assert abs(coeff.c_pp) < 1e-6 * abs(coeff.c_pm)
        assert coeff.c_pm == pytest.approx(omega_dd(1.6 * OMEGA, RYDBERG), rel=1e-4)

    def test_breakdown_sums_to_totals(self, driven_detuned):
        sol, table = driven_detuned
        coeff = coupling_coefficients(table, sol, RYDBERG)
        assert coeff.breakdown_pp.sum() == coeff.c_pp
        assert coeff.breakdown_pm.sum() == coeff.c_pm
        assert np.isreal(coeff.c_pp) and np.isreal(coeff.c_pm)

    def test_unconverged_table_rejected(self):
        sol = solve(0.5 * OMEGA, OMEGA)
        full = matrix_elements(sol)
        c = full.truncation
        tight = MatrixElementTable(entries=full.entries[:, :, c - 3 : c + 4])
        with pytest.raises(SidebandTruncationError):
            coupling_coefficients(tight, sol, RYDBERG)
        for temperature in (0.0, 1.0):
            with pytest.raises(SidebandTruncationError):
                build_channels(tight, sol, RYDBERG, BathParams(temperature=temperature))


class TestBuildHdp2:
    def test_eigenvalues(self):
        from floquetdd.dipole import CouplingCoefficients

        coeff = CouplingCoefficients(breakdown_pp=np.array([2.0]), breakdown_pm=np.array([0.5]))
        h = build_hdp2(coeff)
        np.testing.assert_allclose(h, h.conj().T)
        eigs = np.sort(np.linalg.eigvalsh(h))
        np.testing.assert_allclose(eigs, [-2.5, -1.5, 2.0, 2.0], atol=1e-14)

    def test_central_block_for_equal_coefficients(self):
        from floquetdd.dipole import CouplingCoefficients

        w = 3.0
        coeff = CouplingCoefficients(breakdown_pp=np.array([w / 2]), breakdown_pm=np.array([w / 2]))
        h = build_hdp2(coeff)
        block = h[1:3, 1:3]
        np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(block)), [-w, 0.0], atol=1e-14)

    def test_undriven_reduces_to_flip_flop(self, undriven):
        sol, table = undriven
        coeff = coupling_coefficients(table, sol, RYDBERG)
        h = build_hdp2(coeff)
        w = omega_dd(0.3 * OMEGA, RYDBERG)
        flip_flop = np.zeros((4, 4), dtype=complex)
        flip_flop[1, 2] = flip_flop[2, 1] = w
        np.testing.assert_allclose(h, flip_flop, atol=1e-12 * abs(w))

    def test_exchange_symmetry(self, driven_detuned):
        sol, table = driven_detuned
        coeff = coupling_coefficients(table, sol, RYDBERG)
        h = build_hdp2(coeff)
        swap = np.zeros((4, 4))
        swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
        np.testing.assert_allclose(swap @ h @ swap, h, atol=1e-12 * np.abs(h).max())


class TestBuildChannels:
    def test_undriven_vacuum_superradiance(self):
        # omega_eg > omega puts theta at 0: "+" is the excited branch, the
        # surviving decay channels carry Gamma_11 +- Gamma_12 at omega_eg and
        # the upward (heating) channels vanish in vacuum.
        sol = solve(0.0, 1.6 * OMEGA)
        table = matrix_elements(sol)
        channels = build_channels(table, sol, RYDBERG, VACUUM)
        g11 = gamma_thermal_single(1.6 * OMEGA, RYDBERG, VACUUM)
        g12 = gamma_thermal_pair(1.6 * OMEGA, RYDBERG, VACUUM)
        assert channels.rates[0] == pytest.approx(0.0, abs=1e-20)
        assert channels.rates[1] == pytest.approx(0.0, abs=1e-20)
        assert channels.rates[2] == pytest.approx(g11 + g12, rel=1e-10)
        assert channels.rates[3] == pytest.approx(g11 - g12, rel=1e-6)
        assert channels.rates[4] < 1e-12 * channels.rates[2]
        assert channels.rates[5] < 1e-12 * channels.rates[2]

    def test_rate_sum_identity(self, driven_detuned):
        # gamma_3 + gamma_4 = 2 sum_m w_m Gamma_11(m w + mu_+ - mu_-)
        sol, table = driven_detuned
        channels = build_channels(table, sol, RYDBERG, VACUUM)
        delta = sol.mu_plus - sol.mu_minus
        weights = np.abs(table.entries[1, 0, :]) ** 2
        expected = 2.0 * sum(
            w * gamma_thermal_single(m * OMEGA + delta, RYDBERG, VACUUM)
            for w, m in zip(weights, table.m_values)
        )
        assert channels.rates[2] + channels.rates[3] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_rates_equal_sequential_scalar_sums(self, driven_detuned, temperature):
        # Oracle: one scalar rate call per sideband, summed left to right
        # from 0.0 in m order; the rates must agree to the last bit.
        sol, table = driven_detuned
        bath = BathParams(temperature=temperature)
        delta = sol.mu_plus - sol.mu_minus
        expected = []
        for (a, b), shift in (((0, 0), 0.0), ((1, 0), delta), ((0, 1), -delta)):
            tot_sum = tot_dif = 0.0
            for w, m in zip(np.abs(table.entries[a, b, :]) ** 2, table.m_values):
                g11 = gamma_thermal_single(m * OMEGA + shift, RYDBERG, bath)
                g12 = gamma_thermal_pair(m * OMEGA + shift, RYDBERG, bath)
                tot_sum += w * (g11 + g12)
                tot_dif += w * (g11 - g12)
            expected += [tot_sum, tot_dif]
        channels = build_channels(table, sol, RYDBERG, bath)
        np.testing.assert_array_equal(channels.rates, expected)

    def test_nonnegative_rates_in_vacuum(self, driven_detuned):
        sol, table = driven_detuned
        channels = build_channels(table, sol, RYDBERG, VACUUM)
        assert np.all(channels.rates >= -1e-12 * channels.rates.max())

    def test_jump_operators_are_unit_normalized_combinations(self, undriven):
        sol, table = undriven
        channels = build_channels(table, sol, RYDBERG, VACUUM)
        lower = np.array([[0, 0], [1, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        sym = (np.kron(lower, eye) + np.kron(eye, lower)) / np.sqrt(2)
        np.testing.assert_allclose(channels.operators[2], sym, atol=1e-14)


class TestSambeSidebandOracle:
    """Everything built on the sideband sums, against Sambe-Shirley convolutions.

    The oracle shares no code with the CF4 propagation, the Floquet vectors
    or the DFT of matrix_elements; |element|^2 does not depend on the phase
    of a Floquet vector, so neither does anything checked here.  Bounds are
    about 2.5x the largest deviation measured over the 20 drives: 2.1e-12 on
    |element|^2, 1.5e-12 W on c_pp and c_pm (W = |omega_dd(omega_eg)|), and
    9.7e-12 (0 K) and 7.2e-12 (1 K) of the single-atom rate at omega_eg on
    the six channel rates.
    """

    N_BLOCKS = 40
    ELEMENT_BOUND = 5e-12
    COUPLING_BOUND = 4e-12
    RATE_BOUND = 2.5e-11

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(1)
        out = []
        for _ in range(20):
            sol = solve(rng.uniform(0.0, 0.8) * OMEGA, rng.uniform(0.1, 1.9) * OMEGA)
            table = matrix_elements(sol)
            mus, elements = sambe_matrix_elements(
                sol.drive, self.N_BLOCKS, (sol.mu_plus, sol.mu_minus), table.truncation
            )
            out.append((sol, table, mus[0] - mus[1], np.abs(elements) ** 2))
        return out

    def test_element_weights(self, cases):
        for _, table, _, weights in cases:
            assert np.max(np.abs(weights - np.abs(table.entries) ** 2)) <= self.ELEMENT_BOUND

    def test_coupling_coefficients(self, cases):
        for sol, table, delta, weights in cases:
            ms = table.m_values * OMEGA
            coeff = coupling_coefficients(table, sol, RYDBERG)
            scale = abs(omega_dd(sol.drive.omega_eg, RYDBERG))
            c_pp = np.sum(weights[PLUS, PLUS] * omega_dd(ms, RYDBERG))
            c_pm = np.sum(weights[MINUS, PLUS] * omega_dd(delta + ms, RYDBERG))
            assert abs(coeff.c_pp - c_pp) <= self.COUPLING_BOUND * scale
            assert abs(coeff.c_pm - c_pm) <= self.COUPLING_BOUND * scale

    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_channel_rates(self, cases, temperature):
        bath = BathParams(temperature=temperature)
        for sol, table, delta, weights in cases:
            # population, downward and upward transitions, as in build_channels
            rows = weights[[PLUS, MINUS, PLUS], [PLUS, PLUS, MINUS]]
            args = table.m_values * OMEGA + np.array([[0.0], [delta], [-delta]])
            g11 = gamma_thermal_single(args, RYDBERG, bath)
            g12 = gamma_thermal_pair(args, RYDBERG, bath)
            rates = np.stack([np.sum(rows * (g11 + g12), axis=1), np.sum(rows * (g11 - g12), axis=1)], axis=1)
            scale = gamma_thermal_single(sol.drive.omega_eg, RYDBERG, bath)
            channels = build_channels(table, sol, RYDBERG, bath)
            assert np.max(np.abs(channels.rates - rates.reshape(-1))) <= self.RATE_BOUND * scale


class TestDOperators:
    def test_undriven_lowering_blocks(self, undriven):
        sol, _ = undriven
        # mu_B - mu_A = omega_eg selects the one-atom "-" -> "+" transitions,
        # i.e. the bare lowering operator on each atom (|+> = |g> here).
        ops = build_D_operators([sol, sol], m=0, delta_mu=0.3 * OMEGA)
        plus_from_minus = np.array([[0, 1], [0, 0]], dtype=complex)
        eye = np.eye(2, dtype=complex)
        np.testing.assert_allclose(ops[0], np.kron(plus_from_minus, eye), atol=1e-12)
        np.testing.assert_allclose(ops[1], np.kron(eye, plus_from_minus), atol=1e-12)

    def test_empty_class_returns_zero(self, undriven):
        sol, _ = undriven
        ops = build_D_operators([sol, sol], m=0, delta_mu=0.123 * OMEGA)
        assert all(np.allclose(op, 0.0) for op in ops)

    def test_atom_count_guard(self, undriven):
        sol, _ = undriven
        with pytest.raises(ValueError):
            build_D_operators([sol] * 7, m=0, delta_mu=0.0)

    def test_exchange_degenerate_class_collects_both_projectors(self, driven_detuned):
        # The two-atom spectrum has mu_2 = mu_3 exactly; the delta mu = 0
        # block must hold the population structure of both branches.
        sol, table = driven_detuned
        ops = build_D_operators([sol, sol], m=1, delta_mu=0.0)
        p = entry(table, 0, 0, 1)
        m = entry(table, 1, 1, 1)
        sz_like = np.diag([p, p, m, m]).astype(complex)
        np.testing.assert_allclose(ops[0], sz_like, atol=1e-12)

    def test_resummation_reconstructs_sigma_x(self, driven_detuned):
        # Oracle: sigma_x expanded directly in the t=0 product Floquet basis.
        sol, table = driven_detuned
        classes = quasienergy_difference_classes([sol, sol], OMEGA)
        totals = [np.zeros((4, 4), dtype=complex) for _ in range(2)]
        for delta_mu in classes:
            for m in range(-table.truncation, table.truncation + 1):
                ops = build_D_operators([sol, sol], m, float(delta_mu))
                for i in (0, 1):
                    totals[i] += ops[i]
        basis = np.stack([sol.modes[0][0], sol.modes[1][0]], axis=1)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sx_floquet = basis.conj().T @ sx @ basis
        eye = np.eye(2, dtype=complex)
        np.testing.assert_allclose(totals[0], np.kron(sx_floquet, eye), atol=1e-10)
        np.testing.assert_allclose(totals[1], np.kron(eye, sx_floquet), atol=1e-10)

    def test_difference_classes_structure(self, driven_detuned):
        sol, _ = driven_detuned
        classes = quasienergy_difference_classes([sol, sol], OMEGA)
        delta = sol.mu_plus - sol.mu_minus
        expected = np.array([-2 * delta, -delta, 0.0, delta, 2 * delta])
        np.testing.assert_allclose(classes, np.sort(expected), atol=1e-9 * OMEGA)


class TestDiagonalizeDissipator:
    def test_symmetric_block(self):
        a, b = 2.0, 0.5
        d1 = np.diag([1.0, 0.0]).astype(complex)
        d2 = np.diag([0.0, 1.0]).astype(complex)
        channels = diagonalize_dissipator([(np.array([[a, b], [b, a]]), [d1, d2])])
        rates = sorted(rate for rate, _ in channels)
        assert rates == pytest.approx([a - b, a + b])

    def test_no_cross_coupling_keeps_atoms_independent(self):
        d1 = np.diag([1.0, 0.0]).astype(complex)
        d2 = np.diag([0.0, 1.0]).astype(complex)
        channels = diagonalize_dissipator([(np.diag([1.0, 1.0]), [d1, d2])])
        ops = [op for _, op in channels]
        # eigenvectors of the identity can mix, but the superoperator matches
        # the independent-channel one exactly
        got = dissipator_matrix(channels)
        want = dissipator_matrix([(1.0, d1), (1.0, d2)])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_negative_eigenvalue_rejected(self):
        d1 = np.diag([1.0, 0.0]).astype(complex)
        d2 = np.diag([0.0, 1.0]).astype(complex)
        bad = np.array([[0.1, 1.0], [1.0, 0.1]])
        with pytest.raises(ValueError, match="negative eigenvalue"):
            diagonalize_dissipator([(bad, [d1, d2])])

    def test_non_hermitian_rejected(self):
        d1 = np.eye(2, dtype=complex)
        with pytest.raises(ValueError):
            diagonalize_dissipator([(np.array([[1.0, 0.5], [0.0, 1.0]]), [d1, d1])])
