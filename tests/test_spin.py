import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants

from floquetdd.bath import AtomGeometry, omega_dd
from floquetdd.dipole import CouplingCoefficients, build_hdp2
from floquetdd.floquet import SIGMA_X, SIGMA_Y, SIGMA_Z, DriveParams, dressed_states
from floquetdd.lindblad import coarse_grained_coefficients
from floquetdd.spin import JTensor, build_spin_hamiltonian, j_tensor, pair_geometries_from_positions
from oracles import dressed_bare_equivalence

E_A0 = constants.e * constants.physical_constants["Bohr radius"][0]
W = 2.0  # generic interaction energy scale for closed-form checks


class TestJTensorClosedForms:
    def test_resonant_mixing_angle(self):
        jt = j_tensor(np.pi / 2, W)
        assert jt.j_xx == pytest.approx(W / 2, rel=1e-14)
        assert jt.j_yy == pytest.approx(W / 4, rel=1e-14)
        assert jt.j_zz == pytest.approx(W / 4, rel=1e-14)
        assert abs(jt.j_xz) < 1e-15 * W
        assert jt.j_xx / jt.j_yy == pytest.approx(2.0, rel=1e-12)

    def test_flip_flop_angle(self):
        jt = j_tensor(0.0, W)
        assert jt.j_xx == pytest.approx(W / 2)
        assert jt.j_yy == pytest.approx(W / 2)
        assert jt.j_zz == 0.0
        assert jt.j_xz == 0.0

    def test_quarter_angle(self):
        jt = j_tensor(np.pi / 4, W)
        assert jt.j_xx == pytest.approx(5 * W / 16, rel=1e-14)
        assert jt.j_xz == pytest.approx(W / 16, rel=1e-14)

    def test_matrix_pattern(self):
        # Pauli components c_ab = tr(H sigma_a sigma_b) / 4 of the pair
        # Hamiltonian: only xx, yy, zz and xz = zx, as the tensor lists them.
        drive = DriveParams(omega=1e10, rabi=3e9, omega_eg=0.8e10)
        geometry = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)
        ham = build_spin_hamiltonian(2, {(0, 1): geometry}, drive)
        jt = j_tensor(dressed_states(drive).theta_m, omega_dd(drive.omega, geometry))
        paulis = (SIGMA_X, SIGMA_Y, SIGMA_Z)
        c = np.array([[np.trace(ham @ np.kron(a, b)).real / 4 for b in paulis] for a in paulis])
        expected = [[jt.j_xx, 0.0, jt.j_xz], [0.0, jt.j_yy, 0.0], [jt.j_xz, 0.0, jt.j_zz]]
        np.testing.assert_allclose(c, expected, rtol=0.0, atol=1e-12 * abs(jt.j_xx))
        assert jt.j_xz != 0.0

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            j_tensor(-0.2, W)
        with pytest.raises(ValueError):
            JTensor(j_xx=np.nan, j_yy=0.0, j_zz=0.0, j_xz=0.0)


class TestBuilderBitIdentity:
    @pytest.mark.parametrize("n_atoms", [2, 3, 4, 5, 6])
    def test_equals_pauli_string_products(self, n_atoms):
        # the entry-by-entry sums give the same doubles as the dense products
        # of the real site operators X, iY and Z, whatever the couplings' signs
        from floquetdd.floquet import site_op
        from floquetdd.spin import pair_tensors

        real_paulis = (SIGMA_X.real, (1j * SIGMA_Y).real, SIGMA_Z.real)
        rng = np.random.default_rng(n_atoms)
        positions = rng.normal(scale=10e-6, size=(n_atoms, 3))
        geoms = pair_geometries_from_positions(positions, 1000 * E_A0, [0.0, 0.0, 1.0])
        drive = DriveParams(omega=1e10, rabi=2e9, omega_eg=0.7e10)
        h = build_spin_hamiltonian(n_atoms, geoms, drive, evaluate_at="atom")
        ops = [[site_op(p, site, n_atoms) for p in real_paulis] for site in range(n_atoms)]
        expected = np.zeros((2**n_atoms, 2**n_atoms))
        for (i, j), jt in pair_tensors(geoms, drive, "atom").items():
            (xi, iyi, zi), (xj, iyj, zj) = ops[i], ops[j]
            expected += jt.j_xx * (xi @ xj) - jt.j_yy * (iyi @ iyj) + jt.j_zz * (zi @ zj)
            expected += jt.j_xz * (xi @ zj + zi @ xj)
        assert h.tobytes() == expected.tobytes()


class TestDualPathAgreement:
    def test_101_point_grid(self):
        # Oracle: explicit dressed-to-bare expansion fed with the
        # time-averaged coefficients; diagonal entries and |J_xz| must match
        # the closed forms to 1e-12 relative (absolute floor 1e-12 * W for
        # the cross term where both paths give exact zeros).
        for theta in np.linspace(0.0, np.pi, 101):
            closed = j_tensor(theta, W)
            transformed, residual = dressed_bare_equivalence(
                coarse_grained_coefficients(theta, W), theta
            )
            assert residual < 1e-12 * W
            assert transformed.j_xx == pytest.approx(closed.j_xx, rel=1e-12, abs=1e-12 * W)
            assert transformed.j_yy == pytest.approx(closed.j_yy, rel=1e-12, abs=1e-12 * W)
            assert transformed.j_zz == pytest.approx(closed.j_zz, rel=1e-12, abs=1e-12 * W)
            assert abs(transformed.j_xz) == pytest.approx(
                abs(closed.j_xz), rel=1e-12, abs=1e-12 * W
            )

    def test_cross_term_sign_convention_differs(self):
        theta = np.pi / 4
        closed = j_tensor(theta, W)
        transformed, _ = dressed_bare_equivalence(
            coarse_grained_coefficients(theta, W), theta
        )
        assert transformed.j_xz == pytest.approx(-closed.j_xz, rel=1e-12)

    @given(theta=st.floats(0.0, np.pi))
    @settings(max_examples=60)
    def test_j_yy_is_half_the_exchange_coefficient(self, theta):
        c_pp, c_pm = coarse_grained_coefficients(theta, W)
        transformed, _ = dressed_bare_equivalence((c_pp, c_pm), theta)
        assert transformed.j_yy == pytest.approx(c_pm / 2, rel=1e-12)

    def test_resonant_cross_term_vanishes_in_both_paths(self):
        theta = np.pi / 2
        closed = j_tensor(theta, W)
        transformed, _ = dressed_bare_equivalence(
            coarse_grained_coefficients(theta, W), theta
        )
        assert abs(closed.j_xz) < 1e-15 * W
        assert abs(transformed.j_xz) < 1e-15 * W


class TestDressedBareEquivalence:
    def test_flip_flop_limit(self):
        transformed, residual = dressed_bare_equivalence((0.0, W), 0.0)
        assert residual < 1e-14 * W
        assert transformed.j_xx == pytest.approx(W / 2)
        assert transformed.j_yy == pytest.approx(W / 2)
        assert transformed.j_zz == pytest.approx(0.0, abs=1e-14 * W)

    def test_resonant_equal_coefficients(self):
        transformed, residual = dressed_bare_equivalence((W / 2, W / 2), np.pi / 2)
        assert residual < 1e-14 * W
        assert transformed.j_xx == pytest.approx(W / 2, rel=1e-12)
        assert transformed.j_yy == pytest.approx(W / 4, rel=1e-12)
        assert transformed.j_zz == pytest.approx(W / 4, rel=1e-12)
        assert abs(transformed.j_xz) < 1e-14 * W


class TestSpinHamiltonian:
    DRIVE = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
    GEOM = AtomGeometry(separation=40e-6, dipole_mag=1000 * E_A0, theta_d=np.pi / 2)

    def test_two_atom_construction_identity(self):
        h = build_spin_hamiltonian(2, {(0, 1): self.GEOM}, self.DRIVE)
        theta = dressed_states(self.DRIVE).theta_m
        jt = j_tensor(theta, omega_dd(1e10, self.GEOM))
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sy = np.array([[0, -1j], [1j, 0]])
        sz = np.diag([1.0, -1.0]).astype(complex)
        direct = (
            jt.j_xx * np.kron(sx, sx)
            + jt.j_yy * np.kron(sy, sy)
            + jt.j_zz * np.kron(sz, sz)
            + jt.j_xz * (np.kron(sx, sz) + np.kron(sz, sx))
        )
        np.testing.assert_allclose(h, direct.real, atol=1e-14 * np.abs(direct).max())
        assert np.isrealobj(h)
        np.testing.assert_allclose(h, h.T)

    def test_three_atom_cyclic_symmetry(self):
        side = 30e-6
        positions = np.array(
            [
                [0.0, 0.0, 0.0],
                [side, 0.0, 0.0],
                [side / 2, side * np.sqrt(3) / 2, 0.0],
            ]
        )
        geoms = pair_geometries_from_positions(positions, 1000 * E_A0, [0.0, 0.0, 1.0])
        h = build_spin_hamiltonian(3, geoms, self.DRIVE)
        # cyclic relabeling permutation on 3 qubits
        perm = np.zeros((8, 8))
        for idx in range(8):
            bits = [(idx >> k) & 1 for k in (2, 1, 0)]
            rotated = bits[1:] + bits[:1]
            jdx = (rotated[0] << 2) | (rotated[1] << 1) | rotated[2]
            perm[jdx, idx] = 1.0
        np.testing.assert_allclose(perm @ h @ perm.T, h, atol=1e-12 * np.abs(h).max())

    def test_matches_dressed_pair_hamiltonian(self):
        # Oracle: transform the dressed-basis pair Hamiltonian built from the
        # time-averaged coefficients into the bare basis and compare spectra;
        # matrices agree entrywise after flipping the cross-term sign.
        theta = dressed_states(self.DRIVE).theta_m
        w = omega_dd(1e10, self.GEOM)
        c_pp, c_pm = coarse_grained_coefficients(theta, w)
        coeff = CouplingCoefficients(breakdown_pp=np.array([c_pp]), breakdown_pm=np.array([c_pm]))
        h_dressed = build_hdp2(coeff)
        ds = dressed_states(self.DRIVE)
        w1 = np.stack([ds.plus_state(), ds.minus_state()], axis=1)
        w2 = np.kron(w1, w1)
        h_bare = w2 @ h_dressed @ w2.conj().T

        h_spin = build_spin_hamiltonian(2, {(0, 1): self.GEOM}, self.DRIVE)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(h_bare)),
            np.sort(np.linalg.eigvalsh(h_spin)),
            atol=1e-10 * abs(w),
        )
        # entrywise equality after the theta -> -theta cross-term flip
        jt = j_tensor(theta, w)
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        flipped = h_spin - 2 * jt.j_xz * (np.kron(sx, sz) + np.kron(sz, sx)).real
        np.testing.assert_allclose(h_bare.real, flipped, atol=1e-10 * abs(w))

    def test_missing_pair_rejected(self):
        with pytest.raises(ValueError):
            build_spin_hamiltonian(3, {(0, 1): self.GEOM}, self.DRIVE)

    def test_atom_count_guard(self):
        with pytest.raises(ValueError):
            build_spin_hamiltonian(7, {}, self.DRIVE)

    def test_frequency_choice_flag(self):
        detuned = DriveParams(omega=1e10, rabi=1e8, omega_eg=0.5e10)
        h_drive = build_spin_hamiltonian(2, {(0, 1): self.GEOM}, detuned, evaluate_at="drive")
        h_atom = build_spin_hamiltonian(2, {(0, 1): self.GEOM}, detuned, evaluate_at="atom")
        ratio = omega_dd(1e10, self.GEOM) / omega_dd(0.5e10, self.GEOM)
        np.testing.assert_allclose(h_drive, h_atom * ratio, atol=1e-10)
