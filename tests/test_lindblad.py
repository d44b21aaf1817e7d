import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import constants
from scipy.integrate import solve_ivp

from floquetdd.bath import AtomGeometry, BathParams, gamma_thermal_pair, gamma_thermal_single
from floquetdd.errors import HierarchyViolationError, PhysicsError, SteadyStateDegeneracyError
from floquetdd import lindblad
from floquetdd.cli import main
from floquetdd.floquet import DriveParams, TimeGrid, dressed_states, floquet_solve, kron
from floquetdd.lindblad import (
    DRESSED_PAIR_LABELS,
    LindbladModel,
    build_liouvillian,
    coarse_grained_coefficients,
    evolve,
    fme_model,
    fme_vs_obe_compare,
    obe_reference,
    smoothed_populations,
    steady_state,
    validate_density_matrix,
)
from oracles import (
    eigvalsh_validate,
    kron_liouvillian,
    mp_expm,
    rotated_populations,
    stepwise_evolve,
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


def _one_ulp_off(times, k):
    """``times`` with entry ``k`` moved up by one unit in the last place."""
    out = times.copy()
    out[k] = np.nextafter(out[k], np.inf)
    return out


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

    @pytest.mark.parametrize("d", [2, 4, 8, 16])
    def test_equals_kron_assembly(self, d):
        # Oracle: the same formula assembled with np.kron, one channel after
        # the other, term for term in the same order (tests/oracles.py); the
        # stacked superoperator must agree to the last bit, also without channels.
        rng = np.random.default_rng(d)
        for k in range(20):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = 0.5 * (a + a.conj().T)
            channels = tuple(
                (rng.uniform(0.0, 3.0), rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
                for _ in range(0 if k == 0 else rng.integers(1, 7))
            )
            liou = build_liouvillian(LindbladModel(hamiltonian=h, channels=channels))
            np.testing.assert_array_equal(liou, kron_liouvillian(h, channels))

    def test_kron_calls_do_not_grow_with_the_channels(self, monkeypatch):
        # The terms of all channels are built as one stack: a per-channel
        # loop would call kron three more times per channel.
        calls = []
        kron = lindblad.kron

        def counted(a, b):
            calls.append(1)
            return kron(a, b)

        monkeypatch.setattr(lindblad, "kron", counted)
        counts = []
        for n_channels in (1, 6):
            calls.clear()
            build_liouvillian(LindbladModel(SZ, tuple((0.3, LOWER) for _ in range(n_channels))))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_evolve_matches_ode_oracle_on_random_model(self):
        # Oracle: the matrix-form master equation integrated by an adaptive
        # Runge-Kutta solver, independent of the superoperator layout.
        rng = np.random.RandomState(7)
        a = rng.randn(4, 4) + 1j * rng.randn(4, 4)
        h = 0.5 * (a + a.conj().T)
        jumps = [rng.randn(4, 4) + 1j * rng.randn(4, 4) for _ in range(2)]
        model = LindbladModel(hamiltonian=h, channels=((0.8, jumps[0]), (0.3, jumps[1])))
        rho0 = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        times = np.linspace(0.0, 1.3, 7)

        def rhs(_, y):
            rho = y.reshape(4, 4)
            out = -1j * (h @ rho - rho @ h)
            for rate, op in model.channels:
                ldl = op.conj().T @ op
                out += rate * (op @ rho @ op.conj().T - 0.5 * (ldl @ rho + rho @ ldl))
            return out.reshape(-1)

        oracle = solve_ivp(
            rhs, (0.0, times[-1]), rho0.reshape(-1), method="DOP853",
            t_eval=times, rtol=1e-12, atol=1e-14,
        )
        expected = oracle.y.T.reshape(-1, 4, 4)
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
        traj = evolve(model, excited(), np.linspace(0.0, 100.0, 3))
        np.testing.assert_allclose(traj[-1], excited())

    def test_stiff_hamiltonian_with_slow_decay(self):
        # 21 orders of magnitude between the precession and the decay rate:
        # a fixed-step integrator resolving the precession needs ~1e17 steps.
        gamma, t = 1e-9, 1e3
        model = LindbladModel(hamiltonian=1e12 * SZ, channels=((gamma, LOWER),))
        traj = evolve(model, excited(), np.linspace(0.0, t, 2))
        assert traj[-1, 0, 0].real == pytest.approx(np.exp(-gamma * t), abs=1e-12)

    def test_invalid_initial_state(self):
        model = LindbladModel(hamiltonian=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            evolve(model, np.array([[0.7, 0.0], [0.0, 0.7]]), np.linspace(0.0, 1.0, 2))

    @pytest.mark.parametrize(
        "times",
        [
            np.array([0.0, 0.2, 0.45, 1.3]),
            np.linspace(0.15, 1.3, 6),
            np.array([1.0]),
            _one_ulp_off(np.linspace(0.0, 1.3, 6), 3),
        ],
        ids=["non-uniform", "not-from-zero", "single-time", "one-ulp-off"],
    )
    def test_only_a_linspace_grid_from_zero_is_taken(self, times):
        model = LindbladModel(hamiltonian=SZ, channels=((0.4, LOWER),))
        with pytest.raises(ValueError, match="linspace"):
            evolve(model, excited(), times)

    # Largest entry difference from the report-by-report oracle: 5.1e-14
    # (random model, 7642 times), 1.3e-14 (Rydberg FME) and 2.7e-13
    # (Rydberg Bloch pair, ||L|| * t_final = 6e3).
    STEPWISE_BOUND = 1e-12

    @pytest.mark.parametrize("n", [2, 3, 10, 101, 7642])
    @pytest.mark.parametrize("name", ["random", "fme", "obe"])
    def test_block_powers_match_stepwise_oracle(self, evolve_cases, name, n):
        # B = isqrt(n - 1) + 1 divides n - 1 only at n = 3, and the last block
        # is trimmed at every n but 2.
        model, rho0, t_final = evolve_cases[name]
        times = np.linspace(0.0, t_final, n)
        traj = evolve(model, rho0, times)
        assert traj.shape == (n, 4, 4)
        assert np.max(np.abs(traj - stepwise_evolve(model, rho0, times))) < self.STEPWISE_BOUND

    # evolve does not re-check Hermiticity: its Hermitized stack is exact, so
    # that check could not fail.  7642 times span several Hermitizing chunks.
    @pytest.mark.parametrize("n", [2, 7642])
    @pytest.mark.parametrize("name", ["random", "fme", "obe"])
    def test_returned_stack_is_exactly_hermitian(self, evolve_cases, name, n):
        model, rho0, t_final = evolve_cases[name]
        states = evolve(model, rho0, np.linspace(0.0, t_final, n))
        assert np.array_equal(states, states.conj().swapaxes(-1, -2))

    # README: on the Rydberg Bloch pair (||L|| = 2e8 /s) t_final = 0.1 s
    # loses the trace whatever n_times is, and 0.03 s passes.
    @pytest.mark.parametrize("n", [2, 2001])
    def test_rydberg_bloch_pair_precision_limit(self, n):
        model = obe_reference(DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10), RYDBERG, VACUUM)
        gg = np.diag([0.0, 0.0, 0.0, 1.0]).astype(complex)
        evolve(model, gg, np.linspace(0.0, 0.03, n))
        with pytest.raises(PhysicsError, match="t_final"):
            evolve(model, gg, np.linspace(0.0, 0.1, n))

    # tracemalloc peak of one evolve over its report times: each returned
    # state holds 0.256 kB.  Measured on the Rydberg Bloch pair at 1e5 times:
    # 0.285 kB per time, against 0.536 kB when the stack was Hermitized with
    # its whole conjugate transpose as one temporary.
    PEAK_KB_PER_TIME = 0.35

    def test_hermitizing_copies_no_whole_stack(self, evolve_cases):
        model, rho0, t_final = evolve_cases["obe"]
        times = np.linspace(0.0, t_final, 100_000)
        evolve(model, rho0, times)
        tracemalloc.start()
        try:
            evolve(model, rho0, times)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / 1e3 / times.size < self.PEAK_KB_PER_TIME


@pytest.fixture(scope="module")
def golden_steps(tmp_path_factory):
    """The step matrix L dt of every golden evolve and compare run, by name."""
    from test_golden import RUNS

    steps = {}
    expm = lindblad._expm

    def recorded(a):
        steps[f"{name}-{len(steps)}"] = a.copy()
        return expm(a)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lindblad, "_expm", recorded)
        for name, (subcommand, scenario) in RUNS.items():
            if subcommand in ("evolve", "compare"):
                path = tmp_path_factory.mktemp(name) / "scenario.json"
                path.write_text(json.dumps(scenario))
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    main([subcommand, "--scenario", str(path), "--out", str(path.parent / "out")])
    return steps


def _random_generators():
    """Seeded Liouvillians scaled to ||A||_1 = 1e-3 ... 1e4: a two-level atom
    with a random Hamiltonian and two random channels, and one with a
    diagonal Hamiltonian and decay only, whose Liouvillian is triangular."""
    rng = np.random.default_rng(20250)
    out = {}
    for norm in 10.0 ** np.arange(-3, 5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        jumps = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        dense = LindbladModel(hamiltonian=a + a.conj().T, channels=((1.0, jumps[0]), (0.1, jumps[1])))
        decay = LindbladModel(hamiltonian=rng.standard_normal() * SZ, channels=((rng.random(), LOWER),))
        for label, model in (("dense", dense), ("triangular", decay)):
            liou = build_liouvillian(model)
            out[f"{label}-{norm:.0e}"] = liou * (norm / np.abs(liou).sum(axis=0).max())
    return out


RANDOM_GENERATORS = _random_generators()


class TestExpm:
    """``_expm`` against mpmath's exponential at 40 digits."""

    # max |X - exp(A)| / max |exp(A)| <= EXPM_ERROR * u * max(||A||_1, 1), u =
    # 2^-53: a scaling and squaring has a backward error of about u, and the
    # condition of exp grows with ||A||_1.  Measured: at most 1.41 (one
    # rounding of an entry near 1 with the oracle's own rounding); scipy's
    # expm on the same matrices also 1.41.  The largest errors in absolute
    # terms are 7.8e-10 for _expm and 6.7e-10 for scipy, on the 1e7-norm step
    # of the golden exit2-long-evolve run.
    EXPM_ERROR = 4.0

    def _check(self, a):
        exact = mp_expm(a)
        error = np.abs(lindblad._expm(a) - exact).max() / np.abs(exact).max()
        assert error <= self.EXPM_ERROR * 2.0**-53 * max(np.abs(a).sum(axis=0).max(), 1.0)

    def test_golden_steps(self, golden_steps):
        # two steps of each compare run that evolves (rydberg, warm) and one
        # of each evolve run that gets that far (exit2-long-evolve included)
        assert len(golden_steps) == 11
        for a in golden_steps.values():
            self._check(a)

    @pytest.mark.parametrize("a", RANDOM_GENERATORS.values(), ids=list(RANDOM_GENERATORS))
    def test_random_generators(self, a):
        self._check(a)

    def test_zero_and_non_finite(self):
        assert np.array_equal(lindblad._expm(np.zeros((4, 4), dtype=complex)), np.eye(4))
        with np.errstate(invalid="ignore", over="ignore"):
            assert np.all(np.isnan(lindblad._expm(np.full((4, 4), np.inf, dtype=complex))))
            assert np.all(np.isnan(lindblad._expm(np.full((4, 4), 1e200, dtype=complex))))


@pytest.fixture(scope="module")
def evolve_cases():
    """name -> (model, initial state, t_final) of the block-power checks."""
    rng = np.random.RandomState(7)
    a = rng.randn(4, 4) + 1j * rng.randn(4, 4)
    jumps = [rng.randn(4, 4) + 1j * rng.randn(4, 4) for _ in range(2)]
    random_model = LindbladModel(
        hamiltonian=0.5 * (a + a.conj().T), channels=((0.8, jumps[0]), (0.3, jumps[1]))
    )
    drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
    fme = fme_model(floquet_solve(drive, TimeGrid.for_drive(drive, 1024)), RYDBERG, VACUUM)
    obe = obe_reference(drive, RYDBERG, VACUUM)
    pm, gg = np.zeros((2, 4, 4), dtype=complex)
    pm[1, 1] = gg[3, 3] = 1.0
    return {
        "random": (random_model, np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex), 1.3),
        "fme": (fme, pm, 3e-5),
        "obe": (obe, gg, 3e-5),
    }


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
            traj = evolve(model, rho0, np.linspace(0.0, t, 2))
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

    # The Bloch model rotated once into the dressed frame against the bare
    # model evolved from the rotated start state, each report rotated out:
    # the two differ by the round-off of evolve, of order
    # eps * ||L|| * horizon = 2.2e-16 * 2e8 /s * 3e-5 s = 1.3e-12.
    # Measured: at most 5.9e-13 over the four cases.
    BLOCH_FRAME_TOL = 2e-12

    @pytest.mark.parametrize("label", ["+-", "++"])
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    def test_bloch_populations_equal_the_bare_basis_pipeline(self, label, temperature):
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        bath = BathParams(temperature=temperature)
        comparison = fme_vs_obe_compare(drive, RYDBERG, bath, 3e-5, label, 1024)
        gen = dressed_states(drive)
        w1 = np.stack([gen.plus_state(), gen.minus_state()], axis=1)
        w2 = kron(w1, w1)
        start = DRESSED_PAIR_LABELS.index(label)
        rho_f0 = np.zeros((4, 4), dtype=complex)
        rho_f0[start, start] = 1.0
        bare = evolve(obe_reference(drive, RYDBERG, bath), w2 @ rho_f0 @ w2.conj().T, comparison.times)
        expected = rotated_populations(w2, bare)
        assert np.max(np.abs(comparison.pop_obe - expected)) <= self.BLOCH_FRAME_TOL

    def test_interior_is_the_smoothing_slice(self):
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        comparison = fme_vs_obe_compare(drive, RYDBERG, VACUUM, 1e-6, "+-", 1024)
        smoothed, interior = smoothed_populations(comparison.pop_obe, comparison.window_samples)
        assert comparison.interior == interior
        assert np.array_equal(comparison.pop_obe_smoothed, smoothed)

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


def _rotated_state(eigenvalues, seed=0):
    """U diag(eigenvalues) U^+ for a random unitary U, Hermitian entry by entry."""
    rng = np.random.default_rng(seed)
    d = len(eigenvalues)
    u, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    rho = (u * np.asarray(eigenvalues)) @ u.conj().T
    return 0.5 * (rho + rho.conj().T)


def _random_states(n, seed, d=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    rho = a @ np.swapaxes(a, 1, 2).conj()
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    return 0.5 * (rho + np.swapaxes(rho, 1, 2).conj())


def _outcome(validate, rho):
    """The message of the refusal, or None when ``rho`` passes."""
    try:
        validate(rho)
    except ValueError as err:
        return str(err)
    return None


# One state of each kind that the checks tell apart; the last two lie a
# tenth of the floor on either side of the -1e-9 eigenvalue floor.
FAULTS = {
    "nan": lambda: np.full((4, 4), np.nan),
    "non-hermitian": lambda: (
        _rotated_state([0.4, 0.3, 0.2, 0.1]) + np.triu(np.full((4, 4), 1e-9), 1)
    ),
    "off-trace": lambda: _rotated_state([0.4, 0.3, 0.2, 0.1 + 1e-9]),
    "negative": lambda: _rotated_state([0.4, 0.3, 0.3 + 1.1e-9, -1.1e-9]),
    "at-floor": lambda: _rotated_state([0.4, 0.3, 0.3 + 0.9e-9, -0.9e-9]),
}
MESSAGES = {
    "nan": "density matrix has non-finite entries",
    "non-hermitian": "density matrix is not Hermitian",
    "off-trace": "density matrix trace differs from one",
    "negative": "density matrix has a significantly negative eigenvalue",
    "at-floor": None,
}


class TestValidateDensityMatrix:
    """The chunked Cholesky checks refuse what the whole-stack eigvalsh
    checks refuse, with the same message, wherever the state sits."""

    CHUNK = lindblad._VALIDATION_CHUNK

    @pytest.mark.parametrize("kind", FAULTS)
    def test_single_state(self, kind):
        rho = FAULTS[kind]()
        assert _outcome(validate_density_matrix, rho) == MESSAGES[kind]
        assert _outcome(eigvalsh_validate, rho) == MESSAGES[kind]

    @pytest.mark.parametrize("kind", FAULTS)
    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_state_in_a_later_chunk(self, kind, where):
        # the state sits at the start, inside or at the end of the second chunk
        stack = _random_states(2 * self.CHUNK + 5, seed=1)
        k = (self.CHUNK, self.CHUNK + 17, 2 * self.CHUNK - 1)[where]
        stack[k] = FAULTS[kind]()
        assert _outcome(validate_density_matrix, stack) == MESSAGES[kind]
        assert _outcome(eigvalsh_validate, stack) == MESSAGES[kind]

    @pytest.mark.parametrize("later", ["nan", "non-hermitian", "off-trace"])
    def test_each_check_runs_over_the_whole_stack_first(self, later):
        # a negative state in chunk 0 and another fault in chunk 2: the
        # earlier check in the order refuses, as on the whole stack at once
        stack = _random_states(3 * self.CHUNK, seed=2)
        stack[3] = FAULTS["negative"]()
        stack[2 * self.CHUNK + 9] = FAULTS[later]()
        assert _outcome(validate_density_matrix, stack) == MESSAGES[later]
        assert _outcome(eigvalsh_validate, stack) == MESSAGES[later]

    @given(
        n=st.integers(1, 2600),
        faults=st.lists(
            st.tuples(st.sampled_from(sorted(FAULTS)), st.integers(0, 10**6)), max_size=3
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_same_outcome_as_eigvalsh_oracle(self, n, faults, seed):
        stack = _random_states(n, seed)
        for kind, where in faults:
            stack[where % n] = FAULTS[kind]()
        assert _outcome(validate_density_matrix, stack) == _outcome(eigvalsh_validate, stack)

    def test_returns_the_input_stack(self):
        stack = _random_states(5, seed=3).reshape(5, 1, 4, 4)
        assert validate_density_matrix(stack) is stack

    def test_temporaries_stay_below_half_the_stack(self):
        # about the compare grid of the Rydberg pair at 3e-5 s (7641 states)
        stack = _random_states(7642, seed=4)
        validate_density_matrix(stack)
        tracemalloc.start()
        try:
            validate_density_matrix(stack)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * stack.nbytes

    def test_evolve_and_compare_need_no_eigvalsh(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        model = LindbladModel(hamiltonian=1.1 * SX, channels=((0.7, LOWER),))
        evolve(model, excited(), np.linspace(0.0, 12.0, 25))
        drive = DriveParams(omega=1e10, rabi=1e8, omega_eg=1e10)
        fme_vs_obe_compare(drive, RYDBERG, VACUUM, 5e-6, "+-", 1024)
