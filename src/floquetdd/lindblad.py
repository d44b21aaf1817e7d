"""Dense Lindblad master-equation engine for small systems (d <= 16).

Models are time independent (the Floquet-Markov equation is integrated in
the interaction picture, the optical Bloch equations in the rotating
frame), so the master equation

    drho/dt = -i [H, rho] + sum_k g_k (L rho L^+ - {L^+ L, rho} / 2)

is a constant linear map on the C-order vectorized state.  Evolution is
exact: one superoperator exponential per distinct report interval,
applied in order with Hermitization after every step.  The same
superoperator matrix gives steady states and cross checks.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .bath import AtomGeometry, BathParams, gamma_thermal_pair, gamma_thermal_single, omega_dd
from .dipole import build_channels, build_hdp2, coupling_coefficients, matrix_elements
from .errors import HierarchyViolationError, PhysicsError, SteadyStateDegeneracyError
from .floquet import (
    SIGMA_MINUS,
    SIGMA_X,
    SIGMA_Z,
    DriveParams,
    FloquetSolution,
    TimeGrid,
    collective_pair,
    dressed_states,
    floquet_solve,
    kron,
    site_op,
)
from .validity import HIERARCHY_MARGIN, timescale_report

_RATE_CLAMP_TOL = 1e-12
# A Hamiltonian whose anti-Hermitian part exceeds this share of its largest
# entry (at least 1) is refused: assembly round-off stays far below it.
_HAMILTONIAN_HERMITICITY_TOL = 1e-12

# steady_state:
# - singular values below _NULL_SPACE_GAP * sigma_max(L) span the null space; the
#   SVD resolves about 1e-16 relative, and the gap leaves four decades for
#   the round-off of the assembled L;
# - a unit-norm null vector with |trace| below _NULL_TRACE_FLOOR is traceless
#   up to round-off and cannot be normalized to a state;
# - a normalized state with ||L rho|| above _STEADY_RESIDUAL_TOL * max(||L||_F, 1)
#   is no null state within round-off.
_NULL_SPACE_GAP = 1e-12
_NULL_TRACE_FLOOR = 1e-14
_STEADY_RESIDUAL_TOL = 1e-10

# The largest departures from Hermiticity, unit trace and positivity that
# validate_density_matrix still takes for round-off; beyond them a state is wrong.
_HERMITICITY_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIGENVALUE_FLOOR = -1e-9

# Dressed product states of the pair, in the order of the FME basis and of
# the rows of every two-atom matrix built from the Floquet solution.
DRESSED_PAIR_LABELS = ("++", "+-", "-+", "--")

# Report times per dressed beat in fme_vs_obe_compare: enough to resolve the
# beat that its moving average (10/omega_gen, about 1.6 beats) smooths away.
_REPORTS_PER_BEAT = 16


@dataclass(frozen=True)
class LindbladModel:
    """Hermitian Hamiltonian plus a list of (rate, jump operator) channels.

    Rates must be non-negative; round-off negatives within 1e-12 of the
    largest rate are clamped to zero with a warning, anything below that is
    rejected.
    """

    hamiltonian: np.ndarray
    channels: tuple = ()
    dimension: int = field(init=False)

    def __post_init__(self):
        h = np.asarray(self.hamiltonian, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("hamiltonian must be a square matrix")
        scale = max(float(np.max(np.abs(h))), 1.0)
        if np.max(np.abs(h - h.conj().T)) > _HAMILTONIAN_HERMITICITY_TOL * scale:
            raise ValueError("hamiltonian must be Hermitian")
        object.__setattr__(self, "hamiltonian", h)
        object.__setattr__(self, "dimension", h.shape[0])

        rate_scale = max((abs(float(r)) for r, _ in self.channels), default=0.0)
        cleaned = []
        for rate, op in self.channels:
            op = np.asarray(op, dtype=complex)
            if op.shape != h.shape:
                raise ValueError("jump operator dimension mismatch")
            rate = float(rate)
            if rate < 0.0:
                if rate < -_RATE_CLAMP_TOL * max(rate_scale, 1.0):
                    raise ValueError(f"negative channel rate {rate:.3e}")
                warnings.warn("clamping round-off-negative channel rate to zero")
                rate = 0.0
            cleaned.append((rate, op))
        object.__setattr__(self, "channels", tuple(cleaned))

    @property
    def max_rate(self) -> float:
        return max((r for r, _ in self.channels), default=0.0)


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check Hermiticity, unit trace and near-positivity of a state.

    Accepts one state (d, d) or a stack (..., d, d); every state in the
    stack must pass.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    if not np.all(np.isfinite(rho)):
        raise ValueError("density matrix has non-finite entries")
    rho_dag = np.swapaxes(rho, -1, -2).conj()
    if np.any(np.abs(rho - rho_dag) > _HERMITICITY_TOL):
        raise ValueError("density matrix is not Hermitian")
    trace = np.trace(rho, axis1=-2, axis2=-1)
    if np.any(np.abs(trace.real - 1.0) > _TRACE_TOL) or np.any(np.abs(trace.imag) > _TRACE_TOL):
        raise ValueError("density matrix trace differs from one")
    if np.any(np.linalg.eigvalsh(0.5 * (rho + rho_dag)) < _EIGENVALUE_FLOOR):
        raise ValueError("density matrix has a significantly negative eigenvalue")
    return rho


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Superoperator matrix acting on C-order vectorized density matrices."""
    ident = np.eye(model.dimension, dtype=complex)
    h = model.hamiltonian
    out = -1j * (kron(h, ident) - kron(ident, h.T))
    for rate, op in model.channels:
        ldl = op.conj().T @ op
        out += rate * (
            kron(op, op.conj())
            - 0.5 * kron(ldl, ident)
            - 0.5 * kron(ident, ldl.T)
        )
    return out


def evolve(model: LindbladModel, rho0: np.ndarray, times) -> np.ndarray:
    """Exact states of the master equation at the requested times.

    The generator is time independent, so the state after a report
    interval dt is expm(L dt) applied to the previous one.  One exponential
    is taken per distinct interval (the first interval runs from t = 0 to
    ``times[0]``); the steps are applied in order, each followed by
    Hermitization rho -> (rho + rho^+)/2.  Every returned state is checked
    for Hermiticity, unit trace and near-positivity.  An invalid ``rho0`` is
    a ``ValueError``; failing returned states are a :class:`PhysicsError`,
    as their round-off grows with ||L|| t_final, not with the step size.
    """
    from scipy.linalg import expm

    rho = validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0.0 or np.any(np.diff(times) < 0.0):
        raise ValueError("times must be non-negative and non-decreasing")

    liou = build_liouvillian(model)
    intervals, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    steppers = [expm(liou * dt) for dt in intervals]
    d = model.dimension
    out = np.empty((times.size, d, d), dtype=complex)
    for k, idx in enumerate(which):
        rho = (steppers[idx] @ rho.reshape(-1)).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        out[k] = rho
    try:
        return validate_density_matrix(out)
    except ValueError as err:
        scale = np.linalg.norm(liou, 2) * times[-1]
        raise PhysicsError(
            f"evolved states are not density matrices ({err}): the round-off of "
            f"the exponentials builds up over ||L|| * t_final = {scale:.1e}; "
            "choose a shorter t_final"
        ) from err


def steady_state(model: LindbladModel) -> np.ndarray:
    """Unique trace-one null state of the Liouvillian.

    Found from the singular value decomposition; raises
    :class:`SteadyStateDegeneracyError` when the null space is not
    one-dimensional (gap tolerance 1e-12 relative to the largest singular
    value).
    """
    liou = build_liouvillian(model)
    _, singulars, vh = np.linalg.svd(liou)
    tol = _NULL_SPACE_GAP * singulars[0]
    multiplicity = int(np.sum(singulars <= tol))
    if multiplicity != 1:
        raise SteadyStateDegeneracyError(max(multiplicity, 2))
    vec = vh[-1].conj()
    d = model.dimension
    rho = vec.reshape(d, d)
    rho = 0.5 * (rho + rho.conj().T)
    trace = np.trace(rho).real
    if abs(trace) < _NULL_TRACE_FLOOR:
        raise SteadyStateDegeneracyError(2)
    rho = rho / trace
    residual = np.linalg.norm(liou @ rho.reshape(-1))
    if residual > _STEADY_RESIDUAL_TOL * max(np.linalg.norm(liou), 1.0):
        raise SteadyStateDegeneracyError(2)
    return rho


def fme_model(sol: FloquetSolution, geometry: AtomGeometry, bath: BathParams) -> LindbladModel:
    """Floquet-Markov model of the driven pair in the product Floquet basis.

    The Hamiltonian is the dressed-pair dipole Hamiltonian from the coupling
    coefficients and the channels are the six collective decay channels,
    both from the sideband matrix elements of ``sol``.
    """
    table = matrix_elements(sol)
    coeff = coupling_coefficients(table, sol, geometry)
    channels = build_channels(table, sol, geometry, bath)
    return LindbladModel(hamiltonian=build_hdp2(coeff), channels=tuple(channels))


def obe_reference(drive: DriveParams, geometry: AtomGeometry, bath: BathParams) -> LindbladModel:
    """Optical Bloch equations of the pair in the rotating frame.

    Hamiltonian per atom: rabi/2 * sigma_x - detuning/2 * sigma_z, plus the
    bare flip-flop coupling omega_dd(omega_eg) * (s+ s- + s- s+).  Decay
    channels use the bare symmetric/antisymmetric lowering combinations
    with rates Gamma_11 +- Gamma_12 at omega_eg; for a warm bath the
    corresponding raising channels appear with the rates at -omega_eg.
    Bare basis ordering: {|ee>, |eg>, |ge>, |gg>}.
    """
    w_eg = drive.omega_eg
    g11_down = gamma_thermal_single(w_eg, geometry, bath)
    g11_up = gamma_thermal_single(-w_eg, geometry, bath)

    h = sum(
        0.5 * drive.rabi * site_op(SIGMA_X, i, 2) - 0.5 * drive.detuning * site_op(SIGMA_Z, i, 2)
        for i in (0, 1)
    )
    raiser = SIGMA_MINUS.conj().T
    flip_flop = kron(raiser, SIGMA_MINUS) + kron(SIGMA_MINUS, raiser)
    h = h + omega_dd(w_eg, geometry) * flip_flop

    g12_down = gamma_thermal_pair(w_eg, geometry, bath)
    g12_up = gamma_thermal_pair(-w_eg, geometry, bath)
    low_sym, low_asym = collective_pair(SIGMA_MINUS)
    channels = [(g11_down + g12_down, low_sym), (g11_down - g12_down, low_asym)]
    if g11_up > 0.0:
        channels.append((g11_up + g12_up, low_sym.conj().T))
        channels.append((g11_up - g12_up, low_asym.conj().T))
    return LindbladModel(hamiltonian=h, channels=tuple(channels))


def coarse_grained_coefficients(theta_m: float, omega_dd_val: float) -> tuple[float, float]:
    """Closed-form coupling coefficients after time averaging the flip-flop.

        c_++ = 2 * W * cos^2(theta/2) sin^2(theta/2)
        c_+- = W * (sin^4(theta/2) + cos^4(theta/2))

    Their sum equals W for every mixing angle.
    """
    if not (0.0 <= theta_m <= np.pi):
        raise ValueError("theta_m must lie in [0, pi]")
    s2 = np.sin(0.5 * theta_m) ** 2
    c2 = np.cos(0.5 * theta_m) ** 2
    return (2.0 * omega_dd_val * c2 * s2, omega_dd_val * (s2 * s2 + c2 * c2))


def smoothed_populations(populations: np.ndarray, window: int) -> tuple[np.ndarray, slice]:
    """Centered moving average along the first axis.

    Returns the smoothed array together with the slice of original indices
    it aligns with (edges where the window does not fit are dropped).
    """
    populations = np.asarray(populations, dtype=float)
    if window < 1 or window % 2 == 0:
        raise ValueError("window must be a positive odd number of samples")
    if window > populations.shape[0]:
        raise ValueError("window exceeds the trajectory length")
    kernel = np.full(window, 1.0 / window)
    cols = [np.convolve(populations[:, j], kernel, mode="valid") for j in range(populations.shape[1])]
    half = (window - 1) // 2
    return np.stack(cols, axis=1), slice(half, populations.shape[0] - half)


@dataclass(frozen=True)
class FmeObeComparison:
    """Outcome of evolving the Floquet-Markov and Bloch models side by side.

    Populations are in the dressed/Floquet product basis ordering
    ``DRESSED_PAIR_LABELS``; the smoothed Bloch populations carry a centered
    moving average over ``window_samples`` report steps (10/omega_gen
    rounded to steps, then up to odd) and align with ``times[interior]``.
    ``window_samples`` and ``max_deviation`` are read from the stored arrays.
    """

    times: np.ndarray
    pop_fme: np.ndarray
    pop_obe: np.ndarray
    pop_obe_smoothed: np.ndarray
    interior: slice

    @property
    def window_samples(self) -> int:
        return len(self.times) - len(self.pop_obe_smoothed) + 1

    @property
    def max_deviation(self) -> float:
        """Largest |FME - smoothed Bloch| population over the interior report times."""
        return float(np.max(np.abs(self.pop_fme[self.interior] - self.pop_obe_smoothed)))


def fme_vs_obe_compare(
    drive: DriveParams,
    geometry: AtomGeometry,
    bath: BathParams,
    horizon: float,
    initial_label: str,
    n_samples: int,
) -> FmeObeComparison:
    """Compare Floquet-Markov and Bloch-equation dynamics for the pair.

    Refuses (raising :class:`HierarchyViolationError`) unless the weak
    drive hierarchy 1/omega << 1/omega_gen << 1/|omega_dd| holds by
    ``HIERARCHY_MARGIN`` and the quasienergy-spacing time scale is finite.
    Both models start in the same dressed product state and are advanced
    with :func:`evolve` on the uniform report grid; the
    Bloch trajectory is rotated into the dressed basis and smoothed over a
    10/omega_gen window before the deviation is taken.
    """
    report = timescale_report(drive, geometry, bath, n_samples=n_samples)
    scales_ok = (
        report.hierarchy_ok
        and report.tau_omega * HIERARCHY_MARGIN <= report.tau_omega_gen
        and report.tau_omega_gen * HIERARCHY_MARGIN <= report.tau_s
    )
    if not scales_ok:
        raise HierarchyViolationError(
            "time-scale hierarchy violated: "
            f"tau_omega={report.tau_omega:.3e}, tau_mu={report.tau_mu:.3e}, "
            f"tau_omega_gen={report.tau_omega_gen:.3e}, tau_s={report.tau_s:.3e} "
            f"(margin factor {HIERARCHY_MARGIN})"
        )
    gen = dressed_states(drive)

    if initial_label not in DRESSED_PAIR_LABELS:
        raise ValueError(f"initial_label must be one of {sorted(DRESSED_PAIR_LABELS)}")
    start = DRESSED_PAIR_LABELS.index(initial_label)
    rho_f0 = np.zeros((4, 4), dtype=complex)
    rho_f0[start, start] = 1.0

    fme = fme_model(floquet_solve(drive, TimeGrid.for_drive(drive, n_samples)), geometry, bath)
    obe = obe_reference(drive, geometry, bath)

    # Dressed single-atom frame at t=0: columns |+>, |->.
    w1 = np.stack([gen.plus_state(), gen.minus_state()], axis=1)
    w2 = kron(w1, w1)
    rho_o0 = w2 @ rho_f0 @ w2.conj().T

    beat = 2.0 * np.pi / gen.omega_gen
    n_report = max(400, int(np.ceil(horizon / beat * _REPORTS_PER_BEAT)))
    times = np.linspace(0.0, horizon, n_report + 1)

    traj_f = evolve(fme, rho_f0, times)
    traj_o = evolve(obe, rho_o0, times)

    pop_f = np.real(np.einsum("tii->ti", traj_f))
    dressed_o = np.einsum("ij,tjk,kl->til", w2.conj().T, traj_o, w2)
    pop_o = np.real(np.einsum("tii->ti", dressed_o))

    dt_report = times[1] - times[0]
    # an odd number of samples centres the average on a report time
    window = max(int(round(10.0 / gen.omega_gen / dt_report)), 1) | 1
    smoothed, interior = smoothed_populations(pop_o, window)
    return FmeObeComparison(
        times=times, pop_fme=pop_f, pop_obe=pop_o, pop_obe_smoothed=smoothed, interior=interior
    )
