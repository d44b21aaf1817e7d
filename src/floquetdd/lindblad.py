"""Dense Lindblad master-equation engine for small systems (d <= 16).

Models are time independent (the Floquet-Markov equation is integrated in
the interaction picture, the optical Bloch equations in the rotating
frame), so the master equation

    drho/dt = -i [H, rho] + sum_k g_k (L rho L^+ - {L^+ L, rho} / 2)

is a constant linear map on the C-order vectorized state.  Evolution is
exact up to round-off on a uniform report grid ``np.linspace(0, t_final,
n)``: one superoperator exponential P = expm(L dt) of the report step,
whose powers P^k rho0 are built in blocks of about sqrt(n) and
Hermitized once; their round-off grows with ||L|| * t_final.  The same
superoperator matrix gives steady states and cross checks.
"""

from __future__ import annotations

import math
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
# validate_density_matrix runs each check on this many states at a time, so
# its temporaries stay near 2.5 times the chunk (1024 states of a pair,
# 256 kB) however long the stack.  On 7642 pair states the checks take
# 6.4 ms in chunks of 128, 4.4 ms in chunks of 1024 and 4.2 ms in chunks of
# 4096 (0.11, 0.66 and 2.2 MB of temporaries): past 1024, numpy's per-call
# overhead no longer shows.  evolve Hermitizes its stack in the same chunks.
_VALIDATION_CHUNK = 1024

# Dressed product states of the pair, in the order of the FME basis and of
# the rows of every two-atom matrix built from the Floquet solution.
DRESSED_PAIR_LABELS = ("++", "+-", "-+", "--")

# The largest count a run may ask for: evolve's report times (the CLI's
# evolve n_times and compare's report grid), taumap's n_rabi and n_omega_eg,
# and their product, the taumap cell count.  Every counted entry is held in
# memory at once, at a peak of about 0.29 kB per evolve time (0.285 kB at
# 1e5 times on the Bloch pair: its 0.256 kB of states, Hermitized in place)
# and 0.2 kB per taumap cell, and written as one CSV row, so a run at the cap
# stays within about 0.65 GB (a compare, which holds both trajectories, peaks
# at 0.617 kB per report time at 1e5 times); a count is refused before any
# array is allocated.
MAX_COUNT = 1_000_000

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
    stack must pass.  The checks run in this order, each over the whole
    stack before the next starts, so a stack that fails several is refused
    by the first: finite entries, Hermiticity within 1e-10 per entry, trace
    within 1e-10 of one, and no eigenvalue of the Hermitian part below
    -1e-9.  Positivity is a Cholesky factorization of the Hermitian part
    plus 1e-9 * 1, which succeeds exactly when its smallest eigenvalue lies
    above -1e-9 (up to round-off).  Every check works through the stack in
    chunks of ``_VALIDATION_CHUNK`` states, so no temporary grows with it.
    """
    return _check_states(rho, hermitian=False)


def _check_states(rho, hermitian: bool) -> np.ndarray:
    """The checks of :func:`validate_density_matrix`, in its order; a stack
    known to be exactly Hermitian (``hermitian``) skips that check."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError("density matrix must be square")
    d = rho.shape[-1]
    flat = rho.reshape(math.prod(rho.shape[:-2]), d, d)
    chunks = [flat[k : k + _VALIDATION_CHUNK] for k in range(0, len(flat), _VALIDATION_CHUNK)]
    diagonal = np.arange(d)

    def non_hermitian(chunk):
        return np.any(np.abs(chunk - np.swapaxes(chunk, 1, 2).conj()) > _HERMITICITY_TOL)

    def off_trace(chunk):
        trace = np.trace(chunk, axis1=1, axis2=2)
        real_off, imag_off = np.abs(trace.real - 1.0), np.abs(trace.imag)
        return np.any(real_off > _TRACE_TOL) or np.any(imag_off > _TRACE_TOL)

    def negative(chunk):
        shifted = 0.5 * (chunk + np.swapaxes(chunk, 1, 2).conj())
        shifted[:, diagonal, diagonal] -= _EIGENVALUE_FLOOR
        try:
            np.linalg.cholesky(shifted)
        except np.linalg.LinAlgError:
            return True
        return False

    for fails, message in (
        (lambda chunk: not np.all(np.isfinite(chunk)), "has non-finite entries"),
        (None if hermitian else non_hermitian, "is not Hermitian"),
        (off_trace, "trace differs from one"),
        (negative, "has a significantly negative eigenvalue"),
    ):
        if fails is not None and any(fails(chunk) for chunk in chunks):
            raise ValueError(f"density matrix {message}")
    return rho


def build_liouvillian(model: LindbladModel) -> np.ndarray:
    """Superoperator matrix acting on C-order vectorized density matrices.

    The dissipator terms g_k (L_k x conj(L_k) - (L_k^+ L_k x 1)/2 - (1 x (L_k^+ L_k)^T)/2)
    of all channels are built as one stack, and added to the Hamiltonian
    part one channel at a time, in channel order: the same sum, term for
    term, as a per-channel loop.
    """
    d = model.dimension
    ident = np.eye(d, dtype=complex)
    h = model.hamiltonian
    out = -1j * (kron(h, ident) - kron(ident, h.T))
    rates = np.array([rate for rate, _ in model.channels], dtype=float)
    ops = np.array([op for _, op in model.channels], dtype=complex).reshape(-1, d, d)
    ldl = np.swapaxes(ops.conj(), 1, 2) @ ops
    terms = rates[:, None, None] * (
        kron(ops, ops.conj())
        - 0.5 * kron(ldl, ident)
        - 0.5 * kron(ident, np.swapaxes(ldl, 1, 2))
    )
    # One channel at a time: terms.sum(axis=0) would reassociate the sum.
    for term in terms:
        out += term
    return out


def evolve(model: LindbladModel, rho0: np.ndarray, times) -> np.ndarray:
    """Exact states of the master equation on the uniform grid ``times``.

    ``times`` must equal ``np.linspace(0, t_final, n)`` bit for bit, with
    t_final > 0 and n >= 2; any other grid is a ``ValueError``.  The
    generator is time independent, so the state at report k is P^k rho0
    with P = expm(L dt), dt = ``times[1]``: the one exponential of the call.
    With B = isqrt(n - 1) + 1, the powers P^0 ... P^(B-1) and the block
    starts (P^B)^j rho0 are each built by a short loop, and every state is
    one batched product of the two.  The stack is Hermitized,
    rho -> (rho + rho^+)/2, which makes it exactly Hermitian (entries ij and
    ji are sums of the same two terms, conjugated), and every state is
    checked for finite entries, unit trace and near-positivity.  An invalid
    ``rho0`` is a ``ValueError``; failing returned states are a
    :class:`PhysicsError`, as their round-off grows with ||L|| t_final, not
    with the step size.
    """
    from scipy.linalg import expm

    rho = validate_density_matrix(rho0)
    times = np.asarray(times, dtype=float)
    uniform = (
        times.ndim == 1
        and times.size >= 2
        and times[-1] > 0.0
        and np.array_equal(times, np.linspace(0.0, times[-1], times.size))
    )
    if not uniform:
        raise ValueError("times must be np.linspace(0, t_final, n) with t_final > 0 and n >= 2")

    liou = build_liouvillian(model)
    step = expm(liou * times[1])
    n, d = times.size, model.dimension
    block = math.isqrt(n - 1) + 1
    powers = np.empty((block, d * d, d * d), dtype=complex)
    powers[0] = np.eye(d * d)
    for k in range(1, block):
        powers[k] = step @ powers[k - 1]
    stride = step @ powers[-1]
    starts = np.empty((-(-n // block), d * d), dtype=complex)
    starts[0] = rho.reshape(-1)
    for j in range(1, len(starts)):
        starts[j] = stride @ starts[j - 1]
    # state j * block + k is P^k (P^block)^j rho0
    states = np.tensordot(starts, powers, axes=(1, 2)).reshape(-1, d, d)[:n]
    # in place, a chunk at a time, so no conjugate copy of the whole stack is made
    for k in range(0, n, _VALIDATION_CHUNK):
        chunk = states[k : k + _VALIDATION_CHUNK]
        chunk += np.swapaxes(chunk, 1, 2).conj()
        chunk *= 0.5
    try:
        return _check_states(states, hermitian=True)
    except ValueError as err:
        scale = np.linalg.norm(liou, 2) * times[-1]
        raise PhysicsError(
            f"evolved states are not density matrices ({err}): the round-off of "
            f"the one exponential and its powers builds up over ||L|| * t_final = {scale:.1e}; "
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
    ``window_samples``, ``interior`` and ``max_deviation`` are read from the
    stored arrays.
    """

    times: np.ndarray
    pop_fme: np.ndarray
    pop_obe: np.ndarray
    pop_obe_smoothed: np.ndarray

    @property
    def window_samples(self) -> int:
        return len(self.times) - len(self.pop_obe_smoothed) + 1

    @property
    def interior(self) -> slice:
        """The report times the smoothed Bloch populations align with."""
        half = (self.window_samples - 1) // 2
        return slice(half, len(self.times) - half)

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
    ``HIERARCHY_MARGIN`` and the quasienergy-spacing time scale is finite,
    and (raising :class:`PhysicsError`) a ``horizon`` shorter than the
    10/omega_gen smoothing window or one whose report grid, 16 times per
    dressed beat, holds more than ``MAX_COUNT`` times, before any model or
    array is built.
    The Bloch model is rotated once into the dressed product basis of the
    Floquet-Markov model (H -> W^+ H W and L_k -> W^+ L_k W, rates
    unchanged); both then start in the same dressed product state and are
    advanced with :func:`evolve` on the uniform report grid, and the Bloch
    populations are smoothed over a 10/omega_gen window before the
    deviation is taken.
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
    # the Bloch populations are averaged over 10/omega_gen, which must fit in the horizon
    smoothing = float(10.0 / gen.omega_gen)
    if horizon < smoothing:
        raise PhysicsError(
            f"horizon {float(horizon)!r} s is shorter than the 10/omega_gen window that smooths "
            f"the Bloch populations; give a horizon of at least {smoothing!r} s"
        )
    beat = 2.0 * np.pi / gen.omega_gen
    # the report grid of n_report + 1 times is held in memory at once
    reports = horizon / beat * _REPORTS_PER_BEAT
    if reports > MAX_COUNT - 1:
        # the longest horizon taken, rounded down to three digits
        longest = (MAX_COUNT - 1) * beat / _REPORTS_PER_BEAT
        unit = 10.0 ** (math.floor(math.log10(longest)) - 2)
        raise PhysicsError(
            f"task.horizon {float(horizon)!r} s asks for about {reports:.3g} report times at "
            f"{_REPORTS_PER_BEAT} per dressed beat, more than the {MAX_COUNT:g} that fit in "
            f"memory; give a horizon of at most {math.floor(longest / unit) * unit:.3g} s"
        )

    if initial_label not in DRESSED_PAIR_LABELS:
        raise ValueError(f"initial_label must be one of {sorted(DRESSED_PAIR_LABELS)}")
    start = DRESSED_PAIR_LABELS.index(initial_label)
    rho_f0 = np.zeros((4, 4), dtype=complex)
    rho_f0[start, start] = 1.0

    fme = fme_model(floquet_solve(drive, TimeGrid.for_drive(drive, n_samples)), geometry, bath)
    # Dressed single-atom frame at t=0: columns |+>, |->.
    w1 = np.stack([gen.plus_state(), gen.minus_state()], axis=1)
    w2 = kron(w1, w1)
    bare = obe_reference(drive, geometry, bath)
    obe = LindbladModel(
        hamiltonian=w2.conj().T @ bare.hamiltonian @ w2,
        channels=tuple((rate, w2.conj().T @ op @ w2) for rate, op in bare.channels),
    )

    n_report = max(400, int(np.ceil(reports)))
    times = np.linspace(0.0, horizon, n_report + 1)
    # a copy of the diagonal, in columns, so that neither 4x4 stack outlives its populations
    pop_f, pop_o = (
        np.einsum("tii->ti", evolve(model, rho_f0, times)).real.copy(order="F")
        for model in (fme, obe)
    )

    dt_report = times[1] - times[0]
    # an odd number of samples centres the average on a report time
    window = max(int(round(smoothing / dt_report)), 1) | 1
    smoothed, _ = smoothed_populations(pop_o, window)
    return FmeObeComparison(times=times, pop_fme=pop_f, pop_obe=pop_o, pop_obe_smoothed=smoothed)
