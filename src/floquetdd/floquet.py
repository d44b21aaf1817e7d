"""Single-atom Floquet problem for a cosine-driven two-level atom.

The lab-frame Hamiltonian, in the basis ``{|e>, |g>}`` (index 0 = excited),
is

    H(t) = rabi * cos(omega * t) * sigma_x + (omega_eg / 2) * sigma_z

All frequencies are angular (rad/s).  Propagators are products of exact
2x2 exponentials of a fourth-order commutator-free Magnus (CF4) step.  H is
traceless, so they lie in SU(2) and are held as pairs (alpha, beta) of
U = [[alpha, beta], [-conj(beta), conj(alpha)]], multiplied elementwise;
one step builder feeds both the per-sample propagation (a log-depth prefix
scan) and the cell-vectorized quasienergy map.  Quasienergies are folded
into the zone ``(-omega/2, omega/2]`` and the two Floquet branches are
labelled "+" / "-" by overlap with the analytic weak-drive dressed states.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQuasienergiesError, SidebandTruncationError, UndefinedMixingAngleError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Two-point Gauss-Legendre nodes and weights of the fourth-order
# commutator-free Magnus step: one step over h is
#   exp(-i h (A1*H(c1) + A2*H(c2))) applied after exp(-i h (A2*H(c1) + A1*H(c2)))
_CF4_NODE_1 = 0.5 - np.sqrt(3.0) / 6.0
_CF4_NODE_2 = 0.5 + np.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 - np.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 + np.sqrt(3.0) / 6.0

_DEGENERACY_TOL = 1e-12
# Fourier weight of a mode beyond the sideband cutoff is dropped from every
# sideband sum, so it bounds the error of the sum rule.
_DISCARDED_WEIGHT_TOL = 1e-12
# Overlaps (or |e> populations) of the two Floquet vectors closer than this
# are a tie: round-off of the eigenvectors could decide the branch labels.
_BRANCH_TIE_TOL = 1e-12
# The sideband cutoff the truncation search starts from; it grows by 2 until
# the discarded Fourier weight is below _DISCARDED_WEIGHT_TOL.
_MIN_TRUNCATION = 16


@dataclass(frozen=True)
class DriveParams:
    """Monochromatic drive acting on one two-level atom.

    Attributes:
        omega: drive angular frequency (rad/s, > 0)
        rabi: Rabi frequency (rad/s, >= 0)
        omega_eg: atomic transition angular frequency (rad/s, > 0)
        detuning: omega - omega_eg, stored for convenience
    """

    omega: float
    rabi: float
    omega_eg: float
    detuning: float = field(init=False)

    def __post_init__(self):
        for name in ("omega", "rabi", "omega_eg"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.omega <= 0.0:
            raise ValueError("omega must be positive")
        if self.omega_eg <= 0.0:
            raise ValueError("omega_eg must be positive")
        if self.rabi < 0.0:
            raise ValueError("rabi must be non-negative")
        object.__setattr__(self, "detuning", self.omega - self.omega_eg)

    @classmethod
    def from_detuning(cls, omega: float, rabi: float, detuning: float) -> "DriveParams":
        return cls(omega=omega, rabi=rabi, omega_eg=omega - detuning)

    @property
    def period(self) -> float:
        return 2.0 * np.pi / self.omega


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling of one drive period.

    ``n_samples`` must be a power of two (>= 64) so discrete Fourier
    transforms pair exactly with the sample grid.  Sample k sits at
    ``t_k = k * period / n_samples``.
    """

    n_samples: int
    period: float

    def __post_init__(self):
        n = self.n_samples
        if n < 64 or (n & (n - 1)) != 0:
            raise ValueError("n_samples must be a power of two, at least 64")
        if not (np.isfinite(self.period) and self.period > 0.0):
            raise ValueError("period must be positive and finite")

    @classmethod
    def for_drive(cls, drive: DriveParams, n_samples: int = 1024) -> "TimeGrid":
        return cls(n_samples=n_samples, period=drive.period)

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * (self.period / self.n_samples)


@dataclass(frozen=True)
class DressedStates:
    """Weak-drive (rotating wave) dressed-state reference.

    ``cos(theta_m) = -detuning / omega_gen`` with ``theta_m`` in [0, pi];
    the unfolded quasienergies are ``(omega +- omega_gen) / 2``.
    """

    theta_m: float
    mu_plus: float
    mu_minus: float
    omega_gen: float

    def plus_state(self) -> np.ndarray:
        """|+> at t=0 in the bare basis {|e>, |g>} (drive phase removed)."""
        half = 0.5 * self.theta_m
        return np.array([np.cos(half), np.sin(half)], dtype=complex)

    def minus_state(self) -> np.ndarray:
        half = 0.5 * self.theta_m
        return np.array([-np.sin(half), np.cos(half)], dtype=complex)


@dataclass(frozen=True)
class FloquetSolution:
    """Quasienergies, periodic modes and sideband amplitudes of one atom.

    Branch index 0 is "+", branch index 1 is "-".  ``modes[b, k]`` is the
    periodic mode phi_b(t_k) in the bare basis; ``fourier[b, truncation + n]``
    is the Fourier amplitude phi_b^(n) with phi(t) = sum_n phi^(n) e^{i n w t},
    for |n| <= truncation.
    """

    drive: DriveParams
    grid: TimeGrid
    mu_plus: float
    mu_minus: float
    modes: np.ndarray
    fourier: np.ndarray
    truncation: int

    def sideband_weights(self, branch: int) -> np.ndarray:
        """|phi^(n)|^2 summed over components, n = -truncation..truncation."""
        return np.sum(np.abs(self.fourier[branch]) ** 2, axis=-1)


def fold_to_zone(mu: float, omega: float) -> float:
    """Fold a quasienergy into the zone (-omega/2, omega/2].

    The result is congruent to ``mu`` modulo ``omega``.
    """
    if not (np.isfinite(mu) and np.isfinite(omega)):
        raise ValueError("mu and omega must be finite")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    folded = mu - omega * np.floor(mu / omega + 0.5)
    if folded <= -0.5 * omega:
        folded += omega
    return float(folded)


def _su2_exponentials(px: np.ndarray, pz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(-i (px*sigma_x + pz*sigma_z)) as the SU(2) pair (alpha, beta).

    The pair stands for U = [[alpha, beta], [-conj(beta), conj(alpha)]].
    Exact for every input; broadcasts over the coefficient arrays.
    """
    angle = np.hypot(px, pz)
    # sin(a)/a is 1 at a=0; the where-guard avoids 0/0.
    safe = np.where(angle == 0.0, 1.0, angle)
    sinc = np.where(angle == 0.0, 1.0, np.sin(safe) / safe)
    return np.cos(angle) - 1j * sinc * pz, -1j * sinc * px


def _su2_product(a1, b1, a2, b2) -> tuple[np.ndarray, np.ndarray]:
    """The SU(2) pair of U1 @ U2, elementwise over broadcast pairs."""
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def _cf4_steps(rabi, omega_eg, omega: float, dt: float, t0) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) pairs of the CF4 step U(t0 + dt, t0), broadcast over the inputs."""
    hx1 = rabi * np.cos(omega * (t0 + _CF4_NODE_1 * dt))
    hx2 = rabi * np.cos(omega * (t0 + _CF4_NODE_2 * dt))
    pz = dt * 0.5 * (0.5 * omega_eg)
    first = _su2_exponentials(dt * (_CF4_A2 * hx1 + _CF4_A1 * hx2), pz)
    second = _su2_exponentials(dt * (_CF4_A1 * hx1 + _CF4_A2 * hx2), pz)
    return _su2_product(*second, *first)


def propagate_period(drive: DriveParams, grid: TimeGrid) -> np.ndarray:
    """Propagators U(t_k, 0) over one period, shape (n_samples + 1, 2, 2).

    Entry k is U(t_k, 0) with t_k = k * period / n_samples; entry 0 is the
    identity and the last entry is the one-period (monodromy) propagator.
    Each CF4 step is an exact 2x2 exponential held as an SU(2) pair
    (alpha, beta); the prefix products of all steps come from a log-depth
    (Hillis-Steele) scan, log2(n_samples) elementwise pair products, so
    every entry has the SU(2) form exactly and is unitary to round-off.
    """
    dt = grid.period / grid.n_samples
    a, b = _cf4_steps(
        drive.rabi, drive.omega_eg, drive.omega, dt, np.arange(grid.n_samples) * dt
    )
    shift = 1
    while shift < grid.n_samples:
        # Later steps act from the left: x[k] <- x[k] @ x[k - shift].
        a[shift:], b[shift:] = _su2_product(a[shift:], b[shift:], a[:-shift], b[:-shift])
        shift *= 2
    out = np.empty((grid.n_samples + 1, 2, 2), dtype=complex)
    out[0] = np.eye(2)
    out[1:, 0, 0] = a
    out[1:, 0, 1] = b
    out[1:, 1, 0] = -np.conj(b)
    out[1:, 1, 1] = np.conj(a)
    return out


def dressed_states(drive: DriveParams) -> DressedStates:
    """Analytic rotating-wave dressed states of the drive.

    Raises :class:`UndefinedMixingAngleError` when the generalized Rabi
    frequency sqrt(detuning^2 + rabi^2) vanishes.
    """
    omega_gen = float(np.hypot(drive.detuning, drive.rabi))
    if omega_gen == 0.0:
        raise UndefinedMixingAngleError(
            "omega_gen = 0: resonant undriven atom has no dressed basis"
        )
    theta = float(np.arccos(np.clip(-drive.detuning / omega_gen, -1.0, 1.0)))
    return DressedStates(
        theta_m=theta,
        mu_plus=0.5 * (drive.omega + omega_gen),
        mu_minus=0.5 * (drive.omega - omega_gen),
        omega_gen=omega_gen,
    )


def _orthonormal_eigenpairs(monodromy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and orthonormalized eigenvectors of a 2x2 unitary."""
    values, vectors = np.linalg.eig(monodromy)
    if abs(values[0] - values[1]) < _DEGENERACY_TOL:
        raise DegenerateQuasienergiesError(
            "monodromy eigenvalues coincide within 1e-12; "
            "perturb the drive parameters"
        )
    v0 = vectors[:, 0] / np.linalg.norm(vectors[:, 0])
    v1 = vectors[:, 1] - v0 * np.vdot(v0, vectors[:, 1])
    v1 = v1 / np.linalg.norm(v1)
    return values, np.stack([v0, v1], axis=1)


def floquet_solve(drive: DriveParams, grid: TimeGrid) -> FloquetSolution:
    """Solve the one-atom Floquet problem on the given grid.

    Diagonalizes the monodromy operator, folds the eigenphases into the
    quasienergy zone, and builds the periodic modes phi(t_k) together with
    their Fourier amplitudes.  The sideband truncation is the smallest
    cutoff 16, 18, ..., n_samples / 4 at which the discarded Fourier weight
    of both branches is below 1e-12; when even n_samples / 4 leaves more,
    a :class:`SidebandTruncationError` asks for a larger ``n_samples``.
    """
    propagators = propagate_period(drive, grid)
    values, vectors = _orthonormal_eigenpairs(propagators[-1])

    mus = [fold_to_zone(-float(np.angle(v)) / grid.period, drive.omega) for v in values]

    # Branch labels: maximal overlap with the analytic dressed "+" state at
    # t=0; ties fall back to the |e> population, then the folded quasienergy.
    try:
        plus_ref = dressed_states(drive).plus_state()
        overlaps = np.abs(plus_ref.conj() @ vectors) ** 2
    except UndefinedMixingAngleError:
        overlaps = np.abs(vectors[0, :]) ** 2
    if abs(overlaps[0] - overlaps[1]) > _BRANCH_TIE_TOL:
        plus = int(np.argmax(overlaps))
    else:
        e_pop = np.abs(vectors[0, :]) ** 2
        if abs(e_pop[0] - e_pop[1]) > _BRANCH_TIE_TOL:
            plus = int(np.argmax(e_pop))
        else:
            plus = int(np.argmax(mus))
    minus = 1 - plus

    times = grid.times()
    # phi_b(t_k) = e^{i mu_b t_k} U(t_k, 0) v_b
    modes = np.empty((2, grid.n_samples, 2), dtype=complex)
    for row, branch in enumerate((plus, minus)):
        phases = np.exp(1j * mus[branch] * times)
        modes[row] = phases[:, None] * (propagators[:-1] @ vectors[:, branch])

    # phi^(n) = (1/T) integral phi(t) e^{-i n w t} dt  ->  forward DFT / n.
    spectra = np.fft.fft(modes, axis=1) / grid.n_samples
    weights = np.sum(np.abs(spectra) ** 2, axis=-1)

    cap = grid.n_samples // 4
    for m_kept in range(_MIN_TRUNCATION, cap + 1, 2):
        kept = np.concatenate([np.arange(0, m_kept + 1), np.arange(-m_kept, 0)])
        discarded = 1.0 - weights[:, kept].sum(axis=1).min()
        if discarded < _DISCARDED_WEIGHT_TOL:
            break
    else:
        raise SidebandTruncationError(
            f"Floquet modes not resolved: {discarded:.1e} of their Fourier weight "
            f"lies beyond the largest sideband cutoff n_samples / 4 = {cap} "
            f"(limit {_DISCARDED_WEIGHT_TOL:.0e}); increase numerics.n_samples"
        )

    indexes = np.arange(-m_kept, m_kept + 1) % grid.n_samples
    fourier = spectra[:, indexes, :]

    return FloquetSolution(
        drive=drive,
        grid=grid,
        mu_plus=mus[plus],
        mu_minus=mus[minus],
        modes=modes,
        fourier=fourier,
        truncation=m_kept,
    )


def quasienergy_magnitude_map(
    rabi_values: np.ndarray,
    omega_eg_values: np.ndarray,
    omega: float,
    n_samples: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """|mu_+| and cos(mu_+ T) on a (rabi, omega_eg) parameter grid.

    Vectorized over all grid cells at once: the monodromy of the traceless
    2x2 problem lies in SU(2), so |mu_+| = arccos(Re tr U / 2) / T without
    any eigendecomposition or branch labelling.  Returns two arrays of shape
    ``(len(rabi_values), len(omega_eg_values))``: the folded quasienergy
    magnitude and the monodromy half-trace (useful for crossing detection).
    """
    if omega <= 0.0 or not np.isfinite(omega):
        raise ValueError("omega must be positive and finite")
    rabi = np.asarray(rabi_values, dtype=float)
    omega_eg = np.asarray(omega_eg_values, dtype=float)
    if rabi.ndim != 1 or omega_eg.ndim != 1 or rabi.size == 0 or omega_eg.size == 0:
        raise ValueError("rabi_values and omega_eg_values must be non-empty 1-d arrays")
    period = 2.0 * np.pi / omega
    dt = period / n_samples

    rr = rabi[:, None]
    ee = omega_eg[None, :]
    a = np.ones((rabi.size, omega_eg.size), dtype=complex)
    b = np.zeros_like(a)
    for k in range(n_samples):
        a, b = _su2_product(*_cf4_steps(rr, ee, omega, dt, k * dt), a, b)

    # tr U = alpha + conj(alpha) for an SU(2) pair.
    half_trace = np.clip(np.real(a), -1.0, 1.0)
    mu_abs = np.arccos(half_trace) / period
    return mu_abs, half_trace
