"""Single-atom Floquet problem for a cosine-driven two-level atom.

The lab-frame Hamiltonian, in the basis ``{|e>, |g>}`` (index 0 = excited),
is

    H(t) = rabi * cos(omega * t) * sigma_x + (omega_eg / 2) * sigma_z

All frequencies are angular (rad/s).  Propagators are products of exact
2x2 exponentials of a fourth-order commutator-free Magnus (CF4) step.  H is
traceless, so they lie in SU(2) and are held as pairs (alpha, beta) of
U = [[alpha, beta], [-conj(beta), conj(alpha)]], multiplied elementwise;
one step builder feeds both the per-sample propagation (a log-depth prefix
scan) and the cell-vectorized quasienergy map.  Both take the quasienergies
+-mu, mu in [0, omega/2], from the eigenphase of the one-period (monodromy)
pair, so none needs folding; ``floquet_solve`` reads the Floquet vectors
from the same pair in closed form and labels the branches "+" / "-" by
overlap with the analytic weak-drive dressed states.

The module also holds the package's one two-level operator table: the
Pauli matrices, the lowering operator, their embedding on one site of N
atoms and the symmetric/antisymmetric pair combinations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateQuasienergiesError, SidebandTruncationError, UndefinedMixingAngleError

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Lowering operator |g><e| (|-><+| in a dressed basis).
SIGMA_MINUS = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two square matrices: the same products, without its generic set-up."""
    n = a.shape[0] * b.shape[0]
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(n, n)


def site_op(op: np.ndarray, site: int, n_atoms: int) -> np.ndarray:
    """One-atom ``op`` acting on atom ``site`` of ``n_atoms``, identity on every other atom."""
    mats = [np.eye(2, dtype=op.dtype)] * n_atoms
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = kron(out, m)
    return out


def collective_pair(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalized symmetric and antisymmetric pair combinations (op x 1 +- 1 x op) / sqrt(2)."""
    first, second = site_op(op, 0, 2), site_op(op, 1, 2)
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    return inv_sqrt2 * (first + second), inv_sqrt2 * (first - second)


# Two-point Gauss-Legendre nodes and weights of the fourth-order
# commutator-free Magnus step: one step over h is
#   exp(-i h (A1*H(c1) + A2*H(c2))) applied after exp(-i h (A2*H(c1) + A1*H(c2)))
_CF4_NODE_1 = 0.5 - np.sqrt(3.0) / 6.0
_CF4_NODE_2 = 0.5 + np.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 - np.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 + np.sqrt(3.0) / 6.0

# A quasienergy spacing below this fraction of omega counts as a collision:
# floquet_solve cannot separate the two branches there, and tau_mu diverges.
_DIVERGENCE_TOL = 1e-12
# Fourier weight of a mode beyond the sideband cutoff is dropped from every
# sideband sum, so it bounds the error of the sum rule.
_DISCARDED_WEIGHT_TOL = 1e-12
# Overlaps (or |e> populations) of the two Floquet vectors closer than this
# are a tie: round-off of the eigenvectors could decide the branch labels.
_BRANCH_TIE_TOL = 1e-12
# The sideband cutoff the truncation search starts from; it grows by 2 until
# the discarded Fourier weight is below _DISCARDED_WEIGHT_TOL.
_MIN_TRUNCATION = 16


def _below_floor(spacing, omega: float):
    """Whether a spacing lies below the collision floor _DIVERGENCE_TOL * omega (elementwise)."""
    return spacing < _DIVERGENCE_TOL * omega


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


def check_n_samples(n_samples: int) -> None:
    """Refuse a per-period sample count that is not a power of two, at least 64."""
    if n_samples < 64 or (n_samples & (n_samples - 1)) != 0:
        raise ValueError("n_samples must be a power of two, at least 64")


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
        check_n_samples(self.n_samples)
        if not (np.isfinite(self.period) and self.period > 0.0):
            raise ValueError("period must be positive and finite")

    @classmethod
    def for_drive(cls, drive: DriveParams, n_samples: int) -> "TimeGrid":
        return cls(n_samples=n_samples, period=drive.period)

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) * (self.period / self.n_samples)


@dataclass(frozen=True)
class DressedStates:
    """Weak-drive (rotating wave) dressed-state reference.

    ``cos(theta_m) = -detuning / omega_gen`` with ``theta_m`` in [0, pi];
    the unfolded weak-drive quasienergies are ``(omega +- omega_gen) / 2``.
    """

    theta_m: float
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

    Branch index 0 is "+", branch index 1 is "-".  ``mu_plus`` lies in
    ``(-omega/2, omega/2)`` and ``mu_minus`` is ``-mu_plus`` exactly: the
    quasienergies of an SU(2) monodromy are a +- pair.  ``modes[b, k]`` is the
    periodic mode phi_b(t_k) in the bare basis; ``fourier[b, truncation + n]``
    is the Fourier amplitude phi_b^(n) with phi(t) = sum_n phi^(n) e^{i n w t},
    for |n| <= truncation, the sideband cutoff read from the shape of
    ``fourier``.
    """

    drive: DriveParams
    grid: TimeGrid
    mu_plus: float
    modes: np.ndarray
    fourier: np.ndarray

    @property
    def mu_minus(self) -> float:
        return -self.mu_plus

    @property
    def truncation(self) -> int:
        return (self.fourier.shape[1] - 1) // 2

    def sideband_weights(self, branch: int) -> np.ndarray:
        """|phi^(n)|^2 summed over components, n = -truncation..truncation."""
        return np.sum(np.abs(self.fourier[branch]) ** 2, axis=-1)


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


def _su2_eigenphase(a, b) -> np.ndarray:
    """Eigenphase in [0, pi] of the SU(2) pair (a, b): U has eigenvalues exp(+-i phase).

    The eigenvalues are Re a +- i sqrt(Im(a)^2 + |b|^2), so arctan2 of that
    pair keeps full relative precision everywhere, also at the phases 0 and
    pi, where arccos(Re a) loses half the digits.
    """
    return np.arctan2(np.sqrt(np.imag(a) ** 2 + np.abs(b) ** 2), np.real(a))


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
    A ``grid`` whose period is not the drive's is refused with a
    ``ValueError``; :meth:`TimeGrid.for_drive` always matches.
    """
    if grid.period != drive.period:
        raise ValueError(
            f"grid period {grid.period!r} s differs from the drive period {drive.period!r} s; "
            "use TimeGrid.for_drive"
        )
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
    return DressedStates(theta_m=theta, omega_gen=omega_gen)


@functools.lru_cache(maxsize=1)
def floquet_solve(drive: DriveParams, grid: TimeGrid) -> FloquetSolution:
    """Solve the one-atom Floquet problem on a grid of the drive's period.

    Reads the quasienergies +-mu and the Floquet vectors in closed form from
    the monodromy pair (alpha, beta), refusing a spacing min(2 mu, omega -
    2 mu) below 1e-12 * omega, and builds the periodic modes phi(t_k) with
    their Fourier amplitudes.  The sideband truncation is the smallest
    cutoff 16, 18, ..., n_samples / 4 at which the discarded Fourier weight
    of both branches is below 1e-12; when even n_samples / 4 leaves more,
    a :class:`SidebandTruncationError` asks for a larger ``n_samples``.

    The last solution is remembered (``functools.lru_cache`` of size one):
    a call whose ``drive`` and ``grid`` equal those of the previous call
    returns that call's solution object again without recomputing it; a
    refused solve is never remembered and raises again on every repeat.
    ``modes`` and ``fourier`` of every returned solution are read-only, so
    that no caller can alter a solution another caller holds.
    """
    propagators = propagate_period(drive, grid)
    alpha, beta = propagators[-1, 0]
    mu = float(_su2_eigenphase(alpha, beta)) / grid.period
    spacing = min(2.0 * mu, drive.omega - 2.0 * mu)
    if _below_floor(spacing, drive.omega):
        raise DegenerateQuasienergiesError(
            f"quasienergies collide: their spacing {spacing / drive.omega:.1e} omega lies below "
            f"the floor {_DIVERGENCE_TOL:.0e} omega; perturb the drive parameters"
        )
    # Eigenvalues Re alpha -+ i s: v has exp(-i mu T), in the form free of
    # cancellation; w = (-conj(v1), conj(v0)) is orthogonal to it, with exp(+i mu T).
    s = np.sqrt(alpha.imag**2 + abs(beta) ** 2)
    if alpha.imag <= 0.0:
        v = np.array([s - alpha.imag, -1j * np.conj(beta)])
    else:
        v = np.array([1j * beta, s + alpha.imag])
    v /= np.linalg.norm(v)
    vectors = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])
    mus = (mu, -mu)

    # Branch labels: maximal overlap with the analytic dressed "+" state at
    # t=0; ties fall back to the |e> population, then the larger quasienergy.
    # dressed_states refuses only the resonant undriven atom, whose
    # monodromy is -I and so refused as a collision above.
    overlaps = np.abs(dressed_states(drive).plus_state().conj() @ vectors) ** 2
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
    modes.flags.writeable = False
    fourier.flags.writeable = False

    return FloquetSolution(
        drive=drive,
        grid=grid,
        mu_plus=mus[plus],
        modes=modes,
        fourier=fourier,
    )


def quasienergy_magnitude_map(
    rabi_values: np.ndarray,
    omega_eg_values: np.ndarray,
    omega: float,
    n_samples: int,
) -> tuple[np.ndarray, np.ndarray]:
    """|mu_+| and cos(mu_+ T) on a (rabi, omega_eg) parameter grid.

    Vectorized over all grid cells at once: the monodromy of the traceless
    2x2 problem lies in SU(2), so |mu_+| is its eigenphase over T, taken by
    :func:`_su2_eigenphase` without any eigendecomposition or branch
    labelling.  ``n_samples`` obeys the rule of :class:`TimeGrid`.  Returns
    two arrays of shape ``(len(rabi_values), len(omega_eg_values))``: the
    quasienergy magnitude |mu_+| in [0, omega/2] and the monodromy
    half-trace Re alpha = cos(mu_+ T), whose sign changes mark the
    quarter-zone stripe.
    """
    if omega <= 0.0 or not np.isfinite(omega):
        raise ValueError("omega must be positive and finite")
    rabi = np.asarray(rabi_values, dtype=float)
    omega_eg = np.asarray(omega_eg_values, dtype=float)
    if rabi.ndim != 1 or omega_eg.ndim != 1 or rabi.size == 0 or omega_eg.size == 0:
        raise ValueError("rabi_values and omega_eg_values must be non-empty 1-d arrays")
    if not (np.all(np.isfinite(rabi)) and np.all(np.isfinite(omega_eg))):
        raise ValueError("rabi_values and omega_eg_values must be finite")
    grid = TimeGrid(n_samples, 2.0 * np.pi / omega)
    dt = grid.period / grid.n_samples

    rr = rabi[:, None]
    ee = omega_eg[None, :]
    a = np.ones((rabi.size, omega_eg.size), dtype=complex)
    b = np.zeros_like(a)
    for k in range(n_samples):
        a, b = _su2_product(*_cf4_steps(rr, ee, omega, dt, k * dt), a, b)

    return _su2_eigenphase(a, b) / grid.period, np.real(a)
