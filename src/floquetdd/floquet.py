"""Single-atom Floquet problem for a cosine-driven two-level atom.

The lab-frame Hamiltonian, in the basis ``{|e>, |g>}`` (index 0 = excited),
is

    H(t) = rabi * cos(omega * t) * sigma_x + (omega_eg / 2) * sigma_z

All frequencies are angular (rad/s).  Propagators are products of exact
2x2 exponentials of a fourth-order commutator-free Magnus (CF4) step.  H is
traceless, so they lie in SU(2) and are held as pairs (alpha, beta) of
U = [[alpha, beta], [-conj(beta), conj(alpha)]], multiplied elementwise;
one step builder feeds both the per-sample propagation and the
cell-vectorized quasienergy map.  Neither steps the whole period: the
cosine drive has two exact symmetries (Grifoni & Hanggi, Phys. Rep. 304,
229 (1998)), and each unfolds a propagator by one elementwise pair product:

    half-period parity: H(t + T/2) = sigma_z H(t) sigma_z, so
        U(T/2 + t) = sigma_z U(t) sigma_z U(T/2);   sigma_z U sigma_z = (alpha, -beta)
    time reversal: H is real and H(T/2 - t) = sigma_z H(t) sigma_z, so
        U(T/2) = sigma_z U(T/4)^T sigma_z U(T/4);   sigma_z U^T sigma_z = (alpha, conj(beta))

The CF4 step keeps both exactly, its two Gauss nodes being symmetric about
the step's midpoint.  The per-sample propagation steps n_samples / 2 times
in a log-depth prefix scan and unfolds the second half by parity alone:
samples unfolded by time reversal drift from the sequential product by
more than the 1e-13 it holds every sample to.  The quasienergy map steps
n_samples / 4 times per cell, then unfolds by time reversal and parity; it
builds its steps a cache-sized chunk at a time, in memory allocated once
per call, and multiplies them into the cells one by one, in order, so the
map does not depend on the chunk size to the last bit.  Nor on the number
of cells: numpy's complex product rounds through a fused multiply-add and
is not commutative to the last bit, so every complex product here is an
explicit ufunc call with its operands in a fixed order, where operators
would let numpy's temporary elision swap them in arrays from 16,384
entries on.
Both take the quasienergies +-mu, mu in [0, omega/2], from the eigenphase
of the one-period (monodromy) pair, so none needs folding;
``floquet_solve`` reads the Floquet vectors from the same pair in closed
form and labels the branches "+" / "-" by overlap with the analytic
weak-drive dressed states.

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
    """np.kron of the square matrices in the last two axes, broadcast over any leading (stack) axes.

    The same products as np.kron, without its generic set-up: for two single
    matrices it is np.kron; for stacks, entry [..., :, :] is the np.kron of
    the matrices a[..., :, :] and b[..., :, :] after broadcasting.
    """
    n = a.shape[-1] * b.shape[-1]
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (n, n))


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
# The two exponentials of a step as one stack: the nodes, and the weight of
# the drive at each node in the first and in the second exponential.
_CF4_NODES = np.array([_CF4_NODE_1, _CF4_NODE_2])
_CF4_NODE_1_WEIGHTS = np.array([_CF4_A2, _CF4_A1])
_CF4_NODE_2_WEIGHTS = np.array([_CF4_A1, _CF4_A2])
_TINY = np.nextafter(0.0, 1.0)

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
# Cell-steps the quasienergy map builds in one call of _cf4_steps: the
# build's memory, five chunk-sized arrays (64 kB each as complex), stays in
# cache, while a small grid still builds many steps per numpy call.
_CHUNK = 4096


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


def _su2_product(a1, b1, a2, b2) -> tuple[np.ndarray, np.ndarray]:
    """The SU(2) pair of U1 @ U2, elementwise over broadcast pairs.

    Explicit ufunc calls keep every operand in its place.  Written with
    operators, numpy's temporary elision computes ``b1 * conj(b2)`` as
    ``conj(b2) * b1`` once the conjugate reaches 256 KiB (16,384 complex
    entries), and the imaginary part of numpy's complex product, formed with
    a fused multiply-add, is not commutative to the last bit: the result
    would depend on the array size.
    """
    a = np.subtract(np.multiply(a1, a2), np.multiply(b1, np.conj(b2)))
    b = np.add(np.multiply(a1, b2), np.multiply(b1, np.conj(a2)))
    return a, b


def _su2_eigenphase(a, b) -> np.ndarray:
    """Eigenphase in [0, pi] of the SU(2) pair (a, b): U has eigenvalues exp(+-i phase).

    The eigenvalues are Re a +- i sqrt(Im(a)^2 + |b|^2), so arctan2 of that
    pair keeps full relative precision everywhere, also at the phases 0 and
    pi, where arccos(Re a) loses half the digits.
    """
    return np.arctan2(np.sqrt(np.imag(a) ** 2 + np.abs(b) ** 2), np.real(a))


def _cf4_steps(rabi, omega_eg, omega: float, dt: float, t0, work=None) -> tuple[np.ndarray, np.ndarray]:
    """SU(2) pairs of the CF4 step U(t0 + dt, t0), broadcast over the inputs (at least 1-d).

    The step is exp(-i (px2 sigma_x + pz sigma_z)) after exp(-i (px1 sigma_x
    + pz sigma_z)).  Each factor is the pair alpha = cos(angle) - i sinc(angle)
    pz, beta = -i sinc(angle) px, angle = hypot(px, pz), and both factors go
    through one stacked hypot, cos, sin and divide.  The product of the two
    is formed from the real and imaginary parts: beta is imaginary, so each
    of its terms is one real product, and only alpha2 alpha1 takes a complex
    multiplication, with the operands in the order of :func:`_su2_product`.
    Every value is that of the complex pair arithmetic, bit for bit; only a
    zero may take the other sign, where the angle of a step exceeds pi.

    ``work``, if given, is the memory the build writes into, to be reused
    across calls: two complex arrays and one real array, each of shape
    ``(2,) + the broadcast shape``.  The pairs returned are views of its
    first array (of a new one without ``work``): the alphas, then the betas.
    """
    # Index 0 of every stack is the first factor, index 1 the second, on an
    # axis ahead of those the inputs broadcast over.
    stack = (2,) + (1,) * max(1, np.ndim(rabi), np.ndim(omega_eg), np.ndim(t0))
    hx1, hx2 = rabi * np.cos(omega * (t0 + (_CF4_NODES * dt).reshape(stack)))
    px = dt * (_CF4_NODE_1_WEIGHTS.reshape(stack) * hx1 + _CF4_NODE_2_WEIGHTS.reshape(stack) * hx2)
    pz = dt * 0.5 * (0.5 * omega_eg)

    if work is None:
        angle = np.hypot(px, pz)
        steps, factors = np.empty((2,) + angle.shape, dtype=complex)
    else:
        steps, factors, angle = work
        np.hypot(px, pz, out=angle)
    c, s = factors.real, factors.imag
    np.cos(angle, out=c)
    # sin(a)/a is 1 at a = 0: a zero angle becomes the least subnormal,
    # whose sine is itself, which avoids 0/0 without a mask.  The sines pass
    # through s, and sinc, then Im beta, takes the place of the angle.
    np.maximum(angle, _TINY, out=angle)
    sinc = np.divide(np.sin(angle, out=s), angle, out=angle)
    np.multiply(sinc, np.subtract(0.0, pz), out=s)
    y = np.multiply(sinc, np.subtract(0.0, px), out=sinc)

    a, b = steps
    # b = alpha2 beta1 + beta2 conj(alpha1), with a as scratch.
    np.subtract(np.multiply(y[1], s[0], out=b.real), np.multiply(s[1], y[0], out=a.real), out=b.real)
    np.add(np.multiply(c[1], y[0], out=b.imag), np.multiply(y[1], c[0], out=a.real), out=b.imag)
    # a = alpha2 alpha1 - beta2 conj(beta1), where beta2 conj(beta1) is real.
    # The product writes into a buffer apart from its operands: numpy
    # multiplies a single complex entry in place without the fused
    # multiply-add.
    np.multiply(factors[1], factors[0], out=a)
    np.subtract(a.real, np.multiply(y[0], y[1], out=y[0]), out=a.real)
    return a, b


def propagate_period(drive: DriveParams, grid: TimeGrid) -> np.ndarray:
    """Propagators U(t_k, 0) over one period, shape (n_samples + 1, 2, 2).

    Entry k is U(t_k, 0) with t_k = k * period / n_samples; entry 0 is the
    identity and the last entry is the one-period (monodromy) propagator.
    Each CF4 step is an exact 2x2 exponential held as an SU(2) pair
    (alpha, beta).  The prefix products of the first n_samples / 2 steps
    come from a log-depth (Hillis-Steele) scan, log2(n_samples) - 1
    elementwise pair products, and one batched product by half-period
    parity, U(T/2 + t_k) = sigma_z U(t_k) sigma_z U(T/2), gives the second
    half (Grifoni & Hanggi, Phys. Rep. 304, 229 (1998)).  Time reversal
    is not used here: samples unfolded by it drift from the sequential
    product by up to 1.25e-13, above the 1e-13 every sample is held to.
    Every entry has the SU(2) form exactly and is unitary to round-off.
    A ``grid`` whose period is not the drive's is refused with a
    ``ValueError``; :meth:`TimeGrid.for_drive` always matches.
    """
    if grid.period != drive.period:
        raise ValueError(
            f"grid period {grid.period!r} s differs from the drive period {drive.period!r} s; "
            "use TimeGrid.for_drive"
        )
    dt = grid.period / grid.n_samples
    half = grid.n_samples // 2
    a, b = _cf4_steps(drive.rabi, drive.omega_eg, drive.omega, dt, np.arange(half) * dt)
    shift = 1
    while shift < half:
        # Later steps act from the left: x[k] <- x[k] @ x[k - shift].
        a[shift:], b[shift:] = _su2_product(a[shift:], b[shift:], a[:-shift], b[:-shift])
        shift *= 2
    later_a, later_b = _su2_product(a, -b, a[-1], b[-1])
    a, b = np.concatenate((a, later_a)), np.concatenate((b, later_b))
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
    their Fourier amplitudes.  Each mode component is formed elementwise
    from the propagator entries, p00 x0 + p01 x1 and p10 x0 + p11 x1: the
    products and sums of U(t_k, 0) @ v, bit for bit.  The sideband
    truncation is the smallest cutoff 16, 18, ..., n_samples / 4 at which
    the discarded Fourier weight of both branches is below 1e-12; when even
    n_samples / 4 leaves more, a :class:`SidebandTruncationError` asks for
    a larger ``n_samples``.

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
    # phi_b(t_k) = e^{i mu_b t_k} U(t_k, 0) v_b, one component at a time
    # from the propagator entries: the products and sums of U(t_k, 0) @ v_b.
    p00, p01 = propagators[:-1, 0, 0], propagators[:-1, 0, 1]
    p10, p11 = propagators[:-1, 1, 0], propagators[:-1, 1, 1]
    # mu_minus = -mu_plus, so the "-" phases are the conjugates of the "+" ones.
    plus_phases = np.exp(1j * mus[plus] * times)
    modes = np.empty((2, grid.n_samples, 2), dtype=complex)
    for row, (branch, phases) in enumerate(((plus, plus_phases), (minus, np.conj(plus_phases)))):
        x0, x1 = vectors[:, branch]
        modes[row, :, 0] = phases * (p00 * x0 + p01 * x1)
        modes[row, :, 1] = phases * (p10 * x0 + p11 * x1)

    # phi^(n) = (1/T) integral phi(t) e^{-i n w t} dt  ->  forward DFT / n.
    spectra = np.fft.fft(modes, axis=1) / grid.n_samples

    # |phi^(n)|^2 summed over components, formed at the sidebands n as the
    # cutoff first keeps them: those of 16, then the four each step adds.
    weights = np.empty((2, grid.n_samples))
    added = np.r_[0 : _MIN_TRUNCATION + 1, -_MIN_TRUNCATION:0]
    cap = grid.n_samples // 4
    for m_kept in range(_MIN_TRUNCATION, cap + 1, 2):
        weights[:, added] = np.sum(np.abs(spectra[:, added]) ** 2, axis=-1)
        kept = np.concatenate([np.arange(0, m_kept + 1), np.arange(-m_kept, 0)])
        discarded = 1.0 - weights[:, kept].sum(axis=1).min()
        if discarded < _DISCARDED_WEIGHT_TOL:
            break
        added = np.array([m_kept + 1, m_kept + 2, -m_kept - 2, -m_kept - 1])
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
    labelling.  ``n_samples`` obeys the rule of :class:`TimeGrid`.  Each
    cell takes n_samples / 4 CF4 steps, to U(T/4); time reversal gives
    U(T/2) = sigma_z U(T/4)^T sigma_z U(T/4) and half-period parity
    U(T) = sigma_z U(T/2) sigma_z U(T/2), one pair product each (Grifoni &
    Hanggi, Phys. Rep. 304, 229 (1998)), the same monodromy as stepping
    all n_samples to round-off.  The steps are built a chunk of about
    4096 cell-steps per call (one step per chunk on larger grids), into
    memory allocated once per call, and multiplied into the cells one by
    one in time order: every map is bit for bit the one built step by step
    (``tests/oracles.py``), and no cell depends on how many cells the map
    holds, so a thread split of the grid changes no bit.  Returns
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
    # _su2_product(alpha, beta, a, b) of every step, on the cells' (a, conj b):
    #   a <- alpha a - beta conj(b),  conj(b) <- conj(alpha) conj(b) + conj(beta) a,
    # four complex products and no conjugation per step, as conj(x) conj(y)
    # is conj(x y) bit for bit, but for the sign of a zero, which reaches
    # neither output.  The conjugate steps go into the build's
    # second array, free once it returns.  The results land in two flat
    # buffers apart from their operands: numpy multiplies a single complex
    # entry in place without the fused multiply-add.  All of this memory is
    # allocated once: fresh arrays for every chunk of a large grid cost more
    # in page faults than the build itself.
    cells = rabi.size * omega_eg.size
    a = np.ones(cells, dtype=complex)
    conj_b = np.zeros(cells, dtype=complex)
    term = np.empty(cells, dtype=complex)
    spare = np.empty(cells, dtype=complex)
    quarter = n_samples // 4
    per = max(1, min(quarter, _CHUNK // cells))
    shape = (2, per, rabi.size, omega_eg.size)
    work = (np.empty(shape, dtype=complex), np.empty(shape, dtype=complex), np.empty(shape))
    for start in range(0, quarter, per):
        count = min(per, quarter - start)
        t0 = (np.arange(start, start + count) * dt)[:, None, None]
        chunk = [w[:, :count] for w in work]
        steps = chunk[0].reshape(2, count, cells)
        _cf4_steps(rr, ee, omega, dt, t0, chunk)  # into chunk[0], that is, steps
        conj_steps = np.conjugate(steps, out=chunk[1].reshape(2, count, cells))
        for alpha, beta, conj_alpha, conj_beta in zip(*steps, *conj_steps):
            np.multiply(alpha, a, out=term)
            np.multiply(beta, conj_b, out=spare)
            np.subtract(term, spare, out=term)
            np.multiply(conj_alpha, conj_b, out=spare)
            np.multiply(conj_beta, a, out=conj_b)
            np.add(spare, conj_b, out=conj_b)
            a, term = term, a
    # Freed before the unfolding, which takes its own temporaries.
    del work, chunk, steps, conj_steps, alpha, beta, conj_alpha, conj_beta, term, spare
    a = a.reshape(rabi.size, omega_eg.size)
    b = np.conjugate(conj_b).reshape(rabi.size, omega_eg.size)
    # Time reversal gives U(T/2) = sigma_z U(T/4)^T sigma_z U(T/4), then
    # half-period parity U(T) = sigma_z U(T/2) sigma_z U(T/2).
    a, b = _su2_product(a, np.conj(b), a, b)
    a, b = _su2_product(a, -b, a, b)

    return _su2_eigenphase(a, b) / grid.period, np.real(a)
