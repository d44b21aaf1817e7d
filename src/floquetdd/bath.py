"""Spectral functions of a common electromagnetic reservoir.

Closed forms for the single-atom and collective radiative decay rates and
for the symmetric dipole-dipole interaction energy of two identical dipoles
a distance r apart, with dipole moments tilted by theta_d against the
interatomic axis.  SI units with an explicit hbar: rates and interaction
energies come out in rad/s.

With xi = |omega| r / c the closed forms are assembled as

    gamma_pair  = mu^2 / (2 pi eps0 hbar r^3)
                  * [ sin^2(theta) * xi^2 sin(xi)
                      + (1 - 3 cos^2(theta)) * (xi cos(xi) - sin(xi)) ]
    omega_dd    = mu^2 / (4 pi eps0 hbar r^3)
                  * [ -sin^2(theta) * xi^2 cos(xi)
                      + (1 - 3 cos^2(theta)) * (xi sin(xi) + cos(xi)) ]

which are algebraically identical to the familiar sin(xi)/xi,
cos(xi)/xi^2, ... expressions but contain no negative powers of xi, so the
static (xi -> 0) limits come out without overflow.  The one genuinely
cancellation-prone combination, q(xi) = xi cos(xi) - sin(xi) ~ -xi^3/3,
switches to its Taylor series below a small-xi threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# CODATA 2022, the same doubles as scipy.constants 1.17, written out so that
# importing the package loads no scipy (scipy.constants costs about 0.28 s).
# The SI fixes hbar, c, k and e exactly; epsilon_0 and a0 are measured.
HBAR = 1.0545718176461565e-34  # J s, h / (2 pi) with h exact
EPS0 = 8.8541878188e-12  # F/m
C_LIGHT = 299792458.0  # m/s
K_BOLTZMANN = 1.380649e-23  # J/K
E_CHARGE = 1.602176634e-19  # C
BOHR_RADIUS = 5.29177210544e-11  # m
E_A0 = E_CHARGE * BOHR_RADIUS  # atomic unit of dipole moment, C m

# Below this xi the direct evaluation of xi*cos(xi) - sin(xi) has lost more
# than half its digits to cancellation; the four-term Taylor series is
# exact to double precision there.
_XI_SERIES_THRESHOLD = 1e-3


@dataclass(frozen=True)
class AtomGeometry:
    """Pair geometry: separation, dipole magnitude and dipole tilt.

    Attributes:
        separation: interatomic distance r (m, > 0)
        dipole_mag: transition dipole moment magnitude (C m, > 0)
        theta_d: angle between the dipole moments and the interatomic
            axis (rad, in [0, pi])
    """

    separation: float
    dipole_mag: float
    theta_d: float

    def __post_init__(self):
        if not (np.isfinite(self.separation) and self.separation > 0.0):
            raise ValueError("separation must be positive and finite")
        if not (np.isfinite(self.dipole_mag) and self.dipole_mag > 0.0):
            raise ValueError("dipole_mag must be positive and finite")
        if not (0.0 <= self.theta_d <= np.pi):
            raise ValueError("theta_d must lie in [0, pi]")

    @classmethod
    def from_positions(
        cls, positions, dipole_mag: float, dipole_axis
    ) -> "AtomGeometry":
        """Two-atom geometry from explicit positions and a dipole direction."""
        pos = np.asarray(positions, dtype=float)
        if pos.shape != (2, 3):
            raise ValueError("expected exactly two 3-vectors")
        axis = np.asarray(dipole_axis, dtype=float)
        norm = np.linalg.norm(axis)
        if axis.shape != (3,) or not (np.isfinite(norm) and norm > 0.0):
            raise ValueError("dipole_axis must be a nonzero 3-vector")
        rvec = pos[1] - pos[0]
        r = float(np.linalg.norm(rvec))
        if r <= 0.0:
            raise ValueError("atoms must not coincide")
        cos_t = abs(float(np.dot(axis / norm, rvec / r)))
        theta = float(np.arccos(np.clip(cos_t, -1.0, 1.0)))
        return cls(separation=r, dipole_mag=dipole_mag, theta_d=theta)


@dataclass(frozen=True)
class BathParams:
    """Thermal state of the radiation reservoir."""

    temperature: float

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be non-negative and finite")


def _xi_cos_minus_sin(xi: np.ndarray) -> np.ndarray:
    """xi*cos(xi) - sin(xi), stable at small xi (~ -xi^3/3); broadcasts."""
    small = xi < _XI_SERIES_THRESHOLD
    xs = np.where(small, xi, 0.0)  # keeps x2**3 from overflowing at large xi
    x2 = xs * xs
    series = -(xs * x2) * (1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0 - x2 * x2 * x2 / 45360.0)
    return np.where(small, series, xi * np.cos(xi) - np.sin(xi))


def _frequencies(omega: float | np.ndarray, name: str) -> np.ndarray:
    """Finite frequency argument(s) as a float array (0-d for a scalar)."""
    omega = np.asarray(omega, dtype=float)
    if not np.all(np.isfinite(omega)):
        raise ValueError(f"{name} must be finite")
    return omega


def _as_output(value, like):
    """A float for a scalar argument, the array otherwise."""
    return float(value) if np.ndim(like) == 0 else value


def gamma_single(omega: float | np.ndarray, geometry: AtomGeometry) -> float | np.ndarray:
    """Single-atom spontaneous decay rate mu^2 |omega|^3 / (3 pi eps0 hbar c^3).

    Even extension in omega; the thermal wrapper handles emission versus
    absorption signs.  Broadcasts over an array of frequencies; a scalar
    frequency gives a float.
    """
    w = np.abs(_frequencies(omega, "omega"))
    mu2 = geometry.dipole_mag**2
    # float_power is the libm pow of the scalar w**3; w * w * w rounds twice
    rate = mu2 * np.float_power(w, 3) / (3.0 * np.pi * EPS0 * HBAR * C_LIGHT**3)
    return _as_output(rate, omega)


def gamma_pair(omega: float | np.ndarray, geometry: AtomGeometry) -> float | np.ndarray:
    """Collective two-atom decay rate at |omega| for the stored geometry.

    Reduces to :func:`gamma_single` as xi -> 0 and oscillates with the
    retardation phase xi = |omega| r / c at large separations.  Broadcasts
    like :func:`gamma_single`.
    """
    r = geometry.separation
    xi = np.abs(_frequencies(omega, "omega")) * r / C_LIGHT
    cos_t2 = math.cos(geometry.theta_d) ** 2
    bracket = (1.0 - cos_t2) * xi * xi * np.sin(xi) + (1.0 - 3.0 * cos_t2) * _xi_cos_minus_sin(xi)
    mu2 = geometry.dipole_mag**2
    return _as_output(mu2 / (2.0 * np.pi * EPS0 * HBAR * r**3) * bracket, omega)


def omega_dd(omega: float | np.ndarray, geometry: AtomGeometry) -> float | np.ndarray:
    """Dipole-dipole interaction energy (rad/s), even in omega.

    Contains the far-field 1/r, intermediate 1/r^2 and near-field 1/r^3
    contributions; omega = 0 gives the static interaction
    mu^2 (1 - 3 cos^2 theta) / (4 pi eps0 hbar r^3).  Broadcasts like
    :func:`gamma_single`.
    """
    r = geometry.separation
    xi = np.abs(_frequencies(omega, "omega")) * r / C_LIGHT
    cos_t2 = math.cos(geometry.theta_d) ** 2
    bracket = -(1.0 - cos_t2) * xi * xi * np.cos(xi) + (1.0 - 3.0 * cos_t2) * (
        xi * np.sin(xi) + np.cos(xi)
    )
    mu2 = geometry.dipole_mag**2
    return _as_output(mu2 / (4.0 * np.pi * EPS0 * HBAR * r**3) * bracket, omega)


def _thermal_weighted(rate_abs, nu: np.ndarray, bath: BathParams) -> np.ndarray:
    """Apply emission/absorption thermal weights to rates at |nu| (arrays).

    Theta(0) := 0: at nu = 0 only the occupation part remains, and it is 0,
    so the rate vanishes for any temperature, consistent with the nu^3
    prefactor limit.
    """
    if bath.temperature == 0.0:
        return np.where(nu > 0.0, rate_abs, 0.0)
    x = HBAR * np.abs(nu) / (K_BOLTZMANN * bath.temperature)
    # Above x = 700 the occupation is ~ 1e-305 (expm1 overflows just above
    # 709) and counts as 0.
    direct = (x >= 1e-12) & (x <= 700.0)
    # rate ~ nu^3 while n ~ 1/x: below x = 1e-12 form rate/x first so the
    # product goes to zero by continuity instead of hitting inf * 0.  An x
    # that underflowed to zero takes that limit, 0, directly.
    small = (x > 0.0) & (x < 1e-12)
    # math.expm1 per element: np.expm1 differs from it in the last bit
    expm1 = np.asarray(np.frompyfunc(math.expm1, 1, 1)(np.where(direct, x, 1.0)), dtype=float)
    xs = np.where(small, x, 1.0)
    occ_part = np.where(
        direct,
        rate_abs / expm1,
        np.where(small, (rate_abs / xs) * (1.0 - 0.5 * xs + xs * xs / 12.0), 0.0),
    )
    return np.where(nu > 0.0, rate_abs + occ_part, occ_part)


def gamma_thermal_single(
    nu: float | np.ndarray, geometry: AtomGeometry, bath: BathParams
) -> float | np.ndarray:
    """Thermal single-atom rate Gamma_11(nu).

    Equal to the vacuum rate for nu > 0 at zero temperature and zero for
    nu <= 0; at finite temperature the absorption branch (nu < 0) carries
    the occupation factor so detailed balance holds.  Broadcasts over an
    array of frequencies; a scalar frequency gives a float.
    """
    freqs = _frequencies(nu, "nu")
    return _as_output(_thermal_weighted(gamma_single(freqs, geometry), freqs, bath), nu)


def gamma_thermal_pair(
    nu: float | np.ndarray, geometry: AtomGeometry, bath: BathParams
) -> float | np.ndarray:
    """Thermal collective rate Gamma_12(nu); same weights as the single-atom one."""
    freqs = _frequencies(nu, "nu")
    return _as_output(_thermal_weighted(gamma_pair(freqs, geometry), freqs, bath), nu)
