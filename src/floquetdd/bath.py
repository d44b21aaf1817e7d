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
from scipy import constants

HBAR = constants.hbar
EPS0 = constants.epsilon_0
C_LIGHT = constants.c
K_BOLTZMANN = constants.k

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
        positions: optional (n, 3) array of atom positions (m); when given
            for two atoms it must reproduce ``separation`` to 1e-12 relative
    """

    separation: float
    dipole_mag: float
    theta_d: float
    positions: tuple | None = None

    def __post_init__(self):
        if not (np.isfinite(self.separation) and self.separation > 0.0):
            raise ValueError("separation must be positive and finite")
        if not (np.isfinite(self.dipole_mag) and self.dipole_mag > 0.0):
            raise ValueError("dipole_mag must be positive and finite")
        if not (0.0 <= self.theta_d <= np.pi):
            raise ValueError("theta_d must lie in [0, pi]")
        if self.positions is not None:
            pos = np.asarray(self.positions, dtype=float)
            if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
                raise ValueError("positions must be an (n, 3) array with n >= 2")
            if pos.shape[0] == 2:
                r = float(np.linalg.norm(pos[1] - pos[0]))
                if abs(r - self.separation) > 1e-12 * self.separation:
                    raise ValueError(
                        "positions inconsistent with stored separation"
                    )

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
        if not (np.isfinite(norm) and norm > 0.0):
            raise ValueError("dipole_axis must be a nonzero 3-vector")
        rvec = pos[1] - pos[0]
        r = float(np.linalg.norm(rvec))
        if r <= 0.0:
            raise ValueError("atoms must not coincide")
        cos_t = abs(float(np.dot(axis / norm, rvec / r)))
        theta = float(np.arccos(np.clip(cos_t, -1.0, 1.0)))
        return cls(
            separation=r,
            dipole_mag=dipole_mag,
            theta_d=theta,
            positions=tuple(map(tuple, pos)),
        )


@dataclass(frozen=True)
class BathParams:
    """Thermal state of the radiation reservoir."""

    temperature: float

    def __post_init__(self):
        if not (np.isfinite(self.temperature) and self.temperature >= 0.0):
            raise ValueError("temperature must be non-negative and finite")


def _xi_cos_minus_sin(xi: float) -> float:
    """xi*cos(xi) - sin(xi), stable at small xi (~ -xi^3/3)."""
    if xi < _XI_SERIES_THRESHOLD:
        x2 = xi * xi
        return -(xi * x2) * (1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0 - x2 * x2 * x2 / 45360.0)
    return xi * math.cos(xi) - math.sin(xi)


def gamma_single(omega: float, geometry: AtomGeometry) -> float:
    """Single-atom spontaneous decay rate mu^2 |omega|^3 / (3 pi eps0 hbar c^3).

    Even extension in omega; the thermal wrapper handles emission versus
    absorption signs.
    """
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    w = abs(omega)
    mu2 = geometry.dipole_mag**2
    return mu2 * w**3 / (3.0 * np.pi * EPS0 * HBAR * C_LIGHT**3)


def gamma_pair(omega: float, geometry: AtomGeometry) -> float:
    """Collective two-atom decay rate at |omega| for the stored geometry.

    Reduces to :func:`gamma_single` as xi -> 0 and oscillates with the
    retardation phase xi = |omega| r / c at large separations.
    """
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    r = geometry.separation
    xi = abs(omega) * r / C_LIGHT
    cos_t2 = math.cos(geometry.theta_d) ** 2
    bracket = (1.0 - cos_t2) * xi * xi * math.sin(xi) + (1.0 - 3.0 * cos_t2) * _xi_cos_minus_sin(xi)
    mu2 = geometry.dipole_mag**2
    return mu2 / (2.0 * np.pi * EPS0 * HBAR * r**3) * bracket


def omega_dd(omega: float, geometry: AtomGeometry) -> float:
    """Dipole-dipole interaction energy (rad/s), even in omega.

    Contains the far-field 1/r, intermediate 1/r^2 and near-field 1/r^3
    contributions; omega = 0 gives the static interaction
    mu^2 (1 - 3 cos^2 theta) / (4 pi eps0 hbar r^3).
    """
    if not np.isfinite(omega):
        raise ValueError("omega must be finite")
    r = geometry.separation
    xi = abs(omega) * r / C_LIGHT
    cos_t2 = math.cos(geometry.theta_d) ** 2
    bracket = -(1.0 - cos_t2) * xi * xi * math.cos(xi) + (1.0 - 3.0 * cos_t2) * (
        xi * math.sin(xi) + math.cos(xi)
    )
    mu2 = geometry.dipole_mag**2
    return mu2 / (4.0 * np.pi * EPS0 * HBAR * r**3) * bracket


def _thermal_weighted(rate_abs: float, nu: float, bath: BathParams) -> float:
    """Apply emission/absorption thermal weights to a rate at |nu|.

    Theta(0) := 0 so the rate vanishes at nu = 0 for any temperature,
    consistent with the nu^3 prefactor limit.
    """
    if nu == 0.0:
        return 0.0
    if bath.temperature == 0.0:
        return rate_abs if nu > 0.0 else 0.0
    x = HBAR * abs(nu) / (K_BOLTZMANN * bath.temperature)
    if x > 700.0:  # expm1 overflows just above 709; occupation ~ 1e-305 there
        occ_part = 0.0
    elif x < 1e-12:
        # rate ~ nu^3 while n ~ 1/x: form rate/x first so the product goes to
        # zero by continuity instead of hitting inf * 0.
        occ_part = (rate_abs / x) * (1.0 - 0.5 * x + x * x / 12.0)
    else:
        occ_part = rate_abs / math.expm1(x)
    if nu > 0.0:
        return rate_abs + occ_part
    return occ_part


def gamma_thermal_single(nu: float, geometry: AtomGeometry, bath: BathParams) -> float:
    """Thermal single-atom rate Gamma_11(nu).

    Equal to the vacuum rate for nu > 0 at zero temperature and zero for
    nu <= 0; at finite temperature the absorption branch (nu < 0) carries
    the occupation factor so detailed balance holds.
    """
    if not np.isfinite(nu):
        raise ValueError("nu must be finite")
    return _thermal_weighted(gamma_single(nu, geometry), nu, bath)


def gamma_thermal_pair(nu: float, geometry: AtomGeometry, bath: BathParams) -> float:
    """Thermal collective rate Gamma_12(nu); same weights as the single-atom one."""
    if not np.isfinite(nu):
        raise ValueError("nu must be finite")
    return _thermal_weighted(gamma_pair(nu, geometry), nu, bath)
