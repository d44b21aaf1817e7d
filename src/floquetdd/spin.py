"""Effective anisotropic Heisenberg description of weakly driven pairs.

For weak, near-resonant driving the dressed-pair dipole Hamiltonian is a
two-spin XYZ model in the bare atomic basis with five nonzero couplings
(xx, yy, zz and the symmetric xz = zx cross term), all proportional to the
dipole-dipole interaction energy and controlled by the dressed mixing
angle.  This module provides the closed forms and an N-atom builder.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import AtomGeometry, omega_dd
from .floquet import SIGMA_X, SIGMA_Y, SIGMA_Z, DriveParams, dressed_states

# Every Pauli product in the XYZ sum is a real matrix (the entries of Y_i Y_j
# are products of two imaginary ones), so an imaginary part above round-off
# of the largest entry is a bug.
_IMAG_LEAK_TOL = 1e-14


@dataclass(frozen=True)
class JTensor:
    """Symmetric 3x3 coupling tensor with the five-component pattern.

    Only xx, yy, zz and xz = zx are nonzero; all values in rad/s.
    """

    j_xx: float
    j_yy: float
    j_zz: float
    j_xz: float

    def __post_init__(self):
        for name in ("j_xx", "j_yy", "j_zz", "j_xz"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def j_tensor(theta_m: float, omega_dd_val: float) -> JTensor:
    """Closed-form couplings at dressed mixing angle theta_m.

        J_xx = (W/32) (3 cos 4t + 13)
        J_yy = (W/8)  (cos 2t + 3)
        J_zz = (W/8)  sin^2 t (3 cos 2t + 5)
        J_xz = (W/32) (2 sin 2t + 3 sin 4t)

    The sign of J_xz follows this closed form; rewriting the dressed-pair
    Hamiltonian in bare Pauli products term by term produces the opposite
    sign for the cross term, a pure orientation convention that leaves all
    spectra unchanged.
    """
    if not (0.0 <= theta_m <= np.pi):
        raise ValueError("theta_m must lie in [0, pi]")
    if not np.isfinite(omega_dd_val):
        raise ValueError("omega_dd_val must be finite")
    w = omega_dd_val
    return JTensor(
        j_xx=w / 32.0 * (3.0 * np.cos(4.0 * theta_m) + 13.0),
        j_yy=w / 8.0 * (np.cos(2.0 * theta_m) + 3.0),
        j_zz=w / 8.0 * np.sin(theta_m) ** 2 * (3.0 * np.cos(2.0 * theta_m) + 5.0),
        j_xz=w / 32.0 * (2.0 * np.sin(2.0 * theta_m) + 3.0 * np.sin(4.0 * theta_m)),
    )


def pair_geometries_from_positions(positions, dipole_mag: float, dipole_axis) -> dict:
    """One AtomGeometry per unordered atom pair from explicit positions."""
    pos = np.asarray(positions, dtype=float)
    if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 2:
        raise ValueError("positions must be an (n, 3) array with n >= 2")
    out = {}
    for i in range(pos.shape[0]):
        for j in range(i + 1, pos.shape[0]):
            out[(i, j)] = AtomGeometry.from_positions(
                pos[[i, j]], dipole_mag=dipole_mag, dipole_axis=dipole_axis
            )
    return out


def _site_op(op: np.ndarray, site: int, n_atoms: int) -> np.ndarray:
    mats = [np.eye(2, dtype=complex)] * n_atoms
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def build_spin_hamiltonian(
    n_atoms: int,
    pair_geometries: dict,
    drive: DriveParams,
    evaluate_at: str = "drive",
) -> np.ndarray:
    """N-atom XYZ Hamiltonian with per-pair couplings, bare Pauli basis.

    Each unordered pair (i, j) contributes

        J_xx X_i X_j + J_yy Y_i Y_j + J_zz Z_i Z_j + J_xz (X_i Z_j + Z_i X_j)

    with its tensor from :func:`j_tensor` at the drive's mixing angle and
    the pair's interaction energy.  ``evaluate_at`` selects the frequency
    the interaction energy is taken at: "drive" (the default, exploiting
    its flatness across one dressed splitting) or "atom" for cross checks
    at the bare transition frequency.  Output is real and Hermitian.
    """
    if n_atoms < 2 or n_atoms > 6:
        raise ValueError("supported atom counts are 2..6")
    if evaluate_at not in ("drive", "atom"):
        raise ValueError('evaluate_at must be "drive" or "atom"')
    freq = drive.omega if evaluate_at == "drive" else drive.omega_eg
    theta = dressed_states(drive).theta_m

    dim = 2**n_atoms
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(n_atoms):
        for j in range(i + 1, n_atoms):
            if (i, j) not in pair_geometries:
                raise ValueError(f"missing geometry for pair {(i, j)}")
            jt = j_tensor(theta, omega_dd(freq, pair_geometries[(i, j)]))
            xi, yi, zi = (_site_op(p, i, n_atoms) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
            xj, yj, zj = (_site_op(p, j, n_atoms) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
            h += jt.j_xx * (xi @ xj) + jt.j_yy * (yi @ yj) + jt.j_zz * (zi @ zj)
            h += jt.j_xz * (xi @ zj + zi @ xj)
    imag_leak = float(np.max(np.abs(h.imag)))
    if imag_leak > _IMAG_LEAK_TOL * max(float(np.max(np.abs(h.real))), 1.0):
        raise AssertionError("spin Hamiltonian acquired an imaginary part")
    return h.real
