"""Secular-approximation diagnostics and time-scale bookkeeping.

The Lindblad form of the driven-pair master equation requires the
quasienergy-spacing time scale tau_mu to sit well between the drive period
and the system response time tau_s ~ 1/|omega_dd|.  This module computes
tau_mu from the quasienergy pair +-mu_+, scans it over drive-parameter maps with
divergence-stripe detection, and assembles hierarchy reports.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .bath import AtomGeometry, BathParams, omega_dd
from .errors import DegenerateQuasienergiesError, UndefinedMixingAngleError
from .floquet import (
    DriveParams,
    FloquetSolution,
    TimeGrid,
    _below_floor,
    dressed_states,
    floquet_solve,
    quasienergy_magnitude_map,
)

# "Much smaller than" in the time-scale hierarchy: one order of magnitude, so that
# the terms the secular approximation drops average out over the longer scale.
HIERARCHY_MARGIN = 10.0


@dataclass(frozen=True)
class TimescaleReport:
    """Hierarchy of the four relevant time scales for one scenario.

    ``hierarchy_ok`` demands tau_omega <= tau_mu / HIERARCHY_MARGIN and
    tau_mu <= tau_s / HIERARCHY_MARGIN (the "much smaller than" orderings).
    ``margin_low`` is tau_mu/tau_omega and ``margin_high`` is tau_s/tau_mu;
    both may be infinite.
    """

    tau_omega: float
    tau_mu: float
    tau_s: float
    tau_omega_gen: float
    hierarchy_ok: bool
    margin_low: float
    margin_high: float


def _min_spacing(omega: float, mu_abs):
    """min(omega - 2|mu_+|, 2|mu_+|, |omega - 4|mu_+||), elementwise in |mu_+|."""
    return np.minimum(np.minimum(omega - 2.0 * mu_abs, 2.0 * mu_abs), np.abs(omega - 4.0 * mu_abs))


def tau_mu(drive: DriveParams, sol: FloquetSolution) -> float:
    """Inverse minimal quasienergy-spacing scale (seconds, possibly inf).

    With |mu_+| in [0, omega/2] the three candidate spacings are

        |omega - 2|mu_+||,   2|mu_+|,   |omega - 4|mu_+||

    and tau_mu is the inverse of their minimum; below 1e-12 * omega, the
    collision floor at which :func:`floquet_solve` refuses, the scale is
    reported as infinite (divergence).  The same expression holds for any
    atom number because product quasienergies are sums of the single-atom
    pair.
    """
    omega = drive.omega
    mu_abs = abs(sol.mu_plus)
    if 2.0 * mu_abs >= omega:
        raise ValueError("zone condition violated: 2|mu_+| must stay below omega")
    inv = float(_min_spacing(omega, mu_abs))
    if _below_floor(inv, omega):
        return np.inf
    return 1.0 / inv


@dataclass(frozen=True)
class TauMap:
    """tau_mu^-1 scan over a (rabi, omega_eg) grid at fixed drive frequency.

    Both arrays have one row per rabi value and one column per omega_eg
    value of the scan that made them.

    ``tau_inv_over_omega`` is zero on the cells whose minimal spacing lies
    below the divergence floor of :func:`tau_mu` (tau_mu = inf there).
    ``diverged`` marks those cells and the cells next to a stripe crossing,
    a sign change of cos(|mu_+| T) between neighbors (the quarter-zone
    locus |mu_+| = omega/4); crossing cells keep their value.
    """

    tau_inv_over_omega: np.ndarray
    diverged: np.ndarray


def _stripe_crossings(half_trace: np.ndarray) -> np.ndarray:
    """Cells next to a sign change of cos(|mu_+| T), the quarter-zone stripe.

    Sign changes are attributed to both neighboring cells, which keeps the
    flagged set connected along smooth stripe curves.
    """
    flags = np.zeros(half_trace.shape, dtype=bool)
    sign = np.sign(half_trace)
    cross_rows = sign[:, 1:] * sign[:, :-1] < 0
    flags[:, 1:] |= cross_rows
    flags[:, :-1] |= cross_rows
    cross_cols = sign[1:, :] * sign[:-1, :] < 0
    flags[1:, :] |= cross_cols
    flags[:-1, :] |= cross_cols
    return flags


def scan_tau_map(
    rabi_values,
    omega_eg_values,
    omega: float,
    n_samples: int = 512,
    threads: int = 1,
) -> TauMap:
    """Vectorized tau_mu^-1 map over drive strength and atomic splitting.

    Each cell is an independent monodromy computation; rows are chunked
    across a thread pool when ``threads`` > 1 (results are identical for
    any thread count).  A cell is ``diverged`` when its minimal spacing
    lies below the floor of :func:`tau_mu`, where its tau_mu^-1 is 0, or
    when it borders a stripe crossing, where its value is kept.
    """
    rabi = np.asarray(rabi_values, dtype=float)
    omega_eg = np.asarray(omega_eg_values, dtype=float)
    if rabi.size == 0 or omega_eg.size == 0:
        raise ValueError("scan grids must be non-empty")
    if np.any(rabi < 0.0) or np.any(omega_eg <= 0.0):
        raise ValueError("rabi must be >= 0 and omega_eg > 0 everywhere")
    if threads < 1:
        raise ValueError("threads must be positive")

    if threads == 1 or rabi.size < 2 * threads:
        mu_abs, half_trace = quasienergy_magnitude_map(rabi, omega_eg, omega, n_samples)
    else:
        chunks = np.array_split(np.arange(rabi.size), threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(
                    lambda idx: quasienergy_magnitude_map(
                        rabi[idx], omega_eg, omega, n_samples
                    ),
                    chunks,
                )
            )
        mu_abs = np.concatenate([p[0] for p in parts], axis=0)
        half_trace = np.concatenate([p[1] for p in parts], axis=0)

    tau_inv = _min_spacing(omega, mu_abs)
    below = _below_floor(tau_inv, omega)
    return TauMap(
        tau_inv_over_omega=np.where(below, 0.0, tau_inv / omega),
        diverged=(below | _stripe_crossings(half_trace)).astype(int),
    )


def timescale_report(
    drive: DriveParams,
    geometry: AtomGeometry,
    bath: BathParams,
    n_samples: int = 1024,
) -> TimescaleReport:
    """Assemble the time-scale hierarchy for one physical scenario.

    A quasienergy collision, a spacing below the one floor of
    :func:`floquet_solve` and :func:`tau_mu` (1e-12 * omega), is reported as
    tau_mu = inf with the hierarchy flagged as violated rather than raised;
    a drive whose Floquet modes ``n_samples`` cannot resolve raises the
    :class:`SidebandTruncationError` of :func:`floquet_solve`.  The bath
    parameters do not enter the scales and are accepted for interface
    symmetry only.
    """
    del bath
    tau_omega = 1.0 / drive.omega
    try:
        sol = floquet_solve(drive, TimeGrid.for_drive(drive, n_samples))
        t_mu = tau_mu(drive, sol)
    except DegenerateQuasienergiesError:
        t_mu = np.inf
    try:
        t_gen = 1.0 / dressed_states(drive).omega_gen
    except UndefinedMixingAngleError:
        t_gen = np.inf
    interaction = abs(omega_dd(drive.omega_eg, geometry))
    tau_s = np.inf if interaction == 0.0 else 1.0 / interaction

    margin_low = t_mu / tau_omega
    margin_high = tau_s / t_mu if np.isfinite(t_mu) else 0.0
    ok = bool(
        np.isfinite(t_mu)
        and margin_low >= HIERARCHY_MARGIN
        and tau_s >= HIERARCHY_MARGIN * t_mu
    )
    return TimescaleReport(
        tau_omega=tau_omega,
        tau_mu=t_mu,
        tau_s=tau_s,
        tau_omega_gen=t_gen,
        hierarchy_ok=ok,
        margin_low=margin_low,
        margin_high=margin_high,
    )
