"""Dipole couplings between Floquet states of two driven atoms.

Combines a single-atom Floquet solution with the reservoir spectral
functions: sideband-resolved matrix elements of sigma_x, the two coupling
coefficients of the dressed-pair interaction Hamiltonian and the six decay
channels of the two-atom Lindblad equation.

Two-atom matrices use the product Floquet basis in the fixed ordering
``{|++>, |+->, |-+>, |-->}``.  Sideband index convention:

    <<phi_a| sigma_x |phi_b>>_m = (1/T) int_0^T <phi_a(t)|sigma_x|phi_b(t)> e^{+i m w t} dt
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bath import (
    AtomGeometry,
    BathParams,
    gamma_thermal_pair,
    gamma_thermal_single,
    omega_dd,
)
from .errors import SidebandTruncationError
from .floquet import SIGMA_MINUS, SIGMA_X, SIGMA_Z, FloquetSolution, collective_pair

# The largest share of a sideband sum that its outer ring (|m| >= cutoff - 1)
# may hold for the sum to count as converged at the table's cutoff.
_CONVERGED_RING_TOL = 1e-10

PLUS, MINUS = 0, 1

# The six unit-normalized symmetric/antisymmetric one-atom combinations.
_JUMP_OPERATORS = np.stack(
    [pair for op in (SIGMA_Z, SIGMA_MINUS, SIGMA_MINUS.conj().T) for pair in collective_pair(op)]
)
_JUMP_OPERATORS.flags.writeable = False
_CHANNEL_LABELS = (
    "population symmetric",
    "population antisymmetric",
    "lowering symmetric",
    "lowering antisymmetric",
    "raising symmetric",
    "raising antisymmetric",
)


@dataclass(frozen=True)
class MatrixElementTable:
    """Sideband matrix elements <<phi_a|sigma_x|phi_b>>_m for |m| <= truncation.

    ``entries[a, b, truncation + m]`` holds the element with branch indices
    0 = "+", 1 = "-"; the cutoff ``truncation`` is read from its last axis.
    """

    entries: np.ndarray

    @property
    def truncation(self) -> int:
        return (self.entries.shape[-1] - 1) // 2

    @property
    def m_values(self) -> np.ndarray:
        return np.arange(-self.truncation, self.truncation + 1)

    def column_weight(self, beta: int) -> float:
        """sum_{alpha, m} |<<phi_a|sigma_x|phi_b>>_m|^2 (sum rule -> 1)."""
        return float(np.sum(np.abs(self.entries[:, beta, :]) ** 2))


@dataclass(frozen=True)
class CouplingCoefficients:
    """Coefficients of the two-atom dipole Hamiltonian in the Floquet basis.

    ``c_pp`` multiplies the sigma_z-like (population) part and ``c_pm`` the
    excitation-exchange part.  Only the per-sideband breakdowns are stored,
    one contribution per m = ``m_values``; each total is the sum of its
    breakdown, computed on every read.
    """

    breakdown_pp: np.ndarray
    breakdown_pm: np.ndarray

    @property
    def c_pp(self) -> float:
        return float(self.breakdown_pp.sum())

    @property
    def c_pm(self) -> float:
        return float(self.breakdown_pm.sum())

    @property
    def m_values(self) -> np.ndarray:
        half = (self.breakdown_pp.size - 1) // 2
        return np.arange(-half, half + 1)


@dataclass(frozen=True)
class ChannelSet:
    """Diagonal Lindblad channels (rate, jump operator) of the driven pair.

    Operators are 4x4 matrices in the ordering {|++>, |+->, |-+>, |-->};
    all six jump operators are unit-normalized symmetric/antisymmetric
    one-atom combinations so the channel rates are the physical collective
    (superradiant/subradiant) rates.  ``operators`` and ``labels`` belong to
    the class: one read-only array and one tuple shared by every channel set,
    in the order of ``rates``.
    """

    rates: np.ndarray
    operators = _JUMP_OPERATORS
    labels = _CHANNEL_LABELS

    def __iter__(self):
        return iter(zip(self.rates, self.operators))


def _sigma_x_spectrum(sol: FloquetSolution) -> np.ndarray:
    """All DFT bins of <phi_a(t)|sigma_x|phi_b(t)>, shape (2, 2, n_samples)."""
    sx_modes = sol.modes @ SIGMA_X.T  # sigma_x |phi_b(t_k)>
    n = sol.grid.n_samples
    out = np.empty((2, 2, n), dtype=complex)
    for a in range(2):
        for b in range(2):
            samples = np.sum(sol.modes[a].conj() * sx_modes[b], axis=-1)
            # ifft carries both the e^{+imwt} kernel and the 1/n average
            out[a, b] = np.fft.ifft(samples)
    return out


def matrix_elements(sol: FloquetSolution) -> MatrixElementTable:
    """Sideband matrix elements of sigma_x between the Floquet branches.

    The element products spread over twice the mode bandwidth, so the
    cutoff is twice the solution's sideband truncation (capped below the
    grid Nyquist index).
    """
    n = sol.grid.n_samples
    truncation = min(2 * sol.truncation, n // 2 - 1)
    spectrum = _sigma_x_spectrum(sol)
    indexes = np.arange(-truncation, truncation + 1) % n
    return MatrixElementTable(entries=spectrum[:, :, indexes])


def _require_converged(terms: np.ndarray, scale: float, table: MatrixElementTable, sums: str) -> None:
    """Refuse sideband sums whose outer ring holds more than 1e-10 of ``scale``.

    ``terms`` holds one sum per row along its last axis, over the table's
    sidebands; the ring is each row's sum over |m| >= cutoff - 1.
    """
    outer = np.abs(table.m_values) >= table.truncation - 1
    ring = float(np.max(np.abs(np.sum(terms[..., outer], axis=-1))))
    if scale > 0.0 and ring > _CONVERGED_RING_TOL * scale:
        raise SidebandTruncationError(
            f"{sums} sideband sums not converged at cutoff {table.truncation}: "
            f"the outer ring holds {ring / scale:.1e} of their scale "
            f"(limit {_CONVERGED_RING_TOL:.0e})"
        )


def coupling_coefficients(
    table: MatrixElementTable,
    sol: FloquetSolution,
    geometry: AtomGeometry,
) -> CouplingCoefficients:
    """Coupling coefficients c_++ and c_+- from sideband sums.

        c_++ = sum_m |<<phi_+|sx|phi_+>>_m|^2 * omega_dd(m w)
        c_+- = sum_m |<<phi_-|sx|phi_+>>_m|^2 * omega_dd(mu_+ - mu_- + m w)

    The sums must be converged: the two outermost sideband rings may not
    contribute more than 1e-10 of the larger coefficient, otherwise a
    :class:`SidebandTruncationError` is raised.
    """
    omega = sol.drive.omega
    ms = table.m_values
    delta = sol.mu_plus - sol.mu_minus
    w_pp = np.abs(table.entries[PLUS, PLUS, :]) ** 2
    w_mp = np.abs(table.entries[MINUS, PLUS, :]) ** 2
    om_pp = omega_dd(ms * omega, geometry)
    om_pm = omega_dd(delta + ms * omega, geometry)
    breakdown_pp = w_pp * om_pp
    breakdown_pm = w_mp * om_pm

    scale = max(abs(breakdown_pp.sum()), abs(breakdown_pm.sum()))
    _require_converged(np.stack([breakdown_pp, breakdown_pm]), scale, table, "coupling-coefficient")
    return CouplingCoefficients(breakdown_pp=breakdown_pp, breakdown_pm=breakdown_pm)


def build_hdp2(coeff: CouplingCoefficients) -> np.ndarray:
    """Two-atom dipole Hamiltonian in the product Floquet basis.

    c_++ weights the parity pattern (+1, -1, -1, +1) on the diagonal and
    c_+- the exchange coupling between |+-> and |-+>.
    """
    c_pp, c_pm = coeff.c_pp, coeff.c_pm
    if not (np.isfinite(c_pp) and np.isfinite(c_pm)):
        raise ValueError("coefficients must be finite")
    h = np.zeros((4, 4), dtype=complex)
    h[0, 0] = c_pp
    h[1, 1] = -c_pp
    h[2, 2] = -c_pp
    h[3, 3] = c_pp
    h[1, 2] = c_pm
    h[2, 1] = c_pm
    return h


def _sequential_sum(terms: np.ndarray) -> np.ndarray:
    """Left-to-right sums from 0.0 along the last axis (not numpy's pairwise sum)."""
    padded = np.concatenate([np.zeros(terms.shape[:-1] + (1,)), terms], axis=-1)
    return np.cumsum(padded, axis=-1)[..., -1]


def build_channels(
    table: MatrixElementTable,
    sol: FloquetSolution,
    geometry: AtomGeometry,
    bath: BathParams,
) -> ChannelSet:
    """Six diagonal decay channels of the driven identical pair.

    Rates pair the single-atom and collective thermal rates as
    Gamma_11 +- Gamma_12 evaluated at the sideband-shifted transition
    frequencies m w (population channels), m w + (mu_+ - mu_-) (downward
    dressed transitions) and m w - (mu_+ - mu_-) (upward ones).  Jump
    operators are the unit-normalized symmetric/antisymmetric one-atom
    combinations, so each rate is directly the physical collective rate.
    """
    ms = table.m_values
    delta = sol.mu_plus - sol.mu_minus
    # rows: population (pp), downward (mp) and upward (pm) transitions
    weights = np.abs(table.entries[[PLUS, MINUS, PLUS], [PLUS, PLUS, MINUS], :]) ** 2
    args = ms * sol.drive.omega + np.array([[0.0], [delta], [-delta]])
    g11 = gamma_thermal_single(args, geometry, bath)
    g12 = gamma_thermal_pair(args, geometry, bath)
    tot_sum = _sequential_sum(weights * (g11 + g12))
    tot_dif = _sequential_sum(weights * (g11 - g12))
    _require_converged(weights * (np.abs(g11) + np.abs(g12)), max(tot_sum), table, "decay-rate")
    rates = np.stack([tot_sum, tot_dif], axis=1).reshape(-1)
    return ChannelSet(rates=rates)
