"""Independent reference implementations that the tests compare against.

None of these is used by the package itself:

* the generic secular channel path (per-(m, delta mu) jump blocks and the
  eigendecomposition of their thermal rate matrices), the oracle of the
  closed-form six-channel set in :func:`floquetdd.dipole.build_channels`
* the explicit dressed-to-bare rewriting of the pair Hamiltonian, the
  oracle of the closed-form XYZ tensor :func:`floquetdd.spin.j_tensor`
* the truncated Sambe-Shirley Floquet Hamiltonian, an oracle of
  :func:`floquetdd.floquet.floquet_solve` that shares none of its
  propagation code, and the sideband matrix elements as convolutions of its
  Fourier blocks, an oracle of :func:`floquetdd.dipole.matrix_elements`
* the zone fold of a quasienergy, for the rotating-wave references
* the quasienergy map stepped through the whole period, the oracle of the
  symmetry unfolding in :func:`floquetdd.floquet.quasienergy_magnitude_map`,
  and its quarter period built one step per call, the bit-exact oracle of
  the chunked step build there
* the master equation stepped report by report, the oracle of the block
  powers in :func:`floquetdd.lindblad.evolve`
* the density-matrix checks with ``np.linalg.eigvalsh`` on the whole
  stack, the oracle of the chunked Cholesky checks in
  :func:`floquetdd.lindblad.validate_density_matrix`, and the Bloch
  trajectory rotated whole before its diagonal is read, the bit-exact
  oracle of the populations in
  :func:`floquetdd.lindblad.fme_vs_obe_compare`
* the Floquet modes as batched 2x2 matrix-vector products, the sideband
  spectrum of sigma_x as four inverse FFTs, and the Liouvillian assembled
  with ``np.kron`` channel by channel: the forms the package's elementwise
  and stacked kernels replace, bit-exact oracles of
  :func:`floquetdd.floquet.floquet_solve`,
  :func:`floquetdd.dipole.matrix_elements` and
  :func:`floquetdd.lindblad.build_liouvillian`
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.linalg import expm

from floquetdd.bath import AtomGeometry, BathParams, gamma_thermal_pair, gamma_thermal_single
from floquetdd.dipole import MatrixElementTable
from floquetdd.floquet import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    DriveParams,
    FloquetSolution,
    _cf4_steps,
    _su2_eigenphase,
    _su2_product,
    propagate_period,
)
from floquetdd.lindblad import (
    _EIGENVALUE_FLOOR,
    _HERMITICITY_TOL,
    _TRACE_TOL,
    LindbladModel,
    build_liouvillian,
)
from floquetdd.spin import JTensor


def fold_to_zone(mu: float, omega: float) -> float:
    """Fold a quasienergy into the zone (-omega/2, omega/2], congruent to ``mu`` modulo ``omega``."""
    if not (np.isfinite(mu) and np.isfinite(omega)):
        raise ValueError("mu and omega must be finite")
    if omega <= 0.0:
        raise ValueError("omega must be positive")
    folded = mu - omega * np.floor(mu / omega + 0.5)
    if folded <= -0.5 * omega:
        folded += omega
    return float(folded)


def kron_liouvillian(h: np.ndarray, channels) -> np.ndarray:
    """Superoperator of -i[H, rho] + sum_k g_k (L rho L^+ - {L^+L, rho}/2), C-order vec.

    Assembled with ``np.kron``, one channel after the other, the terms of
    each channel in the order of :func:`floquetdd.lindblad.build_liouvillian`.
    """
    d = h.shape[0]
    ident = np.eye(d, dtype=complex)
    out = -1j * (np.kron(h, ident) - np.kron(ident, h.T))
    for rate, op in channels:
        ldl = op.conj().T @ op
        out += rate * (
            np.kron(op, op.conj()) - 0.5 * np.kron(ldl, ident) - 0.5 * np.kron(ident, ldl.T)
        )
    return out


def dissipator_matrix(channels) -> np.ndarray:
    """Matrix of rho -> sum_k g_k (L rho L^+ - {L^+L, rho}/2), C-order vec."""
    channels = tuple(channels)
    d = channels[0][1].shape[0]
    return kron_liouvillian(np.zeros((d, d), dtype=complex), channels)


def matmul_modes(sol: FloquetSolution) -> np.ndarray:
    """Periodic modes phi_b(t_k) = e^{i mu_b t_k} U(t_k, 0) v_b as batched matrix-vector products.

    The Floquet vectors v_b are the columns of the closed-form eigenvector
    pair of the monodromy U(T): the column (v0, v1) has the quasienergy
    +|mu|, its orthogonal (-conj(v1), conj(v0)) has -|mu|.  Each v_b is
    checked against U(T) v_b = e^{-i mu_b T} v_b before use, so neither the
    vectors nor their branch labels are read from ``sol.modes``.  Each
    branch takes one ``propagators @ v_b`` over all samples, the batched
    product that :func:`floquetdd.floquet.floquet_solve` writes out
    elementwise.  Shape ``(2, n_samples, 2)``.
    """
    propagators = propagate_period(sol.drive, sol.grid)
    monodromy = propagators[-1]
    alpha, beta = monodromy[0]
    s = np.sqrt(alpha.imag**2 + abs(beta) ** 2)
    if alpha.imag <= 0.0:
        v = np.array([s - alpha.imag, -1j * np.conj(beta)])
    else:
        v = np.array([1j * beta, s + alpha.imag])
    v /= np.linalg.norm(v)
    vectors = np.array([[v[0], -np.conj(v[1])], [v[1], np.conj(v[0])]])

    times = sol.grid.times()
    modes = np.empty((2, sol.grid.n_samples, 2), dtype=complex)
    for row, mu in enumerate((sol.mu_plus, sol.mu_minus)):
        vector = vectors[:, 0 if mu > 0.0 else 1]
        eigen = np.exp(-1j * mu * sol.grid.period) * vector
        # U(T) is unitary only to the round-off of its n_samples steps: its
        # |alpha|^2 + |beta|^2 misses 1 by up to 1.6e-13 at n_samples = 2048
        # (undriven atom), and a wrong vector misses by order 1.
        np.testing.assert_allclose(monodromy @ vector, eigen, rtol=0, atol=1e-12)
        phases = np.exp(1j * mu * times)
        modes[row] = phases[:, None] * (propagators[:-1] @ vector)
    return modes


def loop_sigma_x_spectrum(sol: FloquetSolution) -> np.ndarray:
    """All DFT bins of <phi_a(t)|sigma_x|phi_b(t)>, shape (2, 2, n_samples), one inverse FFT per pair."""
    sx_modes = sol.modes @ SIGMA_X.T  # sigma_x |phi_b(t_k)>
    n = sol.grid.n_samples
    out = np.empty((2, 2, n), dtype=complex)
    for a in range(2):
        for b in range(2):
            samples = np.sum(sol.modes[a].conj() * sx_modes[b], axis=-1)
            # ifft carries both the e^{+imwt} kernel and the 1/n average
            out[a, b] = np.fft.ifft(samples)
    return out


def quasienergy_difference_classes(
    solutions: list, omega: float, tol_factor: float = 1e-9
) -> np.ndarray:
    """Distinct pairwise product-quasienergy differences, grouped within tolerance.

    Product quasienergies are plain sums of the folded single-atom ones;
    differences closer than ``tol_factor * omega`` fall into one class and
    are represented by their mean.  Sorted ascending.
    """
    mus = _product_quasienergies(solutions)
    diffs = np.sort((mus[None, :] - mus[:, None]).ravel())
    tol = tol_factor * omega
    classes = []
    start = 0
    for i in range(1, diffs.size + 1):
        if i == diffs.size or diffs[i] - diffs[i - 1] > tol:
            classes.append(diffs[start:i].mean())
            start = i
    return np.array(classes)


def _product_quasienergies(solutions: list) -> np.ndarray:
    singles = [(s.mu_plus, s.mu_minus) for s in solutions]
    mus = []
    for combo in itertools.product((0, 1), repeat=len(solutions)):
        mus.append(sum(singles[i][b] for i, b in enumerate(combo)))
    return np.array(mus)


def build_D_operators(
    solutions: list,
    m: int,
    delta_mu: float,
    tol_factor: float = 1e-9,
) -> list[np.ndarray]:
    """Per-atom secular jump blocks D_m^i at quasienergy difference delta_mu.

    For N atoms (N <= 6) in the product Floquet basis at t = 0:

        D_m^i = sum_{mu_B - mu_A = delta_mu} <<phi_a|sigma_x_i|phi_b>>_m |A><B|

    where only the atom-i branch differs between A and B.  Differences are
    matched within ``tol_factor * omega``; an empty match yields the zero
    operator.
    """
    n_atoms = len(solutions)
    if n_atoms < 1 or n_atoms > 6:
        raise ValueError("supported atom counts are 1..6")
    omega = solutions[0].drive.omega
    tol = tol_factor * omega
    n = solutions[0].grid.n_samples
    spectra = [loop_sigma_x_spectrum(s) for s in solutions]
    singles = [(s.mu_plus, s.mu_minus) for s in solutions]

    combos = list(itertools.product((0, 1), repeat=n_atoms))
    index = {c: i for i, c in enumerate(combos)}
    mus = _product_quasienergies(solutions)

    dim = 2**n_atoms
    ops = [np.zeros((dim, dim), dtype=complex) for _ in range(n_atoms)]
    for i in range(n_atoms):
        for bra in combos:  # A: target of the jump
            for a_branch in (0, 1):
                ket = bra[:i] + (a_branch,) + bra[i + 1 :]  # B: source
                row, col = index[bra], index[ket]
                if abs((mus[col] - mus[row]) - delta_mu) > tol:
                    continue
                ops[i][row, col] += spectra[i][bra[i], ket[i], m % n]
    return ops


def dissipator_blocks(
    table: MatrixElementTable,
    sol: FloquetSolution,
    geometry: AtomGeometry,
    bath: BathParams,
) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Generic (rate-matrix, jump-operator) blocks of the two-atom dissipator.

    One block per (m, delta_mu) combination with the 2x2 thermal rate matrix
    [[G11, G12], [G12, G11]] at argument m w + delta_mu and the per-atom
    secular operators from :func:`build_D_operators`.  Blocks whose operators
    vanish are dropped.
    """
    omega = sol.drive.omega
    classes = quasienergy_difference_classes([sol, sol], omega)
    blocks = []
    for delta_mu in classes:
        for m in table.m_values:
            ops = build_D_operators([sol, sol], int(m), float(delta_mu))
            if all(np.allclose(op, 0.0, atol=0.0) for op in ops):
                continue
            arg = m * omega + delta_mu
            g11 = gamma_thermal_single(arg, geometry, bath)
            g12 = gamma_thermal_pair(arg, geometry, bath)
            gamma_matrix = np.array([[g11, g12], [g12, g11]])
            blocks.append((gamma_matrix, ops))
    return blocks


def diagonalize_dissipator(
    blocks: list[tuple[np.ndarray, list[np.ndarray]]],
) -> list[tuple[float, np.ndarray]]:
    """Diagonal Lindblad channels from rate-matrix blocks.

    Each Hermitian positive-semidefinite rate matrix is eigendecomposed and
    its eigenvectors combine the jump operators; for the symmetric 2x2 case
    this yields rates Gamma_11 +- Gamma_12 with (D_1 +- D_2)/sqrt(2).
    Raises ``ValueError`` on a genuinely negative eigenvalue (the dissipator
    would not generate a completely positive evolution); round-off negatives
    are clamped to zero.
    """
    channels = []
    for gamma_matrix, ops in blocks:
        gm = np.asarray(gamma_matrix, dtype=complex)
        scale = float(np.linalg.norm(gm))
        if scale == 0.0:
            continue
        if np.max(np.abs(gm - gm.conj().T)) > 1e-12 * scale:
            raise ValueError("rate matrix must be Hermitian")
        values, vectors = np.linalg.eigh(gm)
        if values.min() < -1e-10 * values.max():
            raise ValueError(f"rate matrix has negative eigenvalue {values.min():.3e}")
        for k in range(values.size):
            rate = float(max(values[k], 0.0))
            if rate == 0.0:
                continue
            jump = sum(vectors[i, k] * ops[i] for i in range(len(ops)))
            channels.append((rate, jump))
    return channels


def dressed_bare_equivalence(
    coefficients: tuple[float, float], theta_m: float
) -> tuple[JTensor, float]:
    """Rewrite the dressed-pair Hamiltonian in bare Pauli products.

    Takes (c_++, c_+-), expands

        c_++ Z~ Z~ + (c_+-/2) (X~ X~ + Y~ Y~)

    with the dressed operators Z~ = cos t Z + sin t X, X~ = -sin t Z +
    cos t X, Y~ = Y, and projects onto the two-site Pauli basis.  Returns
    the extracted tensor (transformation-path sign on the cross term) and
    the norm of every component outside the five-component pattern, which
    vanishes identically.
    """
    if not (0.0 <= theta_m <= np.pi):
        raise ValueError("theta_m must lie in [0, pi]")
    c_pp, c_pm = coefficients
    ct, st = np.cos(theta_m), np.sin(theta_m)
    z_d = ct * SIGMA_Z + st * SIGMA_X
    x_d = -st * SIGMA_Z + ct * SIGMA_X
    y_d = SIGMA_Y
    h = c_pp * np.kron(z_d, z_d) + 0.5 * c_pm * (np.kron(x_d, x_d) + np.kron(y_d, y_d))

    paulis = (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)
    coeffs = np.zeros((4, 4), dtype=complex)
    for a in range(4):
        for b in range(4):
            coeffs[a, b] = np.trace(np.kron(paulis[a], paulis[b]) @ h) / 4.0

    x, y, z = 1, 2, 3
    pattern = {(x, x), (y, y), (z, z), (x, z), (z, x)}
    residual = 0.0
    for a in range(4):
        for b in range(4):
            if (a, b) not in pattern:
                residual += abs(coeffs[a, b]) ** 2
    tensor = JTensor(
        j_xx=float(coeffs[x, x].real),
        j_yy=float(coeffs[y, y].real),
        j_zz=float(coeffs[z, z].real),
        j_xz=float(0.5 * (coeffs[x, z] + coeffs[z, x]).real),
    )
    return tensor, float(np.sqrt(residual))


def sambe_floquet(drive: DriveParams, n_blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the Floquet Hamiltonian truncated to |n| <= n_blocks.

    Shirley, Phys. Rev. 138, B979 (1965); Sambe, Phys. Rev. A 7, 2203
    (1973).  In the basis |alpha, n> (alpha in {|e>, |g>}, Fourier index n
    outermost) the diagonal blocks are (omega_eg/2) sigma_z + n omega and the
    blocks (n, n +- 1) hold the Fourier components (rabi/2) sigma_x of the
    cosine drive.  An eigenvalue eps with eigenvector blocks u_n is a
    quasienergy with periodic mode phi(t) = sum_n u_n e^{i n w t}.  Returns
    the ascending eigenvalues and the eigenvectors reshaped to
    ``(2 n_blocks + 1, 2, n_eigen)``.
    """
    size = 2 * n_blocks + 1
    diagonal = np.kron(np.diag(np.arange(-n_blocks, n_blocks + 1) * drive.omega), np.eye(2))
    diagonal = diagonal + np.kron(np.eye(size), 0.5 * drive.omega_eg * SIGMA_Z)
    shift = np.eye(size, k=1) + np.eye(size, k=-1)
    h_floquet = diagonal + np.kron(shift, 0.5 * drive.rabi * SIGMA_X)
    values, vectors = np.linalg.eigh(h_floquet)
    return values, vectors.reshape(size, 2, -1)


def sambe_matrix_elements(
    drive: DriveParams, n_blocks: int, mus, truncation: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sideband elements of sigma_x as convolutions of Sambe-Shirley Fourier blocks.

    For each quasienergy of ``mus`` the eigenvector of :func:`sambe_floquet`
    nearest to it gives the blocks u_n of its mode, and

        <<phi_a|sigma_x|phi_b>>_m = sum_n u_{a,n}^+ sigma_x u_{b,n-m}

    for |m| <= ``truncation``.  Returns the picked eigenvalues and the
    elements, shape ``(2, 2, 2 truncation + 1)`` with index ``truncation + m``.
    The phase of each eigenvector is arbitrary, so only |element|^2 is
    comparable with :func:`floquetdd.dipole.matrix_elements`.
    """
    values, blocks = sambe_floquet(drive, n_blocks)
    picked = [int(np.argmin(np.abs(values - mu))) for mu in mus]
    u = np.stack([blocks[:, :, k] for k in picked])  # (branch, n, component)
    sx_u = u @ SIGMA_X.T
    size = u.shape[1]
    out = np.zeros((2, 2, 2 * truncation + 1), dtype=complex)
    for a, b in itertools.product(range(2), repeat=2):
        for m in range(-truncation, truncation + 1):
            if m >= 0:
                out[a, b, truncation + m] = np.sum(u[a, m:].conj() * sx_u[b, : size - m])
            else:
                out[a, b, truncation + m] = np.sum(u[a, : size + m].conj() * sx_u[b, -m:])
    return values[picked], out


def full_period_monodromy_map(rabi_values, omega_eg_values, omega: float, n_samples: int):
    """|mu_+| and Re alpha of every grid cell, from all ``n_samples`` CF4 steps of the period.

    The same steps as :func:`floquetdd.floquet.quasienergy_magnitude_map`,
    multiplied one by one through the whole period instead of a quarter of
    it unfolded by the drive's symmetries.  Returns arrays of shape
    ``(len(rabi_values), len(omega_eg_values))``.
    """
    rr = np.asarray(rabi_values, dtype=float)[:, None]
    ee = np.asarray(omega_eg_values, dtype=float)[None, :]
    period = 2.0 * np.pi / omega
    dt = period / n_samples
    a = np.ones((rr.size, ee.size), dtype=complex)
    b = np.zeros_like(a)
    for k in range(n_samples):
        a, b = _su2_product(*_cf4_steps(rr, ee, omega, dt, k * dt), a, b)
    return _su2_eigenphase(a, b) / period, np.real(a)


def stepwise_quarter_map(rabi_values, omega_eg_values, omega: float, n_samples: int):
    """|mu_+| and Re alpha of every grid cell, building and applying one CF4 step at a time.

    The quarter-period steps of :func:`floquetdd.floquet.quasienergy_magnitude_map`
    and its unfolding by time reversal and half-period parity, with each
    step built in its own call of the step builder instead of a chunk of
    steps per call: the same elementwise values multiplied in the same
    order, so both outputs agree bit for bit.  Returns arrays of shape
    ``(len(rabi_values), len(omega_eg_values))``.
    """
    rr = np.asarray(rabi_values, dtype=float)[:, None]
    ee = np.asarray(omega_eg_values, dtype=float)[None, :]
    period = 2.0 * np.pi / omega
    dt = period / n_samples
    a = np.ones((rr.size, ee.size), dtype=complex)
    b = np.zeros_like(a)
    for k in range(n_samples // 4):
        a, b = _su2_product(*_cf4_steps(rr, ee, omega, dt, k * dt), a, b)
    # Time reversal gives U(T/2) = sigma_z U(T/4)^T sigma_z U(T/4), then
    # half-period parity U(T) = sigma_z U(T/2) sigma_z U(T/2).
    a, b = _su2_product(a, np.conj(b), a, b)
    a, b = _su2_product(a, -b, a, b)
    return _su2_eigenphase(a, b) / period, np.real(a)


def stepwise_evolve(model: LindbladModel, rho0: np.ndarray, times) -> np.ndarray:
    """States of the master equation at non-decreasing ``times``, one report interval at a time.

    One exponential of the Liouvillian per distinct interval (the first runs
    from t = 0 to ``times[0]``), applied in order, each step followed by
    Hermitization rho -> (rho + rho^+)/2.  Returns the stack of states,
    unvalidated.
    """
    liou = build_liouvillian(model)
    times = np.asarray(times, dtype=float)
    intervals, which = np.unique(np.diff(times, prepend=0.0), return_inverse=True)
    steppers = [expm(liou * dt) for dt in intervals]
    d = model.dimension
    rho = np.asarray(rho0, dtype=complex)
    out = np.empty((times.size, d, d), dtype=complex)
    for k, idx in enumerate(which):
        rho = (steppers[idx] @ rho.reshape(-1)).reshape(d, d)
        rho = 0.5 * (rho + rho.conj().T)
        out[k] = rho
    return out


def eigvalsh_validate(rho: np.ndarray) -> np.ndarray:
    """Finite entries, Hermiticity, unit trace and no eigenvalue of the
    Hermitian part below the floor, each checked on the whole stack at once,
    positivity by ``np.linalg.eigvalsh``; the same messages, in the same
    order, as :func:`floquetdd.lindblad.validate_density_matrix`."""
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


def rotated_populations(basis: np.ndarray, states: np.ndarray) -> np.ndarray:
    """Populations of the columns of ``basis``: the whole rotated stack
    basis^+ rho basis, then its diagonal."""
    rotated = np.einsum("ij,tjk,kl->til", basis.conj().T, states, basis)
    return np.real(np.einsum("tii->ti", rotated))
