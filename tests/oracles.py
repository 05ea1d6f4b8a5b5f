"""Independent reference implementations used to cross-check the library.

Most of this is deliberately built a different way than the package: the
Hamiltonian from raw ladder operators instead of dressed blocks, the
exponential by scaling and squaring instead of analytic phases, and Poisson
terms by the product recursion instead of from log-space weights.  The
dense joint-space path (the block-diagonal propagator conjugating the full
product density matrix) is the package's former evolution path, kept here
as the reference for the two-vector kernel.
"""

import math

import numpy as np

from jcdem.model import coherent_amplitudes


def dense_hamiltonian(g: float, omega0: float, n_max: int) -> np.ndarray:
    """Joint Hamiltonian assembled directly from atom and mode operators.

    Basis ordering matches the package: index = atom*(n_max+1) + n with
    the ground level first.
    """
    na = n_max + 1
    lower = np.zeros((na, na), dtype=complex)
    for n in range(1, na):
        lower[n - 1, n] = np.sqrt(n)
    number = lower.conj().T @ lower
    sigma_z = np.diag([-1.0, 1.0]).astype(complex)
    raise_atom = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    h = 0.5 * omega0 * np.kron(sigma_z, np.eye(na))
    h = h + omega0 * np.kron(np.eye(2), number)
    h = h + g * (
        np.kron(raise_atom, lower)
        + np.kron(raise_atom.conj().T, lower.conj().T)
    )
    return h


def expm_taylor(m: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a Taylor series."""
    norm = float(np.abs(m).sum(axis=1).max())
    squarings = max(0, int(np.ceil(np.log2(max(norm, 1.0)))) + 1)
    x = m / (2.0**squarings)
    out = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, 30):
        term = term @ x / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def truncation_dim_by_recursion(mean_photons: float, tail_tol: float) -> int:
    """Photon cutoff from the product recursion p_n = p_{n-1} m / n.

    Starts from exp(-m), so it only works while that does not underflow
    (m below about 745).  Returns the smallest N whose tail sum beyond N,
    summed from the last computed term down, is below tail_tol, plus the
    5-level guard band.
    """
    guard = 5
    if mean_photons == 0:
        return guard
    m = float(mean_photons)
    terms = [math.exp(-m)]
    n = 0
    while not (n > m and terms[-1] < tail_tol * 1e-6):
        n += 1
        terms.append(terms[-1] * m / n)
    tail = 0.0
    for k in range(len(terms) - 1, 0, -1):
        tail += terms[k]
        if tail >= tail_tol:
            return k + guard
    return guard


def poisson_tail(mean_photons: float, n_max: int) -> float:
    """sum_{n > n_max} exp(-m) m^n / n!, term by term outward from n_max + 1."""
    if mean_photons == 0:
        return 0.0
    m = float(mean_photons)
    n = n_max + 1
    term = math.exp(n * math.log(m) - m - math.lgamma(n + 1.0))
    total = 0.0
    while term > 0.0 and (n <= m or term > 1e-18 * total):
        total += term
        n += 1
        term *= m / n
    return total


def coherent_state(theta: complex, n_max: int) -> np.ndarray:
    """Rank-1 density matrix of the truncated coherent state."""
    amps = coherent_amplitudes(theta, n_max)
    return np.outer(amps, amps.conj())


def atom_matrix(atom) -> np.ndarray:
    """2x2 density matrix of a diagonal atom state, ground level first."""
    return np.diag([atom.lambda0, atom.lambda1]).astype(complex)


def initial_joint_state(atom, field) -> np.ndarray:
    """Product state atom (x) field in the joint basis ordering."""
    return np.kron(atom_matrix(atom), coherent_state(field.theta, field.n_max))


def propagator(t: float, params, n_max: int) -> np.ndarray:
    """Dense unitary exp(-itH) on the truncated joint space.

    Block-diagonal by excitation number: |1,0> picks up exp(+i omega0 t/2),
    each sector span{|2,n>, |1,n+1>} rotates at its own Rabi frequency, and
    the edge state |2,n_max> (whose partner lies outside the truncation)
    advances with its free phase only, keeping the matrix exactly unitary.
    """
    d = 2 * (n_max + 1)
    u = np.zeros((d, d), dtype=complex)
    w0, g = params.omega0, params.g
    u[0, 0] = np.exp(1j * w0 * t / 2.0)
    u[d - 1, d - 1] = np.exp(-1j * w0 * (n_max + 0.5) * t)
    n = np.arange(n_max)
    omega = g * np.sqrt(n + 1.0)
    phase = np.exp(-1j * w0 * (n + 0.5) * t)
    diag = np.cos(omega * t) * phase
    off = -1j * np.sin(omega * t) * phase
    i_exc = (n_max + 1) + n
    i_gnd = n + 1
    u[i_exc, i_exc] = diag
    u[i_gnd, i_gnd] = diag
    u[i_exc, i_gnd] = off
    u[i_gnd, i_exc] = off
    return u

