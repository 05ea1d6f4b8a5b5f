"""Independent reference implementations used to cross-check the library.

Most of this is deliberately built a different way than the package: the
Hamiltonian from raw ladder operators instead of dressed blocks, the
exponential by scaling and squaring instead of analytic phases, and Poisson
terms by the recursion p_{n+1} = p_n m / (n + 1) instead of from log-space
weights.  The dense joint-space path (the block-diagonal propagator
conjugating the full product density matrix) is the package's former
evolution path, kept here as the reference for entropies_at's evolution.
Likewise partial_trace and dem_exact are the package's former entropy
path: they take any dense bipartite state, check that it is Hermitian and
trace out each factor, where entropies_at reads its marginals from one
array of evolved amplitudes.  Their entropies come from
von_neumann_entropy here, not from the package's spectrum-to-entropy code;
it and relative_entropy zero an eigenvalue by the package's rule, at or
below d eps max|eig| of its own d x d matrix, and renormalize nothing.
The full eigensystem and the relative entropy are only needed by these
checks.  full_range_vectors evolves the two starts |1,theta> and
|2,theta> per dressed doublet from whatever amplitudes it is given, on
every level 0..n_max by default: the reference for the package's photon
window n_lo..n_max.  evolve_vectors runs it on that window, the states
entropies_at forms internally, and vector_joint assembles their dense
joint state; none of the three uses package evolution code or weights,
only the FieldConfig's mean photon number and window edges.  Where a phase
is under test, the caller passes it: coherent_amplitudes, evolve_vectors
and vector_joint take theta = sqrt(m) e^{i phase} as m and phase, so
|theta|^2 is m exactly, as the package's is.
excited_population and atom_coherence write the atom's populations and
coherence as Poisson sums, term by term, both exactly and under the
substitutions that give the paper's closed form; poisson_grams writes the
field's 4x4 Gram and the joint 2x2 Gram of the evolved states the same way,
in O(W) per time with no state vector.  windowed_range is the
revival detector's score by brute force: the range of the values within a
centered time window, with no padding and no sliding view.
"""

import math
from typing import Literal, NamedTuple

import numpy as np

from jcdem import EntropyReport

# Probability mass sigma may place outside rho's support before the
# relative entropy is declared infinite.
SUPPORT_TOL = 1e-9
# An eigenvalue below -NEGATIVE_EIG makes the state invalid.
NEGATIVE_EIG = 1e-10
# A joint state further than this from Hermitian is a bug in its caller.
HERMITICITY_ATOL = 1e-10


def dense_hamiltonian(g: float, omega0: float, n_max: int) -> np.ndarray:
    """Joint Hamiltonian assembled directly from atom and mode operators.

    Basis ordering matches the package: index = atom*(n_max+1) + n with
    the ground level first.
    """
    na = n_max + 1
    lower = np.zeros((na, na), dtype=complex)
    for n in range(1, na):
        lower[n - 1, n] = np.sqrt(n)
    number = np.diag(np.arange(na))
    sigma_z = np.diag([-1.0, 1.0]).astype(complex)
    raise_atom = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    h = 0.5 * omega0 * np.kron(sigma_z, np.eye(na))
    h = h + omega0 * np.kron(np.eye(2), number)
    h = h + g * (
        np.kron(raise_atom, lower)
        + np.kron(raise_atom.conj().T, lower.conj().T)
    )
    return h


def free_evolution(t: float, omega0: float, n_max: int) -> np.ndarray:
    """exp(+i t H0) for the free Hamiltonian H0 = dense_hamiltonian(0, omega0, n_max).

    H0 is diagonal, so its exponential is taken entry by entry.  It takes
    a Schroedinger-picture state to the interaction picture evolve_vectors
    and the package's entropies_at work in.
    """
    return np.diag(np.exp(1j * t * np.diag(dense_hamiltonian(0.0, omega0, n_max)).real))


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


def poisson_lower_tail(mean_photons: float, n_lo: int) -> float:
    """sum_{n < n_lo} exp(-m) m^n / n!, term by term downward from n_lo - 1."""
    if n_lo <= 0:
        return 0.0
    if mean_photons == 0:
        return 1.0
    m = float(mean_photons)
    n = n_lo - 1
    term = math.exp(n * math.log(m) - m - math.lgamma(n + 1.0))
    total = 0.0
    while n >= 0 and term > 1e-18 * total:
        total += term
        term *= n / m
        n -= 1
    return total


def poisson_terms(mean_photons: float, n_max: int) -> np.ndarray:
    """Poisson weights p_0..p_{n_max} by the ratio recursion outward from the mode.

    p_{n+1} = p_n m / (n + 1) upward and p_{n-1} = p_n n / m downward, both
    from 1 at floor(m), each run until its terms fall below 1e-30 of the mode
    (upward at least to n_max, downward at most to 0), then divided by the
    sum over every level computed; the levels below the downward run are 0.
    """
    m = float(mean_photons)
    if m == 0:
        return (np.arange(n_max + 1) == 0).astype(float)
    mode = math.floor(m)
    up = [1.0]
    while up[-1] > 1e-30 or mode + len(up) <= n_max:
        up.append(up[-1] * m / (mode + len(up)))
    down = [1.0]
    while down[-1] > 1e-30 and len(down) <= mode:
        down.append(down[-1] * (mode + 1 - len(down)) / m)
    terms = down[::-1] + up[1:]
    return np.pad(terms, (mode + 1 - len(down), 0))[: n_max + 1] / math.fsum(terms)


def coherent_amplitudes(
    mean_photons: float, n_max: int, n_lo: int = 0, phase: float = 0.0
) -> np.ndarray:
    """Amplitudes sqrt(p_n) e^{i n phase} of |theta>, theta = sqrt(m) e^{i phase},
    on levels n_lo..n_max from poisson_terms, renormalized there."""
    n = np.arange(n_lo, n_max + 1)
    amps = np.sqrt(poisson_terms(mean_photons, n_max)[n_lo:]) * np.exp(1j * phase * n)
    return amps / np.linalg.norm(amps)


def coherent_state(mean_photons: float, n_max: int) -> np.ndarray:
    """Rank-1 density matrix of the truncated coherent state |sqrt(m)>."""
    amps = coherent_amplitudes(mean_photons, n_max)
    return np.outer(amps, amps.conj())


def atom_matrix(atom) -> np.ndarray:
    """2x2 density matrix of a diagonal atom state, ground level first."""
    return np.diag([atom.lambda0, atom.lambda1]).astype(complex)


def initial_joint_state(atom, field) -> np.ndarray:
    """Product state atom (x) field in the joint basis ordering."""
    return np.kron(atom_matrix(atom), coherent_state(field.mean_photons, field.n_max))


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



def propagated_joint(atom, field, params, t: float) -> np.ndarray:
    """U(t) (rho (x) omega) U(t)^dag from the dense propagator."""
    u = propagator(t, params, field.n_max)
    return u @ initial_joint_state(atom, field) @ u.conj().T


def full_range_vectors(amps, params, t, n_lo: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """exp(+i t H0) U(t) |1,theta> and |2,theta> from the amplitudes amps of
    levels n_lo..n_max, ignoring any photon window (n_lo = 0 by default).

    Each state is shaped t.shape + (2 W,), W = len(amps), index
    atom * W + (n - n_lo); |1,n_lo> and the edge |2,n_max> stay put.
    """
    t = np.asarray(t, dtype=float)
    width = len(amps)
    rabi_t = params.g * np.sqrt(np.arange(n_lo + 1.0, n_lo + width)) * t[..., None]
    diag = np.cos(rabi_t)
    off = -1j * np.sin(rabi_t)
    psi_g = np.zeros(t.shape + (2 * width,), dtype=complex)
    psi_e = np.zeros_like(psi_g)
    psi_g[..., 0] = amps[0]
    psi_g[..., 1:width] = diag * amps[1:]
    psi_g[..., width:-1] = off * amps[1:]
    psi_e[..., 1:width] = off * amps[:-1]
    psi_e[..., width:-1] = diag * amps[:-1]
    psi_e[..., -1] = amps[-1]
    return psi_g, psi_e


def evolve_vectors(field, params, t, phase: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """full_range_vectors on the field's window n_lo..n_max, from
    coherent_amplitudes there at the given phase, not the package's weights."""
    amps = coherent_amplitudes(field.mean_photons, field.n_max, field.n_lo, phase)
    return full_range_vectors(amps, params, t, field.n_lo)


def excited_population(
    p, lambda0: float, g: float, t: float, paper: bool = False
) -> float:
    """Excited-level weight of the evolved mixture, term by term from the
    Poisson weights p_n of levels 0..n_max:
    lambda0 sum_n p_n sin^2(g sqrt(n) t) + lambda1 sum_n p_n cos^2(g sqrt(n+1) t).

    The ground start |1,n> rotates into |2,n-1> at g sqrt(n).  paper=True
    gives it the excited start's frequency g sqrt(n+1) instead, the paper's
    substitution n -> n+1: the sum is then the paper's e1 = lambda0 s +
    lambda1 c.
    """
    p = np.asarray(p, dtype=float)
    n = np.arange(len(p))
    ground = g * np.sqrt(n + 1.0 if paper else n) * t
    excited = g * np.sqrt(n + 1.0) * t
    return math.fsum(
        p * (lambda0 * np.sin(ground) ** 2 + (1.0 - lambda0) * np.cos(excited) ** 2)
    )


def atom_coherence(
    p, lambda0: float, g: float, t: float, paper: bool = False
) -> complex:
    """<1|rho_A|2> of the evolved mixture, term by term from the Poisson
    weights p_n of levels 0..n_max, with a_n = sqrt(p_n):
    i lambda0 sum_n a_n a_{n+1} cos(g sqrt(n) t) sin(g sqrt(n+1) t)
    - i lambda1 sum_n a_n a_{n+1} sin(g sqrt(n+1) t) cos(g sqrt(n+2) t).

    Each start pairs level n with n+1 across the two atom levels, at two
    frequencies.  paper=True replaces a_n a_{n+1} by p_n and every frequency
    by g sqrt(n+1): the sum is then i (lambda0 - lambda1) / 2 sum_n p_n
    sin(2 g sqrt(n+1) t), whose magnitude is the paper's |e2|.
    """
    p = np.asarray(p, dtype=float)
    n = np.arange(len(p), dtype=float)
    a = np.sqrt(np.append(p, 0.0))
    pair = p if paper else a[:-1] * a[1:]
    levels = (n + 1, n + 1, n + 1) if paper else (n, n + 1, n + 2)
    low, mid, high = (g * np.sqrt(k) * t for k in levels)
    terms = np.sin(mid) * (lambda0 * np.cos(low) - (1.0 - lambda0) * np.cos(high))
    return 1j * math.fsum(pair * terms)


def vector_joint(atom, field, params, t: float, phase: float = 0.0) -> np.ndarray:
    """lambda0 |psi_g><psi_g| + lambda1 |psi_e><psi_e| of the evolve_vectors
    states at one time, as a dense matrix."""
    psi_g, psi_e = evolve_vectors(field, params, float(t), phase)
    return atom.lambda0 * np.outer(psi_g, psi_g.conj()) + atom.lambda1 * np.outer(
        psi_e, psi_e.conj()
    )


def poisson_grams(atom, field, params, t) -> tuple[np.ndarray, np.ndarray]:
    """(4x4 field Gram, 2x2 joint Gram) of the evolve_vectors states at a scalar
    or array of times, each shaped t.shape + (r, r), as Poisson-trig sums over
    the window in O(W) per time, with no state vector.

    The field Gram's rows are sqrt(lambda_k) psi_k[a, :], index 2k + a by start
    k (ground, excited) and atom level a, and its entry [r, q] is
    sum_n row_r[n] conj(row_q[n]): it shares the field marginal's nonzero
    spectrum.  The joint Gram, B^dag B's transpose with B = [sqrt(lambda0) psi_g,
    sqrt(lambda1) psi_e], is its partial trace over a.  With the amplitudes
    a_n of coherent_amplitudes and C_n, S_n the cos and sin of g sqrt(n+1) t
    on each doublet {|2,n>, |1,n+1>}, every entry is one of nine sums of
    a_n a_{n+s} (s = 0, 1, 2) times two trig factors, plus the edge terms of
    |1,n_lo> and |2,n_max>, which stay put.
    """
    t = np.asarray(t, dtype=float)[..., None]
    a = coherent_amplitudes(field.mean_photons, field.n_max, field.n_lo).real
    lo, hi = a[:-1], a[1:]
    phase = params.g * np.sqrt(np.arange(field.n_lo + 1.0, field.n_max + 1.0)) * t
    c, s = np.cos(phase), np.sin(phase)
    one = np.ones(t.shape)
    # the cos of the doublet below and above each doublet; 1 where that is an edge
    c_below = np.concatenate([one, c[..., :-1]], axis=-1)
    c_above = np.concatenate([c[..., 1:], one], axis=-1)
    first, last = a[0] ** 2, a[-1] ** 2
    # upper triangle by (row, column): psi_g ground, psi_g excited, psi_e ground,
    # psi_e excited
    sums = {
        (0, 0): first + (c * c) @ (hi * hi),
        (1, 1): (s * s) @ (hi * hi),
        (2, 2): (s * s) @ (lo * lo),
        (3, 3): (c * c) @ (lo * lo) + last,
        (0, 1): 1j * ((c_below * s) @ (lo * hi)),
        (0, 2): 1j * ((c * s) @ (lo * hi)),
        (0, 3): (c_below * c) @ (lo * lo) + last * c[..., -1],
        (1, 2): (s[..., :-1] * s[..., 1:]) @ (a[:-2] * a[2:]),
        (1, 3): -1j * ((s * c) @ (lo * hi)),
        (2, 3): -1j * ((s * c_above) @ (lo * hi)),
    }
    gram = np.empty(t.shape[:-1] + (4, 4), dtype=complex)
    for (r, q), value in sums.items():
        gram[..., r, q], gram[..., q, r] = value, np.conj(value)
    root = np.sqrt([atom.lambda0, atom.lambda0, atom.lambda1, atom.lambda1])
    gram *= np.outer(root, root)
    return gram, gram[..., ::2, ::2] + gram[..., 1::2, 1::2]


def partial_trace(
    joint, dims: tuple[int, int], keep: Literal["atom", "field"]
) -> np.ndarray:
    """Trace out one factor of a bipartite operator or a stack of them.

    ``joint`` is shaped (..., d, d) with d = d_atom * d_field, and ``dims``
    = (d_atom, d_field) with the atom index outermost, i.e. the joint index
    is a*d_field + n.  ``keep="atom"`` returns the (..., d_atom, d_atom)
    marginals sum_n joint[..., (i,n), (j,n)]; ``keep="field"`` the
    analogous (..., d_field, d_field) ones.
    """
    joint = np.asarray(joint, dtype=complex)
    d_atom, d_field = int(dims[0]), int(dims[1])
    if d_atom < 1 or d_field < 1 or joint.shape[-2:] != (d_atom * d_field,) * 2:
        raise ValueError(
            f"joint of shape {joint.shape} does not factor as ({d_atom}, {d_field})"
        )
    t = joint.reshape(joint.shape[:-2] + (d_atom, d_field, d_atom, d_field))
    if keep == "atom":
        return np.einsum("...injn->...ij", t)
    if keep == "field":
        return np.einsum("...ninj->...ij", t)
    raise ValueError(f"keep must be 'atom' or 'field', got {keep!r}")


def zero_floor(p) -> np.ndarray:
    """d eps max|p| of each spectrum p along the last axis of length d: the
    resolution of a d x d eigenvalue problem, at or below which p is zero."""
    return p.shape[-1] * np.finfo(float).eps * np.abs(p).max(axis=-1, keepdims=True)


def von_neumann_entropy(rho):
    """-sum p ln p over the eigenvalues p above zero_floor of each matrix in a
    (..., d, d) stack; ValueError if one lies below -NEGATIVE_EIG."""
    p = np.linalg.eigvalsh(rho)
    if p.min(initial=0.0) < -NEGATIVE_EIG:
        raise ValueError(f"state has negative eigenvalue {p.min():.3e}")
    live = np.where(p > zero_floor(p), p, 1.0)
    return -np.sum(live * np.log(live), axis=-1)


def dem_exact(joint, dims: tuple[int, int]) -> EntropyReport:
    """Degree of entanglement S(rho_A) + S(rho_F) - S(joint) of any dense
    bipartite state, with the Araki-Lieb margins, by partial_trace.

    joint is one state or a stack shaped (..., d, d), d = dims[0] * dims[1];
    the report has the shape of the leading axes.  Raises ValueError when
    joint does not factor as dims or a member is not Hermitian.
    """
    joint = np.asarray(joint, dtype=complex)
    marginals = [partial_trace(joint, dims, keep) for keep in ("atom", "field")]
    deviation = np.abs(joint - joint.conj().swapaxes(-1, -2)).max(initial=0.0)
    if deviation > HERMITICITY_ATOL:
        raise ValueError(
            f"joint state is not Hermitian: max |M - M^dag| = {deviation:.3e} "
            f"> {HERMITICITY_ATOL:.1e}"
        )
    return EntropyReport(*(von_neumann_entropy(m) for m in (*marginals, joint)))


def marginal_product(joint, dims) -> np.ndarray:
    """rho_A (x) rho_F of a bipartite joint state."""
    return np.kron(
        partial_trace(joint, dims, "atom"), partial_trace(joint, dims, "field")
    )


class EigenSystem(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigensystem(m, atol: float = 1e-10) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Square inputs within ``atol`` of Hermitian are symmetrized as
    (M + M^dag)/2 before diagonalizing; anything else raises ValueError.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size and np.abs(m - m.conj().T).max() > atol:
        raise ValueError("matrix is not Hermitian")
    return EigenSystem(*np.linalg.eigh(0.5 * (m + m.conj().T)))


def relative_entropy(sigma, rho) -> float:
    """tr sigma (log sigma - log rho) in nats, or +inf outside rho's support.

    Evaluated from both eigensystems as
    sum_i lam_i log lam_i - sum_ij lam_i |<v_i|w_j>|^2 log mu_j,
    where (lam, v) and (mu, w) diagonalize sigma and rho.
    """
    lam, v = hermitian_eigensystem(sigma)
    mu, w = hermitian_eigensystem(rho)
    if lam.shape != mu.shape:
        raise ValueError(
            f"dimension mismatch: {lam.shape[0]} vs {mu.shape[0]}"
        )
    if lam[0] < -NEGATIVE_EIG or mu[0] < -NEGATIVE_EIG:
        raise ValueError("negative eigenvalue in relative entropy argument")
    overlaps = np.abs(v.conj().T @ w) ** 2
    lam_live = lam > zero_floor(lam)
    mu_dead = mu <= zero_floor(mu)
    stray = float(lam[lam_live] @ overlaps[np.ix_(lam_live, mu_dead)].sum(axis=1))
    if stray > SUPPORT_TOL:
        return math.inf
    cross = float(
        lam[lam_live]
        @ overlaps[np.ix_(lam_live, ~mu_dead)]
        @ np.log(mu[~mu_dead])
    )
    return float(lam[lam_live] @ np.log(lam[lam_live])) - cross


def windowed_range(times, values, width: float) -> np.ndarray:
    """max - min of values over |t - t_i| <= width / 2, for each t_i."""
    times, values = np.asarray(times), np.asarray(values)
    return np.array([np.ptp(values[np.abs(times - t) <= width / 2.0]) for t in times])
