"""Entropy functionals and the mutual-entropy degree of entanglement.

Von Neumann entropies read only the spectrum of a state; the relative
entropy also needs the eigenvectors of both arguments.
Natural log is the default; base 2 is selectable everywhere through the
``log_base`` argument ("e" or "2").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigensystem, hermitian_eigenvalues, partial_trace
from .model import ClosedFormCoeffs

# Eigenvalues at or below EIG_CLIP contribute nothing to entropy sums;
# below -NEGATIVE_EIG_TOL the state itself is invalid.
EIG_CLIP = 1e-12
NEGATIVE_EIG_TOL = 1e-10
# Probability mass sigma may place outside rho's support before the
# relative entropy is declared infinite.
SUPPORT_TOL = 1e-9
AL_SLACK = 1e-8


def _log_scale(log_base: str) -> float:
    if log_base == "e":
        return 1.0
    if log_base == "2":
        return 1.0 / math.log(2.0)
    raise ValueError(f"log_base must be 'e' or '2', got {log_base!r}")


def _xlogx(x) -> np.ndarray:
    """Elementwise x ln x, zero at or below EIG_CLIP."""
    x = np.asarray(x, dtype=float)
    live = x > EIG_CLIP
    return np.where(live, x * np.log(np.where(live, x, 1.0)), 0.0)


def von_neumann_entropy(rho, log_base: str = "e") -> float:
    """-tr(rho log rho) from the spectrum alone; zero exactly on pure states."""
    eigs = hermitian_eigenvalues(rho)
    if eigs[0] < -NEGATIVE_EIG_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs[0]:.3e}")
    return max(-float(np.sum(_xlogx(eigs))), 0.0) * _log_scale(log_base)


def relative_entropy(sigma, rho, log_base: str = "e") -> float:
    """tr sigma (log sigma - log rho), or +inf outside rho's support.

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
    if lam[0] < -NEGATIVE_EIG_TOL or mu[0] < -NEGATIVE_EIG_TOL:
        raise ValueError("negative eigenvalue in relative entropy argument")
    overlaps = np.abs(v.conj().T @ w) ** 2
    lam_live = lam > EIG_CLIP
    mu_dead = mu <= EIG_CLIP
    stray = float(lam[lam_live] @ overlaps[np.ix_(lam_live, mu_dead)].sum(axis=1))
    if stray > SUPPORT_TOL:
        return math.inf
    cross = float(
        lam[lam_live]
        @ overlaps[np.ix_(lam_live, ~mu_dead)]
        @ np.log(mu[~mu_dead])
    )
    return (float(np.sum(_xlogx(lam))) - cross) * _log_scale(log_base)


@dataclass(frozen=True)
class EntropyReport:
    """Marginal and joint entropies of a bipartite state, with the DEM."""

    s_atom: float
    s_field: float
    s_joint: float
    dem: float
    araki_lieb_ok: bool
    al_margins: tuple[float, float]


def dem_exact(joint, dims: tuple[int, int], log_base: str = "e") -> EntropyReport:
    """Degree of entanglement S(rho_A) + S(rho_F) - S(joint).

    Also evaluates both triangle-inequality bounds: al_margins holds
    (s_joint - |s_atom - s_field|, s_atom + s_field - s_joint), each
    nonnegative up to AL_SLACK on a valid state.
    """
    s_atom = von_neumann_entropy(partial_trace(joint, dims, "atom"), log_base)
    s_field = von_neumann_entropy(partial_trace(joint, dims, "field"), log_base)
    s_joint = von_neumann_entropy(joint, log_base)
    lower = s_joint - abs(s_atom - s_field)
    upper = s_atom + s_field - s_joint
    return EntropyReport(
        s_atom=s_atom,
        s_field=s_field,
        s_joint=s_joint,
        dem=upper,
        araki_lieb_ok=(lower >= -AL_SLACK and upper >= -AL_SLACK),
        al_margins=(lower, upper),
    )


def dem_closed_form(coeffs: ClosedFormCoeffs, log_base: str = "e"):
    """Analytic degree of entanglement, magnitude reading.

    -e1 log e1 - e4 log e4 + |e2| log |e2| + |e3| log |e3|, with the
    off-diagonal terms entering by magnitude.  Reduces to the binary
    entropy of (e1, e4) whenever the coherences vanish.  Returns a float
    for scalar coefficients and an array for coefficients over times.
    """
    val = (
        -_xlogx(coeffs.e1)
        - _xlogx(coeffs.e4)
        + _xlogx(coeffs.e2_mag)
        + _xlogx(coeffs.e3_mag)
    )
    # [()] unwraps a 0-d result to a scalar and leaves arrays as they are
    return val[()] * _log_scale(log_base)
