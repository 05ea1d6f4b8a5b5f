"""Entropy functionals and the mutual-entropy degree of entanglement.

Von Neumann entropies read only the spectrum of a state.  entropies_at is
the one place the evolved joint density matrix is formed.  All entropies
are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import hermitian_eigenvalues, partial_trace
from .model import (
    AtomState,
    ClosedFormCoeffs,
    FieldConfig,
    ModelParams,
    evolve_vectors,
    time_chunks,
)

# Eigenvalues at or below EIG_CLIP contribute nothing to entropy sums;
# below -NEGATIVE_EIG_TOL the state itself is invalid.
EIG_CLIP = 1e-12
NEGATIVE_EIG_TOL = 1e-10
AL_SLACK = 1e-8


def _xlogx(x) -> np.ndarray:
    """Elementwise x ln x, zero at or below EIG_CLIP."""
    x = np.asarray(x, dtype=float)
    live = x > EIG_CLIP
    return np.where(live, x * np.log(np.where(live, x, 1.0)), 0.0)


def von_neumann_entropy(rho) -> float:
    """-tr(rho log rho) from the spectrum alone; zero exactly on pure states."""
    eigs = hermitian_eigenvalues(rho)
    if eigs[0] < -NEGATIVE_EIG_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs[0]:.3e}")
    return max(-float(np.sum(_xlogx(eigs))), 0.0)


@dataclass(frozen=True)
class EntropyReport:
    """Marginal and joint entropies of a bipartite state, with the DEM.

    dem_exact fills it with floats for one state; entropies_at with arrays
    shaped like its times.
    """

    s_atom: float
    s_field: float
    s_joint: float
    dem: float
    araki_lieb_ok: bool
    al_margins: tuple[float, float]


def _report(s_atom, s_field, s_joint) -> EntropyReport:
    """The DEM and the triangle-inequality margins (s_joint - |s_atom -
    s_field|, s_atom + s_field - s_joint), each nonnegative up to AL_SLACK
    on a valid state.  Works alike on floats and on arrays of them."""
    lower = s_joint - abs(s_atom - s_field)
    upper = s_atom + s_field - s_joint
    return EntropyReport(
        s_atom=s_atom,
        s_field=s_field,
        s_joint=s_joint,
        dem=upper,
        araki_lieb_ok=(lower >= -AL_SLACK) & (upper >= -AL_SLACK),
        al_margins=(lower, upper),
    )


def dem_exact(joint, dims: tuple[int, int]) -> EntropyReport:
    """Degree of entanglement S(rho_A) + S(rho_F) - S(joint), with margins."""
    return _report(
        von_neumann_entropy(partial_trace(joint, dims, "atom")),
        von_neumann_entropy(partial_trace(joint, dims, "field")),
        von_neumann_entropy(joint),
    )


def entropies_at(
    atom: AtomState, field: FieldConfig, params: ModelParams, t
) -> EntropyReport:
    """Entropies and DEM of the evolved joint state at a scalar or array of times.

    At each time the rank-2 joint state lambda0 |psi_g><psi_g| +
    lambda1 |psi_e><psi_e| of the evolve_vectors states, on the kept
    photon levels n_lo..n_max, goes through dem_exact.  Every field of the
    report has the shape of t, and al_margins holds two such arrays; a
    scalar t gives scalars.
    """
    t = np.asarray(t, dtype=float)
    dims = (2, field.n_levels)
    entropies = np.empty((3, t.size))
    for sl in time_chunks(t.size, dims[1]):
        psi_g, psi_e = evolve_vectors(field, params, t.reshape(-1)[sl])
        for i, g, e in zip(range(sl.start, sl.stop), psi_g, psi_e):
            joint = atom.lambda0 * np.outer(g, g.conj()) + atom.lambda1 * np.outer(
                e, e.conj()
            )
            report = dem_exact(joint, dims)
            entropies[:, i] = report.s_atom, report.s_field, report.s_joint
    # [()] unwraps a scalar time's 0-d results to numpy floats
    return _report(*(row.reshape(t.shape)[()] for row in entropies))


def dem_closed_form(coeffs: ClosedFormCoeffs):
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
    return val[()]
