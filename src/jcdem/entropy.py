"""Entropy functionals and the mutual-entropy degree of entanglement.

Von Neumann entropies read only the spectra of states, a whole stack of
them per eigvalsh call.  entropies_at is the one place the evolved joint
state and its marginals are formed, all three from the two evolved vectors.
All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def _entropies(rho):
    """-tr(rho ln rho) of each matrix in a (..., d, d) stack, from one eigvalsh
    call on its lower triangles; zero exactly on pure states."""
    eigs = np.linalg.eigvalsh(rho)
    lowest = eigs.min(initial=0.0)
    if lowest < -NEGATIVE_EIG_TOL:
        raise ValueError(f"state has negative eigenvalue {lowest:.3e}")
    return np.maximum(-np.sum(_xlogx(eigs), axis=-1), 0.0)[()]


@dataclass(frozen=True)
class EntropyReport:
    """Marginal and joint entropies of a bipartite state, with the DEM.

    Each field (and each of the two al_margins) is a float for one state, or
    an array shaped like a stack's leading axes or like entropies_at's t.
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


def entropies_at(
    atom: AtomState, field: FieldConfig, params: ModelParams, t
) -> EntropyReport:
    """Entropies and DEM of the evolved joint state at a scalar or array of times.

    For a diagonal atom the joint state is lambda0 |psi_g><psi_g| + lambda1
    |psi_e><psi_e| of the evolve_vectors states on levels n_lo..n_max.  Per
    chunk of times the columns sqrt(lambda0) psi_g and sqrt(lambda1) psi_e
    form B, shaped (T, 2W, 2): the joint state is B B^dag, and both marginals
    are contracted from B.  Each kind of matrix takes one eigvalsh call per
    chunk.  Every field of the report has the shape of t, and al_margins
    holds two such arrays; a scalar t gives scalars.
    """
    t = np.asarray(t, dtype=float)
    width = field.n_levels
    weights = np.sqrt([atom.lambda0, atom.lambda1])
    entropies = np.empty((3, t.size))
    for sl in time_chunks(t.size, (2 * width) ** 2):
        b = np.stack(evolve_vectors(field, params, t.reshape(-1)[sl]), axis=-1)
        b *= weights
        # B's entries (a, n, k) as rows a by columns (n, k), and n by (a, k)
        per_atom = b.reshape(-1, 2, 2 * width)
        per_field = b.reshape(-1, 2, width, 2).swapaxes(1, 2).reshape(-1, width, 4)
        for i, m in enumerate((per_atom, per_field, b)):
            entropies[i, sl] = _entropies(m @ m.conj().swapaxes(-1, -2))
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
