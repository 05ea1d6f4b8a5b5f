"""Entropy functionals and the mutual-entropy degree of entanglement.

Von Neumann entropies read only the spectra of states, a whole stack of
them per eigvalsh call.  entropies_at alone forms the evolved joint state,
its atom marginal and the field's Gram, all from the two evolved vectors.
All entropies are in nats.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    AtomState,
    FieldConfig,
    ModelParams,
    _walk_times,
    _xlogx,
    evolve_vectors,
)

# A state with an eigenvalue below -NEGATIVE_EIG_TOL is invalid.
NEGATIVE_EIG_TOL = 1e-10
AL_SLACK = 1e-8


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
    """Marginal and joint entropies of a bipartite state, and the DEM and
    Araki-Lieb margins derived from them: each a float for one state, or an
    array shaped like a stack's leading axes or like entropies_at's t."""

    s_atom: float
    s_field: float
    s_joint: float

    @property
    def al_margins(self) -> tuple[float, float]:
        """(s_joint - |s_atom - s_field|, s_atom + s_field - s_joint), each
        nonnegative up to AL_SLACK on a valid state."""
        return (self.s_joint - abs(self.s_atom - self.s_field),
                self.s_atom + self.s_field - self.s_joint)

    @property
    def dem(self) -> float:
        """S(rho_A) + S(rho_F) - S(rho), the upper Araki-Lieb margin."""
        return self.s_atom + self.s_field - self.s_joint

    @property
    def araki_lieb_ok(self) -> bool:
        lower, upper = self.al_margins
        return (lower >= -AL_SLACK) & (upper >= -AL_SLACK)


def entropies_at(
    atom: AtomState, field: FieldConfig, params: ModelParams, t
) -> EntropyReport:
    """Entropies and DEM of the evolved joint state at a scalar or array of times.

    For a diagonal atom the joint state is lambda0 |psi_g><psi_g| + lambda1
    |psi_e><psi_e| of the evolve_vectors states on levels n_lo..n_max.  Per
    chunk of times the columns sqrt(lambda0) psi_g and sqrt(lambda1) psi_e
    form B, shaped (T, 2W, 2): the joint state is B B^dag, the atom marginal
    is contracted from B, and the rank <= 4 field marginal shares its nonzero
    spectrum with the 4x4 Gram of B's (atom, column) rows.  One eigvalsh call
    per chunk per kind of matrix.  Every field of the report has the shape
    of t, and al_margins holds two such arrays; a scalar t gives scalars.
    """
    width = field.n_levels
    weights = np.sqrt([atom.lambda0, atom.lambda1])
    def entropies(times):
        b = np.stack(evolve_vectors(field, params, times), axis=-1)
        b *= weights
        # B's entries (a, n, k) as rows a by columns (n, k), and (a, k) by n
        per_atom = b.reshape(-1, 2, 2 * width)
        per_field = b.reshape(-1, 2, width, 2).swapaxes(2, 3).reshape(-1, 4, width)
        return [_entropies(m @ m.conj().swapaxes(-1, -2))
                for m in (per_atom, per_field, b)]
    # each time holds a joint state, (2W)^2 entries, and eigvalsh's copy of it
    return EntropyReport(*_walk_times(t, 8 * width**2, 3, entropies))
