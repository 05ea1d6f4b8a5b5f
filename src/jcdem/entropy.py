"""Entropy functionals and the mutual-entropy degree of entanglement.

Von Neumann entropies read only the spectra of states, a whole stack of
them per eigvalsh call.  entropies_at alone evolves the state: it writes
the weighted amplitudes of both starts into one array per chunk of times,
reads the joint state and the field's Gram from it, and the atom marginal
from that Gram.
All entropies are in nats.

Basis ordering (single source of truth for every joint operator):
    index = atom_index * W + (n - n_lo),   W = n_max - n_lo + 1
with atom_index 0 the ground level |1> and 1 the excited level |2>,
and n = n_lo..n_max the photon number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import AtomState, FieldConfig, ModelParams, _rotation, _walk_times, _xlogx

# A state with an eigenvalue below -NEGATIVE_EIG_TOL is invalid.
NEGATIVE_EIG_TOL = 1e-10
AL_SLACK = 1e-8


def _entropies(rho):
    """-tr(rho ln rho) of each matrix in a (..., d, d) stack, from one eigvalsh
    call on its lower triangles.  Eigenvalues at or below d eps max|eig|, the
    floor eigvalsh resolves a d x d spectrum to, are zero; the rest, renormalized
    to unit trace, make a pure state's exactly 1, so its entropy is exactly +0.0."""
    eigs = np.linalg.eigvalsh(rho)
    lowest = eigs.min(initial=0.0)
    if lowest < -NEGATIVE_EIG_TOL:
        raise ValueError(f"state has negative eigenvalue {lowest:.3e}")
    floor = eigs.shape[-1] * np.finfo(float).eps * np.abs(eigs).max(-1, keepdims=True)
    eigs = np.where(eigs > floor, eigs, 0.0)
    probs = eigs / eigs.sum(axis=-1, keepdims=True)
    # 0.0 - x, unlike -x, turns a zero sum into +0.0
    return (0.0 - np.sum(_xlogx(probs), axis=-1))[()]


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
        """S(rho_A) + S(rho_F) - S(rho) clipped at 0; al_margins keeps it raw."""
        return np.maximum(self.s_atom + self.s_field - self.s_joint, 0.0)[()]

    @property
    def araki_lieb_ok(self) -> bool:
        lower, upper = self.al_margins
        return (lower >= -AL_SLACK) & (upper >= -AL_SLACK)


def entropies_at(
    atom: AtomState, field: FieldConfig, params: ModelParams, t
) -> EntropyReport:
    """Entropies and DEM of the evolved joint state at a scalar or array of times.

    For a diagonal atom the joint state is lambda0 |psi_g><psi_g| + lambda1
    |psi_e><psi_e|, psi_g and psi_e the interaction-picture states evolved
    from |1,theta> and |2,theta>, theta = sqrt(m), on levels n_lo..n_max, as
    sqrt(p_n) renormalized there (the free phases are local unitaries no
    entropy sees).  Each doublet {|2,n>, |1,n+1>} rotates by _rotation's
    cos and sin of g sqrt(n+1) t; the edges |1,n_lo> and
    |2,n_max>, whose partners lie outside the window, stay put (at n_lo = 0
    the lower edge |1,0> is exact).  Per chunk of T times the amplitudes
    sqrt(lambda_k) psi_k[a, n] fill b, shaped (T, 2, W, 2) by time, atom
    level a, photon n - n_lo and start k: the joint state is B B^dag with
    B = b as (T, 2W, 2), the rank <= 4 field marginal shares its nonzero
    spectrum with the 4x4 Gram of b's (a, k) rows, and the atom marginal is
    that Gram's partial trace over k.  One eigvalsh call per chunk per kind
    of matrix.  Every field of the report has the shape of t, and
    al_margins holds two such arrays; a scalar t gives scalars.
    """
    width, amps = field.n_levels, np.sqrt(field.weights)
    amps /= np.linalg.norm(amps)
    weights = np.sqrt([atom.lambda0, atom.lambda1])
    def entropies(times):
        cos, sin = (part[:, :-1] for part in _rotation(field, params, times))
        off = -1j * sin
        b = np.zeros((len(times), 2, width, 2), dtype=complex)
        b[:, 0, 0, 0] = amps[0]
        b[:, 0, 1:, 0] = cos * amps[1:]
        b[:, 1, :-1, 0] = off * amps[1:]
        b[:, 0, 1:, 1] = off * amps[:-1]
        b[:, 1, :-1, 1] = cos * amps[:-1]
        b[:, 1, -1, 1] = amps[-1]
        b *= weights
        gram, joint = (m @ m.conj().swapaxes(-1, -2) for m in (
            b.swapaxes(2, 3).reshape(-1, 4, width), b.reshape(-1, 2 * width, 2)))
        atom_marginal = gram[:, ::2, ::2] + gram[:, 1::2, 1::2]
        return [_entropies(m) for m in (atom_marginal, gram, joint)]
    # each time holds a joint state, (2W)^2 entries, and eigvalsh's copy of it
    return EntropyReport(*_walk_times(t, 8 * width**2, 3, entropies))
