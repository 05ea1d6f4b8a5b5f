"""Dense complex linear algebra for small bipartite quantum systems.

Everything here works on plain ``numpy`` arrays of dtype complex128.
Matrices are small (a few hundred rows at most), so all storage is dense
row-major and all algorithms are direct.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

# Below this deviation a matrix is accepted as Hermitian and symmetrized;
# above it the input is considered a genuine bug.
HERMITICITY_ATOL = 1e-10


def dagger(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return m.conj().T


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-D complex array, rejecting other shapes."""
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def partial_trace(
    joint, dims: tuple[int, int], keep: Literal["atom", "field"]
) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims`` = (d_atom, d_field) with the atom index outermost, i.e. the
    joint index is a*d_field + n.  ``keep="atom"`` returns the d_atom x
    d_atom marginal sum_n joint[(i,n),(j,n)]; ``keep="field"`` the
    analogous d_field x d_field one.
    """
    joint = as_complex_matrix(joint)
    d_atom, d_field = int(dims[0]), int(dims[1])
    if d_atom < 1 or d_field < 1 or joint.shape != (d_atom * d_field, d_atom * d_field):
        raise ValueError(
            f"joint of shape {joint.shape} does not factor as ({d_atom}, {d_field})"
        )
    t = joint.reshape(d_atom, d_field, d_atom, d_field)
    if keep == "atom":
        return np.einsum("injn->ij", t)
    if keep == "field":
        return np.einsum("ninj->ij", t)
    raise ValueError(f"keep must be 'atom' or 'field', got {keep!r}")


def hermitian_eigenvalues(m) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    Inputs within ``HERMITICITY_ATOL`` of Hermitian are symmetrized as
    (M + M^dag)/2 first; larger deviations and non-square inputs raise
    ValueError.
    """
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    deviation = float(np.abs(m - dagger(m)).max()) if m.size else 0.0
    if deviation > HERMITICITY_ATOL:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {deviation:.3e} "
            f"> {HERMITICITY_ATOL:.1e}"
        )
    return np.linalg.eigvalsh(0.5 * (m + dagger(m)))
