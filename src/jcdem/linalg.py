"""Dense complex linear algebra for small bipartite quantum systems.

Everything here works on plain ``numpy`` arrays of dtype complex128.
Matrices are small (a few hundred rows at most), so all storage is dense
row-major and all algorithms are direct.
"""

from __future__ import annotations

from typing import Literal, NamedTuple

import numpy as np

# Below this deviation a matrix is accepted as Hermitian and symmetrized;
# above it the input is considered a genuine bug.
HERMITICITY_ATOL = 1e-10


class EigenSystem(NamedTuple):
    """Spectral decomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def _symmetrized(m, atol: float) -> np.ndarray:
    """(M + M^dag)/2 of a square M within ``atol`` of Hermitian; else ValueError."""
    m = as_complex_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    deviation = float(np.abs(m - dagger(m)).max()) if m.size else 0.0
    if deviation > atol:
        raise ValueError(
            f"matrix is not Hermitian: max |M - M^dag| = {deviation:.3e} > {atol:.1e}"
        )
    return 0.5 * (m + dagger(m))


def hermitian_eigensystem(m, atol: float = HERMITICITY_ATOL) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix, eigenvalues ascending.

    Inputs within ``atol`` of Hermitian are symmetrized as (M + M^dag)/2
    before diagonalizing; larger deviations raise ValueError.
    """
    w, v = np.linalg.eigh(_symmetrized(m, atol))
    return EigenSystem(w, v)


def hermitian_eigenvalues(m, atol: float = HERMITICITY_ATOL) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian matrix, without eigenvectors.

    Same checks as hermitian_eigensystem, at a fraction of eigh's cost.
    """
    return np.linalg.eigvalsh(_symmetrized(m, atol))
