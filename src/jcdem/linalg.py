"""Partial trace of dense bipartite operators, one or a stack at a time."""

from __future__ import annotations

from typing import Literal

import numpy as np


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
