"""Resonant atom-field model on a truncated photon-number space.

One two-level atom exchanges a single excitation with one field mode at
exact resonance (hbar = 1).  The propagator is assembled analytically from
its 2x2 dressed blocks, so evolution is exact up to the photon-space
truncation, which is controlled by a Poisson tail tolerance.

Basis ordering (single source of truth for every joint operator):
    index = atom_index * (n_max + 1) + n
with atom_index 0 the ground level |1> and 1 the excited level |2>,
and n = 0..n_max the photon number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .linalg import dagger

DEFAULT_G = 1.0
DEFAULT_OMEGA0 = 1.0
DEFAULT_MEAN_PHOTONS = 5.0
DEFAULT_LAMBDA0 = 0.7
DEFAULT_TAIL_TOL = 1e-12
# Extra photon levels kept above the tail cutoff so the truncation edge
# never touches populated levels.
GUARD_LEVELS = 5
# Log-weights below this round to zero in double precision.
LOG_UNDERFLOW = math.log(math.ulp(0.0))


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength and resonance frequency, both in units of 1/time."""

    g: float = DEFAULT_G
    omega0: float = DEFAULT_OMEGA0

    def __post_init__(self) -> None:
        if not self.g > 0:
            raise ValueError(f"g must be positive, got {self.g}")
        if not self.omega0 >= 0:
            raise ValueError(f"omega0 must be nonnegative, got {self.omega0}")


@dataclass(frozen=True)
class AtomState:
    """Diagonal atomic state: lambda0 on the ground level, lambda1 excited."""

    lambda0: float
    lambda1: float

    def __post_init__(self) -> None:
        for name, val in (("lambda0", self.lambda0), ("lambda1", self.lambda1)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
        if abs(self.lambda0 + self.lambda1 - 1.0) > 1e-12:
            raise ValueError(
                f"weights must sum to 1, got {self.lambda0 + self.lambda1}"
            )

    @classmethod
    def from_ground_weight(cls, lambda0: float) -> "AtomState":
        return cls(lambda0, 1.0 - lambda0)

    def matrix(self) -> np.ndarray:
        """2x2 density matrix, ground level first."""
        return np.diag([self.lambda0, self.lambda1]).astype(complex)


@dataclass(frozen=True)
class FieldConfig:
    """Coherent field amplitude with its truncation bookkeeping."""

    theta: complex
    n_max: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        tails = _poisson_tails(self.mean_photons)
        tail = tails[min(self.n_max, len(tails) - 1)]
        if tail >= self.tail_tol:
            raise ValueError(
                f"photon tail beyond n_max={self.n_max} is {tail:.3e}, "
                f"not below tail_tol={self.tail_tol:.1e}"
            )

    @classmethod
    def from_mean_photons(
        cls, mean_photons: float, tail_tol: float = DEFAULT_TAIL_TOL
    ) -> "FieldConfig":
        """Real-amplitude config sized by the tail tolerance."""
        # truncation_dim validates both arguments before the square root
        n_max = truncation_dim(mean_photons, tail_tol)
        return cls(complex(math.sqrt(mean_photons)), n_max, tail_tol)

    @property
    def mean_photons(self) -> float:
        return abs(self.theta) ** 2


class ClosedFormCoeffs(NamedTuple):
    """Analytic entangled-state scalars, at one time or over a time array.

    c and s are the excited- and ground-level occupation sums; e1 and e4
    the diagonal weights; e2_mag = e3_mag the magnitude of the (purely
    imaginary, conjugate) off-diagonal pair.  Every field has the shape
    of the times it was evaluated at.
    """

    s: np.ndarray
    c: np.ndarray
    e1: np.ndarray
    e4: np.ndarray
    e2_mag: np.ndarray
    e3_mag: np.ndarray


def poisson_weights(mean_photons: float, n_max: int) -> np.ndarray:
    """Poisson probabilities exp(-m) m^n / n! for n = 0..n_max.

    Built in log space from math.lgamma, so large means neither overflow
    n! nor underflow exp(-m) before the weights themselves are negligible.
    Every Poisson weight in the package comes from here.
    """
    if not 0.0 <= mean_photons < math.inf:
        raise ValueError(
            f"mean_photons must be finite and nonnegative, got {mean_photons}"
        )
    n = np.arange(n_max + 1)
    if mean_photons == 0:
        return (n == 0).astype(float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_max + 1)])
    return np.exp(n * math.log(mean_photons) - mean_photons - log_fact)


def _poisson_tails(mean_photons: float) -> np.ndarray:
    """tails[k] = sum_{n>k} of the Poisson weights, for k = 0..horizon.

    The horizon lies past the mode where the weights underflow to zero, so
    tails[-1] = 0.  Each tail is summed directly from the far end; none is
    formed as 1 - sum, which would cancel at small tolerances.
    """
    m = float(mean_photons)
    horizon = 0
    if 0.0 < m < math.inf:
        horizon = math.ceil(m)
        step = math.isqrt(horizon) + 1
        while horizon * math.log(m) - m - math.lgamma(horizon + 1.0) > LOG_UNDERFLOW:
            horizon += step
    w = poisson_weights(m, horizon)
    return np.append(np.cumsum(w[:0:-1])[::-1], 0.0)


def truncation_dim(mean_photons: float, tail_tol: float) -> int:
    """Smallest photon cutoff with Poisson tail below tail_tol, plus guard.

    Returns the smallest N such that sum_{n>N} exp(-m) m^n / n! < tail_tol,
    widened by GUARD_LEVELS so edge effects stay below the tolerance.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    # tails never increase with the cutoff, so this counts the cutoffs
    # whose tail is still at or above the tolerance
    cutoff = int(np.count_nonzero(_poisson_tails(mean_photons) >= tail_tol))
    return cutoff + GUARD_LEVELS


def coherent_amplitudes(theta: complex, n_max: int) -> np.ndarray:
    """Number-basis amplitudes of |theta>, renormalized after truncation."""
    n = np.arange(n_max + 1)
    amps = np.sqrt(poisson_weights(abs(theta) ** 2, n_max)) * np.exp(
        1j * np.angle(theta) * n
    )
    return amps / np.linalg.norm(amps)


def coherent_state(theta: complex, n_max: int) -> np.ndarray:
    """Rank-1 density matrix of the truncated coherent state."""
    amps = coherent_amplitudes(theta, n_max)
    return np.outer(amps, amps.conj())


def propagator(t: float, params: ModelParams, n_max: int) -> np.ndarray:
    """Unitary evolution operator exp(-itH) on the truncated joint space.

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


def initial_joint_state(atom: AtomState, field: FieldConfig) -> np.ndarray:
    """Product state atom (x) field in the joint basis ordering."""
    return np.kron(atom.matrix(), coherent_state(field.theta, field.n_max))


def evolve(
    atom: AtomState, field: FieldConfig, params: ModelParams, t: float
) -> np.ndarray:
    """Joint state U_t (rho (x) omega) U_t^dag at time t.

    The result is symmetrized to absorb conjugation round-off, so it
    satisfies the density-matrix invariants to working precision.
    """
    u = propagator(t, params, field.n_max)
    out = u @ initial_joint_state(atom, field) @ dagger(u)
    return 0.5 * (out + dagger(out))


def closed_form_coeffs(
    t, atom: AtomState, field: FieldConfig, params: ModelParams
) -> ClosedFormCoeffs:
    """Analytic entangled-state coefficients at a scalar or array of times.

    With Omega_n = g sqrt(n+1) and the Poisson weights p_n,
    c(t) = sum_n p_n cos^2(Omega_n t) is the excited-start survival
    probability and s(t) = sum_n p_n sin^2(Omega_n t).
    e1 = lambda0*s + lambda1*c and e4 = lambda0*c + lambda1*s weight the
    excited and ground levels; the off-diagonal magnitude is
    |e2| = |e3| = (1/2) |lambda1 - lambda0| |sum_n p_n sin(2 Omega_n t)|.
    The Poisson sums are truncated at n_max, never renormalized.
    """
    t = np.asarray(t, dtype=float)
    w = poisson_weights(field.mean_photons, field.n_max)
    phase = params.g * np.sqrt(np.arange(field.n_max + 1) + 1.0) * t[..., None]
    c = np.cos(phase) ** 2 @ w
    s = np.sin(phase) ** 2 @ w
    coherence = 0.5 * abs(atom.lambda1 - atom.lambda0) * np.abs(
        np.sin(2.0 * phase) @ w
    )
    return ClosedFormCoeffs(
        s=s,
        c=c,
        e1=atom.lambda0 * s + atom.lambda1 * c,
        e4=atom.lambda0 * c + atom.lambda1 * s,
        e2_mag=coherence,
        e3_mag=coherence,
    )
