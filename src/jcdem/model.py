"""Resonant atom-field model on a truncated photon-number space.

One two-level atom exchanges a single excitation with one field mode at
exact resonance (hbar = 1).  A diagonal atom state makes the joint state a
mixture of two evolved product vectors, |1,theta> and |2,theta>, and each is
evolved analytically per 2x2 dressed doublet, so evolution is exact up to
the photon-space truncation, which is controlled by a Poisson tail tolerance.

Only the photon levels n_lo..n_max that the coherent field occupies above
the tail tolerance are kept; both edges are fixed by FieldConfig.

Basis ordering (single source of truth for every joint operator):
    index = atom_index * W + (n - n_lo),   W = n_max - n_lo + 1
with atom_index 0 the ground level |1> and 1 the excited level |2>,
and n = n_lo..n_max the photon number.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

DEFAULT_G = 1.0
DEFAULT_OMEGA0 = 1.0
DEFAULT_TAIL_TOL = 1e-12
# Extra photon levels kept beyond each tail cutoff so neither truncation
# edge touches populated levels.
GUARD_LEVELS = 5
# Log-weights below this round to zero in double precision.
LOG_UNDERFLOW = math.log(math.ulp(0.0))
# (time, photon level) pairs the vectorised kernels evaluate at once, which
# bounds their temporaries however long the time grid is.
CHUNK_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class ModelParams:
    """Coupling strength and resonance frequency, both in units of 1/time.

    omega0 sets only the free phases, which no output depends on.
    """

    g: float = DEFAULT_G
    omega0: float = DEFAULT_OMEGA0

    def __post_init__(self) -> None:
        if not 0.0 < self.g < math.inf:
            raise ValueError(f"g must be finite and positive, got {self.g}")
        if not 0.0 <= self.omega0 < math.inf:
            raise ValueError(
                f"omega0 must be finite and nonnegative, got {self.omega0}"
            )


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


@dataclass(frozen=True)
class FieldConfig:
    """Coherent field amplitude with its truncation bookkeeping.

    The kept photon levels are n_lo..n_max: n_max is given (and validated
    against the upper tail), n_lo is derived from the lower tail.
    """

    theta: complex
    n_max: int
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if self.n_max < 1:
            raise ValueError(f"n_max must be at least 1, got {self.n_max}")
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        upper = _poisson_tails(self.mean_photons)[1]
        tail = upper[min(self.n_max, len(upper) - 1)]
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
        theta = complex(math.sqrt(_checked_mean(mean_photons)))
        # sized from |theta|^2, the mean the validator reads, so sizing and
        # validation share one cached tail sum
        return cls(theta, truncation_dim(abs(theta) ** 2, tail_tol), tail_tol)

    @property
    def mean_photons(self) -> float:
        return abs(self.theta) ** 2

    @functools.cached_property
    def n_lo(self) -> int:
        """Lowest kept photon level: the largest k whose lower Poisson tail
        sum_{n<k} p_n is below tail_tol less the upper tail beyond n_max,
        less GUARD_LEVELS, at least 0.

        The two tails the window drops thus sum to less than tail_tol, and
        since tail_tol < 1, n_lo never passes n_max.  Read from the same
        cached tails that size and validate n_max.
        """
        lower, upper = _poisson_tails(self.mean_photons)
        budget = self.tail_tol - upper[min(self.n_max, len(upper) - 1)]
        # lower tails never decrease with k, so this counts the cutoffs k
        # whose lower tail is still within the budget, k = 0 among them
        below = int(np.count_nonzero(lower < budget))
        return max(below - 1 - GUARD_LEVELS, 0)

    @property
    def n_levels(self) -> int:
        """Number of kept photon levels, W = n_max - n_lo + 1."""
        return self.n_max - self.n_lo + 1


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


def _checked_mean(mean_photons: float) -> float:
    if not 0.0 <= mean_photons < math.inf:
        raise ValueError(
            f"mean_photons must be finite and nonnegative, got {mean_photons}"
        )
    return float(mean_photons)


def time_chunks(n_times: int, entries_per_time: int) -> list[slice]:
    """Slices of range(n_times), each within CHUNK_ELEMENTS entries (or one time)."""
    step = max(1, CHUNK_ELEMENTS // entries_per_time)
    return [slice(i, i + step) for i in range(0, n_times, step)]


def poisson_weights(mean_photons: float, n_max: int, n_lo: int = 0) -> np.ndarray:
    """Poisson probabilities exp(-m) m^n / n! for n = n_lo..n_max.

    Built in log space from math.lgamma, so large means neither overflow
    n! nor underflow exp(-m) before the weights themselves are negligible.
    Every Poisson weight in the package comes from here.
    """
    mean_photons = _checked_mean(mean_photons)
    n = np.arange(n_lo, n_max + 1)
    if mean_photons == 0:
        return (n == 0).astype(float)
    log_fact = np.array([math.lgamma(k + 1.0) for k in range(n_lo, n_max + 1)])
    return np.exp(n * math.log(mean_photons) - mean_photons - log_fact)


@functools.lru_cache(maxsize=8)
def _poisson_tails(mean_photons: float) -> np.ndarray:
    """Both Poisson tails of each cutoff k = 0..horizon, as two rows:
    tails[0, k] = sum_{n<k} p_n and tails[1, k] = sum_{n>k} p_n.

    The horizon lies past the mode where the weights underflow to zero, so
    tails[1, -1] = 0.  Each tail is summed directly from its own end, the
    lower one upward from n = 0 and the upper one down from the horizon;
    neither is formed as 1 - sum, which would cancel at small tolerances.
    Cached per mean and read-only, because every FieldConfig sizes,
    validates and windows from the same tails (about 0.1 s at m = 1e5).
    """
    m = float(mean_photons)
    horizon = 0
    if 0.0 < m < math.inf:
        horizon = math.ceil(m)
        step = math.isqrt(horizon) + 1
        while horizon * math.log(m) - m - math.lgamma(horizon + 1.0) > LOG_UNDERFLOW:
            horizon += step
    w = poisson_weights(m, horizon)
    tails = np.stack((
        np.append(0.0, np.cumsum(w[:-1])),
        np.append(np.cumsum(w[:0:-1])[::-1], 0.0),
    ))
    tails.flags.writeable = False
    return tails


def truncation_dim(mean_photons: float, tail_tol: float) -> int:
    """Smallest photon cutoff with Poisson tail below tail_tol, plus guard.

    Returns the smallest N such that sum_{n>N} exp(-m) m^n / n! < tail_tol,
    widened by GUARD_LEVELS so edge effects stay below the tolerance.
    """
    if not 0.0 < tail_tol < 1.0:
        raise ValueError(f"tail_tol must lie in (0, 1), got {tail_tol}")
    # tails never increase with the cutoff, so this counts the cutoffs
    # whose tail is still at or above the tolerance
    cutoff = int(np.count_nonzero(_poisson_tails(mean_photons)[1] >= tail_tol))
    return cutoff + GUARD_LEVELS


def coherent_amplitudes(theta: complex, n_max: int, n_lo: int = 0) -> np.ndarray:
    """Amplitudes of |theta> on levels n_lo..n_max, renormalized there."""
    n = np.arange(n_lo, n_max + 1)
    amps = np.sqrt(poisson_weights(abs(theta) ** 2, n_max, n_lo)) * np.exp(
        1j * np.angle(theta) * n
    )
    return amps / np.linalg.norm(amps)


def evolve_vectors(
    field: FieldConfig, params: ModelParams, t
) -> tuple[np.ndarray, np.ndarray]:
    """exp(+i t H0) U(t) |1,theta> and |2,theta>: interaction-picture states.

    The free Hamiltonian H0 commutes with the coupling on resonance, so its
    phases are a local unitary that no entropy or population can see, and
    they are left out.  t is a scalar or an array of times; each state is
    shaped t.shape + (2 W,), W = n_max - n_lo + 1, in the module's basis
    order, so callers bound memory by passing time_chunks of a long grid.
    Each doublet {|2,n>, |1,n+1>} rotates at Omega_n = g sqrt(n+1); the two
    edges |1,n_lo> and |2,n_max>, whose partners lie outside the window,
    stay put (at n_lo = 0 the lower edge |1,0> is exact).
    """
    t = np.asarray(t, dtype=float)
    n_lo, n_max, width = field.n_lo, field.n_max, field.n_levels
    amps = coherent_amplitudes(field.theta, n_max, n_lo)
    rabi_t = params.g * np.sqrt(np.arange(n_lo + 1.0, n_max + 1)) * t[..., None]
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
    The Poisson sums run over the kept levels n_lo..n_max, never
    renormalized.
    """
    t = np.asarray(t, dtype=float)
    w = poisson_weights(field.mean_photons, field.n_max, field.n_lo)
    omega = params.g * np.sqrt(np.arange(field.n_lo, field.n_max + 1) + 1.0)
    flat = t.reshape(-1)
    sums = np.empty((3, flat.size))
    for sl in time_chunks(flat.size, len(w)):
        phase = omega * flat[sl, None]
        sums[:, sl] = (
            np.cos(phase) ** 2 @ w,
            np.sin(phase) ** 2 @ w,
            np.sin(2.0 * phase) @ w,
        )
    # [()] unwraps a scalar time's 0-d results to numpy floats
    c, s, sin2 = (row.reshape(t.shape)[()] for row in sums)
    coherence = 0.5 * abs(atom.lambda1 - atom.lambda0) * np.abs(sin2)
    return ClosedFormCoeffs(
        s=s,
        c=c,
        e1=atom.lambda0 * s + atom.lambda1 * c,
        e4=atom.lambda0 * c + atom.lambda1 * s,
        e2_mag=coherence,
        e3_mag=coherence,
    )
