"""Resonant atom-field model on a truncated photon-number space.

One two-level atom exchanges a single excitation with one field mode at
exact resonance (hbar = 1).  A diagonal atom state makes the joint state a
mixture of two evolved product vectors, |1,theta> and |2,theta>, and each is
evolved analytically per 2x2 dressed doublet, so evolution is exact up to
the photon-space truncation, which is controlled by a Poisson tail tolerance.

Only the photon levels n_lo..n_max that the coherent field occupies above
the tail tolerance are kept; FieldConfig derives both edges.

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
# Largest supported mean photon number, set by accuracy: c_closed there is
# within a few 1e-12 of a 40-digit evaluation.
MAX_MEAN_PHOTONS = 1e6
# Array entries the vectorised kernels hold at once for a chunk of times,
# which bounds their temporaries however long the time grid is.
CHUNK_ELEMENTS = 1 << 17
# Eigenvalues at or below EIG_CLIP contribute nothing to entropy sums.
EIG_CLIP = 1e-12
# stirlerr(n) below STIRLING_MIN, where the Stirling series is not yet
# accurate to rounding; n = 0 is a placeholder.
STIRLING_MIN = 16
_SMALL_STIRLERR = np.array([0.0] + [
    math.lgamma(n + 1.0) - (n * math.log(n) - n + 0.5 * math.log(2.0 * math.pi * n))
    for n in range(1, STIRLING_MIN)
])


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

    def __post_init__(self) -> None:
        if not 0.0 <= self.lambda0 <= 1.0:
            raise ValueError(f"lambda0 must lie in [0, 1], got {self.lambda0}")

    @classmethod
    def from_ground_weight(cls, lambda0: float) -> "AtomState":
        """AtomState(lambda0); bench/workloads.py calls it until ROADMAP item 2."""
        return cls(lambda0)

    @property
    def lambda1(self) -> float:
        return 1.0 - self.lambda0


@dataclass(frozen=True)
class FieldConfig:
    """Coherent field amplitude theta and the Poisson tail tolerance.

    The kept levels n_lo..n_max, their Poisson weights (both from _window)
    and the coherent amplitudes on them are derived and read-only.
    """

    theta: complex
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        _checked_mean(self.mean_photons)

    @classmethod
    def from_mean_photons(
        cls, mean_photons: float, tail_tol: float = DEFAULT_TAIL_TOL
    ) -> "FieldConfig":
        """Real-amplitude config with |theta|^2 = mean_photons."""
        return cls(complex(math.sqrt(_checked_mean(mean_photons))), tail_tol)

    @property
    def mean_photons(self) -> float:
        return abs(self.theta) ** 2

    @property
    def n_lo(self) -> int:
        """Lowest kept photon level; _window derives both edges."""
        return _window(self.mean_photons, self.tail_tol)[0]

    @property
    def weights(self) -> np.ndarray:
        """Poisson probabilities p_n on n_lo..n_max, not renormalized."""
        return _window(self.mean_photons, self.tail_tol)[1]

    @property
    def n_levels(self) -> int:
        """Number of kept photon levels, W = n_max - n_lo + 1."""
        return len(self.weights)

    @property
    def n_max(self) -> int:
        """Highest kept photon level, n_lo + W - 1."""
        return self.n_lo + self.n_levels - 1

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """Amplitudes sqrt(p_n) e^{i n arg theta} of |theta> on n_lo..n_max,
        renormalized there."""
        n = np.arange(self.n_lo, self.n_max + 1)
        amps = np.sqrt(self.weights) * np.exp(1j * np.angle(self.theta) * n)
        amps /= np.linalg.norm(amps)
        amps.flags.writeable = False
        return amps


def _xlogx(x) -> np.ndarray:
    """Elementwise x ln x, zero at or below EIG_CLIP."""
    x = np.asarray(x, dtype=float)
    live = x > EIG_CLIP
    return np.where(live, x * np.log(np.where(live, x, 1.0)), 0.0)


class ClosedFormCoeffs(NamedTuple):
    """Analytic entangled-state scalars, at one time or over a time array.

    c and s are the excited- and ground-level occupation sums; e1 and e4
    the diagonal weights; e2_mag = |e2| = |e3| the magnitude of the (purely
    imaginary, conjugate) off-diagonal pair; c_exact the truncated exact
    excited-start survival probability.  Every field, and dem, has the
    shape of the times it was evaluated at.
    """

    s: np.ndarray
    c: np.ndarray
    e1: np.ndarray
    e4: np.ndarray
    e2_mag: np.ndarray
    c_exact: np.ndarray

    @property
    def dem(self):
        """Analytic degree of entanglement -e1 ln e1 - e4 ln e4 + |e2| ln |e2|
        + |e3| ln |e3|, the coherences entering by magnitude: the binary
        entropy of (e1, e4) whenever they vanish."""
        e2 = self.e2_mag
        val = -_xlogx(self.e1) - _xlogx(self.e4) + _xlogx(e2) + _xlogx(e2)
        # [()] unwraps a 0-d result to a scalar and leaves arrays as they are
        return val[()]


def _checked_mean(mean_photons: float) -> float:
    if not 0.0 <= mean_photons <= MAX_MEAN_PHOTONS:
        raise ValueError(
            "mean_photons must be finite and nonnegative and at most "
            f"{MAX_MEAN_PHOTONS:.0f}, got {mean_photons}"
        )
    return float(mean_photons)


def time_chunks(n_times: int, entries_per_time: int) -> list[slice]:
    """Slices of range(n_times), each within CHUNK_ELEMENTS entries (or one time)."""
    step = max(1, CHUNK_ELEMENTS // entries_per_time)
    return [slice(i, i + step) for i in range(0, n_times, step)]


def _log_poisson(n: np.ndarray, m: float) -> np.ndarray:
    """log(e^-m m^n / n!) for integers n >= 1 and m >= 0.

    The saddle-point form of Loader (2000): -stirlerr(n) - D(n, m) -
    log(2 pi n) / 2, with the deviance D = n log(n/m) - (n - m) and
    stirlerr(n) = log n! - (n log n - n + log(2 pi n) / 2) from math.lgamma
    below STIRLING_MIN and from the five-term Stirling series above.  It is
    accurate to a few 1e-13 relative at m = 1e5, where n log m - m -
    lgamma(n + 1) loses 1e-10 to cancellation.
    """
    x = 1.0 / np.square(n, dtype=float)
    series = (1 / 12 - x * (1 / 360 - x * (1 / 1260 - x * (1 / 1680 - x / 1188)))) / n
    small = _SMALL_STIRLERR[np.minimum(n, STIRLING_MIN - 1)]
    stirlerr = np.where(n < STIRLING_MIN, small, series)
    # at m = 0, or below m ~ 1e-308, the ratio is infinite and so is D:
    # every weight n >= 1 rounds to zero, as it should
    with np.errstate(divide="ignore", over="ignore"):
        deviance = n * np.log1p((n - m) / m) - (n - m)
    return -stirlerr - deviance - 0.5 * np.log(2.0 * math.pi * n)


@functools.lru_cache(maxsize=8)
def _window(mean_photons: float, tail_tol: float) -> tuple[int, np.ndarray]:
    """(n_lo, read-only Poisson weights p_n = e^-m m^n / n! on n_lo..n_max).

    n_max is the smallest cutoff k whose upper tail sum_{n>k} p_n is below
    tail_tol, plus GUARD_LEVELS; n_lo the largest k whose lower tail
    sum_{n<k} p_n is below tail_tol less the upper tail beyond n_max, less
    GUARD_LEVELS, at least 0.  The dropped tails thus sum to less than
    tail_tol < 1, so n_lo never passes n_max.

    Only n in [m - d, m + d + GUARD_LEVELS], d = 60 sqrt(m) + 3000, are
    evaluated: the deviance D(n, m) vanishes at n = m and has D'' = 1/n, so
    it exceeds d^2 / (2 m) >= 1800 below m - d and d^2 / (2 (m + d)) >= 750
    above m + d, where every weight underflows to zero.  Each tail is summed
    from its own end, never as 1 - sum, which would cancel.  Cached per
    (mean, tolerance): every Poisson weight in the package comes from here.
    """
    d = 60.0 * math.sqrt(mean_photons) + 3000.0
    start = max(0, math.floor(mean_photons - d))
    n = np.arange(start, math.ceil(mean_photons + d) + GUARD_LEVELS + 1)
    w = np.exp(_log_poisson(np.maximum(n, 1), mean_photons))
    w[n == 0] = math.exp(-mean_photons)
    lower = np.append(0.0, np.cumsum(w[:-1]))
    upper = np.append(np.cumsum(w[:0:-1])[::-1], 0.0)
    # tails are monotone in k, so each edge is a count of cutoffs
    n_max = start + int(np.count_nonzero(upper >= tail_tol)) + GUARD_LEVELS
    budget = tail_tol - upper[n_max - start]
    n_lo = max(start + int(np.count_nonzero(lower < budget)) - 1 - GUARD_LEVELS, 0)
    weights = w[n_lo - start : n_max - start + 1].copy()
    weights.flags.writeable = False
    return n_lo, weights


def _phases(field: FieldConfig, params: ModelParams, t) -> np.ndarray:
    """Rabi phases g sqrt(n+1) t on n_lo..n_max, shaped t.shape + (W,).  Checked
    in Python floats first: ValueError unless 2 g sqrt(n_max + 1) max|t| is finite."""
    t_abs = float(np.abs(t).max(initial=0.0))
    if not math.isfinite(2.0 * (params.g * math.sqrt(field.n_max + 1.0) * t_abs)):
        raise ValueError("times must be finite, and so must the phase 2 g sqrt(n_max"
                         f" + 1) t: got g={params.g:g}, |t| up to {t_abs:g}")
    omega = params.g * np.sqrt(np.arange(field.n_lo, field.n_max + 1) + 1.0)
    return np.multiply.outer(t, omega)


def evolve_vectors(
    field: FieldConfig, params: ModelParams, t
) -> tuple[np.ndarray, np.ndarray]:
    """exp(+i t H0) U(t) |1,theta> and |2,theta>: interaction-picture states.

    The free Hamiltonian H0 commutes with the coupling on resonance, so its
    phases are a local unitary that no entropy or population can see, and
    they are left out.  t is a scalar or an array of times; each state is
    shaped t.shape + (2 W,), W = n_max - n_lo + 1, in the module's basis
    order.  Each doublet {|2,n>, |1,n+1>} rotates at Omega_n = g sqrt(n+1);
    the two edges |1,n_lo> and |2,n_max>, whose partners lie outside the
    window, stay put (at n_lo = 0 the lower edge |1,0> is exact).  Its one
    caller, entropy.entropies_at, bounds memory by passing time_chunks of a
    long grid; the transition columns need no state vector and come from
    closed_form_coeffs.
    """
    width, amps = field.n_levels, field.amplitudes
    rabi_t = _phases(field, params, t)[..., :-1]
    diag = np.cos(rabi_t)
    off = -1j * np.sin(rabi_t)
    psi_g = np.zeros(rabi_t.shape[:-1] + (2 * width,), dtype=complex)
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
    renormalized.  c_exact = sum_{n<n_max} |a_n|^2 cos^2(Omega_n t) +
    |a_{n_max}|^2, with the renormalized amplitudes a_n, is the same sum as
    the truncated evolution gives it: evolve_vectors holds |2,n_max> still.
    """
    t = np.asarray(t, dtype=float)
    w = field.weights
    # |a_n|^2 on the levels that rotate; the edge |2,n_max> keeps its own
    pops = np.abs(field.amplitudes) ** 2
    rotating = np.append(pops[:-1], 0.0)
    flat = t.reshape(-1)
    sums = np.empty((4, flat.size))
    # each time holds the W phases, their cos^2 and two W-wide temporaries
    for sl in time_chunks(flat.size, 4 * len(w)):
        phase = _phases(field, params, flat[sl])
        cos2 = np.cos(phase) ** 2
        sums[:, sl] = (
            cos2 @ w,
            np.sin(phase) ** 2 @ w,
            np.sin(2.0 * phase) @ w,
            cos2 @ rotating + pops[-1],
        )
    # [()] unwraps a scalar time's 0-d results to numpy floats
    c, s, sin2, c_exact = (row.reshape(t.shape)[()] for row in sums)
    return ClosedFormCoeffs(
        s=s,
        c=c,
        e1=atom.lambda0 * s + atom.lambda1 * c,
        e4=atom.lambda0 * c + atom.lambda1 * s,
        e2_mag=0.5 * abs(atom.lambda1 - atom.lambda0) * np.abs(sin2),
        c_exact=c_exact,
    )
