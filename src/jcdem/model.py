"""Resonant atom-field model on a truncated photon-number space.

One two-level atom exchanges a single excitation with one field mode at
exact resonance (hbar = 1).  A diagonal atom state makes the joint state a
mixture of two evolved product vectors, |1,theta> and |2,theta> with
theta = sqrt(m) for the mean photon number m, and each is evolved
analytically per 2x2 dressed doublet, so evolution is exact up to the
photon-space truncation, which is controlled by a Poisson tail tolerance.

Only the photon levels n_lo..n_max that the coherent field occupies above
the tail tolerance are kept; FieldConfig derives both edges.  The joint
basis order is set where the evolved states are formed, in entropy.py.
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
# Most bytes (16 an entry) one time of a kernel may hold: no chunk splits a time.
MAX_TIME_BYTES = 1 << 30
# The Stirling series for stirlerr(n) is accurate to rounding from STIRLING_MIN on.
STIRLING_MIN = 16


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
        """AtomState(lambda0), for the bench alone; ROADMAP items 1 and 15 delete it."""
        return cls(lambda0)

    @property
    def lambda1(self) -> float:
        return 1.0 - self.lambda0


@dataclass(frozen=True)
class FieldConfig:
    """Mean photon number m of the coherent field |sqrt(m)> and the Poisson
    tail tolerance; the kept levels n_lo..n_max and their Poisson weights
    (both from _window) are derived and read-only."""

    mean_photons: float
    tail_tol: float = DEFAULT_TAIL_TOL

    def __post_init__(self) -> None:
        if not 0.0 < self.tail_tol < 1.0:
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")
        if not 0.0 <= self.mean_photons <= MAX_MEAN_PHOTONS:
            raise ValueError("mean_photons must be finite and nonnegative and at most "
                             f"{MAX_MEAN_PHOTONS:.0f}, got {self.mean_photons}")

    @classmethod
    def from_mean_photons(
        cls, mean_photons: float, tail_tol: float = DEFAULT_TAIL_TOL
    ) -> "FieldConfig":
        """FieldConfig(mean_photons, tail_tol), for the bench alone; ROADMAP items 1
        and 15 delete it."""
        return cls(mean_photons, tail_tol)

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


def _xlogx(x) -> np.ndarray:
    """Elementwise x ln x, zero where x <= 0."""
    x = np.asarray(x, dtype=float)
    live = x > 0.0
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


def time_chunks(n_times: int, entries_per_time: int) -> list[slice]:
    """Slices of range(n_times), each within CHUNK_ELEMENTS entries (or one time)."""
    step = max(1, CHUNK_ELEMENTS // entries_per_time)
    return [slice(i, i + step) for i in range(0, n_times, step)]


def _walk_times(t, entries_per_time: int, rows: int, fill) -> tuple:
    """The kernels' one walk: fill's `rows` values per time of t, chunk by time_chunks
    chunk, in rows shaped like t ([()] unwraps 0-d); ValueError past MAX_TIME_BYTES."""
    if (need := 16 * entries_per_time) > MAX_TIME_BYTES:
        raise ValueError(f"one time needs {need >> 20} MiB > {MAX_TIME_BYTES >> 20}"
                         " MiB: lower --mean-photons or raise --tail-tol")
    t = np.asarray(t, dtype=float)
    out = np.empty((rows, t.size))
    for sl in time_chunks(t.size, entries_per_time):
        out[:, sl] = fill(t.reshape(-1)[sl])
    return tuple(row.reshape(t.shape)[()] for row in out)


def _odd_tail(v, terms: int = 18):
    """atanh(v) / v - 1 = sum_{j=1..terms} v^(2j) / (2j+1) by Horner: terms of one
    sign, complete to rounding for |v| <= 1/3."""
    v2, out = np.square(v), 0.0
    for k in range(2 * terms + 1, 1, -2):
        out = v2 * (1.0 / k + out)
    return out


def _log_poisson(n: np.ndarray, m: float) -> np.ndarray:
    """log(e^-m m^n / n!) for integers n >= 1 and m >= 0.

    The saddle-point form of Loader (2000): -stirlerr(n) - D(n, m) -
    log(2 pi n) / 2.  stirlerr(n) = log n! - (n log n - n + log(2 pi n) / 2)
    is the six-term Stirling series from STIRLING_MIN on; below it, that
    series at STIRLING_MIN plus the steps stirlerr(k) - stirlerr(k + 1) =
    (k + 1/2) log1p(1/k) - 1 = _odd_tail(1 / (2k + 1)), which cancel nowhere.
    The deviance D = n log(n/m) - (n - m) cancels to ~(n - m)^2 / 2m near
    the mode, so where |v| <= 1/3, v = (n - m) / (n + m), it is Loader's bd0
    series (n - m) v + 2 n v _odd_tail(v): his 0.1 (n + m) bound widened to
    where _odd_tail is complete.  The weights are then within 1e-14 relative
    of 40-digit values up to m = 1e6, where n log m - m - lgamma(n + 1)
    loses 4e-9 to cancellation.
    """
    big = np.maximum(n, STIRLING_MIN)
    x = 1.0 / np.square(big, dtype=float)
    series = (1 / 12 - x * (1 / 360 - x * (1 / 1260 - x * (
        1 / 1680 - x * (1 / 1188 - x * 691 / 360360))))) / big
    # below STIRLING_MIN, plus the steps from k = n to STIRLING_MIN - 1
    steps = np.cumsum(_odd_tail(1 / (2 * np.arange(STIRLING_MIN - 1, 0, -1) + 1)))[::-1]
    stirlerr = series + np.append(steps, 0.0)[np.minimum(n, STIRLING_MIN) - 1]
    diff = n - m
    v = diff / (n + m)
    # at m = 0, or below m ~ 1e-308, the ratio is infinite and so is D:
    # every weight n >= 1 rounds to zero, as it should
    with np.errstate(divide="ignore", over="ignore"):
        far = n * np.log1p(diff / m) - diff
    bd0 = diff * v + 2.0 * n * v * _odd_tail(v)
    deviance = np.where(3 * np.abs(diff) <= n + m, bd0, far)
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


def _rotation(field: FieldConfig, params: ModelParams, t) -> tuple[np.ndarray, ...]:
    """(cos, sin) of g sqrt(n+1) t on n_lo..n_max, each shaped t.shape + (W,): the Rabi
    rotation of each doublet {|2,n>, |1,n+1>}, for entropies_at's evolved states and
    closed_form_coeffs' sums.  Checked in Python floats first: ValueError unless
    2 g sqrt(n_max + 1) max|t| is finite."""
    t_abs = float(np.abs(t).max(initial=0.0))
    if not math.isfinite(2.0 * (params.g * math.sqrt(field.n_max + 1.0) * t_abs)):
        raise ValueError("times must be finite, and so must the phase 2 g sqrt(n_max"
                         f" + 1) t: got g={params.g:g}, |t| up to {t_abs:g}")
    omega = params.g * np.sqrt(np.arange(field.n_lo, field.n_max + 1) + 1.0)
    phase = np.multiply.outer(t, omega)
    return np.cos(phase), np.sin(phase)


def closed_form_coeffs(
    atom: AtomState, field: FieldConfig, params: ModelParams, t
) -> ClosedFormCoeffs:
    """Analytic entangled-state coefficients at a scalar or array of times.

    With Omega_n = g sqrt(n+1) and the Poisson weights p_n,
    c(t) = sum_n p_n cos^2(Omega_n t) is the excited-start survival
    probability and s(t) = sum_n p_n sin^2(Omega_n t) = sum_n p_n - c(t).
    e1 = lambda0*s + lambda1*c and e4 = lambda0*c + lambda1*s weight the
    excited and ground levels; the off-diagonal magnitude is
    |e2| = |e3| = (1/2) |lambda1 - lambda0| |sum_n p_n sin(2 Omega_n t)|.
    The Poisson sums run over the kept levels n_lo..n_max, never
    renormalized.  c_exact = (c + p_{n_max} sin^2(Omega_{n_max} t)) / sum_n p_n
    is c on the renormalized window with the edge |2,n_max> held still, the
    same sum as the truncated evolution gives it (entropies_at).
    """
    w = field.weights
    def sums(times):
        cos, sin = _rotation(field, params, times)
        return cos**2 @ w, 2.0 * ((sin * cos) @ w), sin[:, -1] ** 2
    # each time holds the W cosines, sines, cos^2 and one W-wide product
    c, sin2, edge_sin2 = _walk_times(t, 4 * len(w), 3, sums)
    total = w.sum()
    s = total - c
    return ClosedFormCoeffs(
        s=s,
        c=c,
        e1=atom.lambda0 * s + atom.lambda1 * c,
        e4=atom.lambda0 * c + atom.lambda1 * s,
        e2_mag=0.5 * abs(atom.lambda1 - atom.lambda0) * np.abs(sin2),
        c_exact=(c + w[-1] * edge_sin2) / total,
    )
