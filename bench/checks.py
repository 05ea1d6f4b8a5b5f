"""Output checks for the benchmark, run outside the timed region.

Each check returns a list of problems; an empty list means the output
passed. The dense reference here shares no code with jcdem: it builds the
Hamiltonian from ladder operators, exponentiates it through ``eigh`` and
takes partial traces and entropies with plain numpy.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET

import numpy as np

# Agreement required between jcdem and the dense reference.
REFERENCE_TOL = 1e-8
# |c_closed - c_exact| allowed on every row.
CLOSED_FORM_TOL = 1e-10
# Slack on s_joint = H(lambda0) and on both Araki-Lieb margins.
ENTROPY_TOL = 1e-8

TIME_HEADER = ("t", "c_closed", "c_exact", "dem_exact", "dem_closed",
               "s_atom", "s_field", "s_joint")
LAMBDA_HEADER = ("lambda0", "dem_T1", "dem_T2", "dem_T3", "conjecture_holds")


def binary_entropy(p: float) -> float:
    return -sum(x * math.log(x) for x in (p, 1.0 - p) if x > 0.0)


def _entropy(rho: np.ndarray) -> float:
    p = np.linalg.eigvalsh(rho)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)))


class DenseReference:
    """exp(-iHt) of H = w0 (a^dag a + sz/2) + g (s+ a + s- a^dag), dense.

    The joint basis puts the atom outermost, ground level first, and the
    photon number 0..n_max inside, as jcdem does.
    """

    def __init__(self, mean_photons: float, n_max: int, g: float = 1.0,
                 omega0: float = 1.0):
        dim = n_max + 1
        a = np.diag(np.sqrt(np.arange(1.0, dim)), k=1)
        raise_atom = np.array([[0.0, 0.0], [1.0, 0.0]])
        sz = np.diag([-1.0, 1.0])
        h = omega0 * (np.kron(np.eye(2), a.T @ a) + 0.5 * np.kron(sz, np.eye(dim)))
        h += g * (np.kron(raise_atom, a) + np.kron(raise_atom.T, a.T))
        self.energies, self.vectors = np.linalg.eigh(h)
        self.dim = dim
        n = np.arange(dim)
        log_amp = 0.5 * (n * math.log(mean_photons) - mean_photons
                         - np.array([math.lgamma(k + 1.0) for k in n]))
        amps = np.exp(log_amp)
        amps /= np.linalg.norm(amps)
        self.start = {
            "ground": np.concatenate([amps, np.zeros(dim)]),
            "excited": np.concatenate([np.zeros(dim), amps]),
        }

    def evolve(self, level: str, t: float) -> np.ndarray:
        v = self.vectors
        return v @ (np.exp(-1j * self.energies * t) * (v.T @ self.start[level]))

    def point(self, lambda0: float, t: float) -> dict[str, float]:
        """dem_exact, s_atom and c_exact (excited start) at one (t, lambda0)."""
        psi_g, psi_e = self.evolve("ground", t), self.evolve("excited", t)
        joint = (lambda0 * np.outer(psi_g, psi_g.conj())
                 + (1.0 - lambda0) * np.outer(psi_e, psi_e.conj()))
        t4 = joint.reshape(2, self.dim, 2, self.dim)
        s_atom = _entropy(np.trace(t4, axis1=1, axis2=3))
        s_field = _entropy(np.trace(t4, axis1=0, axis2=2))
        return {
            "dem_exact": s_atom + s_field - _entropy(joint),
            "s_atom": s_atom,
            "c_exact": float(np.sum(np.abs(psi_e[self.dim:]) ** 2)),
        }


def compare_point(ref: DenseReference, lambda0: float, t: float,
                  got: dict[str, float]) -> list[str]:
    """Problems where jcdem's values at (t, lambda0) miss the reference."""
    want = ref.point(lambda0, t)
    return [
        f"{name} at t={t:g}, lambda0={lambda0:.6f}: {got[name]!r} vs "
        f"reference {want[name]!r}"
        for name in got
        if not abs(got[name] - want[name]) <= REFERENCE_TOL
    ]


def check_time_rows(times, cols: dict[str, np.ndarray], lambda0: float,
                    expected_times) -> list[str]:
    """Invariants of one time scan (scan_time columns or scan-time CSV).

    Only the columns present are checked, so transition/revival CSVs
    (c_closed, c_exact) go through the same function.
    """
    problems = []
    times = np.asarray(times, dtype=float)
    if times.shape != np.shape(expected_times) or not np.allclose(
            times, expected_times, rtol=0.0, atol=1e-9):
        return [f"time grid of {len(times)} rows, expected {len(expected_times)}"]
    for name, col in cols.items():
        if not np.all(np.isfinite(col)):
            problems.append(f"{name} has non-finite entries")
    if problems:
        return problems
    gap = np.max(np.abs(cols["c_closed"] - cols["c_exact"]))
    if not gap <= CLOSED_FORM_TOL:
        problems.append(f"|c_closed - c_exact| reaches {gap:.3e}")
    if "s_joint" in cols:
        s_atom, s_field, s_joint = cols["s_atom"], cols["s_field"], cols["s_joint"]
        drift = np.max(np.abs(s_joint - binary_entropy(lambda0)))
        if not drift <= ENTROPY_TOL:
            problems.append(f"s_joint misses H(lambda0) by {drift:.3e}")
        lower = np.min(s_joint - np.abs(s_atom - s_field))
        upper = np.min(cols["dem_exact"])
        if not min(lower, upper) >= -ENTROPY_TOL:
            problems.append(f"Araki-Lieb margins ({lower:.3e}, {upper:.3e})")
        identity = np.max(np.abs(cols["dem_exact"] - (s_atom + s_field - s_joint)))
        if not identity <= ENTROPY_TOL:
            problems.append(f"dem_exact != s_atom + s_field - s_joint by {identity:.3e}")
    return problems


def check_lambda_scan(lambdas, dem_at_t: dict[int, np.ndarray], holds,
                      expected_lambdas) -> list[str]:
    """Invariants of one lambda0 scan at the revival times."""
    lambdas = np.asarray(lambdas, dtype=float)
    if lambdas.shape != np.shape(expected_lambdas) or not np.allclose(
            lambdas, expected_lambdas, rtol=0.0, atol=1e-12):
        return [f"lambda grid of {len(lambdas)} points, expected {len(expected_lambdas)}"]
    problems = []
    ceiling = 2.0 * math.log(2.0) + ENTROPY_TOL
    for k, col in dem_at_t.items():
        col = np.asarray(col, dtype=float)
        if not (np.all(np.isfinite(col)) and col.min() >= -ENTROPY_TOL
                and col.max() <= ceiling):
            problems.append(f"dem_T{k} outside [0, 2 ln 2]")
    if np.shape(holds) != lambdas.shape or not set(np.unique(holds)) <= {0, 1}:
        problems.append("conjecture flags are not one 0/1 per grid point")
    return problems


def parse_csv(text: str, header: tuple[str, ...]):
    """(problems, columns) of a jcdem CSV with the given header."""
    lines = text.split("\n")
    if lines[0] != ",".join(header):
        return [f"CSV header {lines[0]!r}"], None
    if lines[-1] != "":
        return ["CSV does not end with a newline"], None
    rows = [line.split(",") for line in lines[1:-1]]
    if any(len(row) != len(header) for row in rows):
        return ["CSV row with the wrong field count"], None
    try:
        data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    except ValueError:
        return ["CSV field that is not a number"], None
    return [], {name: data[:, i] for i, name in enumerate(header)}


def check_svg(text: str) -> list[str]:
    try:
        root = ET.fromstring(text.encode("utf-8"))
    except ET.ParseError as exc:
        return [f"SVG does not parse: {exc}"]
    if not root.tag.endswith("svg") or root.find("{*}polyline") is None:
        return ["SVG has no <svg> root with a polyline"]
    return []


def check_revival_stdout(stdout: str, mean_photons: float, g: float) -> list[str]:
    """T1..T3 printed by `revival` must be 2 pi k sqrt(m) / g."""
    printed = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    problems = []
    for k in (1, 2, 3):
        want = 2.0 * math.pi * k * math.sqrt(mean_photons) / g
        try:
            got = float(printed[f"T{k}"])
        except (KeyError, ValueError):
            problems.append(f"revival stdout lacks T{k}")
            continue
        if not abs(got - want) <= 5e-5:
            problems.append(f"T{k}={got} but 2 pi k sqrt(m)/g = {want:.4f}")
    return problems
