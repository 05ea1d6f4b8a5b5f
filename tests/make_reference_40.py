"""Write tests/data/reference_40digit.json: the columns of the scan-time CSV
(c_closed, c_exact, dem_exact, dem_closed, s_atom, s_field, s_joint) of the
truncated model at a fixed set of points, evaluated with mpmath at 40
significant digits.

Nothing here comes from jcdem.  The Poisson weights come from the ratio
recursion p_{n+1} = p_n m / (n + 1) in 40 digits, started from
e^-m m^n / n! at the lowest level summed, and the photon window from
the package's documented rule, re-derived: n_max is the smallest k whose
upper tail sum_{n>k} p_n is below the tail tolerance, plus 5 guard levels;
n_lo is the largest k whose lower tail sum_{n<k} p_n is below the tolerance
less the upper tail beyond n_max, less 5, at least 0.  The states are the
two starts |1,theta> and |2,theta> evolved on that window, with the
amplitudes sqrt(p_n) renormalized there and each doublet {|2,n>, |1,n+1>}
rotated by the phase g sqrt(n+1) t; the edges |1,n_lo> and |2,n_max> stay
put.  The phases i on the excited level and -i on the excited start, local
unitaries, make every amplitude real.  The entropies come from the spectra
(mpmath.eigsy) of the 4x4 field Gram of the weighted rows sqrt(lambda_k)
psi_k[a, :], of its partial trace over the start k (the atom marginal) and
of its partial trace over the atom level a (the joint Gram).  The closed
forms are the paper's Poisson sums over the same window, not renormalized.

Each point stores its m, lambda0, t and g (t as the double the package is
given; every phase is formed from it exactly), the window edges and each of
its columns to 30 significant digits.  At tail tolerance 1e-12, with
T1 = 2 pi sqrt(m) / g and T3 = 3 T1, the points are:

- every column at g = 1 for m in {0.5, 5, 50, 200}, lambda0 in
  {0, 0.3, 0.7, 1} and t in {0, T1/2, T1, T3, 37.15};
- every column at g = 1 for m = 1e3, lambda0 in {0.3, 0.7} and
  t in {T1/2, T1, 37.15};
- every column at g = 1.3 for m = 5, lambda0 in {0, 0.3, 0.7, 1} and
  t in {0, T1/2, T1, T3, 37.15};
- the closed forms alone (c_closed, c_exact, dem_closed) at g = 1 for
  m in {1e4, 1e5, 1e6}, lambda0 in {0.3, 0.7} and t in {T1, T3}.

Run from the repository root (about 10 s):

    python tests/make_reference_40.py
"""

import json
from pathlib import Path

from mpmath import mp, mpf

DPS = 40
DIGITS = 30
TAIL_TOL = 1e-12
GUARD_LEVELS = 5
GENERIC_T = 37.15
COLUMNS = ("c_closed", "c_exact", "dem_exact", "dem_closed", "s_atom", "s_field", "s_joint")
CLOSED_COLUMNS = ("c_closed", "c_exact", "dem_closed")
ALL_LAMBDAS = (0.0, 0.3, 0.7, 1.0)
# (means, lambda0s, kinds of time, g, whether the entropies are computed)
SECTIONS = (
    ((0.5, 5.0, 50.0, 200.0), ALL_LAMBDAS, ("0", "T1/2", "T1", "T3", "generic"), 1.0, True),
    ((1e3,), (0.3, 0.7), ("T1/2", "T1", "generic"), 1.0, True),
    ((5.0,), ALL_LAMBDAS, ("0", "T1/2", "T1", "T3", "generic"), 1.3, True),
    ((1e4, 1e5, 1e6), (0.3, 0.7), ("T1", "T3"), 1.0, False),
)
OUT = Path(__file__).parent / "data" / "reference_40digit.json"


def poisson_window(m: float) -> tuple[int, list]:
    """(n_lo, the Poisson weights p_n on n_lo..n_max) by the window rule above.

    Levels outside m -+ (40 sqrt(m) + 100) are left out of every sum: at every
    m here each weighs below 1e-200, and so does their sum.  The first kept
    level's weight is e^-m m^n / n! by mpmath.loggamma; the rest follow by the
    ratio recursion."""
    m = mpf(m)
    spread = 40 * mp.sqrt(m) + 100
    bottom, top = max(int(m - spread), 0), int(m + spread)
    weights = [mp.exp(-m + bottom * mp.log(m) - mp.loggamma(bottom + 1))]
    for n in range(bottom, top):
        weights.append(weights[-1] * m / (n + 1))
    # upper[k] = sum_{n>k} p_n and lower[k] = sum_{n<k} p_n over the levels
    # kept, k counted from bottom, each summed from its own end
    size = top - bottom + 1
    upper = [mpf(0)] * size
    for k in range(size - 2, -1, -1):
        upper[k] = upper[k + 1] + weights[k + 1]
    lower = [mpf(0)] * size
    for k in range(1, size):
        lower[k] = lower[k - 1] + weights[k - 1]
    tol = mpf(TAIL_TOL)
    n_max = next(k for k in range(size) if upper[k] < tol) + GUARD_LEVELS
    budget = tol - upper[n_max]
    n_lo = max(max(k for k in range(size) if lower[k] < budget) - GUARD_LEVELS, 0)
    return bottom + n_lo, weights[n_lo:n_max + 1]


def xlogx(x):
    return x * mp.log(x) if x > 0 else mpf(0)


def entropy(matrix) -> mpf:
    """-sum p ln p over the eigenvalues p > 0 of a real symmetric matrix."""
    return -mp.fsum(xlogx(p) for p in mp.eigsy(matrix, eigvals_only=True))


def reference_point(m: float, lambda0: float, t: float, g: float,
                    entropies: bool) -> dict:
    """The window edges, the inputs and the columns of one point, every column
    or, without entropies, CLOSED_COLUMNS, as strings of DIGITS significant
    digits."""
    with mp.workdps(DPS):
        n_lo, p = poisson_window(m)
        total = mp.fsum(p)
        amps = [mp.sqrt(x / total) for x in p]
        phases = [mpf(g) * mp.sqrt(n + 1) * mpf(t) for n in range(n_lo, n_lo + len(p))]
        cos, sin = [mp.cos(x) for x in phases], [mp.sin(x) for x in phases]
        lam0 = mpf(lambda0)
        lam1 = 1 - lam0
        # closed forms: the sums run over every kept level, cos and sin of the
        # top level included, and c_exact holds |2,n_max> still
        c = mp.fsum(w * x**2 for w, x in zip(p, cos))
        s = total - c
        sin2 = mp.fsum(2 * w * x * y for w, x, y in zip(p, sin, cos))
        e1, e4 = lam0 * s + lam1 * c, lam0 * c + lam1 * s
        e2 = abs(lam1 - lam0) * abs(sin2) / 2
        dem_closed = -xlogx(e1) - xlogx(e4) + 2 * xlogx(e2)
        c_exact = (c + p[-1] * sin[-1] ** 2) / total
        inputs = {"m": m, "lambda0": lambda0, "t": t, "g": g, "n_lo": n_lo,
                  "n_max": n_lo + len(p) - 1}
        if not entropies:
            return {**inputs, **{name: mp.nstr(v, DIGITS) for name, v in zip(
                CLOSED_COLUMNS, (c, c_exact, dem_closed))}}
        # rows sqrt(lambda_k) psi_k[a, :] by start k and atom level a, real
        # in the rotated frame; the doublet of level n rotates by cos/sin[n]
        zero = mpf(0)
        rows = [
            [amps[0], *(x * a for x, a in zip(cos, amps[1:]))],
            [*(y * a for y, a in zip(sin, amps[1:])), zero],
            [zero, *(-y * a for y, a in zip(sin, amps[:-1]))],
            [*(x * a for x, a in zip(cos, amps[:-1])), amps[-1]],
        ]
        scale = [mp.sqrt(lam0), mp.sqrt(lam0), mp.sqrt(lam1), mp.sqrt(lam1)]
        gram = mp.matrix([[si * sj * mp.fsum(x * y for x, y in zip(ri, rj))
                           for sj, rj in zip(scale, rows)] for si, ri in zip(scale, rows)])
        atom = mp.matrix([[gram[a, b] + gram[2 + a, 2 + b] for b in range(2)]
                          for a in range(2)])
        joint = mp.matrix([[gram[2 * k, 2 * q] + gram[2 * k + 1, 2 * q + 1]
                            for q in range(2)] for k in range(2)])
        s_atom, s_field, s_joint = entropy(atom), entropy(gram), entropy(joint)
        values = (c, c_exact, max(s_atom + s_field - s_joint, zero), dem_closed,
                  s_atom, s_field, s_joint)
        return {**inputs, **{name: mp.nstr(v, DIGITS) for name, v in zip(COLUMNS, values)}}


def reference_time(kind: str, m: float, g: float) -> float:
    """The time of one kind as a double: 0, T1/2, T1 or T3, each from
    T1 = 2 pi sqrt(m) / g rounded once, or GENERIC_T."""
    with mp.workdps(DPS):
        t1 = 2 * mp.pi * mp.sqrt(mpf(m)) / mpf(g)
        return {"0": 0.0, "T1/2": float(t1 / 2), "T1": float(t1), "T3": float(3 * t1),
                "generic": GENERIC_T}[kind]


def main() -> None:
    points = [reference_point(m, lam, reference_time(kind, m, g), g, entropies)
              for means, lambdas, kinds, g, entropies in SECTIONS
              for m in means for lam in lambdas for kind in kinds]
    header = {"dps": DPS, "tail_tol": TAIL_TOL, "columns": list(COLUMNS)}
    OUT.write_text(json.dumps({**header, "points": points}, indent=1) + "\n",
                   encoding="utf-8")
    print(f"wrote {len(points)} points to {OUT}")


if __name__ == "__main__":
    main()
