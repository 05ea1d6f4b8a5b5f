"""End-to-end acceptance gate.

Each check prints one "[criterion N] PASS/FAIL" line (repeated in the
terminal summary).  Criteria 6 and 7 assert figure-level expectations that
the exact pipeline does not meet; the analytic forms do.  They fail here
by design and the gap is documented rather than hidden; see README.
"""

import math
import time

import numpy as np
import pytest
from conftest import record_criterion

from oracles import (
    atom_coherence,
    coherent_amplitudes,
    dem_exact,
    dense_hamiltonian,
    evolve_vectors,
    excited_population,
    expm_taylor,
    free_evolution,
    marginal_product,
    partial_trace,
    poisson_terms,
    propagated_joint,
    relative_entropy,
    von_neumann_entropy,
    windowed_range,
)

from jcdem.analysis import (
    revival_analysis,
    revival_period,
    scan_lambda,
    scan_time,
)
from jcdem.cli import main
from jcdem.entropy import entropies_at
from jcdem.model import (
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
)

FIELD = FieldConfig(5.0)
PARAMS = ModelParams()
DIMS = (2, FIELD.n_max + 1)
BINARY_ENTROPY_07 = 0.6108643020548935
T1 = 2.0 * math.pi * math.sqrt(5.0)


def check(number, ok, detail):
    line = f"[criterion {number}] {'PASS' if ok else 'FAIL'} - {detail}"
    record_criterion(line)
    assert ok, line


@pytest.fixture(scope="module")
def scans():
    """The three default-parameter scans shared across criteria."""
    out = {}
    t0 = time.perf_counter()
    out["mixed"] = scan_time(
        AtomState(0.7), FIELD, PARAMS, 30.0, 0.05
    )
    out["mixed_secs"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    out["excited"] = scan_time(AtomState(0.0), FIELD, PARAMS, 30.0, 0.05)
    out["ground"] = scan_time(AtomState(1.0), FIELD, PARAMS, 30.0, 0.05)
    out["pure_secs"] = time.perf_counter() - t0
    return out


def test_criterion_01_initial_state_is_disentangled():
    t0 = time.perf_counter()
    worst = 0.0
    for mean in (0.0, 2.0, 5.0):
        field = FieldConfig(mean)
        for lam in (0.0, 0.5, 1.0):
            atom = AtomState(lam)
            for g in (0.5, 1.0, 2.0):
                report = entropies_at(atom, field, ModelParams(g=g), 0.0)
                worst = max(worst, abs(report.dem))
    elapsed = time.perf_counter() - t0
    check(
        1,
        worst <= 1e-10 and elapsed < 1.0,
        f"max |dem(t=0)| = {worst:.2e} over 27 parameter triples "
        f"({elapsed:.2f} s)",
    )


def test_criterion_02_pure_start_doubles_marginal_entropy(scans):
    worst_gap = 0.0
    worst_joint = 0.0
    for key in ("excited", "ground"):
        cols = scans[key].columns
        worst_gap = max(
            worst_gap, np.abs(cols["dem_exact"] - 2.0 * cols["s_atom"]).max()
        )
        worst_joint = max(worst_joint, cols["s_joint"].max())
    ok = worst_gap <= 1e-8 and worst_joint <= 1e-8 and scans["pure_secs"] < 10.0
    check(
        2,
        ok,
        f"max |dem - 2 s_atom| = {worst_gap:.2e}, max s_joint = "
        f"{worst_joint:.2e} ({scans['pure_secs']:.2f} s)",
    )


def test_criterion_03_joint_entropy_constant(scans):
    err = np.abs(scans["mixed"].columns["s_joint"] - BINARY_ENTROPY_07).max()
    ok = err <= 1e-8 and scans["mixed_secs"] < 10.0
    check(
        3,
        ok,
        f"max |s_joint - {BINARY_ENTROPY_07:.6f}| = {err:.2e} "
        f"({scans['mixed_secs']:.2f} s)",
    )


def test_criterion_04_closed_transition_probability_is_exact(scans):
    cols = scans["excited"].columns
    gap = np.abs(cols["c_closed"] - cols["c_exact"]).max()
    check(4, gap <= 1e-8, f"max |c_closed - c_exact| = {gap:.2e} on [0, 30]")


def test_criterion_05_collapse_and_revival(scans):
    series = scans["excited"]
    amp = windowed_range(series.times, series.columns["c_exact"], 2.0)
    times = series.times
    early = amp[(times >= 0.0) & (times <= 1.0)].max()
    quiet = amp[(times >= 4.0) & (times <= 6.0)].max()
    detected = revival_analysis(FIELD, PARAMS, 30.0, 0.05).detected_revival
    ok = early > 0.4 and quiet < 0.1 and abs(detected - 14.05) <= 2.0
    check(
        5,
        ok,
        f"amplitude {early:.3f} in [0,1], {quiet:.4f} in [4,6], "
        f"revival detected at t = {detected:.2f}",
    )


def test_criterion_06_entanglement_peak_window(scans):
    series = scans["mixed"]
    mask = series.times <= 10.0
    times = series.times[mask]
    exact_peak = float(times[np.argmax(series.columns["dem_exact"][mask])])
    closed_peak = float(times[np.argmax(series.columns["dem_closed"][mask])])
    ok = 3.0 <= exact_peak <= 7.0
    check(
        6,
        ok,
        f"exact peak at t = {exact_peak:.2f} (window [3, 7]); "
        f"analytic form peaks at t = {closed_peak:.2f}",
    )


def test_criterion_07_monotone_entanglement_across_revivals():
    scan = scan_lambda(FIELD, PARAMS, np.linspace(0.0, 1.0, 21), k_list=(1, 2, 3))
    d1, d2, d3 = (scan.dem_at_T[k] for k in (1, 2, 3))
    violation = np.maximum(d1 - d2, d2 - d3)
    worst = float(violation.max())
    bad = [
        f"lambda0={lam:.2f}:{v:.3f}"
        for lam, v in zip(scan.lambdas, violation)
        if v > 1e-9
    ]
    ok = worst <= 1e-6
    check(
        7,
        ok,
        f"max violation = {worst:.3e} at 21 grid points"
        + (f"; exceeded at {', '.join(bad)}" if bad else ""),
    )


# Where the paper's conjecture holds.  Criteria 6 and 7 test m = 5.  At m = 20,
# 50 and 200 the exact degree rises from T1 to T2 to T3 at every lambda0, but
# the band where it fails is intermittent: it tracks the fractional part of m.
# Over whole m it fails last at m = 17 and holds at every whole m from 18 to
# 120 (margin at least 0.0154, at m = 21).  Over real m (a 0.05 grid on
# [17, 120], 0.01 on [n + 0.3, n + 0.6] for n = 40..90) it fails in windows
# near n + 0.45 through n = 44 and n + 0.85 through n = 28, up to about
# m = 44.457, the last window being (44.438, 44.458); above it the smallest
# margin grows, 0.0016 at m = 45.45 and 0.0204 at 100.45.  The closed form's value at T1/2, near ln 2, is not what
# the exact dynamics give at any of these m.
LAMBDA_GRID = np.linspace(0.0, 1.0, 21)


def conjecture_margin(m):
    """The grid lambda0 where the exact conjecture fails at m, and its smallest
    margin min(dem(T2) - dem(T1), dem(T3) - dem(T2)) over the grid."""
    scan = scan_lambda(FieldConfig(m), PARAMS, LAMBDA_GRID)
    d1, d2, d3 = (scan.dem_at_T[k] for k in (1, 2, 3))
    return scan.lambdas[~scan.conjecture_holds].tolist(), np.minimum(d2 - d1, d3 - d2).min()


@pytest.mark.parametrize("m", [20.0, 50.0, 200.0])
def test_the_exact_conjecture_holds_with_margin_at_m_20_50_200(m):
    failed, margin = conjecture_margin(m)
    # measured 0.028, 0.050 and 0.055
    assert failed == [] and margin > 0.02


def test_the_exact_conjecture_fails_at_m_2_on_the_ground_edge():
    assert conjecture_margin(2.0)[0] == [0.0, 0.05]


# (low, high) bounds of the margin; measured -0.00652 and -0.00051, each at
# lambda0 = 1 alone
LAST_FAILURES = {17.0: (-0.008, -0.005), 44.45: (-0.0008, -0.0003)}
# lower bounds of the margin; measured 0.02225, 0.01538, 0.00156 and 0.00358
HOLDS_ABOVE = {18.0: 0.02, 21.0: 0.015, 45.45: 0.001, 50.45: 0.003}


@pytest.mark.parametrize("m", LAST_FAILURES)
def test_the_exact_conjecture_fails_last_at_whole_m_17_and_real_m_44_45(m):
    failed, margin = conjecture_margin(m)
    low, high = LAST_FAILURES[m]
    assert failed == [1.0] and low < margin < high


@pytest.mark.parametrize("m", HOLDS_ABOVE)
def test_the_exact_conjecture_holds_above_its_last_failures(m):
    failed, margin = conjecture_margin(m)
    assert failed == [] and margin > HOLDS_ABOVE[m]


@pytest.mark.parametrize("m", [20.0, 50.0, 200.0])
def test_the_closed_form_overstates_the_degree_at_half_the_revival_time(m):
    field, atom = FieldConfig(m), AtomState(0.7)
    t_half = 0.5 * revival_period(field, PARAMS)
    closed = closed_form_coeffs(atom, field, PARAMS, t_half).dem
    exact = entropies_at(atom, field, PARAMS, t_half).dem
    # measured 0.693 against 0.130, 0.058 and 0.017
    assert closed - exact > 0.5


# Large-m asymptotics, beside criteria 6 and 7 and without the paper's closed
# form, at m where the dense joint state is cheap (under 0.5 s a set).  Below
# m = 50 the detector's error is not yet monotone (0.041 at m = 5, 0.049 at 20).
ASYMPTOTIC_M = (50.0, 200.0, 1e3)


def test_the_atom_nears_a_pure_state_at_half_the_revival_time():
    # Gea-Banacloche: at T1/2 = pi sqrt(m) / g the excited-start atom is
    # nearly pure, so the degree falls like a power of m; measured 0.0560,
    # 0.0170 and 0.00409, with log-log slopes -0.86 and -0.88
    dem = []
    for m in ASYMPTOTIC_M:
        field = FieldConfig(m)
        t_half = 0.5 * revival_period(field, PARAMS)
        dem.append(entropies_at(AtomState(0.0), field, PARAMS, t_half).dem)
    assert np.abs(np.divide(dem, [0.0560, 0.0170, 0.00409]) - 1.0).max() <= 0.01
    assert np.all(np.diff(dem) < 0.0)
    slopes = np.diff(np.log(dem)) / np.diff(np.log(ASYMPTOTIC_M))
    assert np.all((-1.1 <= slopes) & (slopes <= -0.7)), slopes


def atom_at_half_revival(m):
    """The excited-start atom state at T1/2 = pi sqrt(m) and g = 1, from the
    O(W) Poisson sums of the oracles on poisson_terms weights over 0..n_max."""
    p = poisson_terms(m, FieldConfig(m).n_max)
    t_half = math.pi * math.sqrt(m)
    excited = excited_population(p, 0.0, 1.0, t_half)
    coherence = atom_coherence(p, 0.0, 1.0, t_half)
    return np.array([[1.0 - excited, coherence], [np.conj(coherence), excited]])


@pytest.mark.parametrize("m", [1e3, 1e4, 1e5, 1e6])
def test_the_atom_at_half_the_revival_time_misses_purity_by_0_2167_over_m(m):
    # the atom's smaller eigenvalue p at T1/2 falls as 0.2167 / m, so
    # DEM(T1/2) ~ 2 p (1 - ln p): measured m p = 0.216764, 0.216718, 0.216713
    # and 0.216713.  The constant is measured, not derived
    p = np.linalg.eigvalsh(atom_at_half_revival(m))[0]
    assert abs(m * p / 0.2167 - 1.0) <= 2e-3, m * p


@pytest.mark.parametrize("m, bound", [(50.0, 3e-13), (200.0, 1e-12), (1e3, 5e-12)])
def test_the_atom_entropy_at_half_the_revival_time_matches_the_poisson_sums(m, bound):
    # measured 1.0e-13, 3.3e-13 and 1.5e-12, each bound about three times
    # that: the atom is nearly pure at T1/2, where dS/dp = ln((1 - p) / p)
    # magnifies the rounding of Rabi phases near pi m
    field = FieldConfig(m)
    report = entropies_at(AtomState(0.0), field, PARAMS, math.pi * math.sqrt(m))
    assert abs(report.s_atom - von_neumann_entropy(atom_at_half_revival(m))) <= bound


def test_the_detected_revival_approaches_the_first_revival_time():
    # Eberly, Narozhny and Sanchez-Mondragon: the revival centres on
    # T1 = 2 pi sqrt(m) / g; the detector, on a grid of one eighth of the
    # dominant Rabi period to 1.5 T1, misses it by 2.97e-2, 1.62e-2 and
    # 7.50e-3 of T1
    errors = []
    for m in ASYMPTOTIC_M:
        field = FieldConfig(m)
        t1 = revival_period(field, PARAMS)
        dt = 2.0 * math.pi / (PARAMS.g * math.sqrt(math.floor(m) + 1.0)) / 8.0
        detected = revival_analysis(field, PARAMS, 1.5 * t1, dt).detected_revival
        errors.append(abs(detected - t1) / t1)
    assert np.all(np.diff(errors) < 0.0), errors
    assert np.all(np.array(errors) <= [0.035, 0.020, 0.010]), errors


def test_criterion_08_entropy_triangle_inequalities(scans):
    rng = np.random.default_rng(808)
    worst = math.inf
    for _ in range(100):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = a @ a.conj().T
        rho /= np.trace(rho).real
        report = dem_exact(rho, (2, 2))
        worst = min(worst, *report.al_margins)
        if not report.araki_lieb_ok:
            break
    cols = scans["mixed"].columns
    lower = (cols["s_joint"] - np.abs(cols["s_atom"] - cols["s_field"])).min()
    upper = (cols["s_atom"] + cols["s_field"] - cols["s_joint"]).min()
    worst = min(worst, float(lower), float(upper))
    check(
        8,
        worst >= -1e-8,
        f"smallest triangle-inequality margin = {worst:.2e} "
        "(100 random states + full default grid)",
    )


def test_criterion_09_oracle_equivalences(scans):
    # a complex amplitude theta = sqrt(3) (0.6 + 0.8i) on a field that fills
    # every level up to the edge n_max = 5: m = |theta|^2 = 3 at tail_tol =
    # 0.99 puts p_5 = 0.10 there
    small = FieldConfig(3.0, tail_tol=0.99)
    phase = math.atan2(0.8, 0.6)
    assert (small.n_lo, small.n_max) == (0, 5)
    h = dense_hamiltonian(1.0, 1.0, 5)
    amps = coherent_amplitudes(3.0, 5, phase=phase)
    starts = (np.kron([1.0, 0.0], amps), np.kron([0.0, 1.0], amps))
    # the evolved vectors live in the interaction picture, exp(+i t H0) U(t)
    prop_gap = max(
        np.abs(psi - free_evolution(t, 1.0, 5) @ expm_taylor(-1j * t * h) @ start).max()
        for t in (0.7, 2.3, 5.0)
        for psi, start in zip(evolve_vectors(small, ModelParams(), t, phase), starts)
    )

    rng = np.random.default_rng(909)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    joint4 = a @ a.conj().T
    joint4 /= np.trace(joint4).real
    brute = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for n in range(2):
                brute[i, j] += joint4[i * 2 + n, j * 2 + n]
    trace_gap = np.abs(partial_trace(joint4, (2, 2), "atom") - brute).max()

    atom = AtomState(0.7)
    joint = propagated_joint(atom, FIELD, PARAMS, 7.0)
    dem_gap = abs(
        entropies_at(atom, FIELD, PARAMS, 7.0).dem
        - relative_entropy(joint, marginal_product(joint, DIMS))
    )

    ok = prop_gap <= 1e-8 and trace_gap <= 1e-12 and dem_gap <= 1e-8
    check(
        9,
        ok,
        f"evolved states vs expm {prop_gap:.1e}, partial trace vs brute force "
        f"{trace_gap:.1e}, dem vs relative entropy {dem_gap:.1e}",
    )


def test_criterion_10_entanglement_independent_of_omega0():
    atom = AtomState(0.7)
    series = {
        w0: scan_time(
            atom,
            FIELD,
            ModelParams(g=1.0, omega0=w0),
            15.0,
            0.25,
        ).columns["dem_exact"]
        for w0 in (0.0, 1.0, 5.0)
    }
    gap = max(
        np.abs(series[0.0] - series[1.0]).max(),
        np.abs(series[5.0] - series[1.0]).max(),
    )

    # the library drops the free phases, so compare with the dense
    # propagator, which keeps them, at t = 3, 7.25 and 14
    def oracle_dem(w0, t):
        joint = propagated_joint(atom, FIELD, ModelParams(g=1.0, omega0=w0), t)
        return dem_exact(joint, DIMS).dem

    oracle_gap = max(
        abs(oracle_dem(w0, 0.25 * i) - series[w0][i])
        for w0 in series
        for i in (12, 29, 56)
    )
    check(
        10,
        gap <= 1e-9 and oracle_gap <= 1e-9,
        f"max pointwise dem gap across omega0 = {gap:.2e}, "
        f"vs the dense propagator {oracle_gap:.2e}",
    )


def test_criterion_11_end_to_end_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        csv = tmp_path / f"{tag}.csv"
        svg = tmp_path / f"{tag}.svg"
        argv = [
            "scan-time", "--t-max", "5", "--dt", "0.05",
            "--out-csv", str(csv), "--out-svg", str(svg),
        ]
        assert main(argv) == 0
        outputs.append((csv.read_bytes(), svg.read_bytes()))
    ok = outputs[0] == outputs[1]
    check(
        11,
        ok,
        "repeated scan-time runs produce byte-identical CSV and SVG",
    )
