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
    coherent_amplitudes,
    dem_exact,
    dense_hamiltonian,
    expm_taylor,
    free_evolution,
    marginal_product,
    partial_trace,
    propagated_joint,
    relative_entropy,
    windowed_range,
)

from jcdem.analysis import revival_analysis, scan_lambda, scan_time
from jcdem.cli import main
from jcdem.entropy import entropies_at
from jcdem.model import (
    AtomState,
    FieldConfig,
    ModelParams,
    evolve_vectors,
)

FIELD = FieldConfig.from_mean_photons(5.0)
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
        AtomState.from_ground_weight(0.7), FIELD, PARAMS, 30.0, 0.05
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
        field = FieldConfig.from_mean_photons(mean)
        for lam in (0.0, 0.5, 1.0):
            atom = AtomState.from_ground_weight(lam)
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
    detected = revival_analysis(FIELD, PARAMS, series).detected_revival
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
    # a complex field that fills every level up to the edge n_max = 5:
    # m = 3 at tail_tol = 0.99 puts p_5 = 0.10 there
    small = FieldConfig(theta=math.sqrt(3.0) * (0.6 + 0.8j), tail_tol=0.99)
    assert (small.n_lo, small.n_max) == (0, 5)
    h = dense_hamiltonian(1.0, 1.0, 5)
    amps = coherent_amplitudes(small.theta, 5)
    starts = (np.kron([1.0, 0.0], amps), np.kron([0.0, 1.0], amps))
    # the evolved vectors live in the interaction picture, exp(+i t H0) U(t)
    prop_gap = max(
        np.abs(psi - free_evolution(t, 1.0, 5) @ expm_taylor(-1j * t * h) @ start).max()
        for t in (0.7, 2.3, 5.0)
        for psi, start in zip(evolve_vectors(small, ModelParams(), t), starts)
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

    atom = AtomState.from_ground_weight(0.7)
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
    atom = AtomState.from_ground_weight(0.7)
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
