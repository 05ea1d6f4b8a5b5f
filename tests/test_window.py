"""Tests for the photon window n_lo..n_max that the coherent field occupies."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    coherent_amplitudes,
    dem_exact,
    evolve_vectors,
    full_range_vectors,
    partial_trace,
    poisson_lower_tail,
    poisson_tail,
    poisson_terms,
    vector_joint,
    von_neumann_entropy,
)

from jcdem.analysis import revival_period, scan_transition
from jcdem.entropy import entropies_at
from jcdem.model import (
    CHUNK_ELEMENTS,
    DEFAULT_TAIL_TOL,
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
)

PARAMS = ModelParams()
ATOM = AtomState(0.7)


def full_range_point(atom, field, t):
    """Entropies, DEM and c_exact of the 0..n_max evolution at one time."""
    amps = coherent_amplitudes(field.mean_photons, field.n_max)
    psi_g, psi_e = full_range_vectors(amps, PARAMS, t)
    joint = atom.lambda0 * np.outer(psi_g, psi_g.conj()) + atom.lambda1 * np.outer(
        psi_e, psi_e.conj()
    )
    report = dem_exact(joint, (2, field.n_max + 1))
    c_exact = np.sum(np.abs(psi_e[field.n_max + 1 :]) ** 2)
    return report, c_exact


def excited_weight(field, t):
    """c_exact of the windowed evolution at a scalar or array of times."""
    psi_e = evolve_vectors(field, PARAMS, t)[1]
    return np.sum(np.abs(psi_e[..., field.n_levels :]) ** 2, axis=-1)


@pytest.mark.parametrize(
    "m, n_lo, n_max",
    [(5.0, 0, 32), (50.0, 4, 112), (200.0, 104, 312), (1e3, 779, 1235),
     (1e4, 9283, 10716), (1e5, 97689, 102238)],
)
def test_window_frozen_values(m, n_lo, n_max):
    field = FieldConfig(m)
    assert (field.n_lo, field.n_max) == (n_lo, n_max)


def test_default_field_keeps_every_level():
    # at the CLI default m = 5 the window is all of 0..n_max, so the
    # defaults run the full-range evolution unchanged
    field = FieldConfig(5.0)
    assert (field.n_lo, field.n_levels) == (0, field.n_max + 1)
    times = np.array([0.0, 3.3, 14.05])
    window = entropies_at(ATOM, field, PARAMS, times)
    for i, t in enumerate(times):
        full = full_range_point(ATOM, field, t)[0]
        for name in ("s_atom", "s_field", "s_joint", "dem"):
            assert abs(getattr(window, name)[i] - getattr(full, name)) <= 1e-12


def test_n_lo_is_derived_and_read_only():
    field = FieldConfig(200.0)
    assert [f.name for f in dataclasses.fields(field)] == ["mean_photons", "tail_tol"]
    for name in ("n_lo", "n_max", "weights"):
        with pytest.raises(AttributeError):
            setattr(field, name, getattr(field, name))
    assert len(field.weights) == field.n_levels and not field.weights.flags.writeable
    for name in ("n_lo", "n_max"):
        with pytest.raises(TypeError):
            FieldConfig(field.mean_photons, **{name: 0})


@pytest.mark.parametrize("m", [50.0, 200.0])
def test_window_matches_the_full_range_reference(m):
    field = FieldConfig(m)
    assert field.n_lo > 0
    t1 = 2.0 * math.pi * math.sqrt(m)
    times = np.array([0.0, 3.7, 0.5 * t1, t1])
    window = entropies_at(ATOM, field, PARAMS, times)
    for i, t in enumerate(times):
        full, c_full = full_range_point(ATOM, field, t)
        for name in ("s_atom", "s_field", "s_joint", "dem"):
            assert abs(getattr(window, name)[i] - getattr(full, name)) <= 1e-12, (
                name, t)
        assert abs(excited_weight(field, t) - c_full) <= 1e-12


def test_complex_theta_on_a_window_above_the_vacuum():
    # the package evolves the real amplitudes sqrt(p_n) of m = 50 and drops
    # the phases e^{i n arg theta}, a local unitary; the oracle evolves the
    # complex amplitudes of theta = sqrt(50) e^{0.4i} on the same window, so
    # the match shows that dropping the phase is exact
    field = FieldConfig(50.0)
    assert (field.n_lo, field.n_max) == (4, 112)
    times = np.array([0.0, 7.3, 0.5 * revival_period(field, PARAMS)])
    report = entropies_at(ATOM, field, PARAMS, times)
    dims = (2, field.n_levels)
    for i, t in enumerate(times):
        joint = vector_joint(ATOM, field, PARAMS, t, phase=0.4)
        oracle = [von_neumann_entropy(partial_trace(joint, dims, keep))
                  for keep in ("atom", "field")] + [von_neumann_entropy(joint)]
        for name, value in zip(("s_atom", "s_field", "s_joint"), oracle):
            assert abs(getattr(report, name)[i] - value) <= 1e-12, (name, t)
        assert abs(report.dem[i] - (oracle[0] + oracle[1] - oracle[2])) <= 1e-12, t


def test_window_matches_the_full_range_closed_and_exact_c_at_m_1e3():
    field = FieldConfig(1e3)
    t1 = 2.0 * math.pi * math.sqrt(1e3)
    times = np.array([0.0, 2.5, 0.5 * t1, t1])
    c_closed = closed_form_coeffs(AtomState(0.0), field, PARAMS, times).c
    w = poisson_terms(1e3, field.n_max)
    amps = coherent_amplitudes(field.mean_photons, field.n_max)
    omega = np.sqrt(np.arange(field.n_max + 1) + 1.0)
    for i, t in enumerate(times):
        psi_e = full_range_vectors(amps, PARAMS, t)[1]
        c_full = np.sum(np.abs(psi_e[field.n_max + 1 :]) ** 2)
        assert abs(excited_weight(field, t) - c_full) <= 1e-12
        assert abs(c_closed[i] - math.fsum(w * np.cos(omega * t) ** 2)) <= 1e-12


@pytest.mark.parametrize(
    "m, closed_bound",
    [(5.0, 1e-12), (200.0, 1e-12), (1e3, 1e-12), (1e4, 1e-12), (1e5, 1e-12),
     (1e6, 2e-12)],
)
def test_closed_and_exact_c_agree_with_the_evolved_states(m, closed_bound):
    # c_exact is the oracle's windowed survival up to rounding; c_closed
    # keeps the dropped tails, below tail_tol, and at m = 1e6 the weights'
    # own error of a few 1e-12 (MAX_MEAN_PHOTONS)
    field = FieldConfig(m)
    t1 = revival_period(field, PARAMS)
    times = np.array([0.0, 1.0, 0.5 * t1, t1, 3.0 * t1])
    coeffs = closed_form_coeffs(AtomState(0.0), field, PARAMS, times)
    survival = excited_weight(field, times)
    assert np.abs(coeffs.c_exact - survival).max() <= 1e-14
    assert np.abs(coeffs.c - survival).max() <= closed_bound


@pytest.mark.parametrize("m", [1e3, 1e4, 5.2e4, 7e4, 1e5])
def test_closed_and_exact_c_agree_at_large_m(m):
    # c_exact renormalizes the window, c_closed does not, so they differ by
    # the dropped tails (below tail_tol) plus any error in the weights' sum
    field = FieldConfig(m)
    series = scan_transition(field, PARAMS, 20.0, 0.5)
    gap = np.abs(series.columns["c_closed"] - series.columns["c_exact"]).max()
    assert gap <= 1e-12


@pytest.mark.parametrize("m", [1e4, 1e5])
def test_closed_form_c_is_accurate_at_large_m(m):
    # c_closed and c_exact share their float64 phases g sqrt(n+1) t, so
    # their agreement shows consistency, not accuracy; here c_closed at T3,
    # a phase of about 6 pi m rad, is set against 40-digit trig at the same
    # float time and weights.  So is the sin(2 Omega_n t) sum, 2 |e2| at
    # lambda0 = 1, formed as 2 sin cos: its phase error is doubled
    mpmath = pytest.importorskip("mpmath")
    field = FieldConfig(m)
    t3 = 3.0 * revival_period(field, PARAMS)
    coeffs = closed_form_coeffs(AtomState(1.0), field, PARAMS, t3)
    with mpmath.workdps(40):
        t = mpmath.mpf(t3)
        levels = range(field.n_lo + 1, field.n_max + 2)
        weights = [mpmath.mpf(float(w)) for w in field.weights]
        phases = [mpmath.sqrt(k) * t for k in levels]
        c = mpmath.fsum(w * mpmath.cos(x) ** 2 for w, x in zip(weights, phases))
        sin2 = mpmath.fsum(w * mpmath.sin(2 * x) for w, x in zip(weights, phases))
    assert abs(coeffs.c - float(c)) <= 1e-12
    assert abs(2.0 * coeffs.e2_mag - abs(float(sin2))) <= 3e-12


@pytest.mark.parametrize("m, bound", [(5.0, 1.5e-14), (1e4, 1e-14), (1e6, 1.5e-14)])
def test_window_weights_match_40_digit_poisson(m, bound):
    # at most 400 levels from n_lo to n_max, both edges included; measured
    # 5.8e-15, 5.1e-15 and 7.6e-15, each bound two to three times that; without
    # the bd0 series near the mode the deviance cancels, and m = 1e4 and 1e6
    # measured 1.8e-13 and 1.1e-12
    mpmath = pytest.importorskip("mpmath")
    field = FieldConfig(m)
    levels = np.unique(np.linspace(field.n_lo, field.n_max, 400).round().astype(int))
    with mpmath.workdps(40):
        mean = mpmath.mpf(m)
        errors = [
            abs(field.weights[n - field.n_lo]
                / mpmath.exp(n * mpmath.log(mean) - mean - mpmath.loggamma(n + 1)) - 1)
            for n in levels.tolist()
        ]
    assert float(max(errors)) <= bound


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(0.0, 1e5))
@example(m=0.0)
@example(m=0.4)
@example(m=1e5)
def test_window_holds_over_the_parameter_range(m):
    field = FieldConfig(m)
    dropped = poisson_lower_tail(m, field.n_lo) + poisson_tail(m, field.n_max)
    assert dropped < DEFAULT_TAIL_TOL
    assert 0 <= field.n_lo <= math.floor(m) <= field.n_max
    psi_g, psi_e = evolve_vectors(field, PARAMS, 0.0)
    assert abs(np.linalg.norm(psi_g) - 1.0) <= 1e-13
    assert abs(np.linalg.norm(psi_e) - 1.0) <= 1e-13


def test_entropies_diagonalise_only_the_window(monkeypatch):
    # a cost guard: at m = 200 the window keeps 209 of the 313 levels, so
    # the matrices diagonalised are the 2W-wide joint state, the field's
    # 4x4 Gram and the 2x2 atom marginal, none of them W wide; and each chunk
    # of times takes one eigvalsh call per kind of matrix, not one per time
    field = FieldConfig(200.0)
    width = field.n_levels
    assert width == 209
    shapes = []
    original = np.linalg.eigvalsh

    def record(m):
        shapes.append(np.shape(m))
        return original(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    entropies_at(ATOM, field, PARAMS, 7.0)
    assert sorted((s[-1] for s in shapes), reverse=True) == [2 * width, 4, 2]
    shapes.clear()
    cli_grid = np.arange(1001) * 0.05
    entropies_at(ATOM, FieldConfig(5.0), PARAMS, cli_grid)
    # a chunk counts each time's joint state and eigvalsh's copy of it,
    # 2 (2W)^2 entries: 15 times of the m = 5 grid, so 67 chunks
    assert len(shapes) == 3 * 67
    assert sum(s[0] for s in shapes) == 3 * 1001


def test_entropies_chunk_stays_within_the_chunk_budget():
    # a chunk counts each time's joint state and eigvalsh's copy of it, so on
    # the m = 5 CLI grid its stacks stay within CHUNK_ELEMENTS complex entries
    field = FieldConfig(5.0)
    entropies_at(ATOM, field, PARAMS, 0.0)
    tracemalloc.start()
    try:
        entropies_at(ATOM, field, PARAMS, np.arange(1001) * 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * CHUNK_ELEMENTS
