"""Tests for the photon window n_lo..n_max that the coherent field occupies."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import full_range_vectors, poisson_lower_tail, poisson_tail

import jcdem.entropy
from jcdem.entropy import dem_exact, entropies_at
from jcdem.model import (
    DEFAULT_TAIL_TOL,
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    coherent_amplitudes,
    evolve_vectors,
    poisson_weights,
)

PARAMS = ModelParams()
ATOM = AtomState.from_ground_weight(0.7)


def full_range_point(atom, field, t):
    """Entropies, DEM and c_exact of the 0..n_max evolution at one time."""
    psi_g, psi_e = full_range_vectors(field, PARAMS, t)
    joint = atom.lambda0 * np.outer(psi_g, psi_g.conj()) + atom.lambda1 * np.outer(
        psi_e, psi_e.conj()
    )
    report = dem_exact(joint, (2, field.n_max + 1))
    c_exact = np.sum(np.abs(psi_e[field.n_max + 1 :]) ** 2)
    return report, c_exact


def excited_weight(field, t):
    """c_exact of the windowed evolution at one time."""
    psi_e = evolve_vectors(field, PARAMS, t)[1]
    return np.sum(np.abs(psi_e[field.n_levels :]) ** 2)


@pytest.mark.parametrize(
    "m, n_lo, n_max",
    [(5.0, 0, 32), (50.0, 4, 112), (200.0, 104, 312), (1e3, 779, 1235),
     (1e4, 9283, 10716), (1e5, 97689, 102238)],
)
def test_window_frozen_values(m, n_lo, n_max):
    field = FieldConfig.from_mean_photons(m)
    assert (field.n_lo, field.n_max) == (n_lo, n_max)


def test_default_field_keeps_every_level():
    # at the CLI default m = 5 the window is all of 0..n_max, so the
    # defaults run the full-range arithmetic unchanged
    field = FieldConfig.from_mean_photons(5.0)
    assert field.n_lo == 0
    psi_g, psi_e = evolve_vectors(field, PARAMS, [0.0, 3.3, 14.05])
    ref_g, ref_e = full_range_vectors(field, PARAMS, [0.0, 3.3, 14.05])
    assert np.array_equal(psi_g, ref_g) and np.array_equal(psi_e, ref_e)


def test_n_lo_is_derived_and_read_only():
    field = FieldConfig.from_mean_photons(200.0)
    with pytest.raises(AttributeError):
        field.n_lo = 0
    with pytest.raises(TypeError):
        FieldConfig(theta=field.theta, n_max=field.n_max, n_lo=0)


def test_window_drops_less_than_tail_tol_in_all():
    # at a loose tolerance the upper tail beyond n_max = 5 (0.884 at m = 9)
    # leaves the lower tail a budget of 0.016 only, so the window keeps
    # every level down to 0; the lower tail alone, below tail_tol up to
    # k = 13, would have put n_lo at 8, past n_max
    field = FieldConfig(theta=3.0, n_max=5, tail_tol=0.9)
    assert field.n_lo == 0
    assert poisson_lower_tail(9.0, 13) < 0.9
    dropped = poisson_lower_tail(9.0, field.n_lo) + poisson_tail(9.0, field.n_max)
    assert dropped < field.tail_tol


@pytest.mark.parametrize("m", [50.0, 200.0])
def test_window_matches_the_full_range_reference(m):
    field = FieldConfig.from_mean_photons(m)
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


def test_window_matches_the_full_range_closed_and_exact_c_at_m_1e3():
    field = FieldConfig.from_mean_photons(1e3)
    t1 = 2.0 * math.pi * math.sqrt(1e3)
    times = np.array([0.0, 2.5, 0.5 * t1, t1])
    c_closed = closed_form_coeffs(times, AtomState(0.0, 1.0), field, PARAMS).c
    w = poisson_weights(1e3, field.n_max)
    omega = np.sqrt(np.arange(field.n_max + 1) + 1.0)
    for i, t in enumerate(times):
        psi_e = full_range_vectors(field, PARAMS, t)[1]
        c_full = np.sum(np.abs(psi_e[field.n_max + 1 :]) ** 2)
        assert abs(excited_weight(field, t) - c_full) <= 1e-12
        assert abs(c_closed[i] - math.fsum(w * np.cos(omega * t) ** 2)) <= 1e-12


def test_closed_and_exact_c_agree_at_m_1e5():
    field = FieldConfig.from_mean_photons(1e5)
    t1 = 2.0 * math.pi * math.sqrt(1e5)
    times = np.array([0.0, 1.0, 0.5 * t1, t1])
    c_closed = closed_form_coeffs(times, AtomState(0.0, 1.0), field, PARAMS).c
    for i, t in enumerate(times):
        assert abs(c_closed[i] - excited_weight(field, t)) <= 1e-10


@settings(max_examples=40, deadline=None, derandomize=True)
@given(m=st.floats(0.0, 1e5))
@example(m=0.0)
@example(m=0.4)
@example(m=1e5)
def test_window_holds_over_the_parameter_range(m):
    field = FieldConfig.from_mean_photons(m)
    assert poisson_lower_tail(m, field.n_lo) < DEFAULT_TAIL_TOL
    assert poisson_tail(m, field.n_max) < DEFAULT_TAIL_TOL
    assert 0 <= field.n_lo <= math.floor(m) <= field.n_max
    amps = coherent_amplitudes(field.theta, field.n_max, field.n_lo)
    assert len(amps) == field.n_levels
    assert abs(np.linalg.norm(amps) - 1.0) <= 1e-13
    psi_g, psi_e = evolve_vectors(field, PARAMS, 0.0)
    assert abs(np.linalg.norm(psi_g) - 1.0) <= 1e-13
    assert abs(np.linalg.norm(psi_e) - 1.0) <= 1e-13


def test_entropies_diagonalise_only_the_window(monkeypatch):
    # a cost guard: at m = 200 the window keeps 209 of the 313 levels, so
    # the matrices diagonalised are 2W, W and 2 wide, not 626 and 313
    field = FieldConfig.from_mean_photons(200.0)
    width = field.n_levels
    assert width == 209
    sizes = []
    original = jcdem.entropy.hermitian_eigenvalues

    def record(m):
        sizes.append(len(m))
        return original(m)

    monkeypatch.setattr(jcdem.entropy, "hermitian_eigenvalues", record)
    entropies_at(ATOM, field, PARAMS, 7.0)
    assert sorted(sizes, reverse=True) == [2 * width, width, 2]
