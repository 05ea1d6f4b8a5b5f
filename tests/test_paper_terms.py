"""The paper's closed form against the exact atom, term by term.

The exact excited population and atom coherence of the evolved mixture are
Poisson sums (tests/oracles.py).  Two substitutions turn them into the
paper's e1 and |e2|: the ground start's frequency g sqrt(n) becomes
g sqrt(n+1), and the coherence's a_n a_{n+1} at two frequencies becomes
p_n at one.  The first changes little at large m; the second loses the
near-pure atom at half the revival time, the dip that criteria 6 and 7
of tests/test_acceptance.py run into.
"""

import math

import numpy as np
import pytest

from oracles import atom_coherence, excited_population, poisson_terms

from jcdem.model import (
    AtomState,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    evolve_vectors,
)

LAMBDA0 = 0.3


def padded(values, field):
    """Values on the window n_lo..n_max, as weights of levels 0..n_max."""
    p = np.zeros(field.n_max + 1)
    p[field.n_lo :] = values
    return p


def sample_times(m, g):
    t1 = 2.0 * math.pi * math.sqrt(m) / g
    return (0.0, 0.7, 3.1, 0.5 * t1, t1, 2.0 * t1)


@pytest.mark.parametrize("m", [5.0, 50.0, 200.0])
def test_term_sums_match_the_evolved_vectors(m):
    params = ModelParams(g=1.3)
    field = FieldConfig.from_mean_photons(m)
    width = field.n_levels
    p = padded(np.abs(field.amplitudes) ** 2, field)
    for t in sample_times(m, params.g):
        psi_g, psi_e = evolve_vectors(field, params, t)
        population = LAMBDA0 * np.sum(np.abs(psi_g[width:]) ** 2) + (
            1.0 - LAMBDA0
        ) * np.sum(np.abs(psi_e[width:]) ** 2)
        coherence = LAMBDA0 * np.vdot(psi_g[width:], psi_g[:width]) + (
            1.0 - LAMBDA0
        ) * np.vdot(psi_e[width:], psi_e[:width])
        assert abs(population - excited_population(p, LAMBDA0, params.g, t)) <= 2e-13
        assert abs(coherence - atom_coherence(p, LAMBDA0, params.g, t)) <= 2e-13


@pytest.mark.parametrize("m", [5.0, 50.0, 200.0])
def test_paper_forms_follow_from_the_two_substitutions(m):
    params = ModelParams(g=1.3)
    field = FieldConfig.from_mean_photons(m)
    # the closed form sums the window's weights as they are, unrenormalized
    p = padded(field.weights, field)
    atom = AtomState.from_ground_weight(LAMBDA0)
    for t in sample_times(m, params.g):
        coeffs = closed_form_coeffs(t, atom, field, params)
        e1 = excited_population(p, LAMBDA0, params.g, t, paper=True)
        e2 = atom_coherence(p, LAMBDA0, params.g, t, paper=True)
        assert abs(coeffs.e1 - e1) <= 1e-14
        assert abs(coeffs.e2_mag - abs(e2)) <= 1e-14


def test_coherence_gap_persists_while_population_gap_falls():
    # g = 1; the coherence is read at half the revival time, pi sqrt(m),
    # where the exact atom is nearly pure (|rho_12| near 1/2) and the
    # paper's |e2| is below 1e-4; the population is read at t = 0.5
    population_gaps = []
    for m in (5.0, 50.0, 1e3):
        p = poisson_terms(m, FieldConfig.from_mean_photons(m).n_max)
        half_revival = math.pi * math.sqrt(m)
        exact = abs(atom_coherence(p, LAMBDA0, 1.0, half_revival))
        paper = abs(atom_coherence(p, LAMBDA0, 1.0, half_revival, paper=True))
        assert paper <= 1e-4 and exact - paper >= 0.4, m
        population_gaps.append(abs(
            excited_population(p, LAMBDA0, 1.0, 0.5)
            - excited_population(p, LAMBDA0, 1.0, 0.5, paper=True)
        ))
    assert all(a > b for a, b in zip(population_gaps, population_gaps[1:]))
    assert population_gaps[-1] < 1e-3
