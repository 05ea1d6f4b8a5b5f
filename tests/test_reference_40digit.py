"""Every scan-time CSV column against the 40-digit reference of the same
truncated model, tests/data/reference_40digit.json, which
tests/make_reference_40.py writes with mpmath and no jcdem code."""

import json
from pathlib import Path

import pytest

from jcdem.entropy import entropies_at
from jcdem.model import AtomState, FieldConfig, ModelParams, closed_form_coeffs

REFERENCE = json.loads(
    (Path(__file__).parent / "data" / "reference_40digit.json").read_text(encoding="utf-8"))

# Largest |package - reference| per column over the 24 points, measured and
# fixed at 2-3x.  c peaks at m = 1e3, where phases near 6e3 rad are rounded to
# doubles before their cos and sin (ROADMAP item 7); dem_closed where |e2| is
# 3.9e-15, so the slope ln|e2| of its |e2| ln|e2| terms is about -33.
BOUNDS = {
    "c_closed": 3e-14,      # measured 1.28e-14 (m = 1e3, t = T1)
    "c_exact": 3e-14,       # 1.29e-14 (m = 1e3, t = T1)
    "dem_exact": 2e-14,     # 7.2e-15 (m = 1e3, lambda0 = 0.7, t = 37.15)
    "dem_closed": 5e-13,    # 1.97e-13 (m = 1e3, lambda0 = 0.3, t = 37.15)
    "s_atom": 8e-15,        # 3.3e-15 (m = 1e3, lambda0 = 0.7, t = 37.15)
    "s_field": 1e-14,       # 4.3e-15 (m = 200, lambda0 = 0.3, t = T1)
    "s_joint": 5e-16,       # 2.2e-16 (m = 5, lambda0 = 0.3, t = T1)
}


def package_columns(point):
    """The scan-time columns of jcdem at one reference point."""
    atom, field = AtomState(point["lambda0"]), FieldConfig(point["m"], REFERENCE["tail_tol"])
    params = ModelParams(g=REFERENCE["g"])
    report = entropies_at(atom, field, params, point["t"])
    coeffs = closed_form_coeffs(atom, field, params, point["t"])
    assert (field.n_lo, field.n_max) == (point["n_lo"], point["n_max"])
    return {"c_closed": coeffs.c, "c_exact": coeffs.c_exact, "dem_exact": report.dem,
            "dem_closed": coeffs.dem, "s_atom": report.s_atom,
            "s_field": report.s_field, "s_joint": report.s_joint}


def test_every_column_matches_the_40_digit_reference():
    assert sorted(BOUNDS) == sorted(REFERENCE["columns"])
    gaps = {name: 0.0 for name in BOUNDS}
    for point in REFERENCE["points"]:
        for name, value in package_columns(point).items():
            gaps[name] = max(gaps[name], abs(value - float(point[name])))
    assert {name: gap for name, gap in gaps.items() if gap > BOUNDS[name]} == {}


def test_the_reference_file_is_what_its_generator_writes():
    # three points that span m, lambda0 and the three kinds of time
    pytest.importorskip("mpmath")
    import make_reference_40

    for point in REFERENCE["points"][::11]:
        assert make_reference_40.reference_point(
            point["m"], point["lambda0"], point["t"]) == point
