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

# Largest |package - reference| per column over the points with m <= 1e3,
# measured and fixed at 2-3x.  c peaks at m = 1e3, where phases near 6e3 rad
# are rounded to doubles before their cos and sin (ROADMAP item 7); the rest
# at m = 200, lambda0 = 0, t = 37.15, where the atom is nearly pure
# (s_atom = 0.088) and dem_closed's |e2| is 1.5e-14, so the slope ln|e2| of
# its |e2| ln|e2| terms is about -31.
BOUNDS = {
    "c_closed": 3e-14,      # measured 1.28e-14 (m = 1e3, t = T1)
    "c_exact": 3e-14,       # 1.29e-14 (m = 1e3, t = T1)
    "dem_exact": 3e-14,     # 1.23e-14
    "dem_closed": 7e-13,    # 2.74e-13
    "s_atom": 1.5e-14,      # 6.1e-15
    "s_field": 1.5e-14,     # 6.1e-15
    "s_joint": 5e-16,       # 2.2e-16 (m = 5, lambda0 = 0.3, t = T1)
}
# The closed forms alone at m = 1e4, 1e5 and 1e6, t in {T1, T3}, measured and
# fixed at 2-3x.  Phases near 2 pi k m rad are rounded to doubles (ROADMAP
# item 7), so c's error peaks at T3 and grows with m: its 4.3e-12 at m = 1e6
# is that item's open error.
LARGE_M_BOUNDS = {
    # measured 1.6e-13, 1.6e-13 and 1.0e-12
    1e4: {"c_closed": 4e-13, "c_exact": 4e-13, "dem_closed": 2.5e-12},
    # 4.8e-13, 4.8e-13 and 3.9e-12
    1e5: {"c_closed": 1.2e-12, "c_exact": 1.2e-12, "dem_closed": 1e-11},
    # 4.3e-12, 4.3e-12 and 8.1e-12 (at T1)
    1e6: {"c_closed": 1e-11, "c_exact": 1e-11, "dem_closed": 2e-11},
}


def package_columns(point):
    """The columns of jcdem that the reference point holds: from
    closed_form_coeffs, and from entropies_at where it holds the entropies."""
    atom, field = AtomState(point["lambda0"]), FieldConfig(point["m"], REFERENCE["tail_tol"])
    params = ModelParams(g=point["g"])
    coeffs = closed_form_coeffs(atom, field, params, point["t"])
    assert (field.n_lo, field.n_max) == (point["n_lo"], point["n_max"])
    columns = {"c_closed": coeffs.c, "c_exact": coeffs.c_exact, "dem_closed": coeffs.dem}
    if "s_joint" in point:
        report = entropies_at(atom, field, params, point["t"])
        columns.update(dem_exact=report.dem, s_atom=report.s_atom,
                       s_field=report.s_field, s_joint=report.s_joint)
    return columns


def test_every_column_matches_the_40_digit_reference():
    assert sorted(BOUNDS) == sorted(REFERENCE["columns"])
    over = {}
    for point in REFERENCE["points"]:
        bounds = LARGE_M_BOUNDS.get(point["m"], BOUNDS)
        for name, value in package_columns(point).items():
            gap = abs(value - float(point[name]))
            if gap > bounds[name]:
                over[(point["m"], point["lambda0"], point["t"], point["g"], name)] = gap
    assert over == {}


def test_the_reference_file_is_what_its_generator_writes():
    # points that span m, lambda0, g, every kind of time and the closed forms
    # alone: (0.5, 0, 0), (5, 0.3, T1), (50, 0.7, T1/2), (200, 0, 37.15),
    # (1e3, 0.3, T1), (5, 0.3, T3) at g = 1.3 and (1e4, 0.7, T1)
    pytest.importorskip("mpmath")
    import make_reference_40

    for i in (0, 27, 51, 64, 81, 93, 108):
        point = REFERENCE["points"][i]
        assert make_reference_40.reference_point(
            point["m"], point["lambda0"], point["t"], point["g"],
            "s_joint" in point) == point
