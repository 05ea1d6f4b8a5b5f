"""The CLI's outputs against committed references.

tests/data/cli_reference holds, for each case below, the CSV and stdout of
one jc-entangle run.  A change that is meant to leave the numbers alone
reruns them here: headers and stdout must match exactly, and every CSV
value must lie within TOL of the reference, absolute or relative.  After a
change that moves the numbers on purpose, rewrite the references of the
cases it moves, and only those, by name:

    PYTHONPATH=src python tests/test_cli_reference.py scan_time scan_time_m200

A case left out keeps its reference, so the rewrite commits no last-digit
drift of a case the change did not move.  To rewrite all of them, name
every case: transition scan_time revival scan_lambda scan_time_m200.
"""

import argparse
import contextlib
import io
import os
from pathlib import Path

import numpy as np
import pytest

from jcdem.cli import main

REFERENCE = Path(__file__).parent / "data" / "cli_reference"
# The CSVs print 13 significant digits; a change of one in the last of them
# stays within TOL, taken both absolute and relative.
TOL = 1e-12
SHORT = ["--t-max", "20", "--dt", "0.25"]
CASES = {
    "transition": ["transition", *SHORT],
    "scan_time": ["scan-time", *SHORT],
    "revival": ["revival", *SHORT],
    "scan_lambda": ["scan-lambda", "--lambda-points", "6"],
    "scan_time_m200": ["scan-time", "--mean-photons", "200",
                       "--t-max", "100", "--dt", "5"],
}


def run_case(name: str, directory: Path) -> str:
    """Run case name with its CSV written to directory; return its stdout."""
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out):
            assert main([*CASES[name], "--out-csv", f"{name}.csv"]) == 0
    finally:
        os.chdir(cwd)
    return out.getvalue()


def read_csv(path: Path) -> tuple[str, np.ndarray]:
    header, _, body = path.read_text(encoding="utf-8").partition("\n")
    return header, np.loadtxt(io.StringIO(body), delimiter=",", ndmin=2)


@pytest.mark.parametrize("name", CASES)
def test_cli_matches_its_reference(name, tmp_path):
    stdout = run_case(name, tmp_path)
    assert stdout == (REFERENCE / f"{name}.stdout").read_text(encoding="utf-8")
    header, values = read_csv(tmp_path / f"{name}.csv")
    ref_header, ref_values = read_csv(REFERENCE / f"{name}.csv")
    assert header == ref_header
    assert values.shape == ref_values.shape
    np.testing.assert_allclose(values, ref_values, rtol=TOL, atol=TOL)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite the named references.")
    parser.add_argument("cases", nargs="+", choices=list(CASES))
    REFERENCE.mkdir(parents=True, exist_ok=True)
    for case in parser.parse_args().cases:
        (REFERENCE / f"{case}.stdout").write_text(run_case(case, REFERENCE),
                                                  encoding="utf-8")
