"""Shared pytest hooks and fixtures.

Criterion results are echoed immediately and repeated in a terminal
summary section so the pass/fail lines survive output capture.

The suite runs its BLAS on one thread unless the environment says
otherwise: at the default, one thread per core, the stacked eigvalsh calls
slow down many times over when two BLAS-heavy processes share the cores.
The variables must be set before numpy is first imported, here by
jcdem.model.
"""

import os

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import jcdem.model  # noqa: E402

CRITERION_LINES = []


def record_criterion(line: str) -> None:
    CRITERION_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def chunk_starts(monkeypatch):
    """The start of every chunk but the first that the kernels' walk,
    model._walk_times, hands out during the test, in call order: the real
    chunk edges."""
    starts = []
    original = jcdem.model.time_chunks

    def record(n_times, entries_per_time):
        chunks = original(n_times, entries_per_time)
        starts.extend(sl.start for sl in chunks[1:])
        return chunks

    monkeypatch.setattr(jcdem.model, "time_chunks", record)
    return starts
