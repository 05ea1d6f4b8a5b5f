"""Exact resonant atom-field dynamics on a truncated photon space and the
mutual-entropy degree of entanglement, with analytic cross-checks."""

from .analysis import (
    LambdaScan,
    RevivalReport,
    TimeSeries,
    revival_analysis,
    scan_lambda,
    scan_time,
    scan_transition,
)
from .entropy import EntropyReport, dem_closed_form, dem_exact, relative_entropy
from .model import (
    AtomState,
    ClosedFormCoeffs,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
    evolve,
)

__version__ = "0.1.0"

__all__ = [
    "AtomState",
    "ClosedFormCoeffs",
    "EntropyReport",
    "FieldConfig",
    "LambdaScan",
    "ModelParams",
    "RevivalReport",
    "TimeSeries",
    "closed_form_coeffs",
    "dem_closed_form",
    "dem_exact",
    "evolve",
    "relative_entropy",
    "revival_analysis",
    "scan_lambda",
    "scan_time",
    "scan_transition",
]
