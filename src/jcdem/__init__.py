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
from .entropy import EntropyReport, entropies_at
from .model import (
    AtomState,
    ClosedFormCoeffs,
    FieldConfig,
    ModelParams,
    closed_form_coeffs,
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
    "entropies_at",
    "revival_analysis",
    "scan_lambda",
    "scan_time",
    "scan_transition",
]
