"""Coherent-state Mach-Zehnder interferometer with a lossy photon-recycling
loop: steady-state scattering coefficients, homodyne phase sensitivity, the
quantum Cramer-Rao bound, the intracavity photon budget, and parameter
landscapes with deterministic maximization.
"""

from .errors import (
    ConvergenceError,
    ModelError,
    ParameterError,
    ResonantPoleError,
)
from .landscape import OptimumRecord, SweepGrid, loss_curve, maximize, sweep
from .loop import (
    RecycledCoefficients,
    cascade,
    closed_form,
    closed_form_coefficients,
    iterate_series,
    loop_ratio,
    stages_for_tolerance,
)
from .metrology import (
    MeritReport,
    lambda1,
    lambda1_values,
    lambda2,
    lambda2_values,
    lambda3,
    lambda3_values,
    merit_report,
    photon_numbers,
)
from .optics import LoopParameters, mzi_entries

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "LoopParameters",
    "MeritReport",
    "ModelError",
    "OptimumRecord",
    "ParameterError",
    "RecycledCoefficients",
    "ResonantPoleError",
    "SweepGrid",
    "cascade",
    "closed_form",
    "closed_form_coefficients",
    "iterate_series",
    "lambda1",
    "lambda1_values",
    "lambda2",
    "lambda2_values",
    "lambda3",
    "lambda3_values",
    "loop_ratio",
    "loss_curve",
    "maximize",
    "merit_report",
    "mzi_entries",
    "photon_numbers",
    "stages_for_tolerance",
    "sweep",
]
