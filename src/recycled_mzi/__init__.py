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
from .loop import RecycledCoefficients, cascade, closed_form
from .metrology import (
    MeritReport,
    lambda1_values,
    lambda2_values,
    lambda3_values,
    merit_report,
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
    "lambda1_values",
    "lambda2_values",
    "lambda3_values",
    "loss_curve",
    "maximize",
    "merit_report",
    "mzi_entries",
    "sweep",
]
