"""Coherent-state Mach-Zehnder interferometer with a lossy photon-recycling
loop: steady-state scattering coefficients, homodyne phase sensitivity, the
quantum Cramer-Rao bound, the intracavity photon budget, and parameter
landscapes with deterministic maximization.

Importing the package loads only the error types.  Every other public name,
and each submodule, is imported on first access (PEP 562), so numpy loads
only when a caller reaches for the model.
"""

import importlib

from .errors import (
    ConvergenceError,
    ModelError,
    ParameterError,
    ResonantPoleError,
)

__version__ = "0.1.0"

# Each submodule and the public names it defines.
_SUBMODULES = {
    "cli": (),
    "landscape": ("OptimumRecord", "SweepGrid", "loss_curve", "maximize", "sweep"),
    "loop": ("RecycledCoefficients", "cascade", "closed_form"),
    "metrology": ("MeritReport", "lambda1_values", "lambda2_values", "lambda3_values",
                  "merit_report"),
    "optics": ("LoopParameters", "mzi_entries"),
    "verification": (),
}
_HOME = {name: module for module, names in _SUBMODULES.items() for name in names}

__all__ = sorted(["ConvergenceError", "ModelError", "ParameterError", "ResonantPoleError",
                  *_HOME])


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
