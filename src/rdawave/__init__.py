"""rdawave: pathwise simulation and random-attractor diagnostics for the
damped stochastic wave equation with additive noise on a truncated domain."""

from .grid import Grid
from .model import FieldProfile, Model, PowerNonlinearity, make_model
from .paths import FrozenPath, SamplePath, ShiftedView, generate_path, shift
from .solver import Column, SolveSpec, Stepper, column_from, evolve, reconstruct_z, step

__all__ = [
    "Grid",
    "FieldProfile", "Model", "PowerNonlinearity", "make_model",
    "FrozenPath", "SamplePath", "ShiftedView", "generate_path", "shift",
    "Column", "SolveSpec", "Stepper", "column_from", "evolve", "reconstruct_z", "step",
]

__version__ = "0.1.0"
