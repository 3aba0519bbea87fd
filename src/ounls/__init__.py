"""Pseudospectral solver and verification harness for nonlinear
Schrodinger equations with Ornstein-Uhlenbeck confinement in one
transverse direction."""

__version__ = "0.1.0"

from .grids import BoxGrid, laplacian_symbol
from .hermite import HermiteBasis, build_basis
from .models import DiscretizationSpec, ModelSpec
from .operators import (
    DivAlphaOperator,
    FluxAxis,
    HermiteAxis,
    LinearPropagator,
    Machinery,
    apply_div_operator,
    apply_nonlinearity,
    build_axis,
    build_div_operator,
    build_linear_propagator,
    build_machinery,
    verify_div_identity,
)
from .state import Field
from .stepping import BlowupThresholds, StepControl, StepperState, detect_blowup, integrate

__all__ = [
    "BlowupThresholds",
    "BoxGrid",
    "DiscretizationSpec",
    "DivAlphaOperator",
    "Field",
    "FluxAxis",
    "HermiteAxis",
    "HermiteBasis",
    "LinearPropagator",
    "Machinery",
    "ModelSpec",
    "StepControl",
    "StepperState",
    "apply_div_operator",
    "apply_nonlinearity",
    "build_axis",
    "build_basis",
    "build_div_operator",
    "build_linear_propagator",
    "build_machinery",
    "detect_blowup",
    "integrate",
    "laplacian_symbol",
    "verify_div_identity",
]
