"""Model and discretization descriptors shared across the solver."""

from __future__ import annotations

import math
from dataclasses import dataclass

MODEL_DIV = "div"
MODEL_NONDIV = "nondiv"

DEFOCUSING = +1
FOCUSING = -1


@dataclass(frozen=True)
class ModelSpec:
    """Which equation to solve.

    ``model`` selects the confinement form: "div" uses the divergence-form
    operator d/da(exp(-a^2/2) d/da) with a plain power nonlinearity, while
    "nondiv" uses the drift form d^2/da^2 - a d/da with the nonlinearity
    weighted by exp(-p*a^2/2).  ``sign`` is +1 for defocusing, -1 for
    focusing.
    """

    model: str
    dim: int
    power: int
    sign: int = DEFOCUSING

    def __post_init__(self):
        if self.model not in (MODEL_DIV, MODEL_NONDIV):
            raise ValueError(f"model must be 'div' or 'nondiv', got {self.model!r}")
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if (
            not isinstance(self.power, (int,))
            or self.power <= 0
            or self.power % 2 != 0
        ):
            raise ValueError("p must be a positive even integer")
        if self.sign not in (DEFOCUSING, FOCUSING):
            raise ValueError(f"sign must be +1 or -1, got {self.sign}")

    @property
    def focusing(self) -> bool:
        return self.sign == FOCUSING


def default_box_half_length(dim: int) -> float:
    return 16.0 * math.pi if dim == 1 else 8.0 * math.pi


@dataclass(frozen=True)
class DiscretizationSpec:
    """Grid sizes, box lengths and alpha truncation."""

    n_x: int = 256
    box_half_length: float | None = None
    n_alpha: int = 64
    div_nodes: int = 513
    div_half_width: float = 12.0

    def __post_init__(self):
        n = self.n_x
        if n < 2 or n & (n - 1):
            raise ValueError(f"n_x must be a power of two >= 2, got {n}")
        if self.n_alpha < 2:
            raise ValueError(f"n_alpha must be >= 2, got {self.n_alpha}")
        if self.div_nodes < 3:
            raise ValueError(f"div_nodes must be >= 3, got {self.div_nodes}")
        for name in ("box_half_length", "div_half_width"):
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    def resolved_box(self, dim: int) -> float:
        if self.box_half_length is not None:
            return self.box_half_length
        return default_box_half_length(dim)
