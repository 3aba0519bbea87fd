"""The central solution object: complex samples on the x-by-alpha grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class Field:
    """Solution samples on the tensor grid (x axes first, alpha last), in
    nodal form."""

    data: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=np.complex128)

    def copy(self) -> "Field":
        return Field(self.data.copy(), self.time)

    @property
    def finite(self) -> bool:
        return bool(np.all(np.isfinite(self.data.view(np.float64))))
