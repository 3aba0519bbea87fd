"""Periodic spectral discretization of the Euclidean directions.

The whole space R^d (d = 1 or 2) is truncated to the periodic box [-L, L)^d.
Transforms use the unitary convention (norm="ortho") so discrete Parseval is
an identity, and wavenumbers are k_j = pi*j/L on the standard symmetric
index set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class BoxGrid:
    """Tensor grid on [-L, L)^d with n_points per axis (power of two)."""

    dim: int
    half_length: float
    n_points: int

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if self.half_length <= 0:
            raise ValueError("half_length must be positive")
        n = self.n_points
        if n < 2 or (n & (n - 1)) != 0:
            raise ValueError(f"n_points must be a power of two >= 2, got {n}")

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_length / self.n_points

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @cached_property
    def axis(self) -> np.ndarray:
        return -self.half_length + self.spacing * np.arange(self.n_points)

    @cached_property
    def wavenumbers(self) -> np.ndarray:
        # k_j = pi*j/L for j in the symmetric index set
        return 2.0 * math.pi * np.fft.fftfreq(self.n_points, d=self.spacing)

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays, broadcastable to the grid shape."""
        return tuple(
            self.axis.reshape((1,) * i + (-1,) + (1,) * (self.dim - 1 - i))
            for i in range(self.dim)
        )

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.n_points,) * self.dim

    @property
    def x_axes(self) -> tuple[int, ...]:
        return tuple(range(self.dim))


def laplacian_symbol(grid: BoxGrid) -> np.ndarray:
    """Fourier multiplier of the Laplacian: -|k|^2, zero at the zero mode."""
    k = grid.wavenumbers
    if grid.dim == 1:
        return -(k**2)
    return -(k[:, None] ** 2 + k[None, :] ** 2)


def dealias_mask(grid: BoxGrid) -> np.ndarray:
    """2/3-rule mask (True = keep), applied after nonlinear evaluations."""
    k = grid.wavenumbers
    cutoff = (2.0 / 3.0) * np.abs(k).max()
    keep = np.abs(k) <= cutoff + 1e-12
    if grid.dim == 1:
        return keep
    return keep[:, None] & keep[None, :]


def x_fft(data: np.ndarray, grid: BoxGrid, out: np.ndarray | None = None) -> np.ndarray:
    """Unitary FFT over the x axes; trailing axes (alpha) pass through.
    One 1-D transform per x axis, last axis first, as fftn orders them.
    With ``out``, every pass writes into it (a later pass in place)."""
    for axis in reversed(grid.x_axes):
        data = np.fft.fft(data, axis=axis, norm="ortho", out=out)
    return data


def x_ifft(data: np.ndarray, grid: BoxGrid, out: np.ndarray | None = None) -> np.ndarray:
    for axis in reversed(grid.x_axes):
        data = np.fft.ifft(data, axis=axis, norm="ortho", out=out)
    return data
