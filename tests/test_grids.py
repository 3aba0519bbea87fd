"""Periodic-box spectral layer: Parseval, symbols, dealiasing."""

import math

import numpy as np
import pytest

from ounls.grids import BoxGrid, dealias_mask, laplacian_symbol, x_fft, x_ifft


def test_grid_validation():
    with pytest.raises(ValueError):
        BoxGrid(3, 1.0, 64)
    with pytest.raises(ValueError):
        BoxGrid(1, -1.0, 64)
    with pytest.raises(ValueError):
        BoxGrid(1, 1.0, 100)  # not a power of two


def test_wavenumbers_symmetric():
    grid = BoxGrid(1, 4.0, 64)
    k = grid.wavenumbers
    assert k[0] == 0.0
    assert abs(k[1] - math.pi / 4.0) < 1e-15
    # symmetric index set; only the Nyquist mode lacks a positive partner
    pos = np.sort(k[k > 0])
    neg = np.sort(-k[k < 0])
    assert neg.size == pos.size + 1
    np.testing.assert_allclose(neg[:-1], pos, rtol=1e-15)
    assert abs(neg[-1] - math.pi / grid.spacing) < 1e-12


def test_parseval():
    grid = BoxGrid(2, 2.0, 32)
    rng = np.random.default_rng(0)
    u = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    hat = x_fft(u, grid)
    a = np.sum(np.abs(u) ** 2)
    b = np.sum(np.abs(hat) ** 2)
    assert abs(a - b) < 1e-12 * a


def test_laplacian_symbol_values():
    grid = BoxGrid(1, 5.0, 64)
    sym = laplacian_symbol(grid)
    assert sym[0] == 0.0
    assert abs(sym[1] + (math.pi / 5.0) ** 2) < 1e-14
    grid2 = BoxGrid(2, 5.0, 16)
    sym2 = laplacian_symbol(grid2)
    k = grid2.wavenumbers
    assert abs(sym2[1, 2] + (k[1] ** 2 + k[2] ** 2)) < 1e-13


def test_spectral_derivative_of_plane_wave():
    grid = BoxGrid(1, 8.0, 128)
    k = grid.wavenumbers[5]
    u = np.exp(1j * k * grid.axis)
    lap = x_ifft(laplacian_symbol(grid) * x_fft(u, grid), grid)
    np.testing.assert_allclose(lap, -(k**2) * u, atol=1e-11)


def test_free_phase_is_unitary():
    grid = BoxGrid(1, 8.0, 128)
    rng = np.random.default_rng(1)
    u = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    hat = x_fft(u, grid)
    hat *= np.exp(-0.37j * (-laplacian_symbol(grid)))
    v = x_ifft(hat, grid)
    a, b = np.sum(np.abs(u) ** 2), np.sum(np.abs(v) ** 2)
    assert abs(a - b) < 1e-12 * a


def test_dealias_mask_two_thirds():
    grid = BoxGrid(1, 4.0, 64)
    mask = dealias_mask(grid)
    k = grid.wavenumbers
    cutoff = (2.0 / 3.0) * np.abs(k).max()
    assert np.array_equal(mask, np.abs(k) <= cutoff + 1e-12)
    grid2 = BoxGrid(2, 4.0, 16)
    mask2 = dealias_mask(grid2)
    assert mask2.shape == (16, 16)
    assert mask2[0, 0]
    assert not mask2[8, 0]


@pytest.mark.parametrize("dim", [1, 2])
def test_axis_by_axis_transforms_equal_fftn(dim):
    # one 1-D call per x axis, last axis first, is the order fftn uses, so
    # the results agree bitwise; the trailing alpha axis passes through
    grid = BoxGrid(dim, 4.0, 32)
    rng = np.random.default_rng(2)
    shape = grid.shape + (5,)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    axes = grid.x_axes
    assert np.array_equal(x_fft(u, grid), np.fft.fftn(u, axes=axes, norm="ortho"))
    assert np.array_equal(x_ifft(u, grid), np.fft.ifftn(u, axes=axes, norm="ortho"))
