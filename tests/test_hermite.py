"""Quadrature exactness, orthonormality and transform roundtrips for the
Gaussian-weight Hermite machinery.

Oracles: exact Gaussian moments (odd vanish, even are (2m-1)!! sqrt(2pi)),
scipy's independent probabilists' Gauss-Hermite rule, and finite-difference
derivatives on refined grids.
"""

import math

import numpy as np
import pytest
from scipy.special import roots_hermitenorm

from ounls.hermite import (
    SQRT_TWO_PI,
    IllConditionedBasisError,
    build_basis,
    evaluate_modal,
    forward_tensor,
    inverse_tensor,
)
from ounls.observables import TAIL_MODES
from ounls.operators import HermiteAxis


def double_factorial(m):
    return math.prod(range(1, m, 2)) if m > 0 else 1


def test_two_point_rule_exact():
    basis = build_basis(2)
    np.testing.assert_allclose(basis.nodes, [-1.0, 1.0], atol=1e-14)
    np.testing.assert_allclose(basis.weights, [SQRT_TWO_PI / 2] * 2, rtol=1e-14)
    # degree <= 3 integrands against exp(-a^2/2): 1, a, a^2, a^3
    for m, exact in ((0, SQRT_TWO_PI), (1, 0.0), (2, SQRT_TWO_PI), (3, 0.0)):
        got = float(basis.weights @ basis.nodes**m)
        assert abs(got - exact) < 1e-13


@pytest.mark.parametrize("n_modes", [2, 5, 16, 64, 128])
def test_weights_sum_and_positivity(n_modes):
    basis = build_basis(n_modes)
    assert np.all(basis.weights > 0)
    assert abs(basis.weights.sum() - SQRT_TWO_PI) < 1e-12 * SQRT_TWO_PI


def test_second_moment_16():
    basis = build_basis(16)
    assert abs(float(basis.weights @ basis.nodes**2) - SQRT_TWO_PI) < 1e-12


@pytest.mark.parametrize("n_modes", [8, 64])
def test_moment_exactness_up_to_degree(n_modes):
    basis = build_basis(n_modes)
    for m in range(2 * n_modes):
        got = float(basis.weights @ basis.nodes**m)
        if m % 2 == 1:
            scale = float(basis.weights @ np.abs(basis.nodes) ** m)
            assert abs(got) <= 1e-12 * scale
        else:
            exact = double_factorial(m) * SQRT_TWO_PI
            assert abs(got - exact) <= 1e-10 * exact


def test_matches_independent_scipy_rule():
    basis = build_basis(48)
    nodes, weights = roots_hermitenorm(48)
    np.testing.assert_allclose(basis.nodes, nodes, atol=1e-12)
    np.testing.assert_allclose(basis.weights, weights, rtol=1e-10)


@pytest.mark.parametrize("n_modes", [2, 16, 64, 256])
def test_discrete_orthonormality(n_modes):
    basis = build_basis(n_modes)
    gram = (basis.eigenfunctions * basis.weights) @ basis.eigenfunctions.T
    assert np.abs(gram - np.eye(n_modes)).max() < 1e-10


def test_eigenvalues_are_minus_n():
    basis = build_basis(32)
    np.testing.assert_array_equal(basis.eigenvalues, -np.arange(32.0))


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_basis(1)
    with pytest.raises(ValueError):
        build_basis(0)
    with pytest.raises(IllConditionedBasisError):
        with np.errstate(over="ignore"):
            build_basis(400)


def test_forward_of_constant():
    basis = build_basis(64)
    coeffs = forward_tensor(np.ones(64, complex), basis)
    assert abs(coeffs[0] - (2 * math.pi) ** 0.25) < 1e-12
    assert np.abs(coeffs[1:]).max() < 1e-12


def test_forward_of_squared_nodes():
    # a^2 = He_2 + He_0, so only modes 0 and 2 survive
    basis = build_basis(64)
    coeffs = forward_tensor(basis.nodes**2 + 0j, basis)
    s = (2 * math.pi) ** 0.25
    assert abs(coeffs[0] - s) < 1e-12
    assert abs(coeffs[2] - math.sqrt(2) * s) < 1e-12
    others = np.delete(np.abs(coeffs), [0, 2])
    assert others.max() < 1e-12


def test_forward_of_zero():
    basis = build_basis(16)
    coeffs = forward_tensor(np.zeros(16, complex), basis)
    assert np.all(coeffs == 0)


def test_inverse_of_first_mode():
    basis = build_basis(32)
    coeffs = np.zeros(32, complex)
    coeffs[0] = 1.0
    values = inverse_tensor(coeffs, basis)
    np.testing.assert_allclose(values, (2 * math.pi) ** (-0.25), rtol=1e-13)


def test_roundtrip_unit_modes():
    basis = build_basis(32)
    for n in (0, 5, 31):
        coeffs = np.zeros(32, complex)
        coeffs[n] = 1.0
        back = forward_tensor(inverse_tensor(coeffs, basis), basis)
        assert np.abs(back - coeffs).max() < 1e-10
    zero = inverse_tensor(np.zeros(32, complex), basis)
    assert np.all(zero == 0)


def test_roundtrip_band_limited_random():
    basis = build_basis(64)
    rng = np.random.default_rng(3)
    coeffs = np.zeros(64, complex)
    coeffs[:40] = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    back = forward_tensor(inverse_tensor(coeffs, basis), basis)
    assert np.abs(back - coeffs).max() < 1e-10 * np.abs(coeffs).max()


def test_parseval():
    basis = build_basis(64)
    rng = np.random.default_rng(4)
    values = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    coeffs = forward_tensor(values, basis)
    nodal_sq = float(basis.weights @ np.abs(values) ** 2)
    modal_sq = float(np.sum(np.abs(coeffs) ** 2))
    assert abs(nodal_sq - modal_sq) < 1e-10 * nodal_sq


def test_forward_matrix_is_built_once():
    # forward_tensor runs every step; the n_modes^2 product is cached
    basis = build_basis(16)
    assert basis.forward_matrix is basis.forward_matrix
    np.testing.assert_array_equal(basis.forward_matrix, basis.eigenfunctions * basis.weights)


def test_length_mismatch_raises():
    basis = build_basis(16)
    with pytest.raises(ValueError):
        forward_tensor(np.ones(8, complex), basis)
    with pytest.raises(ValueError):
        inverse_tensor(np.ones(32, complex), basis)


@pytest.mark.parametrize("n_modes", [2, 63, 64])
def test_axis_transforms_are_one_real_gemm_on_the_float_view(n_modes):
    # an alpha-first spectrum (alpha, kept x modes): the real matrix acts
    # from the left on its float64 view, re and im side by side, no copy
    axis = HermiteAxis(build_basis(n_modes))
    rng = np.random.default_rng(6)
    spectrum = rng.standard_normal((n_modes, 171)) + 1j * rng.standard_normal((n_modes, 171))
    flat = spectrum.view(np.float64)
    basis = axis.basis
    assert np.array_equal(axis.forward(spectrum),
                          (basis.forward_matrix @ flat).view(np.complex128))
    assert np.array_equal(axis.inverse(spectrum),
                          (basis.eigenfunctions.T @ flat).view(np.complex128))
    # the same values as the complex product with the real matrix
    np.testing.assert_allclose(axis.forward(spectrum), basis.forward_matrix @ spectrum,
                               rtol=0, atol=1e-14 * np.abs(spectrum).max())
    # a 1-D profile and trailing axes keep their shapes
    assert forward_tensor(spectrum[:, 0], basis).shape == (n_modes,)
    stacked = spectrum.reshape(n_modes, 9, 19)
    assert np.array_equal(inverse_tensor(stacked, basis),
                          axis.inverse(spectrum).reshape(n_modes, 9, 19))


def weighted_norms(axis, values):
    """(L2w, H1w_homogeneous) of a nodal profile through the drift axis:
    modal Parseval and the gradient form sum n |c_n|^2."""
    coeffs = axis.forward(values)
    power = coeffs.real**2 + coeffs.imag**2
    return math.sqrt(power.sum()), math.sqrt(axis.grad_density(coeffs, power))


def test_weighted_norm_examples():
    axis = HermiteAxis(build_basis(64))
    l2, grad = weighted_norms(axis, np.ones(64, complex))
    assert abs(l2 - (2 * math.pi) ** 0.25) < 1e-12
    assert grad < 1e-12
    l2, grad = weighted_norms(axis, axis.nodes + 0j)
    assert abs(l2**2 - SQRT_TWO_PI) < 1e-12
    assert abs(grad**2 - SQRT_TWO_PI) < 1e-12
    expected = math.sqrt(2.0 * SQRT_TWO_PI)
    assert abs(math.sqrt(l2**2 + grad**2) - expected) < 1e-12


def test_gradient_form_matches_fd_derivative():
    # sum n |c_n|^2 is the weighted Dirichlet form int |f'|^2 e^{-a^2/2};
    # the oracle differentiates the evaluated band-limited expansion by
    # second-order differences and integrates by the trapezoid rule
    axis = HermiteAxis(build_basis(64))
    rng = np.random.default_rng(5)
    coeffs = np.zeros(64, complex)
    coeffs[:8] = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    alphas = np.linspace(-12.0, 12.0, 24001)
    h = alphas[1] - alphas[0]
    fd = np.gradient(evaluate_modal(coeffs, alphas), h, edge_order=2)
    oracle = np.trapezoid(np.abs(fd) ** 2 * np.exp(-0.5 * alphas**2), alphas)
    power = coeffs.real**2 + coeffs.imag**2
    spectral = float(axis.grad_density(coeffs, power))
    assert abs(spectral - oracle) < 10.0 * h**2 * spectral


def test_ou_modal_action_matches_nodal_fd():
    # modal multiply by -n against a finite-difference (f'' - a f') oracle
    basis = build_basis(64)

    def profile(a):
        return np.sin(a) * np.exp(-(a**2) / 8.0)

    coeffs = forward_tensor(profile(basis.nodes) + 0j, basis)
    grid = np.linspace(-10.0, 10.0, 4001)
    h = grid[1] - grid[0]
    f = profile(grid)
    fp = np.gradient(f, h, edge_order=2)
    fpp = np.gradient(fp, h, edge_order=2)
    oracle = fpp - grid * fp
    spectral = evaluate_modal(coeffs * basis.eigenvalues, grid).real
    interior = np.abs(grid) < 6.0
    assert np.abs(oracle - spectral)[interior].max() < 50.0 * h**2


def test_tail_mass_fraction():
    tail_mass_fraction = HermiteAxis(build_basis(64)).tail_fraction
    coeffs = np.zeros(64, complex)
    coeffs[0] = 1.0
    assert tail_mass_fraction(coeffs, TAIL_MODES) == 0.0
    coeffs[-1] = 0.5
    assert abs(tail_mass_fraction(coeffs, TAIL_MODES) - 0.25 / 1.25) < 1e-15
    assert tail_mass_fraction(np.zeros(8, complex), TAIL_MODES) == 0.0
