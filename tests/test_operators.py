"""Generator assembly: conservative divergence-form operator, drift-form
modal action, the weight identity relating them, nonlinear phases, and the
exact linear propagators."""

import math

import numpy as np
import pytest
from scipy.ndimage import gaussian_filter1d

from ounls import hermite
from ounls.grids import BoxGrid, laplacian_symbol
from ounls.hermite import build_basis
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.observables import mass
from ounls.operators import (
    BAND_TOL,
    PHASE_TINY,
    NonFiniteFieldError,
    apply_div_operator,
    apply_nonlinearity,
    build_div_operator,
    build_linear_propagator,
    build_machinery,
    flow_reach,
    nonlinear_gain,
    squared_modulus,
    verify_div_identity,
)


def apply_ou_nondiv(values, basis):
    """Drift-form action (d^2/da^2 - a d/da) along the last axis of nodal
    values, computed modally: c_n -> -n c_n (the transforms act along axis
    0)."""
    coeffs = hermite.forward_tensor(values.T, basis).T
    return hermite.inverse_tensor((coeffs * basis.eigenvalues).T, basis).T


@pytest.fixture(scope="module")
def div_op():
    return build_div_operator(513, 12.0)


@pytest.fixture(scope="module")
def basis64():
    return build_basis(64)


@pytest.fixture(scope="module")
def nondiv_mach():
    return build_machinery(ModelSpec("nondiv", 1, 4), DiscretizationSpec(n_x=128))


@pytest.fixture(scope="module")
def div_mach():
    return build_machinery(
        ModelSpec("div", 1, 4), DiscretizationSpec(n_x=128, div_nodes=257)
    )


def test_model_spec_validation():
    with pytest.raises(ValueError, match="positive even integer"):
        ModelSpec("div", 1, 3)
    with pytest.raises(ValueError):
        ModelSpec("div", 1, -2)
    with pytest.raises(ValueError):
        ModelSpec("other", 1, 2)
    with pytest.raises(ValueError):
        ModelSpec("div", 3, 2)
    with pytest.raises(ValueError):
        ModelSpec("div", 1, 2, sign=2)


def test_div_operator_structure(div_op):
    assert np.all(div_op.eigenvalues <= 1e-12)
    q = div_op.eigenvectors
    assert np.abs(q.T @ q - np.eye(div_op.n_nodes)).max() < 1e-10
    # spectral gap: the top of the spectrum is zero, carried by constants
    # (P 1 = 0 exactly; the zero cluster is degenerate because the weight
    # underflows at the outer nodes, so the top eigenvector itself is an
    # arbitrary basis choice within that cluster)
    assert abs(div_op.eigenvalues[-1]) < 1e-10
    ones = np.ones(div_op.n_nodes)
    assert np.abs(apply_div_operator(ones + 0j, div_op)).max() < 1e-14


def test_div_operator_annihilates_constants(div_op):
    out = apply_div_operator(np.ones(513, complex), div_op)
    assert np.abs(out).max() == 0.0


def test_div_operator_negative_and_symmetric(div_op):
    rng = np.random.default_rng(11)
    for _ in range(100):
        u = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        u = gaussian_filter1d(u.real, 15) + 1j * gaussian_filter1d(u.imag, 15)
        v = rng.standard_normal(513) + 1j * rng.standard_normal(513)
        pu, pv = apply_div_operator(u, div_op), apply_div_operator(v, div_op)
        quad = np.vdot(u, pu).real
        assert quad <= 1e-12
        sym = abs(np.vdot(v, pu) - np.vdot(pv, u))
        assert sym < 1e-10 * max(1.0, abs(np.vdot(v, pu)))


def test_div_operator_second_order_convergence():
    # flux form against the analytic e^{-a^2/2}(f'' - a f') expansion
    def f(a):
        return np.exp(-((a - 0.5) ** 2) / 3.0)

    def exact(a):
        fp = -2.0 * (a - 0.5) / 3.0 * f(a)
        fpp = (-2.0 / 3.0 + (2.0 * (a - 0.5) / 3.0) ** 2) * f(a)
        return np.exp(-0.5 * a**2) * (fpp - a * fp)

    errs = []
    for n in (257, 513, 1025):
        op = build_div_operator(n, 12.0)
        got = apply_div_operator(f(op.nodes) + 0j, op).real
        errs.append(np.abs(got - exact(op.nodes)).max())
    order = math.log2(errs[0] / errs[1])
    assert 1.8 <= order <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


def test_grid_mismatch_rejected(div_op):
    with pytest.raises(ValueError):
        apply_div_operator(np.ones(100, complex), div_op)


def test_identity_constant_profile(basis64, div_op):
    res = verify_div_identity(lambda a: np.ones_like(a), basis64, div_op)
    assert res < 1e-11


def test_identity_he2_eigenrelation(basis64, div_op):
    # both sides equal -2 He_2 e^{-a^2/2}; the residual is discretization only
    res = verify_div_identity(lambda a: a**2 - 1.0, basis64, div_op)
    lhs = apply_div_operator(div_op.nodes**2 - 1.0 + 0j, div_op).real
    target = -2.0 * (div_op.nodes**2 - 1.0) * np.exp(-0.5 * div_op.nodes**2)
    assert res <= np.abs(lhs - target).max() + 1e-12
    assert res < 1e-2


def test_identity_refinement_order():
    basis = build_basis(128)
    residuals = []
    for n in (257, 513, 1025):
        op = build_div_operator(n, 12.0)
        residuals.append(
            verify_div_identity(lambda a: np.sin(a) * np.exp(-(a**2) / 8.0), basis, op)
        )
    assert math.log2(residuals[0] / residuals[1]) >= 1.8
    assert math.log2(residuals[1] / residuals[2]) >= 1.8


def test_ou_nondiv_eigen_action(basis64):
    phi0 = basis64.eigenfunctions[0].astype(complex)
    out = apply_ou_nondiv(phi0, basis64)
    assert np.abs(out * np.exp(-basis64.nodes**2 / 4)).max() < 1e-10

    phi3 = basis64.eigenfunctions[3].astype(complex)
    out = apply_ou_nondiv(phi3, basis64)
    werr = np.abs(out + 3.0 * phi3) * np.exp(-basis64.nodes**2 / 4)
    assert werr.max() < 1e-10

    mix = basis64.eigenfunctions[1] + basis64.eigenfunctions[2] + 0j
    out = apply_ou_nondiv(mix, basis64)
    expect = -basis64.eigenfunctions[1] - 2.0 * basis64.eigenfunctions[2]
    werr = np.abs(out - expect) * np.exp(-basis64.nodes**2 / 4)
    assert werr.max() < 1e-10


def test_nondiv_generator_weighted_self_adjoint(nondiv_mach):
    # <L u, v>_w = <u, L v>_w with L = Laplacian_x + drift form
    from ounls.grids import laplacian_symbol, x_fft, x_ifft

    mach = nondiv_mach
    rng = np.random.default_rng(12)

    def apply_gen(u):
        lap = x_ifft(laplacian_symbol(mach.grid)[..., None] * x_fft(u, mach.grid), mach.grid)
        return lap + apply_ou_nondiv(u, mach.axis.basis)

    def wdot(a, b):
        return complex(mach.grid.cell_volume * np.sum((np.conj(a) * b) @ mach.axis.basis.weights))

    def smooth_field():
        hat = np.zeros((128, 16), complex)
        hat[:8] = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        hat[-8:] = rng.standard_normal((8, 16)) + 1j * rng.standard_normal((8, 16))
        return x_ifft(hat, mach.grid) @ mach.axis.basis.eigenfunctions[:16]

    for _ in range(5):
        u, v = smooth_field(), smooth_field()
        lhs = wdot(v, apply_gen(u))
        rhs = wdot(apply_gen(v), u)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_nonlinearity_phase_only(div_mach):
    rng = np.random.default_rng(13)
    u = rng.standard_normal((128, 257)) + 1j * rng.standard_normal((128, 257))
    out = apply_nonlinearity(u, div_mach, 0.37)
    np.testing.assert_allclose(np.abs(out), np.abs(u), rtol=1e-13)
    assert np.array_equal(apply_nonlinearity(u, div_mach, 0.0), u)


def test_nonlinearity_closed_form_phase():
    spec = ModelSpec("div", 1, 2, +1)
    mach = build_machinery(spec, DiscretizationSpec(n_x=64, div_nodes=129))
    u = np.ones((64, 129), complex)
    out = apply_nonlinearity(u, mach, 0.1)
    np.testing.assert_allclose(out, np.exp(-0.1j) * u, rtol=1e-14)


def test_div_gain_is_the_unweighted_power(div_mach):
    # the div axis carries no gain weight, so the gain is |u|^p exactly
    rng = np.random.default_rng(16)
    u = rng.standard_normal((128, 257)) + 1j * rng.standard_normal((128, 257))
    assert div_mach.axis.gain_weight is None
    assert np.array_equal(nonlinear_gain(squared_modulus(u), div_mach),
                          (u.real**2 + u.imag**2) ** 2)


@pytest.mark.parametrize("sign", [+1, -1])
def test_nonlinearity_matches_complex_exponential(sign):
    # the phase is written as cos + i sin; it must agree with
    # u exp(-i sign g |u|^p dt) to a few ulp and keep the modulus
    mach = build_machinery(ModelSpec("nondiv", 1, 4, sign), DiscretizationSpec(n_x=128))
    rng = np.random.default_rng(15)
    u = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
    out = apply_nonlinearity(u, mach, 0.37)
    gain = nonlinear_gain(squared_modulus(u), mach)
    np.testing.assert_allclose(out, u * np.exp(-1j * sign * 0.37 * gain), rtol=1e-15, atol=0)
    np.testing.assert_allclose(np.abs(out), np.abs(u), rtol=1e-15)


def test_nonlinearity_rejects_nonfinite(div_mach):
    u = np.ones((128, 257), complex)
    u[0, 0] = np.nan
    with pytest.raises(NonFiniteFieldError):
        apply_nonlinearity(u, div_mach, 0.1)


def test_nonlinearity_focusing_sign():
    spec = ModelSpec("div", 1, 2, -1)
    mach = build_machinery(spec, DiscretizationSpec(n_x=64, div_nodes=129))
    u = np.ones((64, 129), complex)
    out = apply_nonlinearity(u, mach, 0.1)
    np.testing.assert_allclose(out, np.exp(+0.1j) * u, rtol=1e-14)


def full_trig_phase(u, mach, dt):
    """The nonlinear substep with cos and sin evaluated on every node."""
    theta = nonlinear_gain(squared_modulus(u), mach)
    theta *= -mach.spec.sign * dt
    out = np.empty(u.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= u
    return out


def field_with_angles(mach, angles, dt, seed):
    """A field with random phases whose nonlinear angle at each node is
    ``angles`` (one per node, up to rounding) for a step of ``dt``."""
    shape = mach.grid.shape + (mach.axis.nodes.size,)
    rng = np.random.default_rng(seed)
    unit = np.exp(2j * np.pi * rng.random(shape))
    unit_gain = nonlinear_gain(squared_modulus(unit), mach)
    scale = (np.reshape(angles, shape) / (dt * unit_gain)) ** (1.0 / mach.spec.power)
    return scale * unit


@pytest.mark.parametrize("sign", [+1, -1])
@pytest.mark.parametrize("model", ["nondiv", "div"])
def test_masked_phase_is_bitwise_the_full_trig_phase(model, sign):
    # angles from 1e-20 to 10 straddle PHASE_TINY, with 2^-26 and 2^-25.5,
    # where cos no longer rounds to 1.0, among them
    mach = build_machinery(ModelSpec(model, 1, 4, sign),
                           DiscretizationSpec(n_x=64, n_alpha=64, div_nodes=65))
    dt = 0.37
    marks = [2.0**-26, 2.0**-25.5, PHASE_TINY, np.nextafter(PHASE_TINY, 0.0),
             1.5 * PHASE_TINY]
    size = mach.grid.shape[0] * mach.axis.nodes.size
    angles = np.concatenate([np.logspace(-20, 1, size - len(marks)), marks])
    u = field_with_angles(mach, np.random.default_rng(24).permutation(angles), dt, 25)
    theta = np.abs(nonlinear_gain(squared_modulus(u), mach) * dt)
    live = theta >= PHASE_TINY
    assert 0 < np.count_nonzero(live) < theta.size
    # the data reach the angles where the trig differs from (1, theta)
    assert np.any(np.cos(theta[theta < 2.0**-25]) != 1.0)
    got = apply_nonlinearity(u, mach, dt)
    assert np.array_equal(got.view(np.uint64), full_trig_phase(u, mach, dt).view(np.uint64))


def test_phase_below_tiny_is_one_and_theta_on_this_host():
    # the float64 identities the masked phase rests on: below PHASE_TINY,
    # including +-0 and subnormals, cos is exactly 1.0 and sin exactly theta
    below = np.concatenate([
        [0.0, 5e-324, 2.0**-1060, np.nextafter(2.0**-1022, 0.0),
         np.nextafter(PHASE_TINY, 0.0)],
        np.logspace(-320, math.log10(PHASE_TINY), 100_000, endpoint=False),
    ])
    theta = np.concatenate([below, -below])
    assert np.all(np.abs(theta) < PHASE_TINY)
    assert np.all(np.cos(theta) == 1.0)
    assert np.array_equal(np.sin(theta).view(np.uint64), theta.view(np.uint64))
    # so a substep whose angles all lie below it is the rotation by (1, theta)
    mach = build_machinery(ModelSpec("div", 1, 2),
                           DiscretizationSpec(n_x=64, div_nodes=65))
    angles = np.logspace(-20, math.log10(PHASE_TINY / 2), 64 * 65)
    u = field_with_angles(mach, angles, 0.1, 26)
    gain = nonlinear_gain(squared_modulus(u), mach)
    phase = np.empty(u.shape, dtype=np.complex128)
    phase.real = 1.0
    phase.imag = -0.1 * gain
    phase *= u
    assert np.array_equal(apply_nonlinearity(u, mach, 0.1).view(np.uint64),
                          phase.view(np.uint64))


def test_propagator_identity_at_zero(nondiv_mach):
    rng = np.random.default_rng(14)
    u = rng.standard_normal((128, 64)) + 1j * rng.standard_normal((128, 64))
    out = nondiv_mach.propagator(0.0).apply(u)
    werr = math.sqrt(mass(out - u, nondiv_mach))
    assert werr < 1e-12 * math.sqrt(mass(u, nondiv_mach))


def test_propagator_plane_wave_multiplier(nondiv_mach):
    mach = nondiv_mach
    k = mach.grid.wavenumbers[3]
    phi5 = mach.axis.basis.eigenfunctions[5]
    f = (np.exp(1j * k * mach.grid.axis)[:, None] * phi5).astype(complex)
    got = mach.propagator(0.7).apply(f)
    expect = np.exp(0.7j * (-(k**2) - 5.0)) * f
    rel = math.sqrt(mass(got - expect, mach) / mass(f, mach))
    assert rel < 1e-11


@pytest.mark.parametrize("model", ["nondiv", "div"])
def test_propagator_unitary_and_composition(model, nondiv_mach, div_mach):
    mach = nondiv_mach if model == "nondiv" else div_mach
    rng = np.random.default_rng(15)
    shape = (128, mach.axis.nodes.size)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m0 = mass(u, mach)
    v = mach.propagator(0.7).apply(u)
    assert abs(mass(v, mach) - m0) < 1e-11 * m0
    w1 = mach.propagator(0.2).apply(mach.propagator(0.5).apply(u))
    w2 = mach.propagator(0.7).apply(u)
    assert math.sqrt(mass(w1 - w2, mach)) < 1e-10 * math.sqrt(m0)
    back = mach.propagator(-0.7).apply(v)
    assert math.sqrt(mass(back - u, mach)) < 1e-10 * math.sqrt(m0)


@pytest.mark.parametrize("t", [0.3, -0.3])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("model", ["nondiv", "div"])
def test_kept_row_advance_matches_full_grid_apply(model, dim, t):
    # advance, on the kept rows with the x phase gathered at the build, is
    # the full-grid apply on the synthesized 2/3 projection
    n_x, nodes = (128, 257) if dim == 1 else (32, 65)
    mach = build_machinery(ModelSpec(model, dim, 2),
                           DiscretizationSpec(n_x=n_x, n_alpha=32, div_nodes=nodes))
    u = random_spectrum(mach.grid.shape + (mach.axis.nodes.size,), 20)
    spectrum = mach.forward(u)
    prop = mach.propagator(t)
    got = mach.synthesize(prop.advance(spectrum))
    expect = prop.apply(mach.synthesize(spectrum))
    assert math.sqrt(mass(got - expect, mach)) <= 1e-13 * math.sqrt(mass(expect, mach))


@pytest.mark.parametrize("t", [0.3, -0.3])
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
def test_kept_phase_is_the_full_grid_phase_at_the_kept_rows(dim, t):
    # the build forms the phase from |k|^2 at the kept rows alone; it is
    # bitwise the full-grid phase that apply forms, gathered at those rows
    n_x = 128 if dim == 1 else 32
    mach = build_machinery(ModelSpec("nondiv", dim, 2), DiscretizationSpec(n_x=n_x, n_alpha=8))
    full = np.exp(1j * t * laplacian_symbol(mach.grid)).reshape(-1)
    assert np.array_equal(mach.propagator(t).kept_phase, full[mach.kept])


def test_propagator_rejects_nonfinite_time(nondiv_mach):
    with pytest.raises(ValueError):
        build_linear_propagator(nondiv_mach, math.inf)


def test_div_generator_plain_self_adjoint(div_mach):
    from ounls.grids import laplacian_symbol, x_fft, x_ifft

    mach = div_mach
    rng = np.random.default_rng(16)

    def apply_gen(u):
        lap = x_ifft(laplacian_symbol(mach.grid)[..., None] * x_fft(u, mach.grid), mach.grid)
        return lap + apply_div_operator(u, mach.axis)

    for _ in range(5):
        u = rng.standard_normal((128, 257)) + 1j * rng.standard_normal((128, 257))
        v = rng.standard_normal((128, 257)) + 1j * rng.standard_normal((128, 257))
        lhs = np.vdot(v, apply_gen(u))
        rhs = np.vdot(apply_gen(v), u)
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


# ------------------------------------------------- banded div-form flow


def dense_flow(axis, t):
    """G(t) = Q exp(it Lambda) Q^T, the dense product the band replaces."""
    q = axis.eigenvectors
    return (q * np.exp(1j * t * axis.eigenvalues)) @ q.T


@pytest.fixture(scope="module")
def flux_axes():
    return {n: build_div_operator(n, 12.0) for n in (65, 257, 513)}


def random_spectrum(shape, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


# at 513 nodes and t = 5e-3 the computed dense G holds roundoff (up to
# 2.3e-15 of its largest) beyond the reach of 25
@pytest.mark.parametrize(
    "t,n",
    [(t, n) for t in (5e-4, 1e-3, 2e-3, 5e-2, -1e-3, -3.0) for n in (257, 513, 65)]
    + [(5e-3, 513)],
)
@pytest.mark.parametrize("x_shape", [(64,), (16, 16)], ids=["1d", "2d"])
def test_banded_flow_matches_dense(flux_axes, n, t, x_shape):
    axis = flux_axes[n]
    flow = axis.flow(t)
    assert axis.bands[t] == reach_of(axis, t)
    spectrum = random_spectrum((n,) + x_shape, 17)
    x_mult = np.exp(1j * random_spectrum(x_shape, 18).real)
    got = axis.advance(spectrum, x_mult, flow)
    expect = np.tensordot(dense_flow(axis, t), spectrum * x_mult, axes=1)
    assert got.shape == expect.shape
    assert np.linalg.norm(got - expect) <= 1e-14 * np.linalg.norm(expect)


# the 513-node cases keep their time-only ids
@pytest.mark.parametrize(
    "t,n",
    [pytest.param(t, n, id=f"{t}" if n == 513 else f"{t}-{n}")
     for n in (513, 65) for t in (5e-4, 2e-3, 5e-3, 5e-2, -3.0)],
)
def test_banded_flow_unitary(flux_axes, t, n):
    g = flux_axes[n].flow(t).apply(np.eye(n, dtype=complex))
    assert np.abs(g.conj().T @ g - np.eye(n)).max() <= 1e-13


def reach_of(axis, t):
    lam = axis.eigenvalues
    return flow_reach(abs(t) * (lam.max() - lam.min()), axis.n_nodes)


@pytest.mark.parametrize("n", [65, 257, 513])
@pytest.mark.parametrize("t", [2.5e-4, 1e-3, 5e-2, -3.0])
def test_recorded_band_is_the_numerical_band(n, t):
    # the band is the a-priori reach of the eigenvalue spread, read from no
    # computed entry, on every grid; the report note names it
    axis = build_div_operator(n, 12.0)
    axis.flow(t)
    band = axis.bands[t]
    assert band == reach_of(axis, t)
    assert f"{band} at t {t:.6g}" in axis.flow_note()


@pytest.mark.parametrize("n", [65, 257, 513])
@pytest.mark.parametrize("t", [2.5e-4, 1e-3, 5e-2, -3.0])
def test_entries_beyond_the_reach_are_below_the_tolerance(n, t):
    op = build_div_operator(n, 12.0)
    reach = reach_of(op, t)
    g = np.abs(dense_flow(op, t))
    i, j = np.indices(g.shape)
    assert np.all(g[np.abs(i - j) > reach] < BAND_TOL * g.max())
    if t == -3.0:
        # x = 3 max|lambda| is far above n: the reach covers the matrix
        assert reach >= n


def taylor_tail(x, d):
    """2 sum_{k>d} (x/4)^k / k!, summed directly (small x only)."""
    return 2 * math.fsum((x / 4) ** k / math.factorial(k) for k in range(d + 1, d + 120))


@pytest.mark.parametrize("t,reach", [(5e-4, 12), (1e-3, 14), (2e-3, 18), (-1e-3, 14)])
def test_reach_is_the_first_tail_below_the_tolerance(div_op, t, reach):
    x = abs(t) * (div_op.eigenvalues.max() - div_op.eigenvalues.min())
    tol = BAND_TOL / math.sqrt(div_op.n_nodes)
    assert reach_of(div_op, t) == reach
    assert taylor_tail(x, reach) < tol <= taylor_tail(x, reach - 1)


def test_reach_edges():
    assert flow_reach(0.0, 513) == 0
    # a tail from d < x/4 exceeds 1, so x/4 >= n leaves no reach inside the
    # matrix
    assert flow_reach(4 * 513.0, 513) == 513
    # (x/4)^k / k! near k = 750 overflows a float; its log does not
    assert 2 * 750 < flow_reach(4 * 750.0, 4097) < 4097


@pytest.mark.parametrize("n", [65, 513])
@pytest.mark.parametrize("x_shape", [(85,), (16, 16)], ids=["1d", "2d"])
def test_flux_grad_density_matches_diff_form(flux_axes, n, x_shape):
    # the float64-view form against sum_f mu_f |diff_a u|^2 / h^2 taken
    # with np.diff on the complex spectrum, alpha along axis 0
    axis = flux_axes[n]
    spectrum = random_spectrum((n,) + x_shape, 20)
    diff = np.diff(spectrum, axis=0)
    expect = np.tensordot(axis.face_weights, diff.real**2 + diff.imag**2,
                          axes=1) / axis.spacing**2
    got = axis.grad_density(spectrum, None)
    assert got.shape == x_shape
    assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max()
    # a strided view reads the same values
    wide = random_spectrum((2 * n,) + x_shape, 21)
    wide[::2] = spectrum
    assert np.array_equal(axis.grad_density(wide[::2], None), got)
