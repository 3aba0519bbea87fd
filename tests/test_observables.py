"""Functionals against independent oracles: closed-form Gaussian integrals,
dense-quadrature energies, direct double-sum interaction integrals."""

import math

import numpy as np
import pytest
from scipy.signal import correlate

from ounls import hermite, observables, operators
from ounls.grids import laplacian_symbol, x_fft
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.observables import (
    CSV_FIELDS,
    TAIL_MODES,
    Snapshot,
    UnsupportedModelError,
    boundary_mass_fraction,
    energy,
    energy_terms,
    h1_native,
    mass,
    morawetz_I,
    morawetz_dI_bound,
    morawetz_weighted_potential,
    sample_record,
    tail_mass_fraction,
    virial,
    virial_dt,
    virial_rhs,
)
from ounls.operators import build_machinery, nonlinear_gain
from ounls.stepping import StepControl, integrate

SQRT_PI = math.sqrt(math.pi)


def template(mach, amp=1.0, xw=1.0, aw=math.sqrt(2.0)):
    x = mach.grid.coordinates()
    env = np.exp(-sum(c**2 for c in x) / (2 * xw * xw))
    prof = np.exp(-mach.axis.nodes**2 / (2 * aw * aw))
    return (amp * env)[..., None] * prof + 0j


@pytest.fixture(scope="module")
def nondiv():
    return build_machinery(ModelSpec("nondiv", 1, 4), DiscretizationSpec(n_x=256))


@pytest.fixture(scope="module")
def div2():
    return build_machinery(
        ModelSpec("div", 1, 2), DiscretizationSpec(n_x=256, div_nodes=513)
    )


def test_mass_gaussian_oracle(nondiv):
    # integral of e^{-x^2} dx times e^{-a^2} da equals pi
    u = template(nondiv)
    assert abs(mass(u, nondiv) - math.pi) < 1e-8


def test_mass_zero_and_scaling(nondiv):
    assert mass(np.zeros((256, 64)), nondiv) == 0.0
    u = template(nondiv)
    m1 = mass(u, nondiv)
    m2 = mass((2.0 - 1.0j) * u, nondiv)
    assert abs(m2 - 5.0 * m1) < 1e-12 * m2


def test_energy_zero_field_and_x_independent(div2):
    assert energy(np.zeros((256, 513)), div2) == 0.0
    prof = np.exp(-div2.axis.nodes**2 / 4.0)
    u = np.ones(256)[:, None] * prof + 0j
    terms = energy_terms(u, div2)
    assert abs(terms["kinetic_x"]) < 1e-12


def test_div_energy_terms_against_dense_quadrature():
    # u = e^{-x^2/2} e^{-a^2/4}, d=1, p=2, defocusing; closed forms:
    #   kin_x = 1/2 int x^2 e^{-x^2} dx int e^{-a^2/2} da
    #   kin_a = 1/2 int e^{-x^2} dx int (a^2/4) e^{-a^2} da
    #   pot   = 1/4 int e^{-2x^2} dx int e^{-a^2} da
    spec = ModelSpec("div", 1, 2)
    mach = build_machinery(
        spec, DiscretizationSpec(n_x=256, div_nodes=8193)
    )
    u = template(mach)
    terms = energy_terms(u, mach)
    kin_x = 0.5 * (SQRT_PI / 2.0) * math.sqrt(2.0 * math.pi)
    kin_a = 0.5 * SQRT_PI * (SQRT_PI / 2.0) / 4.0
    pot = 0.25 * math.sqrt(math.pi / 2.0) * SQRT_PI
    assert abs(terms["kinetic_x"] - kin_x) < 1e-6
    assert abs(terms["kinetic_alpha"] - kin_a) < 1e-6
    assert abs(terms["potential"] - pot) < 1e-6


def test_div_alpha_kinetic_term_second_order():
    spec = ModelSpec("div", 1, 2)
    kin_a = 0.5 * SQRT_PI * (SQRT_PI / 2.0) / 4.0
    errs = []
    for nodes in (513, 1025, 2049):
        mach = build_machinery(
            spec, DiscretizationSpec(n_x=64, box_half_length=4 * math.pi, div_nodes=nodes)
        )
        terms = energy_terms(template(mach), mach)
        errs.append(abs(terms["kinetic_alpha"] - kin_a))
    assert 1.8 <= math.log2(errs[0] / errs[1]) <= 2.2
    assert 1.8 <= math.log2(errs[1] / errs[2]) <= 2.2


def test_nondiv_energy_terms_against_closed_forms(nondiv):
    # u = e^{-x^2/2} e^{-a^2/4}, p=4, defocusing, native weight e^{-a^2/2}:
    #   kin_x = 1/2 int x^2 e^{-x^2} int e^{-a^2}
    #   kin_a = 1/2 int e^{-x^2} int (a^2/4) e^{-3a^2/2}
    #   pot   = 1/6 int e^{-3x^2} int e^{-3a^2/2} w(a),  w = e^{-2a^2}
    u = template(nondiv)
    terms = energy_terms(u, nondiv)
    kin_x = 0.5 * (SQRT_PI / 2.0) * SQRT_PI
    kin_a = 0.5 * SQRT_PI * 0.25 * (SQRT_PI / 2.0)
    pot = (1.0 / 6.0) * math.sqrt(math.pi / 3.0) * (SQRT_PI / 2.0)
    assert abs(terms["kinetic_x"] - kin_x) < 1e-8
    assert abs(terms["kinetic_alpha"] - kin_a) < 1e-8
    assert abs(terms["potential"] - pot) < 1e-7


def test_focusing_sign_flips_potential(div2):
    u = template(div2)
    e_def = energy_terms(u, div2)["potential"]
    focusing = build_machinery(
        ModelSpec("div", 1, 2, -1), DiscretizationSpec(n_x=256, div_nodes=513)
    )
    e_foc = energy_terms(u, focusing)["potential"]
    assert abs(e_def + e_foc) < 1e-14 * abs(e_def)


def test_virial_gaussian_moment(div2):
    # V = int x^2 e^{-x^2} dx int e^{-a^2/2} da for the width-1 template
    u = template(div2)
    expected = (SQRT_PI / 2.0) * math.sqrt(2.0 * math.pi)
    assert abs(virial(u, div2) - expected) < 1e-6
    assert virial(np.zeros((256, 513)), div2) == 0.0


def test_virial_rejects_nondiv(nondiv):
    u = template(nondiv)
    with pytest.raises(UnsupportedModelError):
        virial(u, nondiv)
    with pytest.raises(UnsupportedModelError):
        virial_rhs(u, nondiv)
    with pytest.raises(UnsupportedModelError):
        virial_dt(u, nondiv)


def test_virial_rhs_mass_critical_coefficient():
    # at p = 4/d the |u|^{p+2} coefficient vanishes:
    # rhs = 16 E - 8 int e^{-a^2/2}|du/da|^2
    spec = ModelSpec("div", 1, 4, -1)
    mach = build_machinery(spec, DiscretizationSpec(n_x=128, div_nodes=513))
    u = 1.7 * template(mach)
    terms = energy_terms(u, mach)
    expected = 16.0 * sum(terms.values()) - 16.0 * terms["kinetic_alpha"]
    assert abs(virial_rhs(u, mach) - expected) < 1e-10 * abs(expected)


def test_virial_dt_of_real_data_is_zero(div2):
    # real initial data has zero momentum: V'(0) = 4 Im int x grad u conj(u)
    u = template(div2)
    assert abs(virial_dt(u, div2)) < 1e-12


def test_morawetz_zero_and_spike(div2):
    assert morawetz_I(np.zeros((256, 513)), div2, "abs") == 0.0
    spike = np.zeros((256, 513), complex)
    spike[17, 250] = 3.0
    m_total = mass(spike, div2)
    got = morawetz_I(spike, div2, "bracket")
    assert abs(got - m_total**2) < 1e-12 * m_total**2
    # diagonal cell contributes zero for rho = |x - y|
    assert abs(morawetz_I(spike, div2, "abs")) < 1e-12 * m_total**2


def test_morawetz_translation_invariance(div2):
    u = template(div2)
    shifted = np.roll(u, 31, axis=0)
    for rho in ("abs", "bracket"):
        a = morawetz_I(u, div2, rho)
        b = morawetz_I(shifted, div2, rho)
        assert abs(a - b) < 1e-10 * abs(a)


def test_morawetz_unknown_rho(div2):
    with pytest.raises(ValueError):
        morawetz_I(template(div2), div2, "cubic")


@pytest.mark.parametrize("dim", [1, 2])
def test_morawetz_against_direct_double_sum(dim):
    spec = ModelSpec("nondiv", dim, 2)
    disc = DiscretizationSpec(n_x=16, box_half_length=4.0, n_alpha=8)
    mach = build_machinery(spec, disc)
    rng = np.random.default_rng(21)
    shape = mach.grid.shape + (8,)
    u = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    m = Snapshot.of(u, mach).mass_density
    coords = np.stack(np.meshgrid(*([mach.grid.axis] * dim), indexing="ij"), -1)
    flat_m = m.ravel()
    flat_x = coords.reshape(-1, dim)
    diff = flat_x[:, None, :] - flat_x[None, :, :]
    radius = np.sqrt((diff**2).sum(-1))
    for rho, table in (("abs", radius), ("bracket", np.sqrt(1.0 + radius**2))):
        direct = mach.grid.cell_volume**2 * float(flat_m @ table @ flat_m)
        fast = morawetz_I(u, mach, rho)
        assert abs(fast - direct) < 1e-10 * abs(direct)


def test_morawetz_bound_value(div2):
    u = template(div2)
    terms = energy_terms(u, div2)
    expected = mass(u, div2) ** 1.5 * math.sqrt(2.0 * terms["kinetic_x"])
    assert abs(morawetz_dI_bound(u, div2) - expected) < 1e-12 * expected


def test_weighted_potential_against_direct_sum():
    spec = ModelSpec("nondiv", 1, 2)
    mach = build_machinery(spec, DiscretizationSpec(n_x=16, box_half_length=4.0, n_alpha=8))
    rng = np.random.default_rng(3)
    u = rng.standard_normal((16, 8)) + 1j * rng.standard_normal((16, 8))
    m = Snapshot.of(u, mach).mass_density
    amp2 = u.real**2 + u.imag**2
    gauss = np.exp(-0.5 * mach.axis.nodes**2)
    m_p = ((amp2 * gauss**2) * amp2) @ mach.axis.basis.weights
    x = mach.grid.axis
    direct = 0.0
    for i in range(16):
        for j in range(16):
            bracket = math.sqrt(1.0 + (x[i] - x[j]) ** 2)
            direct += m[i] * m_p[j] / bracket**3
    direct *= mach.grid.cell_volume**2
    fast = morawetz_weighted_potential(u, mach)
    assert abs(fast - direct) < 1e-12 * abs(direct)


def test_boundary_and_tail_monitors(nondiv):
    u = template(nondiv)
    assert boundary_mass_fraction(u, nondiv) < 1e-12
    assert tail_mass_fraction(u, nondiv) < 1e-8
    edge = np.zeros((256, 64), complex)
    edge[0, 30] = 1.0  # x = -L is in the outer 10% shell
    assert boundary_mass_fraction(edge, nondiv) == 1.0


def test_truncation_monitor_warns(nondiv):
    # content parked on the top alpha modes must trip the tail monitor; the
    # field is localised in x, so the boundary-shell monitor stays quiet
    envelope = np.exp(-0.5 * nondiv.grid.axis**2)
    profile = nondiv.axis.basis.eigenfunctions[62] + 1e3 * nondiv.axis.basis.eigenfunctions[0]
    coeffs_like = envelope[:, None] * profile + 0j
    with pytest.warns(RuntimeWarning, match="tail fraction") as caught:
        sample_record(coeffs_like, 0.0, nondiv)
    assert not [w for w in caught if "boundary" in str(w.message)]


def test_h1_native_constant_alpha_profile(nondiv):
    # pure phi_0 content: h1^2 = mass (no gradients)
    u = np.ones((256, 64), complex) * nondiv.axis.basis.eigenfunctions[0]
    h1 = h1_native(u, nondiv)
    m = mass(u, nondiv)
    assert abs(h1**2 - m) < 1e-10 * m


def test_sample_record_fields(nondiv, div2):
    rec = sample_record(template(nondiv), 0.25, nondiv)
    assert rec.time == 0.25
    assert math.isnan(rec.virial) and math.isnan(rec.virial_rhs)
    assert CSV_FIELDS[0] == "time" and len(CSV_FIELDS) == 10
    rec2 = sample_record(template(div2), 0.0, div2)
    assert math.isfinite(rec2.virial) and math.isfinite(rec2.virial_rhs)


# ----------------------------------------- one snapshot per sample


def eigen_tail(u, mach):
    """Div-form tail written out on the full eigen-spectrum u @ Q."""
    power = np.abs(u @ mach.axis.op.eigenvectors) ** 2
    return float(power[..., :TAIL_MODES].sum() / power.sum())


def separate_record(u, mach):
    """Every record field from its own pass over the field: m(x), the
    x-FFT, the alpha transform and the potential density are recomputed by
    each functional that needs them, as they were before the snapshot."""
    spec, grid, axis, vol = mach.spec, mach.grid, mach.axis, mach.grid.cell_volume

    def m_of(u):
        return (u.real**2 + u.imag**2) @ axis.weights

    def kin_x(u):
        hat = x_fft(u, grid)
        dens = (-laplacian_symbol(grid)[..., None] * np.abs(hat) ** 2) @ axis.weights
        return vol * dens.sum()

    def kin_a(u):
        spectrum = axis.forward(u)
        power = spectrum.real**2 + spectrum.imag**2
        return vol * axis.measure * axis.grad_density(spectrum, power).sum()

    def pot(u):
        return vol * ((nonlinear_gain(u, mach) * np.abs(u) ** 2) @ axis.weights).sum()

    def interaction(u, rho):
        m = m_of(u)
        corr = correlate(m, m, mode="full", method="direct")
        lags = [(np.arange(c) - (c - 1) // 2) * grid.spacing for c in corr.shape]
        radius = np.sqrt(sum(l**2 for l in np.meshgrid(*lags, indexing="ij")))
        table = radius if rho == "abs" else np.sqrt(1.0 + radius**2)
        return vol**2 * float(np.sum(table * corr))

    def energy_of(u):
        p = spec.power
        return 0.5 * kin_x(u) + 0.5 * kin_a(u) + spec.sign / (p + 2) * pot(u)

    p, d = spec.power, spec.dim
    mass_ = vol * m_of(u).sum()
    outer = np.zeros(grid.shape, dtype=bool)
    for c in grid.coordinates():
        outer |= np.broadcast_to(np.abs(c) >= 0.9 * grid.half_length, grid.shape)
    if spec.model == "div":
        radius_sq = sum(c**2 for c in grid.coordinates())
        vir = vol * np.sum(radius_sq * m_of(u))
        coeff = (d * p - 4) / (4.0 * (p + 2))
        vir_rhs = 16.0 * (energy_of(u) - 0.5 * kin_a(u) + spec.sign * coeff * pot(u))
        tail = eigen_tail(u, mach)
    else:
        vir = vir_rhs = math.nan
        power = np.abs(hermite.forward_tensor(u, axis.basis)) ** 2
        tail = float(power[..., -TAIL_MODES:].sum() / power.sum())
    return {
        "mass": mass_,
        "energy": energy_of(u),
        "h1_native": math.sqrt(mass_ + kin_x(u) + kin_a(u)),
        "virial": vir,
        "virial_rhs": vir_rhs,
        "morawetz_I": interaction(u, "abs"),
        "morawetz_I_bracket": interaction(u, "bracket"),
        "morawetz_dI_bound": mass_**1.5 * math.sqrt(kin_x(u)),
        "tail_mass_fraction": tail,
        "boundary_mass_fraction": m_of(u)[outer].sum() / m_of(u).sum(),
    }


@pytest.mark.filterwarnings("ignore:alpha truncation tail:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("model,p,sign", [("nondiv", 4, 1), ("div", 2, 1), ("div", 4, -1)],
                         ids=["drift-p4", "div-p2", "div-focusing-p4"])
def test_sample_record_matches_separate_functionals(model, p, sign, dim):
    spec = ModelSpec(model, dim, p, sign)
    n_x, nodes = (128, 257) if dim == 1 else (32, 65)
    mach = build_machinery(spec, DiscretizationSpec(n_x=n_x, n_alpha=32, div_nodes=nodes))
    rng = np.random.default_rng(8)
    u = template(mach, amp=1.3, xw=2.0) * (1.0 + 0.2 * rng.standard_normal(
        mach.grid.shape + (mach.axis.nodes.size,)))
    u = u + 0.1j * np.roll(u.real, 3, axis=-1)
    rec = sample_record(u, 0.3, mach)
    expected = separate_record(u, mach)
    bracket = expected.pop("morawetz_I_bracket")
    assert rec.time == 0.3
    for name, want in expected.items():
        got = getattr(rec, name)
        if math.isnan(want):
            assert math.isnan(got), name
        else:
            assert abs(got - want) <= 1e-13 * abs(want), (name, got, want)
    snap = Snapshot.of(u, mach)
    assert abs(morawetz_I(snap, mach, "bracket") - bracket) <= 1e-13 * bracket
    # a functional reads the same value off a snapshot as off the field
    assert mass(u, mach) == rec.mass
    assert energy(u, mach) == rec.energy
    assert h1_native(u, mach) == rec.h1_native
    assert (morawetz_weighted_potential(snap, mach)
            == morawetz_weighted_potential(u, mach))


def test_div_tail_monitor_against_full_eigen_spectrum(div2):
    rng = np.random.default_rng(4)
    u = template(div2) * (1.0 + 0.5 * rng.standard_normal((256, 513)))
    got = tail_mass_fraction(u, div2)
    want = eigen_tail(u, div2)
    assert want > 1e-6  # nodal noise puts real mass on the oscillatory modes
    assert abs(got - want) <= 1e-13 * want
    assert tail_mass_fraction(np.zeros((256, 513)), div2) == 0.0


def test_div_truncation_monitor_warns_on_first_eigenvectors(div2):
    # the most oscillatory eigenvectors are the first columns of Q (the
    # eigenvalues ascend); content there must trip the tail monitor
    q = div2.axis.op.eigenvectors
    (x,) = div2.grid.coordinates()
    hot = np.exp(-x**2 / 2.0)[:, None] * (q[:, 0] + 1e3 * q[:, -1]) + 0j
    assert abs(tail_mass_fraction(hot, div2) - 1.0 / (1.0 + 1e6)) < 1e-12
    with pytest.warns(RuntimeWarning, match="tail fraction"):
        sample_record(hot, 0.0, div2)


@pytest.mark.parametrize("model_fixture", ["nondiv", "div2"])
def test_sample_record_transforms_the_field_once(model_fixture, request, monkeypatch):
    mach = request.getfixturevalue(model_fixture)
    calls = {"x_fft": 0, "forward": 0, "nonlinear_gain": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "x_fft", counted("x_fft", operators.x_fft))
    monkeypatch.setattr(observables, "nonlinear_gain",
                        counted("nonlinear_gain", observables.nonlinear_gain))
    monkeypatch.setattr(mach.axis, "forward", counted("forward", mach.axis.forward))
    sample_record(template(mach), 0.0, mach)
    assert calls == {"x_fft": 1, "forward": 1, "nonlinear_gain": 1}


@pytest.mark.parametrize("model_fixture", ["nondiv", "div2"])
def test_nodal_functionals_on_an_array_run_no_forward_transform(
    model_fixture, request, monkeypatch
):
    # a snapshot of a nodal array transforms it forward only when a
    # functional reads its spectrum; these read the nodal field alone
    mach = request.getfixturevalue(model_fixture)
    calls = {"x_fft": 0, "forward": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(operators, "x_fft", counted("x_fft", operators.x_fft))
    monkeypatch.setattr(mach.axis, "forward", counted("forward", mach.axis.forward))
    u = template(mach)
    functionals = [boundary_mass_fraction, morawetz_I, morawetz_weighted_potential]
    if mach.spec.model == "div":
        functionals.append(virial)
    for functional in functionals:
        assert math.isfinite(functional(u, mach))
    assert calls == {"x_fft": 0, "forward": 0}


@pytest.mark.parametrize("model_fixture", ["nondiv", "div2"])
def test_integrate_record_runs_no_forward_transform(model_fixture, request, monkeypatch):
    # the record reads the stepper's kept-row spectrum: its only transform
    # is the synthesis of the nodal field, one inverse x-FFT per column block
    mach = request.getfixturevalue(model_fixture)
    calls = {"x_fft": 0, "x_ifft": 0, "forward": 0, "forward_tensor": 0}
    recording = [False]

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += recording[0]
            return fn(*args, **kwargs)
        return wrapper

    for owner in (operators, observables):
        monkeypatch.setattr(owner, "x_fft", counted("x_fft", owner.x_fft))
    monkeypatch.setattr(operators, "x_ifft", counted("x_ifft", operators.x_ifft))
    monkeypatch.setattr(hermite, "forward_tensor",
                        counted("forward_tensor", hermite.forward_tensor))
    monkeypatch.setattr(mach.axis, "forward", counted("forward", mach.axis.forward))

    def record(snap, time, m):
        recording[0] = True
        try:
            return sample_record(snap, time, m)
        finally:
            recording[0] = False

    records, _ = integrate(template(mach), mach, [0.0, 2e-3], StepControl(dt=1e-3),
                           record_fn=record)
    assert len(records) == 2
    blocks = len(mach.column_blocks)
    assert calls == {"x_fft": 0, "x_ifft": 2 * blocks, "forward": 0, "forward_tensor": 0}


@pytest.mark.filterwarnings("ignore:alpha truncation tail:RuntimeWarning")
@pytest.mark.parametrize("dim", [1, 2], ids=["1d", "2d"])
@pytest.mark.parametrize("model", ["nondiv", "div"])
def test_kept_row_snapshot_matches_nodal_snapshot(model, dim):
    # a 2/3-projected field read over every x mode from its nodal values,
    # and read off its kept-row spectrum with the nodal field synthesized
    n_x, nodes = (128, 257) if dim == 1 else (32, 65)
    mach = build_machinery(ModelSpec(model, dim, 2, -1),
                           DiscretizationSpec(n_x=n_x, n_alpha=32, div_nodes=nodes))
    rng = np.random.default_rng(5)
    u = template(mach, amp=1.3, xw=2.0) * (1.0 + 0.2 * rng.standard_normal(
        mach.grid.shape + (mach.axis.nodes.size,)))
    u = mach.synthesize(mach.forward(u))
    nodal, spectral = Snapshot.of(u, mach), Snapshot(mach.forward(u), mach)
    assert nodal.spectrum.shape[0] == mach.dealias.size
    assert spectral.spectrum.shape[0] == mach.kept.size
    for fn in (mass, energy, h1_native, tail_mass_fraction):
        want, got = fn(nodal, mach), fn(spectral, mach)
        assert abs(got - want) <= 1e-13 * abs(want), (fn.__name__, got, want)
