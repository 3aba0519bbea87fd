"""Scenario runners at desk scale: closed-form oracles, invariances,
determinism and the cross-checks between detector and virial fit."""

import math

import numpy as np
import pytest

from ounls.config import ConfigError, InitialData, ScenarioConfig
from ounls.experiments import (
    band_coeffs_to_field,
    counterexample_ratio,
    embedding_ratios,
    gaussian_field,
    random_band_coeffs,
    run_conservation,
    run_strichartz_ensemble,
    _ladder_ratios,
)
from ounls.grids import BoxGrid
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.observables import mass, virial, virial_dt, virial_rhs
from ounls.operators import build_axis, build_machinery
from ounls.state import Field
from ounls.stepping import StepControl, integrate
from ounls.reporting import rows_csv_bytes


def small_cfg(**kw):
    defaults = dict(
        scenario="strichartz",
        model=ModelSpec("nondiv", 1, 4),
        disc=DiscretizationSpec(n_x=64),
        horizon=1.0,
        ensemble=4,
        initial=InitialData(band=4),
        seed=77,
    )
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_admissibility_gate():
    with pytest.raises(ConfigError):
        run_strichartz_ensemble(small_cfg(), [(6.0, 4.0)])
    with pytest.raises(ConfigError):
        run_strichartz_ensemble(
            small_cfg(model=ModelSpec("nondiv", 2, 2)), [(2.0, math.inf)]
        )


def test_single_mode_closed_form_ratio():
    # f = e^{ikx} phi_0 has t-independent alpha-L2 modulus per x point, so
    # R = T^{1/q} (2L)^{1/r - 1/2} exactly
    spec = ModelSpec("nondiv", 1, 4)
    disc = DiscretizationSpec(n_x=64)
    measure, factors = build_axis(spec, disc).mode_factors(2)
    grid = BoxGrid(1, disc.resolved_box(1), 64)
    draw = np.zeros((5, 3), complex)
    draw[3, 0] = 1.0  # one x mode, alpha mode 0
    out = _ladder_ratios(draw, measure, factors, grid, 4.0, [(6.0, 6.0), (8.0, 4.0)])
    length = 2.0 * grid.half_length
    for (variant, (q, r)), value in out.items():
        expected = 4.0 ** (1.0 / q) * length ** (1.0 / r - 0.5)
        assert abs(value - expected) < 1e-6 * expected, (variant, q, r)


def test_strichartz_rows_deterministic():
    cfg = small_cfg()
    a = run_strichartz_ensemble(cfg, [(6.0, 6.0)])
    b = run_strichartz_ensemble(cfg, [(6.0, 6.0)])
    assert rows_csv_bytes(a.rows) == rows_csv_bytes(b.rows)
    assert a.passed


def test_ensemble_max_monotone_in_size():
    small = run_strichartz_ensemble(small_cfg(ensemble=4), [(6.0, 6.0)])
    large = run_strichartz_ensemble(small_cfg(ensemble=8), [(6.0, 6.0)])
    key = ("k0", (6.0, 6.0), 64)
    assert large.stats[key]["max"] >= small.stats[key]["max"] - 1e-15


def test_embedding_scaling_invariance():
    rng = np.random.default_rng(31)
    coeffs = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    base = embedding_ratios(coeffs, 12, 64, 2)
    scaled = embedding_ratios(5.0 * coeffs, 12, 64, 2)
    np.testing.assert_allclose(base[0], scaled[0], rtol=1e-10)
    np.testing.assert_allclose(base[1], scaled[1], rtol=1e-10)


def test_embedding_phi0_finite():
    coeffs = np.zeros((1, 1), complex)
    coeffs[0, 0] = 1.0
    sob, nonlin = embedding_ratios(coeffs, 1, 64, 2)
    assert np.isfinite(sob[0]) and sob[0] > 0
    assert np.isfinite(nonlin[0]) and nonlin[0] > 0


def test_counterexample_growth_is_steep():
    values = [counterexample_ratio(2, radius) for radius in (6.0, 9.0, 12.0)]
    assert values[0] < values[1] < values[2]
    assert values[2] > 100.0 * values[1]


def test_conservation_small_run_reports():
    cfg = small_cfg(
        scenario="conservation",
        model=ModelSpec("nondiv", 1, 4),
        disc=DiscretizationSpec(n_x=64, box_half_length=4 * math.pi),
        horizon=0.05,
        dt=5e-3,
        n_samples=6,
        initial=InitialData(amplitude=1.0, x_width=1.2),
    )
    report = run_conservation(cfg)
    names = [c.name for c in report.checks]
    assert names == ["mass_drift", "energy_drift", "energy_drift_halving_ratio"]
    # smoke-scale grid; the production-scale drift bound lives in acceptance
    assert report.checks[0].value < 1e-8
    assert len(report.rows) == 12


def test_scenario_model_gates():
    from ounls.experiments import NumericCheckError, run_blowup, run_scattering

    with pytest.raises(NumericCheckError):
        run_conservation(small_cfg(model=ModelSpec("nondiv", 1, 4, -1)))
    with pytest.raises(NumericCheckError):
        run_scattering(small_cfg(model=ModelSpec("div", 1, 4)))
    with pytest.raises(NumericCheckError):
        run_blowup(small_cfg(model=ModelSpec("nondiv", 1, 4)))


def test_random_band_field_resolution_independent():
    spec = ModelSpec("nondiv", 1, 4)
    rng = np.random.default_rng(5)
    coeffs = random_band_coeffs(rng, 1, 4)
    m1 = build_machinery(spec, DiscretizationSpec(n_x=64))
    m2 = build_machinery(spec, DiscretizationSpec(n_x=128))
    f1 = band_coeffs_to_field(coeffs, m1, 4)
    f2 = band_coeffs_to_field(coeffs, m2, 4)
    # same continuum object: equal native mass and equal values on the
    # shared nodes (every second node of the finer grid)
    assert abs(mass(f1, spec, m1) - mass(f2, spec, m2)) < 1e-10 * mass(f1, spec, m1)
    np.testing.assert_allclose(f2[::2], f1, atol=1e-12)


def test_scattering_emits_u_plus():
    from ounls.experiments import run_scattering

    cfg = small_cfg(
        scenario="scattering",
        model=ModelSpec("nondiv", 1, 4),
        disc=DiscretizationSpec(n_x=64, box_half_length=4 * math.pi),
        horizon=1.0,
        dt=5e-3,
    )
    cfg.scattering_ladder = (0.25, 0.5, 1.0)
    report = run_scattering(cfg)
    u_plus = report.artifacts["u_plus"]
    assert u_plus.shape == (64, 64)
    assert np.all(np.isfinite(u_plus.view(np.float64)))
    assert len(report.rows) == 3


def test_linear_only_pullback_is_constant():
    # with the nonlinearity disabled the pullback w(t) never moves
    spec = ModelSpec("nondiv", 1, 4)
    mach = build_machinery(
        spec, DiscretizationSpec(n_x=64, box_half_length=4 * math.pi),
        include_nonlinearity=False,
    )
    data = gaussian_field(mach, InitialData(amplitude=0.05))
    pullbacks = []

    def record(fld, s, m):
        back = m.propagator(-fld.time).apply(fld.data) if fld.time else fld.data
        pullbacks.append(back)
        return fld.time

    integrate(Field(data.copy()), mach, 1.0, [0.0, 0.5, 1.0],
              StepControl(dt=2e-3), record_fn=record)
    for later in pullbacks[1:]:
        drift = math.sqrt(mass(later - pullbacks[0], spec, mach))
        assert drift < 1e-11


def test_reduced_scale_2d_conservation():
    # the two-Euclidean-direction model at reduced scale: short horizon,
    # mass conserved to the same structural accuracy
    cfg = small_cfg(
        scenario="conservation",
        model=ModelSpec("nondiv", 2, 2),
        disc=DiscretizationSpec(n_x=64, box_half_length=4 * math.pi),
        horizon=0.05,
        dt=5e-3,
        n_samples=6,
        initial=InitialData(x_width=1.2),
    )
    report = run_conservation(cfg)
    assert report.checks[0].value < 1e-8
    assert report.checks[1].value < 1e-5


def test_reduced_scale_2d_strichartz():
    cfg = small_cfg(
        model=ModelSpec("nondiv", 2, 2),
        disc=DiscretizationSpec(n_x=32, box_half_length=4 * math.pi),
        horizon=1.0,
        ensemble=4,
        initial=InitialData(band=3),
    )
    report = run_strichartz_ensemble(cfg, [(4.0, 4.0)])
    assert report.passed
    assert all(np.isfinite(row["ratio"]) for row in report.rows)


@pytest.mark.parametrize("sign", [+1, -1])
def test_virial_identity_centered_second_difference(sign):
    # [V(t+d) - 2V(t) + V(t-d)]/d^2 matches the identity right side within
    # max(1e-3 |rhs|, 5e-4) at d = 1e-2 on a smooth interval, both signs
    spec = ModelSpec("div", 1, 4, sign)
    disc = DiscretizationSpec(n_x=128, box_half_length=4 * math.pi, div_nodes=257)
    mach = build_machinery(spec, disc)
    data = 1.5 * gaussian_field(mach, InitialData())
    delta = 1e-2
    samples = np.arange(0.0, 0.04 + delta / 2, delta)
    rows = []

    def record(fld, s, m):
        rows.append((fld.time, virial(fld, s, m), virial_rhs(fld, s, m)))
        return rows[-1]

    integrate(Field(data), mach, 0.04, samples, StepControl(dt=1e-3), record_fn=record)
    v = np.array([r[1] for r in rows])
    rhs = np.array([r[2] for r in rows])
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / delta**2
    for value, target in zip(d2, rhs[1:-1]):
        assert abs(value - target) <= max(1e-3 * abs(target), 5e-4)


def test_strichartz_threads_match_serial():
    cfg1 = small_cfg(threads=1)
    cfg2 = small_cfg(threads=2)
    a = run_strichartz_ensemble(cfg1, [(6.0, 6.0)])
    b = run_strichartz_ensemble(cfg2, [(6.0, 6.0)])
    assert rows_csv_bytes(a.rows) == rows_csv_bytes(b.rows)


def test_virial_first_derivative_against_centered_difference():
    # V'(0) = 4 Im int x . grad_x u conj(u) checked against (V(d)-V(-d))/2d
    spec = ModelSpec("div", 1, 4, -1)
    disc = DiscretizationSpec(n_x=128, box_half_length=4 * math.pi, div_nodes=257)
    mach = build_machinery(spec, disc)
    base = 1.4 * gaussian_field(mach, InitialData())
    data = base * np.exp(0.3j * mach.grid.coordinates()[0])[..., None]
    delta = 1e-3

    def virial_at(t):
        _, state = integrate(Field(data.copy()), mach, abs(t), [abs(t)],
                             StepControl(dt=abs(t) / 4 if t else 1e-3))
        out = state.field.data
        if t < 0:
            _, state = integrate(Field(np.conj(data.copy())), mach, abs(t), [abs(t)],
                                 StepControl(dt=abs(t) / 4))
            out = np.conj(state.field.data)
        return virial(out, spec, mach)

    fd = (virial_at(delta) - virial_at(-delta)) / (2.0 * delta)
    analytic = virial_dt(data, spec, mach)
    assert abs(fd - analytic) < 1e-4 * max(1.0, abs(analytic))
