"""Splitting integrator: per-step conservation, exactness against the
linear flow, reversibility, convergence order and the blow-up guard."""

import math

import numpy as np
import pytest

from ounls import operators, stepping
from ounls.grids import x_fft, x_ifft
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.observables import h1_native, mass, sample_record
from ounls.operators import apply_nonlinearity, build_machinery
from ounls.state import Field
from ounls.stepping import (
    BlowupThresholds,
    StepControl,
    StepperState,
    detect_blowup,
    integrate,
)

DISC = DiscretizationSpec(n_x=256, box_half_length=8 * math.pi)


def gaussian(mach, amp=1.0):
    x = mach.grid.coordinates()
    env = np.exp(-sum(c**2 for c in x) / 2.0)
    prof = np.exp(-mach.axis.nodes**2 / 4.0)
    return (amp * env)[..., None] * prof + 0j


@pytest.fixture(scope="module")
def nondiv():
    return build_machinery(ModelSpec("nondiv", 1, 4), DISC)


@pytest.fixture(scope="module")
def divm():
    return build_machinery(ModelSpec("div", 1, 2), DiscretizationSpec(
        n_x=128, box_half_length=8 * math.pi, div_nodes=257))


def no_record(fld, spec, mach):
    return None


def test_zero_field_stays_zero(nondiv):
    _, state = integrate(Field(np.zeros((256, 64), complex)), nondiv, 3e-2, [3e-2],
                         StepControl(dt=1e-2), record_fn=no_record)
    assert state.step_count == 3
    assert np.all(state.field.data == 0)
    assert state.field.time == pytest.approx(3e-2)


def test_linear_only_matches_exact_propagator(nondiv):
    mach_lin = build_machinery(nondiv.spec, DISC, include_nonlinearity=False)
    u0 = gaussian(mach_lin)
    _, state = integrate(Field(u0.copy()), mach_lin, 0.05, [0.05], StepControl(dt=0.05),
                         record_fn=no_record)
    assert state.step_count == 1
    exact = mach_lin.propagator(0.05).apply(u0)
    err = math.sqrt(mass(state.field.data - exact, mach_lin.spec, mach_lin))
    assert err < 1e-11 * math.sqrt(mass(u0, mach_lin.spec, mach_lin))


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_per_step_mass_conservation(model_fixture, request):
    mach = request.getfixturevalue(model_fixture)
    u0 = gaussian(mach)
    m0 = mass(u0, mach.spec, mach)
    _, state = integrate(Field(u0), mach, 1e-3, [1e-3], StepControl(dt=1e-3),
                         record_fn=no_record)
    assert state.step_count == 1
    assert abs(mass(state.field.data, mach.spec, mach) - m0) < 1e-11 * m0


def strang(data, mach, dt):
    """One unfused Strang evaluation: half linear step, nonlinear phase, and
    a trailing half step that carries the dealias mask."""
    half = mach.propagator(0.5 * dt)
    return half.apply(apply_nonlinearity(half.apply(data), mach.spec, mach, dt), mach.dealias)


def test_time_reversibility(nondiv):
    u0 = gaussian(nondiv)
    back = strang(strang(u0.copy(), nondiv, 1e-2), nondiv, -1e-2)
    err = math.sqrt(mass(back - u0, nondiv.spec, nondiv))
    assert err < 1e-9


def test_second_order_self_convergence(nondiv):
    u0 = Field(gaussian(nondiv))

    def final(dt):
        _, state = integrate(u0.copy(), nondiv, 0.25, [0.25], StepControl(dt=dt))
        return state.field.data

    ref = final(6.25e-5)
    e1 = math.sqrt(mass(final(1e-3) - ref, nondiv.spec, nondiv))
    e2 = math.sqrt(mass(final(5e-4) - ref, nondiv.spec, nondiv))
    order = math.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_second_order_self_convergence_div(divm):
    small = build_machinery(ModelSpec("div", 1, 2), DiscretizationSpec(
        n_x=64, box_half_length=4 * math.pi, div_nodes=257))
    u0 = Field(gaussian(small))

    def final(dt):
        _, state = integrate(u0.copy(), small, 0.1, [0.1], StepControl(dt=dt))
        return state.field.data

    ref = final(2.5e-4)
    e1 = math.sqrt(mass(final(2e-3) - ref, small.spec, small))
    e2 = math.sqrt(mass(final(1e-3) - ref, small.spec, small))
    assert 1.8 <= math.log2(e1 / e2) <= 2.2


def test_integrate_validates_schedule(nondiv):
    u0 = Field(gaussian(nondiv))
    with pytest.raises(ValueError):
        integrate(u0, nondiv, -1.0, [0.0])
    with pytest.raises(ValueError):
        integrate(u0, nondiv, 1.0, [])
    with pytest.raises(ValueError):
        integrate(u0, nondiv, 1.0, [0.5, 0.2])
    with pytest.raises(ValueError):
        integrate(u0, nondiv, 1.0, [0.0, 2.0])


def test_integrate_linear_only_mass_identical(nondiv):
    mach_lin = build_machinery(nondiv.spec, DISC, include_nonlinearity=False)
    records, state = integrate(
        Field(gaussian(mach_lin)), mach_lin, 1.0, [0.0, 1.0], StepControl(dt=5e-3)
    )
    assert len(records) == 2
    assert abs(records[1].mass - records[0].mass) < 1e-11 * records[0].mass
    assert state.step_count == 200


def test_detect_blowup_flags_nan(nondiv):
    data = gaussian(nondiv)
    data[3, 3] = np.nan
    state = StepperState(field=Field(data, 0.7), dt=1e-3)
    state = detect_blowup(state, nondiv, BlowupThresholds())
    assert state.blowup_flag
    assert state.blowup_time_estimate == 0.7


# the compact 8*pi box lets fast dispersive content reach the monitored
# shell at the ~1e-8 level by t=2; that warning is the monitor working
@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
def test_moderate_defocusing_run_never_flags(nondiv):
    records, state = integrate(
        Field(gaussian(nondiv)), nondiv, 2.0, np.linspace(0.0, 2.0, 21),
        StepControl(dt=5e-3),
    )
    assert not state.blowup_flag
    assert len(records) == 21
    # virial columns are nan by contract for the drift-form model
    for r in records:
        assert math.isfinite(r.mass) and math.isfinite(r.energy) and math.isfinite(r.h1_native)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_blowup_truncates_schedule(nondiv):
    # a NaN injected mid-run must truncate the schedule, not raise
    data = gaussian(nondiv)
    records, state = integrate(
        Field(data), nondiv, 1.0, [0.0, 0.5, 1.0], StepControl(dt=1e-2),
        record_fn=lambda f, s, m: sample_record(f, s, m),
    )
    assert len(records) == 3

    poisoned = gaussian(nondiv)
    poisoned[0, 0] = np.inf
    records, state = integrate(
        Field(poisoned), nondiv, 1.0, [0.0, 0.5, 1.0], StepControl(dt=1e-2)
    )
    assert state.blowup_flag
    assert len(records) < 3


# ------------------------------------------------ fused fixed-step kernel


def reference_strang_step(data, mach, dt):
    """The unfused step: half linear, nonlinear phase, a separate 2/3
    dealias pass, half linear."""
    half = mach.propagator(0.5 * dt)
    out = apply_nonlinearity(half.apply(data), mach.spec, mach, dt)
    hat = x_fft(out, mach.grid)
    hat *= mach.dealias[..., None]
    return half.apply(x_ifft(hat, mach.grid))


def native_rel(a, b, mach):
    return math.sqrt(mass(a - b, mach.spec, mach) / mass(b, mach.spec, mach))


# the narrow pulse sheds fast content into the monitored boundary shell
@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_fused_fixed_path_matches_unfused_steps(model_fixture, request):
    mach = request.getfixturevalue(model_fixture)
    assert mach.dealias is not None
    # a narrow pulse puts spectral mass past the 2/3 cutoff, so a step
    # that skipped the mask would not pass for one that applies it
    (x,) = mach.grid.coordinates()
    u0 = np.exp(-(x**2) / (2 * 0.3**2))[:, None] * np.exp(-mach.axis.nodes**2 / 4.0) + 0j
    dt, samples = 1e-3, np.linspace(0.0, 0.05, 6)
    records, state = integrate(Field(u0.copy()), mach, 0.05, samples, StepControl(dt=dt))

    hat = x_fft(u0, mach.grid)
    hat *= mach.dealias[..., None]
    data = x_ifft(hat, mach.grid)
    expected = [sample_record(Field(data, 0.0), mach.spec, mach)]
    for _ in range(5):
        for _ in range(10):
            data = reference_strang_step(data, mach, dt)
        expected.append(sample_record(Field(data), mach.spec, mach))

    assert state.step_count == 50 and not state.blowup_flag
    assert native_rel(state.field.data, data, mach) <= 1e-8
    for got, ref in zip(records, expected, strict=True):
        for name in ("mass", "energy", "h1_native"):
            a, b = getattr(got, name), getattr(ref, name)
            assert abs(a - b) <= 1e-10 * abs(b)


def h1_written_out(u, mach):
    """Native H^1 from the definitions, independent of the axis classes:
    drift form vol * sum (1 + |k|^2 + n)|c_kn|^2 over the Hermite modes n;
    div form vol * h * [sum (1 + |k|^2)|u_k|^2 + sum_f mu_f |diff u|^2 / h^2]
    with face weights mu_f = exp(-f^2/2)."""
    hat = x_fft(u, mach.grid)
    k2 = mach.grid.wavenumbers[:, None] ** 2
    vol = mach.grid.cell_volume
    if mach.spec.model == "nondiv":
        basis = mach.axis.basis
        coeffs = hat @ (basis.eigenfunctions * basis.weights).T
        n = np.arange(basis.n_modes)
        return math.sqrt(vol * np.sum((1.0 + k2 + n) * np.abs(coeffs) ** 2))
    a = mach.axis.nodes
    h = a[1] - a[0]
    faces = 0.5 * (a[1:] + a[:-1])
    grad = np.sum(np.exp(-(faces**2) / 2) * np.abs(np.diff(u, axis=-1)) ** 2) / h**2
    return math.sqrt(vol * h * (np.sum((1.0 + k2) * np.abs(hat) ** 2) + grad))


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_spectral_h1_equals_h1_of_end_of_step_field(model_fixture, request):
    # the masked full substep holds the spectrum of the nonlinear output;
    # the norm read off it is the H^1 of the field one half step later
    mach = request.getfixturevalue(model_fixture)
    dt = 1e-3
    phased = apply_nonlinearity(
        mach.propagator(0.5 * dt).apply(2.0 * gaussian(mach)), mach.spec, mach, dt
    )
    _, h1_full = mach.propagator(dt).apply(phased, mach.dealias, h1=True)
    end, h1_half = mach.propagator(0.5 * dt).apply(phased, mach.dealias, h1=True)
    expected = h1_written_out(end, mach)
    assert abs(h1_full - expected) <= 1e-12 * expected
    assert abs(h1_half - expected) <= 1e-12 * expected
    assert abs(h1_native(end, mach.spec, mach) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_guard_h1_matches_sampled_h1(model_fixture, request, monkeypatch):
    mach = request.getfixturevalue(model_fixture)
    seen = {}
    guard = stepping.detect_blowup

    def spy(state, mach_, thresholds, h1=None, time=None):
        seen[time] = h1
        return guard(state, mach_, thresholds, h1=h1, time=time)

    monkeypatch.setattr(stepping, "detect_blowup", spy)
    records, _ = integrate(
        Field(gaussian(mach)), mach, 0.02, [0.0, 0.01, 0.02], StepControl(dt=1e-3)
    )
    assert len(seen) == 20
    for rec in records[1:]:
        at_sample = min(seen, key=lambda t: abs(t - rec.time))
        assert abs(at_sample - rec.time) < 1e-12
        assert abs(seen[at_sample] - rec.h1_native) <= 1e-12 * rec.h1_native


def test_fixed_run_builds_one_propagator_per_substep_length(monkeypatch):
    # 0.02 - 0.01 and friends divide by 10 to one ulp off 1e-3; those
    # jittered lengths must not become new cache keys
    mach = build_machinery(ModelSpec("nondiv", 1, 4), DiscretizationSpec(
        n_x=64, box_half_length=4 * math.pi, n_alpha=16))
    built = []
    build = operators.build_linear_propagator

    def counting(grid, axis, t):
        built.append(t)
        return build(grid, axis, t)

    monkeypatch.setattr(operators, "build_linear_propagator", counting)
    samples = np.linspace(0.0, 0.05, 6)
    _, state = integrate(Field(gaussian(mach)), mach, 0.05, samples, StepControl(dt=1e-3),
                         record_fn=no_record)
    assert state.step_count == 50
    assert sorted(built) == [5e-4, 1e-3]


def test_fixed_substeps_never_exceed_control_dt(nondiv):
    # 0.125 / 2e-3 = 62.5 steps; rounding to 62 would run a dt of 2.016e-3
    _, state = integrate(Field(gaussian(nondiv)), nondiv, 0.125, [0.0, 0.125],
                         StepControl(dt=2e-3), record_fn=no_record)
    assert state.step_count == 63
    assert state.dt == pytest.approx(0.125 / 63, rel=1e-14)


def test_guard_flag_materialises_the_field_at_the_flag_time(nondiv):
    # a ratio ceiling of 1 trips on the first step that raises H^1, inside
    # the segment; the returned field must be the synchronous one then
    u0 = gaussian(nondiv, amp=2.0)
    _, state = integrate(
        Field(u0.copy()), nondiv, 0.1, [0.0, 0.1], StepControl(dt=1e-2),
        BlowupThresholds(norm_ratio_max=1.0),
    )
    assert state.blowup_flag
    t_flag = state.blowup_time_estimate
    assert state.field.time == t_flag
    n = round(t_flag / 1e-2)
    assert abs(n * 1e-2 - t_flag) < 1e-12 and 1 <= n < 10

    hat = x_fft(u0, nondiv.grid)
    hat *= nondiv.dealias[..., None]
    data = x_ifft(hat, nondiv.grid)
    for _ in range(n):
        data = reference_strang_step(data, nondiv, 1e-2)
    assert native_rel(state.field.data, data, nondiv) <= 1e-10


# ------------------------------------------------ fused adaptive attempt


def reference_advance_adaptive(state, mach, target, control, thresholds):
    """Step doubling from three separate Strang evaluations, the nodal
    field synchronous after every step, and err the nodal native L^2."""
    eps = 1e-12 * max(1.0, abs(target))
    nominal = state.dt
    while state.field.time < target - eps and not state.blowup_flag:
        dt = min(nominal, target - state.field.time)
        try:
            full = strang(state.field.data, mach, dt)
            fine = strang(strang(state.field.data, mach, 0.5 * dt), mach, 0.5 * dt)
        except operators.NonFiniteFieldError:
            state.blowup_flag = True
            state.blowup_time_estimate = state.field.time
            break
        err = math.sqrt(mass(full - fine, mach.spec, mach))
        if err > control.err_grow and dt > control.dt_min:
            nominal = max(0.5 * dt, control.dt_min)
            state.rejected_count += 1
            continue
        state.field = Field(fine, state.field.time + dt)
        state.step_count += 1
        state.dt = nominal
        if err > control.err_grow:
            state.floor_count += 1
        state = detect_blowup(state, mach, thresholds)
        if err < control.err_shrink and dt == nominal:
            nominal = min(2.0 * dt, control.dt_max)
        state.dt = nominal
    if not state.blowup_flag:
        state.field.time = target
    return state


def narrow_pulse(mach):
    # spectral mass past the 2/3 cutoff, so a dropped mask does not pass
    (x,) = mach.grid.coordinates()
    return 2.0 * np.exp(-(x**2) / (2 * 0.3**2))[:, None] * np.exp(-mach.axis.nodes**2 / 4.0) + 0j


ADAPTIVE_CASES = {
    # thresholds that reject the opening dt, then grow and reject again
    "nondiv": (StepControl(dt=8e-3, adaptive=True, err_grow=5e-5, err_shrink=2.5e-5),
               BlowupThresholds()),
    # every doubling is rejected, and the H^1 ceiling flags mid-run
    "divm": (StepControl(dt=8e-3, adaptive=True, err_grow=1e-6, err_shrink=5e-7),
             BlowupThresholds(norm_ratio_max=1.0035)),
}


@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_fused_adaptive_matches_step_doubling_reference(model_fixture, request, monkeypatch):
    mach = request.getfixturevalue(model_fixture)
    control, thresholds = ADAPTIVE_CASES[model_fixture]
    samples = np.linspace(0.0, 0.04, 5)

    def run():
        return integrate(Field(narrow_pulse(mach)), mach, 0.04, samples, control,
                         thresholds, record_fn=no_record)

    _, fused = run()
    monkeypatch.setattr(stepping, "_advance_adaptive", reference_advance_adaptive)
    _, ref = run()

    assert ref.rejected_count > 0
    assert ((fused.step_count, fused.rejected_count, fused.floor_count)
            == (ref.step_count, ref.rejected_count, ref.floor_count))
    assert fused.blowup_flag == ref.blowup_flag == (model_fixture == "divm")
    assert fused.blowup_time_estimate == ref.blowup_time_estimate
    assert fused.field.time == ref.field.time
    assert native_rel(fused.field.data, ref.field.data, mach) <= 1e-10


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_spectral_error_estimate_equals_nodal_step_doubling_distance(model_fixture, request):
    mach = request.getfixturevalue(model_fixture)
    dt = 4e-3
    u = stepping._dealias(narrow_pulse(mach), mach)
    err, fine, quarter = stepping._doubling_attempt(mach.forward(u), mach, dt)

    coarse_field = strang(u, mach, dt)
    fine_field = strang(strang(u, mach, 0.5 * dt), mach, 0.5 * dt)
    nodal = math.sqrt(mass(coarse_field - fine_field, mach.spec, mach))
    scale = math.sqrt(mass(u, mach.spec, mach))
    assert nodal > 1e-6 * scale  # a real discrepancy, far above roundoff
    assert abs(err - nodal) <= 1e-12 * scale
    end = mach.synthesize(quarter.advance(fine, mach.dealias))
    assert native_rel(end, fine_field, mach) <= 1e-12


@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
def test_floor_acceptance_is_counted_apart_from_rejections(nondiv):
    # dt starts at the floor and no attempt meets err_grow: every step is
    # accepted at the floor, none is a true rejection, and the guard flags
    # the first one
    dt = 4e-3
    control = StepControl(dt=dt, adaptive=True, dt_min=dt, err_grow=1e-300)
    _, state = integrate(Field(narrow_pulse(nondiv)), nondiv, 0.02, [0.0, 0.02], control,
                         BlowupThresholds(dt_min=dt), record_fn=no_record)
    assert (state.step_count, state.floor_count, state.rejected_count) == (1, 1, 0)
    assert state.blowup_flag and state.blowup_time_estimate == dt
