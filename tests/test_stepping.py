"""Splitting integrator: per-step conservation, exactness against the
linear flow, reversibility, convergence order and the blow-up guard."""

import functools
import math

import numpy as np
import pytest

from ounls import operators, stepping
from ounls.grids import laplacian_symbol, x_fft, x_ifft
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.observables import Snapshot, h1_native, mass, sample_record
from ounls.operators import apply_nonlinearity, build_machinery
from ounls.stepping import StepControl, StepperState, detect_blowup, integrate

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


@pytest.fixture(scope="module")
def nondiv_2d():
    return build_machinery(ModelSpec("nondiv", 2, 2), DiscretizationSpec(
        n_x=32, box_half_length=4 * math.pi, n_alpha=16))


def no_record(data, time, mach):
    return None


def linear_only(monkeypatch):
    """Step with the nonlinear phase switched off: the stepper's substep
    returns its input unchanged."""
    monkeypatch.setattr(stepping, "apply_nonlinearity",
                        lambda data, mach, dt, columns=slice(None): data.copy())


def test_zero_field_stays_zero(nondiv):
    _, state = integrate(np.zeros((256, 64), complex), nondiv, [3e-2], StepControl(dt=1e-2),
                         record_fn=no_record)
    assert state.step_count == 3
    assert np.all(state.snapshot(nondiv).data == 0)
    assert state.time == pytest.approx(3e-2)


def test_linear_only_matches_exact_propagator(nondiv, monkeypatch):
    linear_only(monkeypatch)
    u0 = gaussian(nondiv)
    _, state = integrate(u0, nondiv, [0.05], StepControl(dt=0.05), record_fn=no_record)
    assert state.step_count == 1
    exact = nondiv.propagator(0.05).apply(u0)
    err = math.sqrt(mass(state.snapshot(nondiv).data - exact, nondiv))
    assert err < 1e-11 * math.sqrt(mass(u0, nondiv))


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_per_step_mass_conservation(model_fixture, request):
    mach = request.getfixturevalue(model_fixture)
    u0 = gaussian(mach)
    m0 = mass(u0, mach)
    _, state = integrate(u0, mach, [1e-3], StepControl(dt=1e-3), record_fn=no_record)
    assert state.step_count == 1
    assert abs(mass(state.snapshot(mach).data, mach) - m0) < 1e-11 * m0


def strang(data, mach, dt):
    """One unfused Strang evaluation: half linear step, nonlinear phase, a
    separate 2/3 dealias pass, half linear."""
    half = mach.propagator(0.5 * dt)
    out = apply_nonlinearity(half.apply(data), mach, dt)
    hat = x_fft(out, mach.grid)
    hat *= mach.dealias[..., None]
    return half.apply(x_ifft(hat, mach.grid))


def test_time_reversibility(nondiv):
    u0 = gaussian(nondiv)
    back = strang(strang(u0.copy(), nondiv, 1e-2), nondiv, -1e-2)
    err = math.sqrt(mass(back - u0, nondiv))
    assert err < 1e-9


def test_second_order_self_convergence(nondiv):
    u0 = gaussian(nondiv)

    def final(dt):
        _, state = integrate(u0, nondiv, [0.25], StepControl(dt=dt))
        return state.snapshot(nondiv).data

    ref = final(6.25e-5)
    e1 = math.sqrt(mass(final(1e-3) - ref, nondiv))
    e2 = math.sqrt(mass(final(5e-4) - ref, nondiv))
    order = math.log2(e1 / e2)
    assert 1.8 <= order <= 2.2


def test_second_order_self_convergence_div(divm):
    small = build_machinery(ModelSpec("div", 1, 2), DiscretizationSpec(
        n_x=64, box_half_length=4 * math.pi, div_nodes=257))
    u0 = gaussian(small)

    def final(dt):
        _, state = integrate(u0, small, [0.1], StepControl(dt=dt))
        return state.snapshot(small).data

    ref = final(2.5e-4)
    e1 = math.sqrt(mass(final(2e-3) - ref, small))
    e2 = math.sqrt(mass(final(1e-3) - ref, small))
    assert 1.8 <= math.log2(e1 / e2) <= 2.2


def test_integrate_validates_schedule(nondiv):
    u0 = gaussian(nondiv)
    with pytest.raises(ValueError, match="empty"):
        integrate(u0, nondiv, [])
    with pytest.raises(ValueError, match="sorted"):
        integrate(u0, nondiv, [0.5, 0.2])
    with pytest.raises(ValueError, match="negative"):
        integrate(u0, nondiv, [-1.0, 0.0])
    # a NaN compares false with its neighbours, so it passes for sorted
    with pytest.raises(ValueError, match="finite"):
        integrate(u0, nondiv, [0.0, math.nan, 0.5])


def test_integrate_linear_only_mass_identical(nondiv, monkeypatch):
    linear_only(monkeypatch)
    records, state = integrate(gaussian(nondiv), nondiv, [0.0, 1.0], StepControl(dt=5e-3))
    assert len(records) == 2
    assert abs(records[1].mass - records[0].mass) < 1e-11 * records[0].mass
    assert state.step_count == 200


def test_detect_blowup_flags_nan(nondiv):
    data = gaussian(nondiv)
    data[3, 3] = np.nan
    state = StepperState(spectrum=nondiv.forward(data), dt=1e-3, time=0.7)
    h1 = h1_native(data, nondiv)
    state = detect_blowup(state, StepControl(), h1=h1, time=0.7)
    assert state.blowup_flag
    assert state.blowup_time_estimate == 0.7


# the compact 8*pi box lets fast dispersive content reach the monitored
# shell at the ~1e-8 level by t=2; that warning is the monitor working
@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
def test_moderate_defocusing_run_never_flags(nondiv):
    records, state = integrate(
        gaussian(nondiv), nondiv, np.linspace(0.0, 2.0, 21), StepControl(dt=5e-3)
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
        data, nondiv, [0.0, 0.5, 1.0], StepControl(dt=1e-2),
        record_fn=lambda data, time, m: sample_record(data, time, m),
    )
    assert len(records) == 3

    poisoned = gaussian(nondiv)
    poisoned[0, 0] = np.inf
    records, state = integrate(poisoned, nondiv, [0.0, 0.5, 1.0], StepControl(dt=1e-2))
    assert state.blowup_flag
    assert len(records) < 3


# ------------------------------------------------ fused fixed-step kernel


def native_rel(a, b, mach):
    return math.sqrt(mass(a - b, mach) / mass(b, mach))


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
    records, state = integrate(u0, mach, samples, StepControl(dt=dt))

    hat = x_fft(u0, mach.grid)
    hat *= mach.dealias[..., None]
    data = x_ifft(hat, mach.grid)
    expected = [sample_record(data, 0.0, mach)]
    for t in samples[1:]:
        for _ in range(10):
            data = strang(data, mach, dt)
        expected.append(sample_record(data, t, mach))

    assert state.step_count == 50 and not state.blowup_flag
    assert native_rel(state.snapshot(mach).data, data, mach) <= 1e-8
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
    # the kept-row spectrum of the nonlinear output is what the trailing
    # substep advances; the norm read off it is the H^1 of the field one
    # half step later
    mach = request.getfixturevalue(model_fixture)
    dt = 1e-3
    phased = apply_nonlinearity(
        mach.propagator(0.5 * dt).apply(2.0 * gaussian(mach)), mach, dt
    )
    h1 = h1_native(Snapshot(mach.forward(phased), mach), mach)
    end = mach.propagator(0.5 * dt).apply(stepping._dealias(phased, mach))
    expected = h1_written_out(end, mach)
    assert abs(h1 - expected) <= 1e-12 * expected
    assert abs(h1_native(end, mach) - expected) <= 1e-12 * expected


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_guard_h1_matches_sampled_h1(model_fixture, request, monkeypatch):
    mach = request.getfixturevalue(model_fixture)
    seen = {}
    guard = stepping.detect_blowup

    def spy(state, control, h1, time):
        seen[time] = h1
        return guard(state, control, h1=h1, time=time)

    monkeypatch.setattr(stepping, "detect_blowup", spy)
    records, _ = integrate(gaussian(mach), mach, [0.0, 0.01, 0.02], StepControl(dt=1e-3))
    assert len(seen) == 20
    for rec in records[1:]:
        at_sample = min(seen, key=lambda t: abs(t - rec.time))
        assert abs(at_sample - rec.time) < 1e-12
        assert abs(seen[at_sample] - rec.h1_native) <= 1e-12 * rec.h1_native


def small_nondiv_with_build_log(monkeypatch):
    """A small drift-form machinery, and the list that every propagator
    time built from here on is appended to."""
    mach = build_machinery(ModelSpec("nondiv", 1, 4), DiscretizationSpec(
        n_x=64, box_half_length=4 * math.pi, n_alpha=16))
    built = []
    build = operators.build_linear_propagator

    def counting(mach, t):
        built.append(t)
        return build(mach, t)

    monkeypatch.setattr(operators, "build_linear_propagator", counting)
    return mach, built


def test_fixed_run_builds_one_propagator_per_substep_length(monkeypatch):
    # 0.02 - 0.01 and friends divide by 10 to one ulp off 1e-3; those
    # jittered lengths must not become new cache keys
    mach, built = small_nondiv_with_build_log(monkeypatch)
    samples = np.linspace(0.0, 0.05, 6)
    _, state = integrate(gaussian(mach), mach, samples, StepControl(dt=1e-3),
                         record_fn=no_record)
    assert state.step_count == 50
    assert sorted(built) == [5e-4, 1e-3]


def test_adaptive_run_builds_one_propagator_per_flow_length(monkeypatch):
    # three steps of 1e-2 add up to one ulp short of 0.03, so the segment's
    # last step was target - time, one ulp off dt, and its flows and the
    # lag it carried into the next segment became one-off cache keys (8
    # builds); snapped to dt, every attempt uses dt/4, dt/2 and 3 dt/4
    monkeypatch.setattr(stepping, "ERR_GROW", math.inf)  # dt stays at 1e-2
    monkeypatch.setattr(stepping, "ERR_SHRINK", 0.0)
    mach, built = small_nondiv_with_build_log(monkeypatch)
    dt = 1e-2
    _, state = integrate(gaussian(mach), mach, [0.0, 0.03, 0.06],
                         StepControl(dt=dt, adaptive=True), record_fn=no_record)
    assert state.step_count == 6 and state.dt_range == (dt, dt)
    assert sorted(built) == [0.25 * dt, 0.5 * dt, 0.5 * dt + 0.25 * dt]


def test_fixed_substeps_never_exceed_control_dt(nondiv):
    # 0.125 / 2e-3 = 62.5 steps; rounding to 62 would run a dt of 2.016e-3
    _, state = integrate(gaussian(nondiv), nondiv, [0.0, 0.125], StepControl(dt=2e-3),
                         record_fn=no_record)
    assert state.step_count == 63
    assert state.dt == pytest.approx(0.125 / 63, rel=1e-14)


def test_guard_flag_materialises_the_field_at_the_flag_time(nondiv, monkeypatch):
    # a ratio ceiling of 1 trips on the first step that raises H^1, inside
    # the segment; the returned field must be the synchronous one then
    monkeypatch.setattr(stepping, "H1_RATIO_MAX", 1.0)
    u0 = gaussian(nondiv, amp=2.0)
    _, state = integrate(u0, nondiv, [0.0, 0.1], StepControl(dt=1e-2))
    assert state.blowup_flag
    t_flag = state.blowup_time_estimate
    assert state.time == t_flag
    n = round(t_flag / 1e-2)
    assert abs(n * 1e-2 - t_flag) < 1e-12 and 1 <= n < 10

    hat = x_fft(u0, nondiv.grid)
    hat *= nondiv.dealias[..., None]
    data = x_ifft(hat, nondiv.grid)
    for _ in range(n):
        data = strang(data, nondiv, 1e-2)
    assert native_rel(state.snapshot(nondiv).data, data, nondiv) <= 1e-10


# ------------------------------------------------ fused adaptive attempt


def reference_advance_adaptive(state, mach, target, control):
    """Step doubling from three separate Strang evaluations, the nodal
    field synchronous after every step, and err the nodal native L^2; the
    tolerances are read from ``stepping`` at call time, as a test may have
    patched them."""
    eps = 1e-12 * max(1.0, abs(target))
    nominal = state.dt
    data, time = state.snapshot(mach).data, state.time
    while time < target - eps and not state.blowup_flag:
        dt = stepping._snap_dt(min(nominal, target - time), nominal)
        try:
            full = strang(data, mach, dt)
            fine = strang(strang(data, mach, 0.5 * dt), mach, 0.5 * dt)
        except operators.NonFiniteFieldError:
            state.blowup_flag = True
            state.blowup_time_estimate = time
            break
        err = math.sqrt(mass(full - fine, mach))
        if err > stepping.ERR_GROW and dt > control.dt_min:
            nominal = max(0.5 * dt, control.dt_min)
            state.rejected_count += 1
            continue
        data, time = fine, time + dt
        state.step_count += 1
        state.dt = nominal
        if err > stepping.ERR_GROW:
            state.floor_count += 1
        h1 = h1_native(data, mach)
        state = detect_blowup(state, control, h1=h1, time=time)
        if err < stepping.ERR_SHRINK and dt == nominal:
            nominal = min(2.0 * dt, stepping.DT_MAX)
        state.dt = nominal
    state.spectrum, state.lag = mach.forward(data), 0.0
    state.time = time if state.blowup_flag else target
    return state


def narrow_pulse(mach):
    # spectral mass past the 2/3 cutoff, so a dropped mask does not pass
    (x,) = mach.grid.coordinates()
    return 2.0 * np.exp(-(x**2) / (2 * 0.3**2))[:, None] * np.exp(-mach.axis.nodes**2 / 4.0) + 0j


# the pinned stepping tolerances each case patches
ADAPTIVE_CASES = {
    # thresholds that reject the opening dt, then grow and reject again
    "nondiv": {"ERR_GROW": 5e-5, "ERR_SHRINK": 2.5e-5},
    # every doubling is rejected, and the H^1 ceiling flags mid-run
    "divm": {"ERR_GROW": 1e-6, "ERR_SHRINK": 5e-7, "H1_RATIO_MAX": 1.0035},
}


@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_fused_adaptive_matches_step_doubling_reference(model_fixture, request, monkeypatch):
    mach = request.getfixturevalue(model_fixture)
    for name, value in ADAPTIVE_CASES[model_fixture].items():
        monkeypatch.setattr(stepping, name, value)
    control = StepControl(dt=8e-3, adaptive=True)
    samples = np.linspace(0.0, 0.04, 5)

    def run():
        return integrate(narrow_pulse(mach), mach, samples, control, record_fn=no_record)

    _, fused = run()
    monkeypatch.setattr(stepping, "_advance_adaptive", reference_advance_adaptive)
    _, ref = run()

    assert ref.rejected_count > 0
    assert ((fused.step_count, fused.rejected_count, fused.floor_count)
            == (ref.step_count, ref.rejected_count, ref.floor_count))
    assert fused.blowup_flag == ref.blowup_flag == (model_fixture == "divm")
    assert fused.blowup_time_estimate == ref.blowup_time_estimate
    assert fused.time == ref.time
    assert native_rel(fused.snapshot(mach).data, ref.snapshot(mach).data, mach) <= 1e-10


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm"])
def test_spectral_error_estimate_equals_nodal_step_doubling_distance(model_fixture, request):
    mach = request.getfixturevalue(model_fixture)
    dt, dt_before = 4e-3, 6e-3
    u = stepping._dealias(narrow_pulse(mach), mach)
    scale = math.sqrt(mass(u, mach))
    # the attempt starts from the field itself (lag 0), or from the fine
    # spectrum that an accepted step of another length left, whose
    # synchronous field is a quarter of that step further on
    _, carried = stepping._doubling_attempt(mach.forward(u), 0.0, mach, dt_before)
    after = strang(strang(u, mach, 0.5 * dt_before), mach, 0.5 * dt_before)
    for spectrum, lag, start in ((mach.forward(u), 0.0, u),
                                 (carried, 0.25 * dt_before, after)):
        err, fine = stepping._doubling_attempt(spectrum, lag, mach, dt)
        coarse_field = strang(start, mach, dt)
        fine_field = strang(strang(start, mach, 0.5 * dt), mach, 0.5 * dt)
        nodal = math.sqrt(mass(coarse_field - fine_field, mach))
        assert nodal > 1e-6 * scale  # a real discrepancy, far above roundoff
        assert abs(err - nodal) <= 1e-12 * scale
        end = mach.synthesize(mach.propagator(0.25 * dt).advance(fine))
        assert native_rel(end, fine_field, mach) <= 1e-12


@pytest.mark.parametrize("model_fixture", ["nondiv", "divm", "nondiv_2d"])
def test_kept_rows_round_trip_is_the_dealias_projection(model_fixture, request):
    mach = request.getfixturevalue(model_fixture)
    u = narrow_pulse(mach) if mach.grid.dim == 1 else gaussian(mach)
    rng = np.random.default_rng(3)
    u = u + 1e-3 * rng.standard_normal(u.shape)  # content past the 2/3 cutoff
    projected = stepping._dealias(u, mach)
    assert native_rel(u, projected, mach) > 1e-6
    spectrum = mach.forward(u)
    assert spectrum.shape == (mach.axis.nodes.size, np.count_nonzero(mach.dealias))
    assert native_rel(mach.synthesize(spectrum), projected, mach) <= 1e-13
    assert native_rel(mach.synthesize(mach.forward(projected)), projected, mach) <= 1e-13


@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
def test_floor_acceptance_is_counted_apart_from_rejections(nondiv, monkeypatch):
    # dt starts at the floor and no attempt meets ERR_GROW: every step is
    # accepted at the floor, none is a true rejection, and the guard flags
    # the first one
    monkeypatch.setattr(stepping, "ERR_GROW", 1e-300)
    dt = 4e-3
    control = StepControl(dt=dt, adaptive=True, dt_min=dt)
    _, state = integrate(narrow_pulse(nondiv), nondiv, [0.0, 0.02], control,
                         record_fn=no_record)
    assert (state.step_count, state.floor_count, state.rejected_count) == (1, 1, 0)
    assert state.blowup_flag and state.blowup_time_estimate == dt


# blocked x-transforms: (model, dim, power, n_x, div_nodes, the number of
# column blocks of that grid and their widest); 2 blocks slice the drift
# form's gain weight
BLOCK_CASES = {
    "div-513-on-256": ("div", 1, 2, 256, 513, 9, 57),
    "drift-on-512": ("nondiv", 1, 4, 512, 513, 2, 32),
    "div-2d-on-64": ("div", 2, 2, 64, 65, 17, 4),
    "drift-256x64": ("nondiv", 1, 4, 256, 513, 1, 64),
    "div-128x65": ("div", 1, 2, 128, 65, 1, 65),
}


@functools.cache
def block_case(key):
    model, dim, power, n_x, nodes, *_ = BLOCK_CASES[key]
    return build_machinery(ModelSpec(model, dim, power, -1), DiscretizationSpec(
        n_x=n_x, box_half_length=8 * math.pi, div_nodes=nodes))


def rough_spectrum(mach):
    """Kept-row spectrum of a Gaussian with a random factor, so every
    alpha column differs from its neighbours."""
    rng = np.random.default_rng(11)
    noise = 1.0 + 0.2 * rng.standard_normal(mach.grid.shape + (mach.axis.nodes.size,))
    return mach.forward(2.0 * gaussian(mach) * noise)


def unblocked_synthesis(mach, spectrum):
    """The whole-field synthesis: every kept row into one zero array over
    the x grid, one inverse x-FFT."""
    scatter = np.zeros((mach.dealias.size, mach.axis.nodes.size), np.complex128)
    scatter[mach.kept] = mach.axis.inverse(spectrum).T
    return x_ifft(scatter.reshape(mach.grid.shape + (-1,)), mach.grid)


@pytest.mark.parametrize("key", list(BLOCK_CASES))
def test_column_blocks_follow_the_width_rule(key):
    # at most WORK_BYTES // (16 rows) columns, split evenly over the fewest
    # blocks, which tile the alpha columns in order
    mach = block_case(key)
    blocks = mach.column_blocks
    widths = [b.stop - b.start for b in blocks]
    assert (len(blocks), max(widths)) == BLOCK_CASES[key][-2:]
    assert max(widths) - min(widths) <= 1
    assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
    assert blocks[-1].stop == mach.axis.nodes.size


@pytest.mark.parametrize("key", list(BLOCK_CASES))
def test_blocked_evaluation_is_bitwise_the_whole_field_one(key):
    mach = block_case(key)
    spectrum = rough_spectrum(mach)
    dt = 1e-3
    assert np.array_equal(mach.synthesize(spectrum), unblocked_synthesis(mach, spectrum))
    advanced = mach.propagator(0.5 * dt).advance(spectrum)
    whole = mach.forward(apply_nonlinearity(unblocked_synthesis(mach, advanced), mach, dt))
    assert np.array_equal(stepping._phased(mach, spectrum, 0.5 * dt, dt), whole)


def test_nonfinite_column_of_the_last_block_flags_the_fixed_step(monkeypatch):
    mach = block_case("div-513-on-256")
    spectrum = rough_spectrum(mach)
    spectrum[-1] = np.nan
    seen = []

    def counted(data, m, dt, columns=slice(None)):
        seen.append(columns)
        return apply_nonlinearity(data, m, dt, columns)

    monkeypatch.setattr(stepping, "apply_nonlinearity", counted)
    with pytest.raises(operators.NonFiniteFieldError):
        stepping._phased(mach, spectrum, 5e-4, 1e-3)
    # the flow's band keeps the NaN in the last block: every block ran
    assert seen == list(mach.column_blocks)
    state = StepperState(spectrum, 1e-3, h1_initial=1.0)
    state = stepping._advance_fixed(state, mach, 1e-3, StepControl(dt=1e-3))
    assert state.blowup_flag and state.blowup_time_estimate == 0.0
    assert state.step_count == 0 and state.spectrum is spectrum and state.lag == 0.0


# the alpha-first layout against an alpha-last reference written here:
# (model, dim, power, n_x, n_alpha, div_nodes); 9 column blocks on the
# div_dense grid and 2 on the drift one at n_x 512
LAYOUT_CASES = {
    "drift-a2": ("nondiv", 1, 4, 64, 2, 65),
    "drift-a63": ("nondiv", 1, 4, 128, 63, 65),
    "drift-256x64": ("nondiv", 1, 4, 256, 64, 65),
    "drift-on-512": ("nondiv", 1, 4, 512, 64, 65),
    "drift-2d-a63": ("nondiv", 2, 2, 32, 63, 65),
    "drift-2d-a2": ("nondiv", 2, 2, 32, 2, 65),
    "div-513-on-256": ("div", 1, 2, 256, 64, 513),
    "div-128x65": ("div", 1, 4, 128, 64, 65),
    "div-2d-on-32": ("div", 2, 2, 32, 64, 65),
}


@functools.cache
def layout_case(key):
    model, dim, power, n_x, n_alpha, nodes = LAYOUT_CASES[key]
    return build_machinery(ModelSpec(model, dim, power, -1), DiscretizationSpec(
        n_x=n_x, box_half_length=(8 if dim == 1 else 4) * math.pi, n_alpha=n_alpha,
        div_nodes=nodes))


class AlphaLast:
    """The kept-row machinery with the spectrum stored (kept x modes,
    alpha): the transforms and the div flow act from the right."""

    def __init__(self, mach):
        self.mach, self.axis = mach, mach.axis
        self.hermite = isinstance(mach.axis, operators.HermiteAxis)
        self.k2 = -laplacian_symbol(mach.grid).reshape(-1)[mach.kept]

    def forward(self, data):
        hat = x_fft(data, self.mach.grid)
        hat = hat.reshape(-1, hat.shape[-1])[self.mach.kept]
        return hat @ self.axis.basis.forward_matrix.T if self.hermite else hat

    def synthesize(self, spectrum):
        nodal = spectrum @ self.axis.basis.eigenfunctions if self.hermite else spectrum
        scatter = np.zeros((self.mach.dealias.size, nodal.shape[-1]), np.complex128)
        scatter[self.mach.kept] = nodal
        return x_ifft(scatter.reshape(self.mach.grid.shape + (-1,)), self.mach.grid)

    def advance(self, spectrum, t):
        x_phase = np.exp(1j * t * laplacian_symbol(self.mach.grid)).reshape(-1)
        spectrum = spectrum * x_phase[self.mach.kept, None]
        if self.hermite:
            return spectrum * np.exp(1j * t * self.axis.basis.eigenvalues)
        q, lam = self.axis.eigenvectors, self.axis.eigenvalues
        return spectrum @ ((q * np.exp(1j * t * lam)) @ q.T)

    def phased(self, spectrum, t_flow, t_phase):
        data = self.synthesize(self.advance(spectrum, t_flow))
        return self.forward(apply_nonlinearity(data, self.mach, t_phase))

    def quadratic_forms(self, spectrum):
        power = spectrum.real**2 + spectrum.imag**2
        row_power = power.sum(axis=-1)
        if self.hermite:
            grad = power @ -self.axis.basis.eigenvalues
        else:
            diff = np.diff(spectrum, axis=-1)
            grad = (diff.real**2 + diff.imag**2) @ self.axis.face_weights / self.axis.spacing**2
        scale = self.mach.grid.cell_volume * self.axis.measure
        return scale * row_power.sum(), scale * (self.k2 * row_power).sum(), scale * grad.sum()

    def tail_fraction(self, spectrum, n_tail):
        if self.hermite:
            power = np.abs(spectrum) ** 2
        else:
            power = np.abs(spectrum @ self.axis.eigenvectors) ** 2
        tail = power[:, -n_tail:] if self.hermite else power[:, :n_tail]
        return tail.sum() / power.sum()


def frobenius_rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


@pytest.mark.parametrize("key", list(LAYOUT_CASES))
def test_alpha_first_layout_matches_the_alpha_last_reference(key):
    mach = layout_case(key)
    ref = AlphaLast(mach)
    rng = np.random.default_rng(29)
    u = 2.0 * gaussian(mach) * (1.0 + 0.2 * rng.standard_normal(
        mach.grid.shape + (mach.axis.nodes.size,)))
    spectrum = mach.forward(u)
    want = ref.forward(u)
    assert spectrum.shape == want.T.shape
    assert frobenius_rel(spectrum, want.T) <= 1e-14
    # the nodal fields compared in the native L^2
    assert native_rel(mach.synthesize(spectrum), ref.synthesize(want), mach) <= 1e-14
    dt = 1e-3
    assert frobenius_rel(stepping._phased(mach, spectrum, 0.5 * dt, dt),
                         ref.phased(want, 0.5 * dt, dt).T) <= 1e-14
    for got, expect in zip(mach.quadratic_forms(spectrum), ref.quadratic_forms(want)):
        assert abs(got - expect) <= 1e-14 * abs(expect)
    tail = ref.tail_fraction(want, 4)
    assert tail > 0.0
    assert abs(mach.axis.tail_fraction(spectrum, 4) - tail) <= 1e-14 * tail


@pytest.mark.parametrize("adaptive", [False, True], ids=["fixed", "adaptive"])
@pytest.mark.parametrize("key", ["drift-on-512", "div-2d-on-32"])
def test_every_spectrum_the_stepper_hands_out_is_alpha_first(key, adaptive, monkeypatch):
    # (alpha, kept x modes), C-contiguous: what the real GEMMs and the flow's
    # row blocks read without a copy
    mach = layout_case(key)
    shape = (mach.axis.nodes.size, np.count_nonzero(mach.dealias))
    seen = []

    def check(spectrum):
        assert spectrum.shape == shape and spectrum.flags.c_contiguous
        seen.append(spectrum)
        return spectrum

    phased, advance = stepping._phased, operators.LinearPropagator.advance
    monkeypatch.setattr(stepping, "_phased", lambda *a: check(phased(*a)))
    monkeypatch.setattr(operators.LinearPropagator, "advance",
                        lambda self, s: check(advance(self, check(s))))

    def record(snap, time, m):
        check(snap.spectrum)

    control = StepControl(dt=1e-3, adaptive=adaptive)
    _, state = integrate(gaussian(mach), mach, [0.0, 2e-3], control, record_fn=record)
    check(state.spectrum)
    assert len(seen) > 10
