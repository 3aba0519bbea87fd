"""Scenario runners at desk scale: closed-form oracles, invariances,
determinism and the cross-checks between detector and virial fit."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from ounls import experiments, stepping
from ounls.config import ConfigError, InitialData, ScenarioConfig
from ounls.experiments import (
    ACCEPTANCE,
    SAMPLES_PER_UNIT_TIME,
    STRICHARTZ_PAIRS,
    _embed_x_modes,
    band_coeffs_to_field,
    counterexample_ratio,
    embedding_ratios,
    gaussian_field,
    random_band_coeffs,
    run_blowup,
    run_conservation,
    run_strichartz_ensemble,
    _ladder_ratios,
)
from ounls.grids import BoxGrid
from ounls.models import DiscretizationSpec, ModelSpec
from ounls.observables import mass, virial, virial_dt, virial_rhs
from ounls.operators import build_axis, build_machinery
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


@pytest.mark.parametrize("n_x", [16, 32])
def test_band_modes_must_be_distinct_on_the_grid(n_x):
    # 2*8 + 1 = 17 band modes: on 16 points modes -8 and 8 are one grid mode
    cfg = small_cfg(disc=DiscretizationSpec(n_x=n_x), horizon=0.25, ensemble=1,
                    initial=InitialData(band=8))
    coeffs = random_band_coeffs(np.random.default_rng(2), 1, 8)
    mach = build_machinery(cfg.model, cfg.disc)
    if n_x == 16:
        with pytest.raises(ConfigError, match="band modes would alias"):
            run_strichartz_ensemble(cfg)
        with pytest.raises(ConfigError, match="band modes would alias"):
            band_coeffs_to_field(coeffs, mach, 8)
    else:
        assert run_strichartz_ensemble(cfg).passed
        assert band_coeffs_to_field(coeffs, mach, 8).shape == (32, 64)


@pytest.mark.parametrize("n_alpha", [8, 9])
def test_alpha_band_must_fit_the_hermite_basis(n_alpha):
    # embeddings draw the 8 modes n < 8, random drift-form data the 9 modes
    # n <= 8; a basis of n_alpha eigenfunctions holds n_alpha of them
    mach = build_machinery(ModelSpec("nondiv", 1, 4), DiscretizationSpec(n_x=32, n_alpha=n_alpha))
    coeffs = random_band_coeffs(np.random.default_rng(2), 1, 8)
    profiles = np.ones((2, 8), dtype=np.complex128)
    assert all(r.shape == (2,) for r in embedding_ratios(profiles, 8, n_alpha, 2))
    if n_alpha == 8:
        with pytest.raises(ConfigError, match="needs grid.n_alpha >= 9, got 8"):
            band_coeffs_to_field(coeffs, mach, 8)
        with pytest.raises(ConfigError, match="needs grid.n_alpha >= 9, got 8"):
            embedding_ratios(np.ones((2, 9), dtype=np.complex128), 9, n_alpha, 2)
    else:
        assert band_coeffs_to_field(coeffs, mach, 8).shape == (32, 9)


def test_strichartz_records_its_pairs():
    # the pairs it ran, passed in or the config's (q, r), for the row config
    # and the rule-derived resolutions and time samples it ran
    report = run_strichartz_ensemble(small_cfg(), [(6.0, 6.0), (8.0, 4.0)])
    assert report.settings == {"strichartz_pairs": [[6.0, 6.0], [8.0, 4.0]],
                               "n_x": [64, 128], "time_samples": 65,
                               "coarse_points": [18, 18]}
    default = run_strichartz_ensemble(
        small_cfg(strichartz_q=8.0, strichartz_r=4.0, horizon=0.5)
    )
    assert default.settings == {"strichartz_pairs": [[8.0, 4.0]], "n_x": [64, 128],
                                "time_samples": 33, "coarse_points": [18, 18]}
    # a base grid below 4b+2 points evolves on itself, its double on 4b+2
    coarse = run_strichartz_ensemble(small_cfg(disc=DiscretizationSpec(n_x=16)), [(6.0, 6.0)])
    assert coarse.settings["coarse_points"] == [16, 18]


def test_single_mode_closed_form_ratio():
    # f = e^{ikx} phi_0 has t-independent alpha-L2 modulus per x point, so
    # R = T^{1/q} (2L)^{1/r - 1/2} exactly
    spec = ModelSpec("nondiv", 1, 4)
    disc = DiscretizationSpec(n_x=64)
    measure, factors = build_axis(spec, disc).mode_factors(2)
    grid = BoxGrid(1, disc.resolved_box(1), 64)
    draw = np.zeros((5, 3), complex)
    draw[3, 0] = 1.0  # one x mode, alpha mode 0
    (out,) = _ladder_ratios(draw, measure, factors, [grid], 4.0, [(6.0, 6.0), (8.0, 4.0)])
    length = 2.0 * grid.half_length
    for (variant, (q, r)), value in out.items():
        expected = 4.0 ** (1.0 / q) * length ** (1.0 / r - 0.5)
        assert abs(value - expected) < 1e-6 * expected, (variant, q, r)


def reference_ladder_ratios(draw, measure, factors, grid, horizon, pairs):
    """The ladder computed column by column on the n_x grid: per time sample
    an FFT of every alpha column of every variant, and the alpha norm per
    x point from the full field."""
    band = draw.shape[0] // 2
    x_axes_b = tuple(a + 1 for a in grid.x_axes)
    k = grid.wavenumbers
    if grid.dim == 1:
        k2 = k[:, None] ** 2
        ikx = (1j * k)[:, None]
    else:
        k2 = k[:, None, None] ** 2 + k[None, :, None] ** 2
        ikx = (1j * k)[:, None, None]

    hats = {name: _embed_x_modes(draw @ f, grid.dim, grid.n_points, band)
            for name, f in factors.items()}
    hats["k1"] = ikx * hats["k0"]
    denom = {
        name: math.sqrt(measure * grid.cell_volume * float(np.sum(np.abs(h) ** 2)))
        for name, h in hats.items()
    }

    n_t = int(round(SAMPLES_PER_UNIT_TIME * horizon)) + 1
    ts = np.linspace(0.0, horizon, n_t)
    r_values = sorted({pair[1] for pair in pairs})
    space = {(v, r): np.empty(n_t) for v in hats for r in r_values}
    x_phase = np.exp(-1j * ts.reshape((-1,) + (1,) * grid.dim) * k2[..., 0])
    for name, hat in hats.items():
        w = np.fft.ifftn(hat[None] * x_phase[..., None], axes=x_axes_b, norm="ortho")
        g = np.sqrt(measure * np.sum(w.real**2 + w.imag**2, axis=-1))
        for r in r_values:
            if math.isinf(r):
                vals = g.reshape(n_t, -1).max(axis=1)
            else:
                vals = (grid.cell_volume * np.sum(g**r, axis=x_axes_b)) ** (1.0 / r)
            space[(name, r)] = vals

    out = {}
    for q, r in pairs:
        for name in denom:
            series = space[(name, r)]
            if math.isinf(q):
                tnorm = float(series.max())
            else:
                tnorm = float(np.trapezoid(series**q, ts) ** (1.0 / q))
            out[(name, (q, r))] = tnorm / denom[name]
    return out


@pytest.mark.parametrize(
    "model, dim, band, n_x, horizon, pairs",
    [
        ("nondiv", 1, 8, 256, 4.0, STRICHARTZ_PAIRS),
        ("nondiv", 1, 8, 512, 4.0, STRICHARTZ_PAIRS),
        ("div", 1, 8, 256, 4.0, STRICHARTZ_PAIRS),
        ("div", 1, 8, 512, 4.0, STRICHARTZ_PAIRS),
        ("nondiv", 1, 8, 256, 2.0, [(4.0, math.inf), (12.0, 3.0)]),
        ("div", 1, 8, 256, 2.0, [(4.0, math.inf), (12.0, 3.0)]),
        ("nondiv", 1, 8, 32, 2.0, STRICHARTZ_PAIRS),  # coarse grid = n_x grid
        ("nondiv", 2, 4, 64, 1.0, [(4.0, 4.0), (3.0, 6.0)]),
        ("div", 2, 3, 32, 1.0, [(4.0, 4.0), (6.0, 3.0)]),
    ],
)
def test_ladder_matches_columnwise_reference(model, dim, band, n_x, horizon, pairs):
    # the density evolved on min(n_x, 4b+2) points and resampled to n_x
    # gives every ratio of the per-column FFTs on the n_x grid
    spec = ModelSpec(model, dim, 2)
    disc = DiscretizationSpec(n_x=n_x)
    measure, factors = build_axis(spec, disc).mode_factors(band)
    grid = BoxGrid(dim, disc.resolved_box(dim), n_x)
    draw = random_band_coeffs(np.random.default_rng(2024 + n_x + band), dim, band)
    (got,) = _ladder_ratios(draw, measure, factors, [grid], horizon, pairs)
    want = reference_ladder_ratios(draw, measure, factors, grid, horizon, pairs)
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-13 * value, key


@pytest.mark.parametrize(
    "model, dim, band, n_x",
    [
        ("nondiv", 1, 8, 256),  # both grids evolve on 34 points
        ("div", 1, 8, 32),  # 32 and 34 points: one evolution each
        ("nondiv", 1, 4, 16),  # 16 and 18 points
        ("div", 2, 3, 16),  # both on 14 x 14 points
    ],
)
def test_shared_evolution_matches_reference_per_grid(model, dim, band, n_x):
    # one call for (n_x, 2 n_x) gives each grid's per-column reference ratios
    spec = ModelSpec(model, dim, 2)
    disc = DiscretizationSpec(n_x=n_x)
    measure, factors = build_axis(spec, disc).mode_factors(band)
    grids = [BoxGrid(dim, disc.resolved_box(dim), n) for n in (n_x, 2 * n_x)]
    draw = random_band_coeffs(np.random.default_rng(99 + n_x + band), dim, band)
    if dim == 1:
        pairs = STRICHARTZ_PAIRS + [(4.0, math.inf), (12.0, 3.0)]
    else:
        pairs = [(4.0, 4.0), (6.0, 3.0)]
    results = _ladder_ratios(draw, measure, factors, grids, 1.0, pairs)
    assert len(results) == 2
    for grid, got in zip(grids, results):
        want = reference_ladder_ratios(draw, measure, factors, grid, 1.0, pairs)
        assert got.keys() == want.keys()
        for key, value in want.items():
            assert abs(got[key] - value) <= 1e-13 * value, (grid.n_points, key)


@pytest.mark.parametrize("n_x, evolutions", [(256, [34]), (64, [34]), (32, [32, 34])],
                         ids=["n_x=256", "n_x=64", "n_x=32"])
def test_each_member_is_evolved_once_per_coarse_grid(monkeypatch, n_x, evolutions):
    # the band DFT is built once per evolution: one per member when both
    # resolutions share 4b+2 = 34 points, two when n_x = 32 < 34
    built = []
    band_dft = experiments._band_dft

    def spy(band, m):
        built.append(m)
        return band_dft(band, m)

    monkeypatch.setattr(experiments, "_band_dft", spy)
    cfg = small_cfg(disc=DiscretizationSpec(n_x=n_x), initial=InitialData(band=8))
    report = run_strichartz_ensemble(cfg, [(6.0, 6.0)])
    assert built == evolutions * cfg.ensemble
    assert report.settings["coarse_points"] == [min(n, 34) for n in (n_x, 2 * n_x)]


def _ladder_setup(model, dim, band, n_x, seed):
    spec = ModelSpec(model, dim, 4 if dim == 1 else 2)
    disc = DiscretizationSpec(n_x=n_x)
    measure, factors = build_axis(spec, disc).mode_factors(band)
    grids = [BoxGrid(dim, disc.resolved_box(dim), n) for n in (n_x, 2 * n_x)]
    return random_band_coeffs(np.random.default_rng(seed), dim, band), measure, factors, grids


@pytest.mark.parametrize(
    "model, dim, band, n_x, horizon",
    [("nondiv", 1, 8, 256, 4.0), ("div", 2, 3, 16, 1.0)],
    ids=["1d_nine_chunks", "2d"],
)
def test_warm_workspace_gives_fresh_ratios(model, dim, band, n_x, horizon):
    # a workspace left by another member on the other resolution alone
    # (larger buffers, stale values, a dirty zero-padded spectrum) gives
    # the ratios of fresh arrays exactly; in 1-D the 257 samples run in
    # chunks of 32, the last of one sample
    draw, measure, factors, grids = _ladder_setup(model, dim, band, n_x, 5)
    other = _ladder_setup(model, dim, band, n_x, 6)[0]
    pairs = STRICHARTZ_PAIRS if dim == 1 else [(4.0, 4.0), (6.0, 3.0)]
    work = experiments.LadderWorkspace()
    _ladder_ratios(other, measure, factors, grids[1:], horizon, pairs, work)
    warm = _ladder_ratios(draw, measure, factors, grids, horizon, pairs, work)
    fresh = _ladder_ratios(draw, measure, factors, grids, horizon, pairs)
    for got, want in zip(warm, fresh, strict=True):
        assert got.keys() == want.keys()
        assert np.array_equal(list(got.values()), list(want.values()))


# every per-chunk array of a 1-D ladder on two resolutions, with r in
# {4, 6} (STRICHARTZ_PAIRS), by its workspace role
LADDER_ROLES = {"w", "dft", "squares", "imag2", "rho", "coarse", "fine", "rho_n",
                "power1", "power2", "power3"}


def test_warm_ladder_allocates_no_chunk_arrays():
    # on the benchmark's Strichartz config (n_x 256 and 512, t 4, band 8)
    # fresh chunk arrays peak at about 2.5 MiB; a warm workspace leaves
    # only the per-call arrays (phases, coefficients, the time series).
    # numpy's own iterator buffers take most of that peak, so one role put
    # back on a fresh array stays under the bound: the role set and the
    # buffers' identity show it
    draw, measure, factors, grids = _ladder_setup("nondiv", 1, 8, 256, 5)
    work = experiments.LadderWorkspace()
    _ladder_ratios(draw, measure, factors, grids, 4.0, STRICHARTZ_PAIRS, work)
    buffers = dict(work._flat)
    tracemalloc.start()
    try:
        _ladder_ratios(draw, measure, factors, grids, 4.0, STRICHARTZ_PAIRS, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert buffers.keys() == work._flat.keys() == LADDER_ROLES
    assert all(work._flat[role] is flat for role, flat in buffers.items())


def test_integer_powers_match_pow():
    # repeated multiplication shares the lower powers and agrees with **
    dens = np.random.default_rng(3).random(1000)
    powers = {1: dens}
    work = experiments.LadderWorkspace()
    for h in (3, 2, 4, 1):
        np.testing.assert_allclose(experiments._int_power(powers, h, work), dens**h, rtol=1e-15)
    assert sorted(powers) == [1, 2, 3, 4]


def test_ladder_clips_roundoff_negative_density():
    # x modes +-1 in one alpha column: rho = 4 cos^2(pi x / L) for all t,
    # zero on grid points, where the resampled density is roundoff of
    # either sign; the odd r must not turn it into a NaN
    spec = ModelSpec("nondiv", 1, 4)
    disc = DiscretizationSpec(n_x=256)
    measure, factors = build_axis(spec, disc).mode_factors(8)
    grid = BoxGrid(1, disc.resolved_box(1), 256)
    draw = np.zeros((17, 9), complex)
    draw[7, 0] = draw[9, 0] = 1.0
    pairs = [(12.0, 3.0)]
    (got,) = _ladder_ratios(draw, measure, factors, [grid], 1.0, pairs)
    want = reference_ladder_ratios(draw, measure, factors, grid, 1.0, pairs)
    for key, value in want.items():
        assert abs(got[key] - value) <= 1e-13 * value, key


def test_strichartz_rows_deterministic():
    cfg = small_cfg()
    a = run_strichartz_ensemble(cfg, [(6.0, 6.0)])
    b = run_strichartz_ensemble(cfg, [(6.0, 6.0)])
    assert rows_csv_bytes(a.rows) == rows_csv_bytes(b.rows)
    assert a.passed


def test_ensemble_max_monotone_in_size():
    def k0_max(report):
        return max(row["ratio"] for row in report.rows
                   if (row["variant"], row["q"], row["r"], row["n_x"]) == ("k0", 6.0, 6.0, 64))

    small = run_strichartz_ensemble(small_cfg(ensemble=4), [(6.0, 6.0)])
    large = run_strichartz_ensemble(small_cfg(ensemble=8), [(6.0, 6.0)])
    assert k0_max(large) >= k0_max(small) - 1e-15


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
    from ounls.experiments import run_scattering

    with pytest.raises(ConfigError):
        run_conservation(small_cfg(model=ModelSpec("nondiv", 1, 4, -1)))
    with pytest.raises(ConfigError):
        run_scattering(small_cfg(model=ModelSpec("div", 1, 4)))
    with pytest.raises(ConfigError):
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
    assert abs(mass(f1, m1) - mass(f2, m2)) < 1e-10 * mass(f1, m1)
    np.testing.assert_allclose(f2[::2], f1, atol=1e-12)


def test_scattering_emits_u_plus(monkeypatch):
    from ounls.experiments import run_scattering

    monkeypatch.setattr(experiments, "SCATTERING_LADDER", (0.25, 0.5, 1.0))
    cfg = small_cfg(
        scenario="scattering",
        model=ModelSpec("nondiv", 1, 4),
        disc=DiscretizationSpec(n_x=64, box_half_length=4 * math.pi),
        horizon=1.0,
        dt=5e-3,
    )
    report = run_scattering(cfg)
    u_plus = report.artifacts["u_plus"]
    assert u_plus.shape == (64, 64)
    assert np.all(np.isfinite(u_plus.view(np.float64)))
    assert len(report.rows) == 3


def test_linear_only_pullback_is_constant(monkeypatch):
    # with the nonlinearity disabled the pullback w(t) never moves
    monkeypatch.setattr(stepping, "apply_nonlinearity",
                        lambda data, mach, dt, columns=slice(None): data.copy())
    spec = ModelSpec("nondiv", 1, 4)
    mach = build_machinery(spec, DiscretizationSpec(n_x=64, box_half_length=4 * math.pi))
    data = gaussian_field(mach, InitialData(amplitude=0.05))
    pullbacks = []

    def record(snap, time, m):
        back = m.propagator(-time).apply(snap.data) if time else snap.data
        pullbacks.append(back)
        return time

    integrate(data, mach, [0.0, 0.5, 1.0], StepControl(dt=2e-3), record_fn=record)
    for later in pullbacks[1:]:
        drift = math.sqrt(mass(later - pullbacks[0], mach))
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

    def record(data, time, m):
        rows.append((time, virial(data, m), virial_rhs(data, m)))
        return rows[-1]

    integrate(data, mach, samples, StepControl(dt=1e-3), record_fn=record)
    v = np.array([r[1] for r in rows])
    rhs = np.array([r[2] for r in rows])
    d2 = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / delta**2
    for value, target in zip(d2, rhs[1:-1]):
        assert abs(value - target) <= max(1e-3 * abs(target), 5e-4)


def test_strichartz_threads_match_serial():
    # n_x 64, t 1 is one chunk; n_x 256, t 4 is 257 samples in chunks of
    # 32, the last of one sample, through each thread's own workspace
    nine_chunks = dict(disc=DiscretizationSpec(n_x=256), horizon=4.0, initial=InitialData(band=8))
    for changes in ({}, nine_chunks):
        a = run_strichartz_ensemble(small_cfg(threads=1, **changes), [(6.0, 6.0)])
        b = run_strichartz_ensemble(small_cfg(threads=2, **changes), [(6.0, 6.0)])
        assert rows_csv_bytes(a.rows) == rows_csv_bytes(b.rows), changes


def test_virial_first_derivative_against_centered_difference():
    # V'(0) = 4 Im int x . grad_x u conj(u) checked against (V(d)-V(-d))/2d
    spec = ModelSpec("div", 1, 4, -1)
    disc = DiscretizationSpec(n_x=128, box_half_length=4 * math.pi, div_nodes=257)
    mach = build_machinery(spec, disc)
    base = 1.4 * gaussian_field(mach, InitialData())
    data = base * np.exp(0.3j * mach.grid.coordinates()[0])[..., None]
    delta = 1e-3

    def virial_at(t):
        _, state = integrate(data, mach, [abs(t)], StepControl(dt=abs(t) / 4 if t else 1e-3))
        out = state.snapshot(mach).data
        if t < 0:
            _, state = integrate(np.conj(data), mach, [abs(t)], StepControl(dt=abs(t) / 4))
            out = np.conj(state.snapshot(mach).data)
        return virial(out, mach)

    fd = (virial_at(delta) - virial_at(-delta)) / (2.0 * delta)
    analytic = virial_dt(data, mach)
    assert abs(fd - analytic) < 1e-4 * max(1.0, abs(analytic))


def row7_on_65_nodes(**initial):
    """Row 7's config on a 65-node div grid, with ``initial`` changes."""
    cfg = next(row for row in ACCEPTANCE if row.key == "7").config(ScenarioConfig())
    return replace(cfg, disc=replace(cfg.disc, div_nodes=65),
                   initial=replace(cfg.initial, **initial))


# on 65 alpha nodes the tail monitor reads above its 1e-8 from t = 0 on
@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:alpha truncation tail:RuntimeWarning")
def test_blowup_row_runs_on_a_65_node_grid():
    report = run_blowup(row7_on_65_nodes())
    assert report.passed and len(report.checks) == 3, report.checks
    flag = next(c for c in report.checks if c.name == "flag_before_1p5_root")
    assert abs(flag.value - 0.0570) <= 1e-3
    for leg in ("focusing leg", "defocusing control"):
        note = next(n for n in report.notes if n.startswith(f"{leg}: div flow band"))
        bands = [part.split(" at t ")[0] for part in note.split(": ")[-1].split(", ")]
        assert bands and all(band.isdigit() for band in bands), note


@pytest.mark.filterwarnings("ignore:boundary shell mass:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:alpha truncation tail:RuntimeWarning")
@pytest.mark.parametrize("amplitude,samples", [(4.0, 1), (3.0, 2)])
def test_blowup_flagged_before_four_samples_is_red(amplitude, samples):
    # the leg flags before its third (amplitude 4) or fourth (amplitude 3)
    # sample: no centred second difference, no fit with a covariance
    report = run_blowup(row7_on_65_nodes(amplitude=amplitude))
    assert len(report.rows) == samples
    checks = {c.name: c for c in report.checks}
    assert not checks["concavity_certificate"].passed
    assert math.isnan(checks["concavity_certificate"].value)
    assert not checks["parabola_root"].passed
    assert checks["parabola_root"].note.startswith(f"{samples} samples before the flag")


def test_morawetz_samples_stop_at_the_horizon(monkeypatch):
    # a horizon off the 0.01 sample grid: the schedule ends at the last
    # sample before it, so neither resolution integrates past run.t
    schedules = []

    def spy(data, mach, samples, *args, **kwargs):
        schedules.append(list(samples))
        return integrate(data, mach, samples, *args, **kwargs)

    monkeypatch.setattr(experiments, "integrate", spy)
    experiments.run_morawetz(small_cfg(scenario="morawetz", model=ModelSpec("div", 1, 2),
                                       disc=DiscretizationSpec(n_x=64, div_nodes=65),
                                       horizon=0.026, dt=2e-3))
    assert schedules == [[0.0, 0.01, 0.02]] * 2
