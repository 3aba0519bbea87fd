"""Scenario runners: conservation audits, operator-identity convergence,
estimate-constant ensembles, small-data scattering, and focusing blow-up.

Each runner returns a Report whose checks decide the CLI exit code; rows
hold the per-member / per-sample data the verdict was computed from, so
every verdict is reproducible from its own report.  ``ACCEPTANCE`` binds
the runners to the configs of acceptance criteria 2-9; `ounls all` and the
acceptance tests both run it.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import hermite, observables
from .config import InitialData, ScenarioConfig, check_admissible_pair
from .grids import BoxGrid
from .models import (
    DEFOCUSING, FOCUSING, MODEL_DIV, MODEL_NONDIV, DiscretizationSpec, ModelSpec,
)
from .operators import (
    HermiteAxis, Machinery, build_axis, build_div_operator, build_machinery,
    verify_div_identity,
)
from .reporting import Report, rows_csv_bytes
from .state import Field
from .stepping import BlowupThresholds, StepControl, integrate

SAMPLES_PER_UNIT_TIME = 64


@dataclass
class EnsembleReport(Report):
    """Report plus per-group ratio statistics keyed by (variant, n_x)."""

    stats: dict = field(default_factory=dict)


class NumericCheckError(AssertionError):
    """A scenario assertion failed (exit-code-2 semantics)."""


# ---------------------------------------------------------------- initial data


def gaussian_field(mach: Machinery, init: InitialData) -> np.ndarray:
    """amplitude * exp(i k0 x1) * exp(-|x|^2/(2 sx^2)) * exp(-a^2/(2 sa^2))."""
    coords = mach.grid.coordinates()
    envelope = np.exp(-sum(c**2 for c in coords) / (2.0 * init.x_width**2))
    if init.wavenumber:
        envelope = envelope * np.exp(1j * init.wavenumber * coords[0])
    profile = np.exp(-mach.axis.nodes**2 / (2.0 * init.alpha_width**2))
    return (init.amplitude * envelope)[..., None] * profile


def random_band_coeffs(rng: np.random.Generator, dim: int, band: int) -> np.ndarray:
    """Unit-normal complex coefficients on |k| <= band (per axis), n <= band."""
    shape = (2 * band + 1,) * dim + (band + 1,)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _embed_x_modes(coeffs: np.ndarray, grid: BoxGrid, band: int) -> np.ndarray:
    """Place (2*band+1)^d x-mode coefficients into a unitary-FFT array so
    the represented function is independent of the grid resolution."""
    idx = np.arange(-band, band + 1) % grid.n_points
    hat = np.zeros(grid.shape + coeffs.shape[grid.dim :], dtype=np.complex128)
    scale = math.sqrt(grid.n_points) ** grid.dim
    if grid.dim == 1:
        hat[idx] = coeffs * scale
    else:
        hat[np.ix_(idx, idx)] = coeffs * scale
    return hat


def band_coeffs_to_field(coeffs: np.ndarray, mach: Machinery, band: int) -> np.ndarray:
    """Nodal field from low-mode coefficients; the underlying function is
    resolution independent (same coefficients give the same field on any
    grid that resolves the band)."""
    grid = mach.grid
    hat = _embed_x_modes(coeffs, grid, band)
    nodal_x = np.fft.ifftn(hat, axes=grid.x_axes, norm="ortho")
    return nodal_x @ mach.axis.band_shapes(band)


def _summary(values: np.ndarray) -> dict:
    """max, mean and the 50% / 90% quantiles of an ensemble of ratios."""
    return {"max": float(values.max()), "mean": float(values.mean()),
            "q50": float(np.quantile(values, 0.5)), "q90": float(np.quantile(values, 0.9))}


def _run_members(worker, count: int, threads: int) -> list:
    if threads <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))


# ---------------------------------------------------------------- conservation


def run_conservation(cfg: ScenarioConfig) -> Report:
    """Integrate to the horizon at dt and 2*dt; assert the drift invariants:
    native mass < 1e-9, energy < 1e-5, and the 2dt/dt energy-drift ratio
    in [3.5, 4.5] (second-order splitting)."""
    if cfg.model.focusing:
        raise NumericCheckError("conservation audit expects a defocusing model")
    report = Report("conservation")
    mach = build_machinery(cfg.model, cfg.disc)
    u0 = Field(gaussian_field(mach, cfg.initial))
    drifts, ran = {}, {}
    for dt in (2.0 * cfg.dt, cfg.dt):
        records, state = integrate(
            u0.copy(), mach, cfg.horizon, cfg.sample_times(), StepControl(dt=dt)
        )
        ran[dt] = state.dt
        mass0 = records[0].mass
        energy0 = records[0].energy
        mass_scale = mass0 if mass0 > 0 else 1.0
        energy_scale = abs(energy0) if energy0 else 1.0
        mass_drift = max(abs(r.mass - mass0) for r in records) / mass_scale
        energy_drift = max(abs(r.energy - energy0) for r in records) / energy_scale
        drifts[dt] = (mass_drift, energy_drift)
        for r in records:
            report.rows.append(
                {
                    "dt": dt,
                    "time": r.time,
                    "mass_drift": abs(r.mass - mass0) / mass_scale,
                    "energy_drift": abs(r.energy - energy0) / energy_scale,
                }
            )
    report.add("mass_drift", drifts[cfg.dt][0] < 1e-9, drifts[cfg.dt][0], 1e-9,
               comparator="<")
    report.add("energy_drift", drifts[cfg.dt][1] < 1e-5, drifts[cfg.dt][1], 1e-5,
               comparator="<")
    ratio = drifts[2.0 * cfg.dt][1] / drifts[cfg.dt][1]
    report.add(
        "energy_drift_halving_ratio", 3.5 <= ratio <= 4.5, ratio, (3.5, 4.5),
        note=f"expected ~4 for a second-order splitting; substeps run "
        f"{ran[2.0 * cfg.dt]:.6g} and {ran[cfg.dt]:.6g}", comparator="in",
    )
    return report


# ------------------------------------------------------------------ strichartz


def _ladder_ratios(
    draw: np.ndarray,
    measure: float,
    factors: dict,
    grid: BoxGrid,
    horizon: float,
    pairs: list[tuple[float, float]],
) -> dict:
    """Space-time ratios of the exactly evolved member for every variant and
    exponent pair, from one pass over the time ladder.

    R = ||D^k exp(itL) f||_{L^q_t L^r_x (alpha norm)} / ||D^k f||.  The
    space-time norms are diagonal in the alpha modes, so the unit-modulus
    alpha phases drop out of every |.|^2 and only the x evolution (exact
    Fourier phases) remains; per x point the alpha norm is
    measure * ||draw_row @ factor||^2 for each variant's factor, as
    ``axis.mode_factors`` returns them.  The time integral is a composite
    trapezoid (max for q = inf).
    """
    band = draw.shape[0] // 2  # draw is ((2b+1)^d..., b+1)
    x_axes_b = tuple(a + 1 for a in grid.x_axes)
    k = grid.wavenumbers
    if grid.dim == 1:
        k2 = k[:, None] ** 2
        ikx = (1j * k)[:, None]
    else:
        k2 = k[:, None, None] ** 2 + k[None, :, None] ** 2
        ikx = (1j * k)[:, None, None]  # D = d/dx_1

    hats = {name: _embed_x_modes(draw @ f, grid, band) for name, f in factors.items()}
    denom = {
        name: math.sqrt(measure * grid.cell_volume * float(np.sum(np.abs(h) ** 2)))
        for name, h in hats.items()
    }
    hats["k1"] = ikx * hats["k0"]
    denom["k1"] = math.sqrt(
        measure * grid.cell_volume * float(np.sum(np.abs(hats["k1"]) ** 2))
    )

    n_t = int(round(SAMPLES_PER_UNIT_TIME * horizon)) + 1
    ts = np.linspace(0.0, horizon, n_t)
    r_values = sorted({pair[1] for pair in pairs})
    space = {(v, r): np.empty(n_t) for v in hats for r in r_values}
    x_phase = np.exp(-1j * ts.reshape((-1,) + (1,) * grid.dim) * k2[..., 0])

    chunk = max(1, int(4e6 // max(h.size for h in hats.values())))
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        sub = ts[start:stop]
        for name, hat in hats.items():
            w = np.fft.ifftn(
                hat[None] * x_phase[start:stop][..., None], axes=x_axes_b, norm="ortho"
            )
            g = np.sqrt(measure * np.sum(w.real**2 + w.imag**2, axis=-1))
            for r in r_values:
                if math.isinf(r):
                    vals = g.reshape(len(sub), -1).max(axis=1)
                else:
                    vals = (
                        grid.cell_volume * np.sum(g**r, axis=tuple(range(1, g.ndim)))
                    ) ** (1.0 / r)
                space[(name, r)][start:stop] = vals

    out = {}
    for q, r in pairs:
        for name in denom:
            series = space[(name, r)]
            if math.isinf(q):
                tnorm = float(series.max())
            else:
                tnorm = float(np.trapezoid(series**q, ts) ** (1.0 / q))
            out[(name, (q, r))] = tnorm / denom[name] if denom[name] else 0.0
    return out


def run_strichartz_ensemble(
    cfg: ScenarioConfig, pairs: list[tuple[float, float]] | None = None
) -> EnsembleReport:
    """Linear-evolution boundedness proxy: max ensemble ratio at 2*n_x must
    sit within 15% of the max at n_x, for every derivative/norm variant and
    every requested admissible exponent pair (by default the configured
    (q, r))."""
    if pairs is None:
        pairs = [(cfg.strichartz_q, cfg.strichartz_r)]
    for q, r in pairs:
        check_admissible_pair(q, r, cfg.model.dim)
    label = ",".join(f"(q={q:g},r={r:g})" for q, r in pairs)
    report = EnsembleReport(f"strichartz{label}")

    spec = cfg.model
    band = cfg.initial.band
    measure, factors = build_axis(spec, cfg.disc).mode_factors(band)
    variant_names = ("k0", "k1") + tuple(factors)[1:]

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.ensemble)
    members = [
        random_band_coeffs(np.random.default_rng(seq), spec.dim, band) for seq in seeds
    ]

    resolutions = (cfg.disc.n_x, 2 * cfg.disc.n_x)
    box = cfg.disc.resolved_box(spec.dim)
    for n_x in resolutions:
        grid = BoxGrid(spec.dim, box, n_x)

        def worker(i, grid=grid):
            return _ladder_ratios(members[i], measure, factors, grid, cfg.horizon, pairs)

        results = _run_members(worker, cfg.ensemble, cfg.threads)
        for key_pair in pairs:
            for variant in variant_names:
                ratios = np.array([res[(variant, key_pair)] for res in results])
                report.stats[(variant, key_pair, n_x)] = _summary(ratios)
        for i, res in enumerate(results):
            for (variant, (q, r)), value in sorted(res.items()):
                report.rows.append(
                    {"member": i, "variant": variant, "q": q, "r": r, "n_x": n_x,
                     "ratio": value}
                )

    for key_pair in pairs:
        for variant in variant_names:
            lo = report.stats[(variant, key_pair, resolutions[0])]["max"]
            hi = report.stats[(variant, key_pair, resolutions[1])]["max"]
            rel = abs(hi - lo) / lo
            q, r = key_pair
            report.add(
                f"resolution_stability_{variant}_q{q:g}_r{r:g}", rel <= 0.15, rel, 0.15,
                note=f"max ratio {lo:.6g} -> {hi:.6g}",
            )
    return report


# ------------------------------------------------------------------ embeddings


COUNTEREXAMPLE_NODES = 4001  # trapezoid nodes on [-radius, radius]


def counterexample_ratio(power: int, radius: float) -> float:
    """Unweighted nonlinear-estimate ratio for u = exp(a^2/8) truncated to
    [-radius, radius]; grows without bound as the radius increases."""
    a = np.linspace(-radius, radius, COUNTEREXAMPLE_NODES)
    w = np.full(COUNTEREXAMPLE_NODES, a[1] - a[0])
    w[0] *= 0.5
    w[-1] *= 0.5
    u = np.exp(a**2 / 8.0)
    du = (a / 4.0) * u
    gauss = np.exp(-0.5 * a**2)
    nl = u ** (power + 1)
    dnl = (power + 1) * u**power * du
    num = math.sqrt(float(((nl**2 + dnl**2) * gauss) @ w))
    den = math.sqrt(float(((u**2 + du**2) * gauss) @ w))
    return num / den ** (power + 1)


def _h1alpha_density(coeffs: np.ndarray, axis: HermiteAxis) -> np.ndarray:
    """sum_n (1 + n)|c_n|^2 over the last axis: the squared weighted H^1 in
    alpha, the modal mass plus the axis's gradient form."""
    power = coeffs.real**2 + coeffs.imag**2
    return power.sum(axis=-1) + axis.grad_density(coeffs, power)


def embedding_ratios(
    coeffs: np.ndarray, band: int, n_alpha: int, power: int
) -> tuple[np.ndarray, np.ndarray]:
    """(weighted-Sobolev ratio, nonlinear-estimate ratio) per profile,
    measured end to end through the basis machinery at resolution n_alpha:
    nodal evaluation, the node sup of |u| e^{-a^2/2}, and the modal
    weighted-H^1 norm of the quadrature projection of the nonlinear term."""
    axis = HermiteAxis(hermite.build_basis(n_alpha))
    u = coeffs @ axis.basis.eigenfunctions[:band]
    h1 = np.sqrt(_h1alpha_density(axis.forward(u), axis))
    damp = np.exp(-0.5 * axis.nodes**2)
    sup = (np.abs(u) * damp).max(axis=-1)
    amp2 = u.real**2 + u.imag**2
    nonlinear = (amp2 * damp**2) ** (power // 2) * u
    h1v = np.sqrt(_h1alpha_density(axis.forward(nonlinear), axis))
    return sup / h1, h1v / h1 ** (power + 1)


def run_embedding_ensembles(cfg: ScenarioConfig) -> EnsembleReport:
    """Max weighted-Sobolev and nonlinear-estimate ratios over random band
    limited alpha profiles, measured at basis sizes n_alpha and 2*n_alpha
    (same profiles, so stability within 15% says the estimated constants do
    not depend on the discretization), plus the truncated exp(a^2/8)
    counterexample for the unweighted variant."""
    report = EnsembleReport("embeddings")
    power = cfg.model.power
    band = cfg.initial.band
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, band]))
    coeffs = rng.standard_normal((cfg.ensemble, band)) + 1j * rng.standard_normal(
        (cfg.ensemble, band)
    )
    resolutions = (cfg.disc.n_alpha, 2 * cfg.disc.n_alpha)
    for n_alpha in resolutions:
        sobolev, nonlin = embedding_ratios(coeffs, band, n_alpha, power)
        report.stats[("sobolev", n_alpha)] = _summary(sobolev)
        report.stats[("nonlinear", n_alpha)] = _summary(nonlin)
        for i in range(cfg.ensemble):
            report.rows.append(
                {"member": i, "n_alpha": n_alpha,
                 "sobolev_ratio": float(sobolev[i]), "nonlinear_ratio": float(nonlin[i])}
            )

    for name in ("sobolev", "nonlinear"):
        lo = report.stats[(name, resolutions[0])]["max"]
        hi = report.stats[(name, resolutions[1])]["max"]
        report.add(f"finite_{name}", math.isfinite(lo) and math.isfinite(hi), hi, math.inf,
                   comparator="finite")
        rel = abs(hi - lo) / lo
        report.add(f"resolution_stability_{name}", rel <= 0.15, rel, 0.15,
                   note=f"max ratio {lo:.6g} -> {hi:.6g}")

    radii = (6.0, 9.0, 12.0)
    growth = [counterexample_ratio(2, radius) for radius in radii]
    for radius, value in zip(radii, growth):
        report.rows.append({"counterexample_radius": radius, "unweighted_ratio": value})
    report.add(
        "counterexample_monotone_growth",
        growth[0] < growth[1] < growth[2],
        growth[2] / growth[0],
        math.inf,
        comparator="increasing",
        note="unweighted ratio must grow with the truncation radius",
    )
    return report


# ------------------------------------------------------------------ scattering


def _l2x_h1alpha(data: np.ndarray, mach: Machinery) -> float:
    dens = _h1alpha_density(mach.axis.forward(data), mach.axis)
    return math.sqrt(mach.grid.cell_volume * float(dens.sum()))


def run_scattering(cfg: ScenarioConfig) -> Report:
    """Pullback Cauchy ladder: w(t) = exp(-itL) u(t) sampled on the ladder
    (base point t = 0); differences must decrease strictly and the last must
    fall below a tenth of the first."""
    if cfg.model.model != MODEL_NONDIV:
        raise NumericCheckError("scattering scenario runs on the drift-form model")
    report = Report("scattering")
    mach = build_machinery(cfg.model, cfg.disc)
    raw = gaussian_field(mach, cfg.initial)
    raw *= cfg.scattering_delta / _l2x_h1alpha(raw, mach)
    ladder = list(cfg.scattering_ladder)
    horizon = ladder[-1]

    pullbacks = []

    def record_pullback(fld, spec, machx):
        back = machx.propagator(-fld.time).apply(fld.data) if fld.time else fld.data
        pullbacks.append((fld.time, back))
        return observables.sample_record(fld, spec, machx)

    integrate(
        Field(raw),
        mach,
        horizon,
        [0.0] + ladder,
        StepControl(dt=cfg.dt),
        record_fn=record_pullback,
    )
    diffs = []
    for (_, w0), (t1, w1) in zip(pullbacks, pullbacks[1:]):
        diffs.append((t1, _l2x_h1alpha(w1 - w0, mach)))
    for t, d in diffs:
        report.rows.append({"ladder_time": t, "cauchy_difference": d})
    report.artifacts["u_plus"] = pullbacks[-1][1]  # the inferred scattering state
    values = [d for _, d in diffs]
    decreasing = all(a > b for a, b in zip(values, values[1:]))
    report.add("cauchy_strictly_decreasing", decreasing, values[-1],
               values[-2] if len(values) > 1 else math.inf, comparator="decreasing")
    report.add(
        "cauchy_final_below_tenth",
        values[-1] < 0.1 * values[0],
        values[-1] / values[0],
        0.1,
        comparator="<",
    )
    if not decreasing:
        report.notes.append("no numerical scattering at this scale")
    return report


# --------------------------------------------------------------------- blowup


def _fit_parabola_root(times: np.ndarray, values: np.ndarray):
    """Least-squares quadratic; the root is reported only when the leading
    coefficient is negative beyond three fit sigmas."""
    coeff, cov = np.polyfit(times, values, 2, cov=True)
    sigma = math.sqrt(max(cov[0, 0], 0.0))
    if not (coeff[0] < 0 and abs(coeff[0]) > 3.0 * sigma):
        return None, coeff
    roots = np.roots(coeff)
    real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
    return (real[0] if real else None), coeff


def _step_note(leg: str, state) -> str:
    """Step counts and the accepted dt range of one adaptive run."""
    lo, hi = state.dt_range or (math.nan, math.nan)
    return (f"{leg}: {state.step_count} accepted ({state.floor_count} at the dt floor) "
            f"and {state.rejected_count} rejected steps, accepted dt in [{lo:.6g}, {hi:.6g}]")


def run_blowup(cfg: ScenarioConfig) -> Report:
    """Focusing divergence-form run: scale amplitude until the energy is
    negative, integrate under the blow-up guard, certify concavity of the
    virial potential, and cross-check the flag time against the fitted
    parabola root.  A defocusing control with identical data must survive
    twice the horizon unflagged."""
    if cfg.model.model != MODEL_DIV:
        raise NumericCheckError("blow-up scenario runs on the divergence-form model")
    report = Report("blowup")
    spec = replace(cfg.model, sign=FOCUSING)
    mach = build_machinery(spec, cfg.disc)

    init = cfg.initial
    data = gaussian_field(mach, init)
    doublings = 0
    while observables.energy(data, spec, mach) >= 0.0:
        doublings += 1
        if doublings > 40:
            raise NumericCheckError(
                "amplitude scaling failed to reach negative energy in 40 doublings"
            )
        data = data * 2.0
    report.notes.append(f"amplitude doublings to reach E<0: {doublings}")

    # dt floor raised for this scenario: with the pinned 1e-8 discrepancy
    # threshold the controller would need ~1e5 substeps to reach the default
    # 1e-8 floor, and past ~3e-5 the collapse is already under-resolved
    # (the dealias mask starts bleeding the collapsing profile, which is
    # what breaks the sampled virial identity).  The defocusing control
    # never leaves ~1.25e-4, so both legs share the same floor.
    dt_floor = 3e-5
    sample_dt = 0.005
    samples = np.arange(0.0, cfg.horizon + 0.5 * sample_dt, sample_dt)
    control = StepControl(dt=cfg.dt, adaptive=True, dt_min=dt_floor)
    guard = BlowupThresholds(dt_min=dt_floor)
    records, state = integrate(Field(data.copy()), mach, cfg.horizon, samples, control, guard)
    if not state.blowup_flag:
        raise NumericCheckError("focusing run with E<0 never raised the blow-up flag")
    flag_time = state.blowup_time_estimate
    energy0 = records[0].energy
    bound = 16.0 * energy0
    tol = 1e-2 * abs(bound)

    times = np.array([r.time for r in records])
    virials = np.array([r.virial for r in records])
    for r in records:
        report.rows.append({"time": r.time, "virial": r.virial, "virial_rhs": r.virial_rhs,
                            "energy": r.energy, "h1": r.h1_native})

    worst = -math.inf
    if len(records) >= 3:
        d2v = (virials[2:] - 2.0 * virials[1:-1] + virials[:-2]) / sample_dt**2
        worst = float(d2v.max())
    report.add(
        "concavity_certificate",
        worst <= bound + tol,
        worst,
        bound + tol,
        note=f"max centered d2V/dt2 vs 16*E0 = {bound:.6g}",
    )

    root, coeff = _fit_parabola_root(times, virials)
    if root is None:
        report.add("parabola_root", False, math.nan, math.nan,
                   note="leading coefficient not negative beyond 3 sigma",
                   comparator="finite")
    else:
        report.add(
            "flag_before_1p5_root",
            flag_time <= 1.5 * root,
            flag_time,
            1.5 * root,
            note=f"fitted quadratic root {root:.6g}",
        )
    report.notes.append(f"blow-up flagged at t = {flag_time:.6g}")
    tail_h1 = ", ".join(f"{r.h1_native:.5g}" for r in records[-3:])
    report.notes.append(f"last sampled H1 values before the flag: {tail_h1}")
    report.notes.append(_step_note("focusing leg", state))

    control_spec = replace(cfg.model, sign=DEFOCUSING)
    control_mach = build_machinery(control_spec, cfg.disc)
    control_horizon = 2.0 * flag_time
    control_samples = np.linspace(0.0, control_horizon, 41)
    _, control_state = integrate(
        Field(data.copy()), control_mach, control_horizon, control_samples,
        StepControl(dt=cfg.dt, adaptive=True, dt_min=dt_floor),
        BlowupThresholds(dt_min=dt_floor),
    )
    report.notes.append(_step_note("defocusing control", control_state))
    report.add(
        "defocusing_control_unflagged",
        not control_state.blowup_flag,
        float(control_state.blowup_flag),
        0.0,
        note=f"control horizon {control_horizon:.6g}",
        comparator="==",
    )
    return report


# ------------------------------------------------------------------- identity


def identity_profiles():
    return (
        ("sin_gauss", lambda a: np.sin(a) * np.exp(-(a**2) / 8.0)),
        ("shifted_gauss", lambda a: np.exp(-((a - 1.0) ** 2) / 4.0)),
        ("poly_gauss", lambda a: (1.0 + a**2) * np.exp(-(a**2) / 6.0)),
    )


def run_identity(cfg: ScenarioConfig) -> Report:
    """Divergence-vs-drift identity: the flux-form action minus the
    Gaussian-weighted modal action must vanish at second order in the
    uniform grid spacing (fitted order >= 1.8 across 257 -> 513 -> 1025)."""
    report = Report("identity")
    basis = hermite.build_basis(max(cfg.disc.n_alpha, 128))
    grids = (257, 513, 1025)
    spacings = [2.0 * cfg.disc.div_half_width / (n - 1) for n in grids]
    for name, fn in identity_profiles():
        residuals = []
        for n in grids:
            op = build_div_operator(n, cfg.disc.div_half_width)
            residuals.append(verify_div_identity(fn, basis, op))
        order = float(np.polyfit(np.log(spacings), np.log(residuals), 1)[0])
        for n, res in zip(grids, residuals):
            report.rows.append({"profile": name, "nodes": n, "residual": res})
        report.add(f"order_{name}", order >= 1.8, order, 1.8,
                   note=f"residuals {['%.3e' % r for r in residuals]}", comparator=">=")
    return report


# -------------------------------------------------------------------- morawetz


def run_morawetz(cfg: ScenarioConfig) -> Report:
    """Along one defocusing run, |dI/dt| / (||u||^3 ||u||_{H1x-dot}) must
    have a finite max, stable within 20% when n_x doubles, for both rho."""
    report = Report("morawetz")
    sample_dt = 0.01
    samples = np.arange(0.0, cfg.horizon + 0.5 * sample_dt, sample_dt)
    maxima = {}
    for n_x in (cfg.disc.n_x, 2 * cfg.disc.n_x):
        disc = replace(cfg.disc, n_x=n_x)
        mach = build_machinery(cfg.model, disc)
        data = gaussian_field(mach, cfg.initial)

        rows = []

        def record(fld, spec, machx):
            # one snapshot: m(x) once, one auto-correlation for both rho
            snap = observables.Snapshot(fld, spec, machx)
            rows.append(
                {
                    "time": fld.time,
                    "I_abs": observables.morawetz_I(snap, spec, machx, "abs"),
                    "I_bracket": observables.morawetz_I(snap, spec, machx, "bracket"),
                    "bound": observables.morawetz_dI_bound(snap, spec, machx),
                    "weighted_potential": observables.morawetz_weighted_potential(
                        snap, spec, machx
                    ),
                }
            )
            return rows[-1]

        integrate(Field(data), mach, cfg.horizon, samples, StepControl(dt=cfg.dt),
                  record_fn=record)
        ts = np.array([r["time"] for r in rows])
        bound = np.array([r["bound"] for r in rows])
        for rho in ("abs", "bracket"):
            ivals = np.array([r[f"I_{rho}"] for r in rows])
            didt = (ivals[2:] - ivals[:-2]) / (ts[2:] - ts[:-2])
            ratio = np.abs(didt) / bound[1:-1]
            maxima[(rho, n_x)] = float(ratio.max())
            report.rows.append({"rho": rho, "n_x": n_x, "max_ratio": float(ratio.max())})
        # time-integrated weighted potential: a measured constant only, the
        # interaction bound provides no numeric value to assert against
        lhs = float(np.trapezoid([r["weighted_potential"] for r in rows], ts))
        report.rows.append({"rho": "bracket_lhs_integral", "n_x": n_x, "max_ratio": lhs})
        report.notes.append(
            f"time-integrated weighted potential at n_x={n_x}: {lhs:.6g}"
        )
    for rho in ("abs", "bracket"):
        lo = maxima[(rho, cfg.disc.n_x)]
        hi = maxima[(rho, 2 * cfg.disc.n_x)]
        report.add(f"finite_ratio_{rho}", math.isfinite(lo) and math.isfinite(hi), lo, math.inf,
                   comparator="finite")
        rel = abs(hi - lo) / lo
        report.add(f"resolution_stability_{rho}", rel <= 0.2, rel, 0.2,
                   note=f"max ratio {lo:.6g} -> {hi:.6g}")
    return report


# -------------------------------------------------------------------- simulate


def run_simulation(cfg: ScenarioConfig):
    """Plain integration of the configured model; returns (records, state)."""
    mach = build_machinery(cfg.model, cfg.disc)
    if cfg.initial.kind == "gaussian":
        data = gaussian_field(mach, cfg.initial)
    else:
        rng = np.random.default_rng(cfg.seed)
        data = band_coeffs_to_field(
            random_band_coeffs(rng, cfg.model.dim, cfg.initial.band), mach, cfg.initial.band
        )
        norm = math.sqrt(observables.mass(data, cfg.model, mach))
        data *= cfg.initial.amplitude / norm
    control = StepControl(dt=cfg.dt)
    return integrate(Field(data), mach, cfg.horizon, cfg.sample_times(), control)


# ----------------------------------------------------------- acceptance table


@dataclass(frozen=True)
class Criterion:
    """One row of the acceptance table.  ``run(cfg, reports)`` builds the
    row's config from the base ``cfg`` and returns its Report; ``reports``
    holds the other rows' reports by key (criterion 9 reads criterion 4's).
    """

    key: str
    title: str
    run: Callable[[ScenarioConfig, "AcceptanceReports"], Report]


STRICHARTZ_PAIRS = [(6.0, 6.0), (8.0, 4.0)]


def _box_cfg(cfg: ScenarioConfig, model: str, p: int, horizon: float, **changes):
    """The criterion-3 and criterion-8 runs: 256 points on an 8*pi box."""
    return replace(cfg, model=ModelSpec(model, 1, p), horizon=horizon, dt=1e-3,
                   disc=DiscretizationSpec(n_x=256, box_half_length=8 * math.pi),
                   **changes)


def _strichartz_cfg(cfg: ScenarioConfig, model: str) -> ScenarioConfig:
    return replace(cfg, model=ModelSpec(model, 1, 4), horizon=4.0,
                   disc=DiscretizationSpec(n_x=256), ensemble=64,
                   initial=replace(cfg.initial, band=8))


def run_determinism(cfg: ScenarioConfig, first: Report) -> Report:
    """The seeded ensemble that produced ``first``, rerun from ``cfg``, must
    emit byte-identical rows."""
    rerun = run_strichartz_ensemble(cfg, pairs=STRICHARTZ_PAIRS)
    report = Report("determinism")
    identical = rows_csv_bytes(rerun.rows) == rows_csv_bytes(first.rows)
    report.add("byte_identical_rows", identical, float(identical), 1.0,
               note=f"{len(rerun.rows)} rows compared", comparator="==")
    return report


# criteria 2-9 in `ounls all` order; criterion 1 (the OU eigenvalue check)
# has no scenario config and lives in the test suite
ACCEPTANCE = (
    Criterion("2", "criterion 2 (divergence/drift identity, order >= 1.8)",
              lambda cfg, reports: run_identity(cfg)),
    Criterion("3-nondiv", "criterion 3 (conservation, nondiv)",
              lambda cfg, reports: run_conservation(
                  _box_cfg(cfg, "nondiv", 4, 1.0, n_samples=101))),
    Criterion("3-div", "criterion 3 (conservation, div)",
              lambda cfg, reports: run_conservation(
                  _box_cfg(cfg, "div", 2, 1.0, n_samples=101))),
    Criterion("4-nondiv", "criterion 4 (space-time boundedness proxy, nondiv, "
              "(6,6)+(8,4), k=0/1 and weighted-H1 variant)",
              lambda cfg, reports: run_strichartz_ensemble(
                  _strichartz_cfg(cfg, "nondiv"), pairs=STRICHARTZ_PAIRS)),
    Criterion("4-div", "criterion 4 (space-time boundedness proxy, div, (6,6)+(8,4))",
              lambda cfg, reports: run_strichartz_ensemble(
                  _strichartz_cfg(cfg, "div"), pairs=STRICHARTZ_PAIRS)),
    Criterion("5", "criterion 5 (weighted Sobolev / nonlinear estimate ensembles "
              "+ exp(a^2/8) counterexample)",
              lambda cfg, reports: run_embedding_ensembles(
                  replace(cfg, model=ModelSpec("nondiv", 1, 2), ensemble=256,
                          initial=replace(cfg.initial, band=12)))),
    Criterion("6", "criterion 6 (small-data scattering Cauchy ladder)",
              lambda cfg, reports: run_scattering(
                  replace(cfg, model=ModelSpec("nondiv", 1, 4),
                          disc=DiscretizationSpec(n_x=256), horizon=16.0, dt=1e-3))),
    Criterion("7", "criterion 7 (virial identity and finite-time blow-up)",
              lambda cfg, reports: run_blowup(
                  replace(cfg, model=ModelSpec("div", 1, 4),
                          disc=DiscretizationSpec(n_x=128, box_half_length=4 * math.pi,
                                                  div_nodes=257),
                          horizon=0.45, dt=1e-3))),
    Criterion("8-div", "criterion 8 (interaction functional bound, div)",
              lambda cfg, reports: run_morawetz(_box_cfg(cfg, "div", 2, 0.5))),
    Criterion("8-nondiv", "criterion 8 (interaction functional bound, nondiv)",
              lambda cfg, reports: run_morawetz(_box_cfg(cfg, "nondiv", 4, 0.5))),
    Criterion("9", "criterion 9 (seeded determinism, byte-identical rows)",
              lambda cfg, reports: run_determinism(_strichartz_cfg(cfg, "nondiv"),
                                                   reports["4-nondiv"])),
)


class AcceptanceReports(dict):
    """Reports of the acceptance table by row key; a row runs on first
    access, with its config built from ``base``."""

    def __init__(self, base: ScenarioConfig):
        super().__init__()
        self.base = base

    def __missing__(self, key: str) -> Report:
        row = next(row for row in ACCEPTANCE if row.key == key)
        self[key] = report = row.run(self.base, self)
        return report


def run_acceptance(cfg: ScenarioConfig) -> list[Report]:
    """Every row of the acceptance table on the base ``cfg``, in table order."""
    reports = AcceptanceReports(cfg)
    return [reports[row.key] for row in ACCEPTANCE]
