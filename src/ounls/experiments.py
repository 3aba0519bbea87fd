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
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from . import hermite, observables
from .config import (
    MORAWETZ_SAMPLE_DT, ConfigError, InitialData, ScenarioConfig, check_admissible_pair,
    check_alpha_band_resolved, check_band_resolved, check_scenario, check_scenario_model,
)
from .grids import BoxGrid
from .models import DEFOCUSING, FOCUSING, DiscretizationSpec, ModelSpec
from .operators import (
    HermiteAxis, Machinery, build_axis, build_div_operator, build_machinery,
    verify_div_identity,
)
from .reporting import Report, rows_csv_bytes
from .stepping import StepControl, integrate

SAMPLES_PER_UNIT_TIME = 64
SCATTERING_LADDER = (2.0, 4.0, 8.0, 16.0)  # the Cauchy ladder's times; the last is the horizon


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


def _embed_x_modes(coeffs: np.ndarray, dim: int, n_points: int, band: int) -> np.ndarray:
    """Place (2*band+1)^d x-mode coefficients into a unitary-FFT array on
    n_points per axis, so the represented function is independent of the
    grid resolution."""
    idx = np.arange(-band, band + 1) % n_points
    hat = np.zeros((n_points,) * dim + coeffs.shape[dim:], dtype=np.complex128)
    scale = math.sqrt(n_points) ** dim
    if dim == 1:
        hat[idx] = coeffs * scale
    else:
        hat[np.ix_(idx, idx)] = coeffs * scale
    return hat


def band_coeffs_to_field(coeffs: np.ndarray, mach: Machinery, band: int) -> np.ndarray:
    """Nodal field from low-mode coefficients; the underlying function is
    resolution independent (same coefficients give the same field on any
    grid that resolves the band)."""
    grid = mach.grid
    check_band_resolved(grid.n_points, band)
    shapes = mach.axis.band_shapes(band)
    # a Hermite basis has only n_alpha rows; the div form evaluates them all
    check_alpha_band_resolved(len(shapes), band + 1)
    hat = _embed_x_modes(coeffs, grid.dim, grid.n_points, band)
    nodal_x = np.fft.ifftn(hat, axes=grid.x_axes, norm="ortho")
    return nodal_x @ shapes


def _run_members(worker, count: int, threads: int) -> list:
    if threads <= 1:
        return [worker(i) for i in range(count)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, range(count)))


def _add_resolution_stability(report: Report, name: str, lo: float, hi: float, bound: float):
    """The doubled-resolution gate: the ensemble or run maxima at the base
    resolution (lo) and at twice it (hi) agree within |hi - lo| / lo <= bound.
    A zero base maximum measured nothing, so it records NaN, which is red."""
    change = abs(hi - lo) / lo if lo else math.nan
    report.add(name, change, bound, note=f"max ratio {lo:.6g} -> {hi:.6g}")


# ---------------------------------------------------------------- conservation


def _sample_schedule(horizon: float, sample_dt: float) -> np.ndarray:
    """0, sample_dt, 2 sample_dt, ... up to the last multiple of sample_dt
    that is <= horizon (under 1e-12 relative slack), so no run integrates
    past its horizon."""
    count = math.floor(horizon / sample_dt * (1.0 + 1e-12))
    return np.arange(count + 1) * sample_dt


def run_conservation(cfg: ScenarioConfig) -> Report:
    """Integrate to the horizon at dt and 2*dt; assert the drift invariants:
    native mass < 1e-9, energy < 1e-5, and the 2dt/dt energy-drift ratio
    in [3.5, 4.5] (second-order splitting)."""
    check_scenario_model("conservation", cfg.model)
    report = Report("conservation")
    mach = build_machinery(cfg.model, cfg.disc)
    u0 = gaussian_field(mach, cfg.initial)
    steps = (2.0 * cfg.dt, cfg.dt)
    report.settings["dt"] = list(steps)
    drifts, ran = {}, {}
    for dt in steps:
        records, state = integrate(u0, mach, cfg.sample_times(), StepControl(dt=dt))
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
    _flow_note(report, mach)
    report.add("mass_drift", drifts[cfg.dt][0], 1e-9, comparator="<")
    report.add("energy_drift", drifts[cfg.dt][1], 1e-5, comparator="<")
    ratio = drifts[2.0 * cfg.dt][1] / drifts[cfg.dt][1]
    report.add(
        "energy_drift_halving_ratio", ratio, (3.5, 4.5),
        note=f"expected ~4 for a second-order splitting; substeps run "
        f"{ran[2.0 * cfg.dt]:.6g} and {ran[cfg.dt]:.6g}", comparator="in",
    )
    return report


# ------------------------------------------------------------------ strichartz


def ladder_times(horizon: float) -> np.ndarray:
    """The time ladder of the Strichartz ratios: SAMPLES_PER_UNIT_TIME
    samples per unit time on [0, horizon], both ends included."""
    return np.linspace(0.0, horizon, int(round(SAMPLES_PER_UNIT_TIME * horizon)) + 1)


def coarse_points(n_x: int, band: int) -> int:
    """Points per axis of the grid the ladder evolves a band-b member on:
    min(n_x, 4b+2), where the alpha sum samples the density exactly."""
    return min(n_x, 4 * band + 2)


def _band_dft(band: int, m: int) -> np.ndarray:
    """D[j, x] = exp(2 pi i j x / m) for the band modes |j| <= band: the
    values on m points per axis of band coefficients c are c @ D, per axis.
    The phase j x is reduced mod m in integers before scaling."""
    modes = np.arange(-band, band + 1)
    return np.exp((2j * np.pi / m) * (np.outer(modes, np.arange(m)) % m))


class LadderWorkspace:
    """One flat buffer per role for the ladder's per-chunk arrays.

    ``take(role, shape, dtype)`` returns the leading prod(shape) elements of
    the role's buffer as a ``shape`` array, growing the buffer to the
    largest size asked for, so both resolutions, a short last chunk and the
    next ensemble member reuse the same memory instead of fresh transients.
    A role keeps one dtype; a workspace serves one thread at a time.
    """

    def __init__(self):
        self._flat: dict[str, np.ndarray] = {}

    def take(self, role: str, shape: tuple, dtype=np.float64) -> np.ndarray:
        size = math.prod(shape)
        flat = self._flat.get(role)
        if flat is None or flat.size < size:
            flat = self._flat[role] = np.empty(size, dtype)
        return flat[:size].reshape(shape)


def _int_power(powers: dict, h: int, work: LadderWorkspace) -> np.ndarray:
    """powers[1] ** h by repeated multiplication, keeping every power it
    forms in ``powers`` (each in its own workspace role) for the next
    exponent."""
    if h not in powers:
        half = h // 2
        low = _int_power(powers, half, work)
        high = _int_power(powers, h - half, work)
        powers[h] = np.multiply(low, high, out=work.take(f"power{h}", low.shape))
    return powers[h]


def _space_norms(
    rho: np.ndarray, measure: float, cell: float, r_values, x_axes, work: LadderWorkspace
) -> dict:
    """Per r, the L^r_x norm over ``x_axes`` of sqrt(measure rho), with rho
    clipped at 0: (cell * sum (measure rho)^(r/2))^(1/r), by repeated
    multiplication for an integer r/2, or sqrt(measure max rho) for r = inf."""
    density = np.maximum(rho, 0.0, out=work.take("power1", rho.shape))
    powers = {1: np.multiply(measure, density, out=density)}
    norms = {}
    for r in r_values:
        if math.isinf(r):
            norms[r] = np.sqrt(powers[1].max(axis=x_axes))
            continue
        h = 0.5 * r
        dens_h = _int_power(powers, int(h), work) if h.is_integer() else powers[1] ** h
        norms[r] = (cell * np.sum(dens_h, axis=x_axes)) ** (1.0 / r)
    return norms


def _ladder_ratios(
    draw: np.ndarray,
    measure: float,
    factors: dict,
    grids: list[BoxGrid],
    horizon: float,
    pairs: list[tuple[float, float]],
    work: LadderWorkspace | None = None,
) -> list[dict]:
    """Space-time ratios of the exactly evolved member for every variant and
    exponent pair on each of ``grids`` (one box, any resolutions), from one
    pass over the time ladder; one dict per grid.

    R = ||D^k exp(itL) f||_{L^q_t L^r_x (alpha norm)} / ||D^k f||.  The
    space-time norms are diagonal in the alpha modes, so the unit-modulus
    alpha phases drop out of every |.|^2 and only the x evolution (exact
    Fourier phases) remains; per x point the squared alpha norm is
    measure * rho with rho = ||w_row||^2, w = draw_row @ factor for each
    variant's factor, as ``axis.mode_factors`` returns them.

    Each column of w(t, .) is a trigonometric polynomial on the 2b+1 band
    modes, so rho(t, .) has only the 4b+1 modes |k| <= 2b per axis.  w is
    evolved on a coarse grid of m = min(n_x, 4b+2) points per axis, where
    the alpha sum samples rho exactly (m > 4b), once for all grids that
    share m: per axis, the phased band coefficients times the band DFT
    D[j, x] = exp(2 pi i j x / m).  rho is resampled to each n_x grid by
    zero-padding its spectrum, and the r-norms are taken there
    (``_space_norms``) with rho clipped at 0: a roundoff-negative value
    would make an odd or fractional r/2 a NaN.  The time integral is a
    composite trapezoid (max for q = inf).

    Every per-chunk array (w, each band-DFT product, the two squares, rho,
    its coarse spectrum, the zero-padded ``fine`` spectrum, rho on the n_x
    grid and its integer powers) is written with ``out=`` into a role of
    ``work`` (a fresh ``LadderWorkspace`` when None), in the same
    operations and order as with fresh arrays, so the results are bitwise
    equal.  A warm workspace, reused across chunks, both resolutions and
    ensemble members, allocates none of these arrays again.
    """
    if work is None:
        work = LadderWorkspace()
    band = draw.shape[0] // 2  # draw is ((2b+1)^d..., b+1)
    dim, half_length = grids[0].dim, grids[0].half_length
    modes = np.arange(-band, band + 1)
    k = np.pi * modes / half_length  # the band wavenumbers
    if dim == 1:
        k2 = k**2
        ikx = (1j * k)[:, None]
    else:
        k2 = k[:, None] ** 2 + k[None, :] ** 2
        ikx = (1j * k)[:, None, None]  # D = d/dx_1

    # every variant's band coefficients in one (variant, alpha, band...)
    # array, so every DFT product runs over the trailing axes
    coeffs = {name: draw @ f for name, f in factors.items()}
    coeffs["k1"] = ikx * coeffs["k0"]
    names = tuple(coeffs)
    stacked = np.stack([np.moveaxis(coeffs[name], -1, 0) for name in names])
    volume = (2.0 * half_length) ** dim
    denom = {
        name: math.sqrt(measure * volume * float(np.sum(c.real**2 + c.imag**2)))
        for name, c in coeffs.items()
    }

    density_modes = np.arange(-2 * band, 2 * band + 1)

    def spectrum_index(n):
        """rho's spectrum on n points per axis, after the (time, variant)
        axes: the 4b+1 modes on every x axis but the last, where the real
        half-spectrum keeps 0..2b."""
        return (slice(None),) * 2 + (density_modes % n,) * (dim - 1) + (slice(0, 2 * band + 1),)

    x_axes = tuple(range(-dim, 0))

    ts = ladder_times(horizon)
    n_t = len(ts)
    r_values = sorted({pair[1] for pair in pairs})
    space = [{r: np.empty((n_t, len(names))) for r in r_values} for _ in grids]
    x_phase = np.exp(-1j * ts.reshape((-1,) + (1,) * dim) * k2)

    for m in sorted({coarse_points(grid.n_points, band) for grid in grids}):
        shared = [i for i, grid in enumerate(grids) if coarse_points(grid.n_points, band) == m]
        dft = _band_dft(band, m)
        n_max = max(grids[i].n_points for i in shared)
        # time samples per chunk: each chunk array stays near 2^14 elements
        # per variant, cache sized; larger chunks measured slower
        chunk = max(1, 2**14 // max(stacked[0, :, 0].size * m**dim, n_max**dim))
        for start in range(0, n_t, chunk):
            stop = min(start + chunk, n_t)
            phase = x_phase[start:stop, None, None]
            w = work.take("w", phase.shape[:1] + stacked.shape, np.complex128)
            np.multiply(stacked[None], phase, out=w)
            for axis in range(dim):  # one band DFT product per x axis, last first
                if axis:  # gather the moved view contiguous into the w buffer
                    moved, w = w, work.take("w", w.shape, np.complex128)
                    np.copyto(w, moved)
                rows = w.reshape(-1, w.shape[-1])
                values = np.matmul(rows, dft, out=work.take("dft", (len(rows), m), np.complex128))
                w = np.moveaxis(values.reshape(w.shape[:-1] + (m,)), -1, -dim)
            squares = np.square(w.real, out=work.take("squares", w.shape))
            imag2 = np.square(w.imag, out=work.take("imag2", w.shape))
            rho = work.take("rho", w.shape[:2] + w.shape[3:])
            np.sum(np.add(squares, imag2, out=squares), axis=2, out=rho)
            if m < n_max:
                coarse = work.take("coarse", rho.shape[:-1] + (m // 2 + 1,), np.complex128)
                np.fft.rfftn(rho, axes=x_axes, norm="forward", out=coarse)
            for i in shared:
                grid = grids[i]
                n = grid.n_points
                if m < n:
                    fine = work.take("fine", coarse.shape[:2] + (n,) * (dim - 1) + (n // 2 + 1,),
                                     np.complex128)
                    fine.fill(0.0)
                    fine[spectrum_index(n)] = coarse[spectrum_index(m)]
                    rho_n = work.take("rho_n", coarse.shape[:2] + grid.shape)
                    np.fft.irfftn(fine, s=grid.shape, axes=x_axes, norm="forward", out=rho_n)
                else:
                    rho_n = rho
                norms = _space_norms(rho_n, measure, grid.cell_volume, r_values, x_axes, work)
                for r, vals in norms.items():
                    space[i][r][start:stop] = vals

    out = []
    for grid_space in space:
        ratios = {}
        for q, r in pairs:
            for i, name in enumerate(names):
                series = grid_space[r][:, i]
                if math.isinf(q):
                    tnorm = float(series.max())
                else:
                    tnorm = float(np.trapezoid(series**q, ts) ** (1.0 / q))
                ratios[(name, (q, r))] = tnorm / denom[name] if denom[name] else 0.0
        out.append(ratios)
    return out


def run_strichartz_ensemble(
    cfg: ScenarioConfig, pairs: list[tuple[float, float]] | None = None
) -> Report:
    """Linear-evolution boundedness proxy: max ensemble ratio at 2*n_x must
    sit within 15% of the max at n_x, for every derivative/norm variant and
    every requested admissible exponent pair (by default the configured
    (q, r))."""
    if pairs is None:
        pairs = [(cfg.strichartz_q, cfg.strichartz_r)]
    for q, r in pairs:
        check_admissible_pair(q, r, cfg.model.dim)
    check_band_resolved(cfg.disc.n_x, cfg.initial.band)
    label = ",".join(f"(q={q:g},r={r:g})" for q, r in pairs)
    report = Report(f"strichartz{label}")
    report.settings["strichartz_pairs"] = [[q, r] for q, r in pairs]

    spec = cfg.model
    band = cfg.initial.band
    measure, factors = build_axis(spec, cfg.disc).mode_factors(band)
    variant_names = ("k0", "k1") + tuple(factors)[1:]

    seeds = np.random.SeedSequence(cfg.seed).spawn(cfg.ensemble)
    members = [
        random_band_coeffs(np.random.default_rng(seq), spec.dim, band) for seq in seeds
    ]

    resolutions = (cfg.disc.n_x, 2 * cfg.disc.n_x)
    report.settings["n_x"] = list(resolutions)
    report.settings["time_samples"] = len(ladder_times(cfg.horizon))
    report.settings["coarse_points"] = [coarse_points(n_x, band) for n_x in resolutions]
    box = cfg.disc.resolved_box(spec.dim)
    grids = [BoxGrid(spec.dim, box, n_x) for n_x in resolutions]

    local = threading.local()  # one ladder workspace per worker thread

    def worker(i):
        if not hasattr(local, "work"):
            local.work = LadderWorkspace()
        return _ladder_ratios(members[i], measure, factors, grids, cfg.horizon, pairs, local.work)

    results = _run_members(worker, cfg.ensemble, cfg.threads)  # [member][resolution]
    maxima = {}  # (variant, pair, n_x) -> ensemble max
    for g, n_x in enumerate(resolutions):
        for key_pair in pairs:
            for variant in variant_names:
                ratios = [res[g][(variant, key_pair)] for res in results]
                maxima[(variant, key_pair, n_x)] = float(np.max(ratios))
        for i, res in enumerate(results):
            for (variant, (q, r)), value in sorted(res[g].items()):
                report.rows.append(
                    {"member": i, "variant": variant, "q": q, "r": r, "n_x": n_x,
                     "ratio": value}
                )

    for q, r in pairs:
        for variant in variant_names:
            lo, hi = (maxima[(variant, (q, r), n_x)] for n_x in resolutions)
            _add_resolution_stability(
                report, f"resolution_stability_{variant}_q{q:g}_r{r:g}", lo, hi, 0.15
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
    """sum_n (1 + n)|c_n|^2 over axis 0: the squared weighted H^1 in alpha,
    the modal mass plus the axis's gradient form."""
    power = coeffs.real**2 + coeffs.imag**2
    return power.sum(axis=0) + axis.grad_density(coeffs, power)


def embedding_ratios(
    coeffs: np.ndarray, band: int, n_alpha: int, power: int
) -> tuple[np.ndarray, np.ndarray]:
    """(weighted-Sobolev ratio, nonlinear-estimate ratio) per profile,
    measured end to end through the basis machinery at resolution n_alpha:
    nodal evaluation, the node sup of |u| e^{-a^2/2}, and the modal
    weighted-H^1 norm of the quadrature projection of the nonlinear term.
    The profiles are rows of nodal values; the transforms take them
    alpha-first, as the stepper's spectra."""
    check_alpha_band_resolved(n_alpha, band)
    axis = HermiteAxis(hermite.build_basis(n_alpha))
    u = coeffs @ axis.basis.eigenfunctions[:band]
    h1 = np.sqrt(_h1alpha_density(axis.forward(u.T), axis))
    damp = np.exp(-0.5 * axis.nodes**2)
    sup = (np.abs(u) * damp).max(axis=-1)
    amp2 = u.real**2 + u.imag**2
    nonlinear = (amp2 * damp**2) ** (power // 2) * u
    h1v = np.sqrt(_h1alpha_density(axis.forward(nonlinear.T), axis))
    return sup / h1, h1v / h1 ** (power + 1)


def run_embedding_ensembles(cfg: ScenarioConfig) -> Report:
    """Max weighted-Sobolev and nonlinear-estimate ratios over random band
    limited alpha profiles, measured at basis sizes n_alpha and 2*n_alpha
    (same profiles, so stability within 15% says the estimated constants do
    not depend on the discretization), plus the truncated exp(a^2/8)
    counterexample for the unweighted variant."""
    report = Report("embeddings")
    power = cfg.model.power
    band = cfg.initial.band
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, band]))
    coeffs = rng.standard_normal((cfg.ensemble, band)) + 1j * rng.standard_normal(
        (cfg.ensemble, band)
    )
    resolutions = (cfg.disc.n_alpha, 2 * cfg.disc.n_alpha)
    report.settings["n_alpha"] = list(resolutions)
    maxima = {}  # (name, n_alpha) -> ensemble max
    for n_alpha in resolutions:
        sobolev, nonlin = embedding_ratios(coeffs, band, n_alpha, power)
        maxima[("sobolev", n_alpha)] = float(sobolev.max())
        maxima[("nonlinear", n_alpha)] = float(nonlin.max())
        for i in range(cfg.ensemble):
            report.rows.append(
                {"member": i, "n_alpha": n_alpha,
                 "sobolev_ratio": float(sobolev[i]), "nonlinear_ratio": float(nonlin[i])}
            )

    for name in ("sobolev", "nonlinear"):
        lo, hi = (maxima[(name, n_alpha)] for n_alpha in resolutions)
        # np.maximum propagates a NaN, so the gate sees either one
        report.add(f"finite_{name}", float(np.maximum(lo, hi)), comparator="finite")
        _add_resolution_stability(report, f"resolution_stability_{name}", lo, hi, 0.15)

    radii = (6.0, 9.0, 12.0)
    growth = [counterexample_ratio(2, radius) for radius in radii]
    for radius, value in zip(radii, growth):
        report.rows.append({"counterexample_radius": radius, "unweighted_ratio": value})
    report.add("counterexample_monotone_growth", growth, comparator="increasing",
               note="unweighted ratio must grow with the truncation radius")
    return report


# ------------------------------------------------------------------ scattering


def _l2x_h1alpha(snap: observables.Snapshot) -> float:
    """The L^2_x H^1_alpha norm: the native mass and the alpha gradient form."""
    return math.sqrt(snap.mass + snap.kinetic_alpha)


def run_scattering(cfg: ScenarioConfig) -> Report:
    """Pullback Cauchy ladder: w(t) = exp(-itL) u(t) sampled on the ladder
    (base point t = 0); differences must decrease strictly and the last must
    fall below a tenth of the first."""
    check_scenario_model("scattering", cfg.model)
    report = Report("scattering")
    mach = build_machinery(cfg.model, cfg.disc)
    raw = gaussian_field(mach, cfg.initial)
    raw *= cfg.scattering_delta / _l2x_h1alpha(observables.Snapshot.of(raw, mach))
    ladder = list(SCATTERING_LADDER)
    report.settings["ladder"] = ladder

    pullbacks = []  # (time, kept-row spectrum of w(time))

    def record_pullback(snap, time, machx):
        back = machx.propagator(-time).advance(snap.spectrum) if time else snap.spectrum
        pullbacks.append((time, back))
        return observables.sample_record(snap, time, machx)

    integrate(raw, mach, [0.0] + ladder, StepControl(dt=cfg.dt), record_fn=record_pullback)
    diffs = []
    for (_, w0), (t1, w1) in zip(pullbacks, pullbacks[1:]):
        diffs.append((t1, _l2x_h1alpha(observables.Snapshot(w1 - w0, mach))))
    for t, d in diffs:
        report.rows.append({"ladder_time": t, "cauchy_difference": d})
    report.artifacts["u_plus"] = mach.synthesize(pullbacks[-1][1])  # the scattering state
    values = [d for _, d in diffs]
    decreasing = report.add("cauchy_strictly_decreasing", values, comparator="decreasing")
    report.add("cauchy_final_below_tenth", values[-1] / values[0], 0.1, comparator="<")
    if not decreasing.passed:
        report.notes.append("no numerical scattering at this scale")
    return report


# --------------------------------------------------------------------- blowup


def _fit_parabola_root(times: np.ndarray, values: np.ndarray):
    """(root, None) of the least-squares quadratic, or (None, why not).  The
    fit's covariance needs 4 samples, and the root is reported only when
    the leading coefficient is negative beyond three fit sigmas."""
    if len(times) < 4:
        return None, f"{len(times)} samples before the flag, and the fit needs 4"
    coeff, cov = np.polyfit(times, values, 2, cov=True)
    sigma = math.sqrt(max(cov[0, 0], 0.0))
    real = []
    if coeff[0] < 0 and abs(coeff[0]) > 3.0 * sigma:
        roots = np.roots(coeff)
        real = sorted(float(r.real) for r in roots if abs(r.imag) < 1e-9 and r.real > 0)
    if not real:
        return None, "leading coefficient not negative beyond 3 sigma"
    return real[0], None


def _step_note(leg: str, state) -> str:
    """Step counts and the accepted dt range of one adaptive run."""
    lo, hi = state.dt_range or (math.nan, math.nan)
    return (f"{leg}: {state.step_count} accepted ({state.floor_count} at the dt floor) "
            f"and {state.rejected_count} rejected steps, accepted dt in [{lo:.6g}, {hi:.6g}]")


def _flow_note(report: Report, mach: Machinery, leg: str = ""):
    """Note which alpha flow path the legs on ``mach`` ran, if the axis
    reports one (the div flow's band per propagator time)."""
    note = mach.axis.flow_note()
    if note:
        report.notes.append(f"{leg}: {note}" if leg else note)


def run_blowup(cfg: ScenarioConfig) -> Report:
    """Focusing divergence-form run: scale amplitude until the energy is
    negative, integrate under the blow-up guard, certify concavity of the
    virial potential, and cross-check the flag time against the fitted
    parabola root.  A defocusing control with identical data must survive
    twice the horizon unflagged."""
    check_scenario_model("blowup", cfg.model)
    report = Report("blowup")
    report.settings["leg_signs"] = {"focusing leg": FOCUSING, "defocusing control": DEFOCUSING}
    mach = build_machinery(replace(cfg.model, sign=FOCUSING), cfg.disc)

    init = cfg.initial
    data = gaussian_field(mach, init)
    doublings = 0
    while observables.energy(data, mach) >= 0.0:
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
    n_control_samples = 41
    report.settings.update(dt_floor=dt_floor, sample_dt=sample_dt,
                           control_samples=n_control_samples)
    samples = _sample_schedule(cfg.horizon, sample_dt)
    control = StepControl(dt=cfg.dt, adaptive=True, dt_min=dt_floor)
    records, state = integrate(data, mach, samples, control)
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

    note = f"max centered d2V/dt2 vs 16*E0 = {bound:.6g}"
    if len(records) >= 3:
        d2v = (virials[2:] - 2.0 * virials[1:-1] + virials[:-2]) / sample_dt**2
        worst = float(d2v.max())
    else:  # no centred second difference: NaN, which is red
        worst = math.nan
        note += f"; {len(records)} samples before the flag, and it needs 3"
    report.add("concavity_certificate", worst, bound + tol, note=note)

    root, why = _fit_parabola_root(times, virials)
    if root is None:
        report.add("parabola_root", math.nan, math.nan, note=why, comparator="finite")
    else:
        report.add("flag_before_1p5_root", flag_time, 1.5 * root,
                   note=f"fitted quadratic root {root:.6g}")
    report.notes.append(f"blow-up flagged at t = {flag_time:.6g}")
    tail_h1 = ", ".join(f"{r.h1_native:.5g}" for r in records[-3:])
    report.notes.append(f"last sampled H1 values before the flag: {tail_h1}")
    report.notes.append(_step_note("focusing leg", state))
    _flow_note(report, mach, "focusing leg")

    control_mach = build_machinery(replace(cfg.model, sign=DEFOCUSING), cfg.disc)
    control_horizon = 2.0 * flag_time
    control_samples = np.linspace(0.0, control_horizon, n_control_samples)
    _, control_state = integrate(data, control_mach, control_samples, control)
    report.notes.append(_step_note("defocusing control", control_state))
    _flow_note(report, control_mach, "defocusing control")
    report.add("defocusing_control_unflagged", float(control_state.blowup_flag), 0.0,
               note=f"control horizon {control_horizon:.6g}", comparator="==")
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
    n_alpha = max(cfg.disc.n_alpha, 128)
    basis = hermite.build_basis(n_alpha)
    grids = (257, 513, 1025)
    report.settings.update(div_nodes=list(grids), n_alpha=n_alpha)
    spacings = [2.0 * cfg.disc.div_half_width / (n - 1) for n in grids]
    for name, fn in identity_profiles():
        residuals = []
        for n in grids:
            axis = build_div_operator(n, cfg.disc.div_half_width)
            residuals.append(verify_div_identity(fn, basis, axis))
        order = float(np.polyfit(np.log(spacings), np.log(residuals), 1)[0])
        for n, res in zip(grids, residuals):
            report.rows.append({"profile": name, "nodes": n, "residual": res})
        report.add(f"order_{name}", order, 1.8,
                   note=f"residuals {['%.3e' % r for r in residuals]}", comparator=">=")
    return report


# -------------------------------------------------------------------- morawetz


def run_morawetz(cfg: ScenarioConfig) -> Report:
    """Along one defocusing run, |dI/dt| / (||u||^3 ||u||_{H1x-dot}) must
    have a finite max, stable within 20% when n_x doubles, for both rho."""
    report = Report("morawetz")
    sample_dt = MORAWETZ_SAMPLE_DT
    report.settings["sample_dt"] = sample_dt
    samples = _sample_schedule(cfg.horizon, sample_dt)
    maxima = {}
    resolutions = (cfg.disc.n_x, 2 * cfg.disc.n_x)
    report.settings["n_x"] = list(resolutions)
    for n_x in resolutions:
        disc = replace(cfg.disc, n_x=n_x)
        mach = build_machinery(cfg.model, disc)
        data = gaussian_field(mach, cfg.initial)

        rows = []

        def record(snap, time, machx):
            # one snapshot: m(x) once, one auto-correlation for both rho
            rows.append(
                {
                    "time": time,
                    "I_abs": observables.morawetz_I(snap, machx, "abs"),
                    "I_bracket": observables.morawetz_I(snap, machx, "bracket"),
                    "bound": observables.morawetz_dI_bound(snap, machx),
                    "weighted_potential": observables.morawetz_weighted_potential(snap, machx),
                }
            )
            return rows[-1]

        integrate(data, mach, samples, StepControl(dt=cfg.dt), record_fn=record)
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
        _flow_note(report, mach, f"n_x={n_x}")
    for rho in ("abs", "bracket"):
        lo, hi = (maxima[(rho, n_x)] for n_x in resolutions)
        report.add(f"finite_ratio_{rho}", float(np.maximum(lo, hi)), comparator="finite")
        _add_resolution_stability(report, f"resolution_stability_{rho}", lo, hi, 0.2)
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
        norm = math.sqrt(observables.mass(data, mach))
        data *= cfg.initial.amplitude / norm
    return integrate(data, mach, cfg.sample_times(), StepControl(dt=cfg.dt))


# ----------------------------------------------------------- acceptance table


@dataclass(frozen=True)
class Criterion:
    """One row of the acceptance table.  ``config(base)`` is the config the
    row runs on, built from the base config and naming the scenario that the
    row runs; ``run(cfg, reports)`` runs the row on it and returns its
    Report; ``reports`` holds the other rows' reports by key (criterion 9
    reads criterion 4's).
    """

    key: str
    title: str
    run: Callable[[ScenarioConfig, "AcceptanceReports"], Report]
    config: Callable[[ScenarioConfig], ScenarioConfig] = lambda cfg: cfg


STRICHARTZ_PAIRS = [(6.0, 6.0), (8.0, 4.0)]


def _box_cfg(cfg: ScenarioConfig, model: str, p: int, horizon: float, **changes):
    """The criterion-3 and criterion-8 runs: 256 points on an 8*pi box."""
    return replace(cfg, model=ModelSpec(model, 1, p), horizon=horizon, dt=1e-3,
                   disc=DiscretizationSpec(n_x=256, box_half_length=8 * math.pi),
                   **changes)


def _strichartz_cfg(cfg: ScenarioConfig, model: str) -> ScenarioConfig:
    """The criterion-4 and criterion-9 runs; the row runs STRICHARTZ_PAIRS,
    and its config holds the first of them."""
    q, r = STRICHARTZ_PAIRS[0]
    return replace(cfg, scenario="strichartz", model=ModelSpec(model, 1, 4), horizon=4.0,
                   disc=DiscretizationSpec(n_x=256), ensemble=64,
                   initial=replace(cfg.initial, band=8), strichartz_q=q, strichartz_r=r)


def _alone(runner):
    """A row runner that reads no other row's report."""
    return lambda cfg, reports: runner(cfg)


def _strichartz(cfg: ScenarioConfig, reports) -> Report:
    return run_strichartz_ensemble(cfg, pairs=STRICHARTZ_PAIRS)


def run_determinism(cfg: ScenarioConfig, first: Report) -> Report:
    """The seeded ensemble that produced ``first``, rerun from ``cfg``, must
    emit byte-identical rows."""
    rerun = run_strichartz_ensemble(cfg, pairs=STRICHARTZ_PAIRS)
    report = Report("determinism", settings=rerun.settings)
    identical = rows_csv_bytes(rerun.rows) == rows_csv_bytes(first.rows)
    report.add("byte_identical_rows", float(identical), 1.0,
               note=f"{len(rerun.rows)} rows compared", comparator="==")
    return report


# criteria 2-9 in `ounls all` order; criterion 1 (the OU eigenvalue check)
# has no scenario config and lives in the test suite
ACCEPTANCE = (
    Criterion("2", "criterion 2 (divergence/drift identity, order >= 1.8)",
              _alone(run_identity), lambda cfg: replace(cfg, scenario="identity")),
    Criterion("3-nondiv", "criterion 3 (conservation, nondiv)", _alone(run_conservation),
              lambda cfg: _box_cfg(cfg, "nondiv", 4, 1.0, scenario="conservation",
                                   n_samples=101)),
    Criterion("3-div", "criterion 3 (conservation, div)", _alone(run_conservation),
              lambda cfg: _box_cfg(cfg, "div", 2, 1.0, scenario="conservation",
                                   n_samples=101)),
    Criterion("4-nondiv", "criterion 4 (space-time boundedness proxy, nondiv, "
              "(6,6)+(8,4), k=0/1 and weighted-H1 variant)",
              _strichartz, lambda cfg: _strichartz_cfg(cfg, "nondiv")),
    Criterion("4-div", "criterion 4 (space-time boundedness proxy, div, (6,6)+(8,4))",
              _strichartz, lambda cfg: _strichartz_cfg(cfg, "div")),
    Criterion("5", "criterion 5 (weighted Sobolev / nonlinear estimate ensembles "
              "+ exp(a^2/8) counterexample)", _alone(run_embedding_ensembles),
              lambda cfg: replace(cfg, scenario="embeddings", model=ModelSpec("nondiv", 1, 2),
                                  ensemble=256, initial=replace(cfg.initial, band=12))),
    Criterion("6", "criterion 6 (small-data scattering Cauchy ladder)",
              _alone(run_scattering),
              lambda cfg: replace(cfg, scenario="scattering", model=ModelSpec("nondiv", 1, 4),
                                  disc=DiscretizationSpec(n_x=256), horizon=16.0, dt=1e-3)),
    Criterion("7", "criterion 7 (virial identity and finite-time blow-up)",
              _alone(run_blowup),
              lambda cfg: replace(cfg, scenario="blowup", model=ModelSpec("div", 1, 4),
                                  disc=DiscretizationSpec(n_x=128, box_half_length=4 * math.pi,
                                                          div_nodes=257),
                                  horizon=0.45, dt=1e-3)),
    Criterion("8-div", "criterion 8 (interaction functional bound, div)",
              _alone(run_morawetz),
              lambda cfg: _box_cfg(cfg, "div", 2, 0.5, scenario="morawetz")),
    Criterion("8-nondiv", "criterion 8 (interaction functional bound, nondiv)",
              _alone(run_morawetz),
              lambda cfg: _box_cfg(cfg, "nondiv", 4, 0.5, scenario="morawetz")),
    Criterion("9", "criterion 9 (seeded determinism, byte-identical rows)",
              lambda cfg, reports: run_determinism(cfg, reports["4-nondiv"]),
              lambda cfg: _strichartz_cfg(cfg, "nondiv")),
)


class AcceptanceReports(dict):
    """Reports of the acceptance table by row key; a row runs on first
    access, on its config built from ``base``."""

    def __init__(self, base: ScenarioConfig):
        super().__init__()
        self.base = base

    def __missing__(self, key: str) -> Report:
        row = next(row for row in ACCEPTANCE if row.key == key)
        self[key] = report = row.run(row.config(self.base), self)
        return report


def check_acceptance(cfg: ScenarioConfig):
    """check_scenario on every row's config built from the base ``cfg``, so
    a base config that some row cannot run is a ConfigError, naming that
    row, before any row runs."""
    for row in ACCEPTANCE:
        try:
            check_scenario(row.config(cfg))
        except ConfigError as exc:
            raise ConfigError(f"{row.title}: {exc}") from None


def run_acceptance(cfg: ScenarioConfig) -> list[tuple[ScenarioConfig, Report]]:
    """Every row of the acceptance table on the base ``cfg``, in table
    order, each as (the config it ran on, its Report)."""
    reports = AcceptanceReports(cfg)
    return [(row.config(cfg), reports[row.key]) for row in ACCEPTANCE]
