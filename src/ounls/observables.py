"""Conserved and monitored functionals: mass, energy, weighted norms, the
virial potential with its second-derivative identity, and the interaction
functional with its first-derivative bound.

Every function takes a nodal Field (or bare array) and evaluates with the
model's native measure: plain dx d(alpha) for the divergence form, the
Gaussian-weighted measure for the drift form.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grids import laplacian_symbol, x_fft, x_ifft
from .models import MODEL_DIV, ModelSpec
from .operators import Machinery, nonlinear_gain
from .state import Field

RHO_TAGS = ("abs", "bracket")

CSV_FIELDS = (
    "time",
    "mass",
    "energy",
    "h1_native",
    "virial",
    "virial_rhs",
    "morawetz_I",
    "morawetz_dI_bound",
    "tail_mass_fraction",
    "boundary_mass_fraction",
)


class UnsupportedModelError(ValueError):
    """Functional not defined for this model variant."""


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One sampled time's monitored quantities (one CSV row)."""

    time: float
    mass: float
    energy: float
    h1_native: float
    virial: float
    virial_rhs: float
    morawetz_I: float
    morawetz_dI_bound: float
    tail_mass_fraction: float
    boundary_mass_fraction: float

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in CSV_FIELDS)


def _data(fld) -> np.ndarray:
    return fld.data if isinstance(fld, Field) else np.asarray(fld)


def mass(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Native squared L^2: integral of |u|^2 against the model's measure."""
    u = _data(fld)
    dens = (u.real**2 + u.imag**2) @ mach.axis.weights
    return float(mach.grid.cell_volume * dens.sum())


def _kinetic_x_sq(u: np.ndarray, mach: Machinery) -> float:
    """integral |grad_x u|^2 (native measure), via Fourier Parseval."""
    hat = x_fft(u, mach.grid)
    k2 = -laplacian_symbol(mach.grid)
    dens = (k2[..., None] * (hat.real**2 + hat.imag**2)) @ mach.axis.weights
    return float(mach.grid.cell_volume * dens.sum())


def _kinetic_alpha_sq(u: np.ndarray, mach: Machinery) -> float:
    """integral of the axis's alpha-gradient quadratic form with its native
    weight (the drift form's modal sum n |c_n|^2, the div form's
    face-difference form)."""
    spectrum = mach.axis.forward(u)
    power = spectrum.real**2 + spectrum.imag**2
    dens = mach.axis.grad_density(spectrum, power)
    return float(mach.grid.cell_volume * mach.axis.measure * dens.sum())


def _potential_density(u: np.ndarray, spec: ModelSpec, mach: Machinery) -> np.ndarray:
    """x density of g(alpha)|u|^{p+2} against the native alpha measure."""
    amp2 = u.real**2 + u.imag**2
    return (nonlinear_gain(u, spec, mach) * amp2) @ mach.axis.weights


def _potential_int(u: np.ndarray, spec: ModelSpec, mach: Machinery) -> float:
    """integral of g(alpha)|u|^{p+2} against the native measure (no sign)."""
    return float(mach.grid.cell_volume * _potential_density(u, spec, mach).sum())


def energy_terms(fld, spec: ModelSpec, mach: Machinery) -> dict[str, float]:
    """The three energy terms: x-kinetic, alpha-kinetic, potential (signed)."""
    u = _data(fld)
    return {
        "kinetic_x": 0.5 * _kinetic_x_sq(u, mach),
        "kinetic_alpha": 0.5 * _kinetic_alpha_sq(u, mach),
        "potential": spec.sign / (spec.power + 2) * _potential_int(u, spec, mach),
    }


def energy(fld, spec: ModelSpec, mach: Machinery) -> float:
    return float(sum(energy_terms(fld, spec, mach).values()))


def h1_native(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Energy-compatible H^1-type norm in the model's native measure."""
    u = _data(fld)
    return math.sqrt(
        mass(u, spec, mach) + _kinetic_x_sq(u, mach) + _kinetic_alpha_sq(u, mach)
    )


def _x_radius_sq(mach: Machinery) -> np.ndarray:
    coords = mach.grid.coordinates()
    return sum(c**2 for c in coords)


def _require_div(spec: ModelSpec, what: str):
    if spec.model != MODEL_DIV:
        raise UnsupportedModelError(
            f"{what} is defined for the divergence-form model only"
        )


def virial(fld, spec: ModelSpec, mach: Machinery) -> float:
    """V(t) = integral |x|^2 |u|^2 dx d(alpha)."""
    _require_div(spec, "virial")
    u = _data(fld)
    dens = (u.real**2 + u.imag**2) @ mach.axis.weights
    return float(mach.grid.cell_volume * np.sum(_x_radius_sq(mach) * dens))


def virial_dt(fld, spec: ModelSpec, mach: Machinery) -> float:
    """First time derivative: 4 Im integral x . grad_x(u) conj(u)."""
    _require_div(spec, "virial_dt")
    u = _data(fld)
    hat = x_fft(u, mach.grid)
    k = mach.grid.wavenumbers
    total = 0.0
    for axis, x_axis in enumerate(mach.grid.coordinates()):
        shape = [1] * mach.grid.dim
        shape[axis] = k.size
        du = x_ifft(hat * (1j * k.reshape(shape))[..., None], mach.grid)
        dens = (du * np.conj(u)).imag @ mach.axis.weights
        total += float(np.sum(x_axis * dens))
    return 4.0 * mach.grid.cell_volume * total


def virial_rhs(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Right side of the second-derivative identity, times 16.

    (1/16) V'' = E - (1/2) int e^{-a^2/2}|du/da|^2
               + sign * (d p - 4)/(4 (p + 2)) * int |u|^{p+2},
    with sign = +1 defocusing, -1 focusing; the focusing case is the
    concavity route to finite-time blow-up.
    """
    _require_div(spec, "virial_rhs")
    u = _data(fld)
    coeff = (spec.dim * spec.power - 4) / (4.0 * (spec.power + 2))
    return 16.0 * (
        energy(u, spec, mach)
        - 0.5 * _kinetic_alpha_sq(u, mach)
        + spec.sign * coeff * _potential_int(u, spec, mach)
    )


def alpha_reduced_density(fld, spec: ModelSpec, mach: Machinery) -> np.ndarray:
    """m(x) = integral |u|^2 against the native alpha measure."""
    u = _data(fld)
    return (u.real**2 + u.imag**2) @ mach.axis.weights


def _lag_correlation(a: np.ndarray, h: float, b: np.ndarray | None = None):
    """Linear correlation sum_x a_{x+lag} b_x over all node-difference lags
    via padded FFT (``b`` defaults to ``a``), for grid spacing ``h``.

    Returns (corr, radius) with radius = |lag| on the same padded layout.
    """
    padded = tuple(2 * s for s in a.shape)
    axes = tuple(range(a.ndim))
    hat = np.fft.rfftn(a, s=padded, axes=axes)
    other = hat if b is None else np.fft.rfftn(b, s=padded, axes=axes)
    corr = np.fft.irfftn(hat * np.conj(other), s=padded, axes=axes)
    lags = []
    for size in a.shape:
        idx = np.arange(2 * size)
        lags.append(np.where(idx < size, idx, idx - 2 * size) * h)
    if a.ndim == 1:
        return corr, np.abs(lags[0])
    return corr, np.sqrt(lags[0][:, None] ** 2 + lags[1][None, :] ** 2)


def rho_values(lag_radius: np.ndarray, rho: str) -> np.ndarray:
    if rho == "abs":
        return lag_radius
    if rho == "bracket":
        return np.sqrt(1.0 + lag_radius**2)
    raise ValueError(f"unknown rho tag {rho!r}; expected one of {RHO_TAGS}")


def morawetz_I(fld, spec: ModelSpec, mach: Machinery, rho: str = "abs") -> float:
    """I_rho = iint rho(x - y) m(x) m(y) dx dy as a discrete convolution.

    Lags use exact node differences; for rho = |x-y| the diagonal cell
    contributes zero by the quadrature convention rho(0) = 0.
    """
    m = alpha_reduced_density(fld, spec, mach)
    corr, radius = _lag_correlation(m, mach.grid.spacing)
    return float(mach.grid.cell_volume**2 * np.sum(rho_values(radius, rho) * corr))


def morawetz_dI_bound(fld, spec: ModelSpec, mach: Machinery) -> float:
    """||u||^3_{L^2} ||u||_{H^1_x-dot} in the native norms."""
    u = _data(fld)
    return mass(u, spec, mach) ** 1.5 * math.sqrt(_kinetic_x_sq(u, mach))


def morawetz_weighted_potential(fld, spec: ModelSpec, mach: Machinery) -> float:
    """iint m(x) (Lap rho)(x - y) m_p(y) dx dy with rho = <x - y>.

    The positive quantity on the left side of the interaction bound, with
    m the native mass density and m_p the |u|^{p+2} density (nonlinearity
    weight included).  Measured only; no sharp constant is asserted.
    """
    u = _data(fld)
    corr, radius = _lag_correlation(
        alpha_reduced_density(u, spec, mach), mach.grid.spacing,
        _potential_density(u, spec, mach),
    )
    bracket = rho_values(radius, "bracket")
    lap_rho = (spec.dim - 1) / bracket + 1.0 / bracket**3
    return float(mach.grid.cell_volume**2 * np.sum(lap_rho * corr))


def boundary_mass_fraction(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Native-mass fraction in the outermost 10% shell of the x box."""
    u = _data(fld)
    dens = (u.real**2 + u.imag**2) @ mach.axis.weights
    coords = mach.grid.coordinates()
    outer = np.zeros(mach.grid.shape, dtype=bool)
    for c in coords:
        outer |= np.broadcast_to(np.abs(c) >= 0.9 * mach.grid.half_length, outer.shape)
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[outer].sum()) / total


MONITOR_THRESHOLD = 1e-8
TAIL_MODES = 4  # the top alpha modes whose mass the tail monitor reports


def tail_mass_fraction(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Fraction of native alpha-spectral mass in the top TAIL_MODES modes."""
    return mach.axis.tail_fraction(_data(fld), TAIL_MODES)


def sample_record(fld: Field, spec: ModelSpec, mach: Machinery) -> DiagnosticsRecord:
    """Evaluate every monitored functional at one snapshot.

    Warns when the truncation monitors cross 1e-8: the alpha band is too
    small (tail fraction) or the box is shedding mass (boundary fraction).
    """
    if spec.model == MODEL_DIV:
        vir = virial(fld, spec, mach)
        vir_rhs = virial_rhs(fld, spec, mach)
    else:
        vir = math.nan
        vir_rhs = math.nan
    tail = tail_mass_fraction(fld, spec, mach)
    boundary = boundary_mass_fraction(fld, spec, mach)
    if tail > MONITOR_THRESHOLD:
        warnings.warn("alpha truncation tail fraction above 1e-8", RuntimeWarning)
    if boundary > MONITOR_THRESHOLD:
        warnings.warn("boundary shell mass fraction above 1e-8", RuntimeWarning)
    return DiagnosticsRecord(
        time=fld.time,
        mass=mass(fld, spec, mach),
        energy=energy(fld, spec, mach),
        h1_native=h1_native(fld, spec, mach),
        virial=vir,
        virial_rhs=vir_rhs,
        morawetz_I=morawetz_I(fld, spec, mach, "abs"),
        morawetz_dI_bound=morawetz_dI_bound(fld, spec, mach),
        tail_mass_fraction=tail,
        boundary_mass_fraction=boundary,
    )
