"""Conserved and monitored functionals: mass, energy, weighted norms, the
virial potential with its second-derivative identity, and the interaction
functional with its first-derivative bound.

Every function takes a nodal Field (or bare array) and evaluates with the
model's native measure: plain dx d(alpha) for the divergence form, the
Gaussian-weighted measure for the drift form.  A ``Snapshot`` of the field
may be passed in its place: it holds the pieces the functionals share, so
``sample_record`` transforms each field once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .grids import laplacian_symbol, x_fft, x_ifft
from .models import MODEL_DIV, ModelSpec
from .operators import Machinery, nonlinear_gain
from .state import Field

RHO_TAGS = ("abs", "bracket")


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


CSV_FIELDS = tuple(f.name for f in fields(DiagnosticsRecord))


def _data(fld) -> np.ndarray:
    return fld.data if isinstance(fld, (Field, Snapshot)) else np.asarray(fld)


class Snapshot:
    """The pieces of one field that the functionals share, each computed on
    first use and then held: |u|^2 and the mass density m(x), one x-FFT (the
    x-kinetic integral), the alpha spectrum (the alpha-kinetic integral and
    the tail monitor), the potential density and the auto-correlation of m.

    A functional given a snapshot in place of the field reads these pieces,
    so functionals called on one snapshot transform the field once.
    """

    def __init__(self, fld, spec: ModelSpec, mach: Machinery):
        self.data = _data(fld)
        self.spec = spec
        self.mach = mach

    @cached_property
    def amp2(self) -> np.ndarray:
        return self.data.real**2 + self.data.imag**2

    @cached_property
    def mass_density(self) -> np.ndarray:
        """m(x) = integral |u|^2 against the native alpha measure."""
        return self.amp2 @ self.mach.axis.weights

    @cached_property
    def mass(self) -> float:
        return float(self.mach.grid.cell_volume * self.mass_density.sum())

    @cached_property
    def kinetic_x(self) -> float:
        """integral |grad_x u|^2 (native measure), via Fourier Parseval."""
        grid = self.mach.grid
        hat = x_fft(self.data, grid)
        k2 = -laplacian_symbol(grid)
        dens = (k2[..., None] * (hat.real**2 + hat.imag**2)) @ self.mach.axis.weights
        return float(grid.cell_volume * dens.sum())

    @cached_property
    def spectrum(self) -> np.ndarray:
        """The alpha spectrum of the field (x stays nodal)."""
        return self.mach.axis.forward(self.data)

    @cached_property
    def kinetic_alpha(self) -> float:
        """integral of the axis's alpha-gradient quadratic form with its native
        weight (the drift form's modal sum n |c_n|^2, the div form's
        face-difference form)."""
        axis, spectrum = self.mach.axis, self.spectrum
        dens = axis.grad_density(spectrum, spectrum.real**2 + spectrum.imag**2)
        return float(self.mach.grid.cell_volume * axis.measure * dens.sum())

    @cached_property
    def potential_density(self) -> np.ndarray:
        """x density of g(alpha)|u|^{p+2} against the native alpha measure."""
        gain = nonlinear_gain(self.data, self.spec, self.mach)
        return (gain * self.amp2) @ self.mach.axis.weights

    @cached_property
    def potential(self) -> float:
        """integral of g(alpha)|u|^{p+2} against the native measure (no sign)."""
        return float(self.mach.grid.cell_volume * self.potential_density.sum())

    @cached_property
    def autocorrelation(self):
        return _lag_correlation(self.mass_density, self.mach.grid.spacing)


def _snapshot(fld, spec: ModelSpec, mach: Machinery) -> Snapshot:
    """``fld`` itself when it is a snapshot taken with this spec and
    machinery, else a new snapshot of the field."""
    if isinstance(fld, Snapshot) and fld.spec == spec and fld.mach is mach:
        return fld
    return Snapshot(fld, spec, mach)


def mass(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Native squared L^2: integral of |u|^2 against the model's measure."""
    return _snapshot(fld, spec, mach).mass


def energy_terms(fld, spec: ModelSpec, mach: Machinery) -> dict[str, float]:
    """The three energy terms: x-kinetic, alpha-kinetic, potential (signed)."""
    snap = _snapshot(fld, spec, mach)
    return {
        "kinetic_x": 0.5 * snap.kinetic_x,
        "kinetic_alpha": 0.5 * snap.kinetic_alpha,
        "potential": spec.sign / (spec.power + 2) * snap.potential,
    }


def energy(fld, spec: ModelSpec, mach: Machinery) -> float:
    return float(sum(energy_terms(fld, spec, mach).values()))


def h1_native(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Energy-compatible H^1-type norm in the model's native measure."""
    snap = _snapshot(fld, spec, mach)
    return math.sqrt(snap.mass + snap.kinetic_x + snap.kinetic_alpha)


def _require_div(spec: ModelSpec, what: str):
    if spec.model != MODEL_DIV:
        raise UnsupportedModelError(
            f"{what} is defined for the divergence-form model only"
        )


def virial(fld, spec: ModelSpec, mach: Machinery) -> float:
    """V(t) = integral |x|^2 |u|^2 dx d(alpha)."""
    _require_div(spec, "virial")
    radius_sq = sum(c**2 for c in mach.grid.coordinates())
    dens = _snapshot(fld, spec, mach).mass_density
    return float(mach.grid.cell_volume * np.sum(radius_sq * dens))


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
    snap = _snapshot(fld, spec, mach)
    coeff = (spec.dim * spec.power - 4) / (4.0 * (spec.power + 2))
    return 16.0 * (
        energy(snap, spec, mach)
        - 0.5 * snap.kinetic_alpha
        + spec.sign * coeff * snap.potential
    )


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
    # sqrt(l * l) == |l| exactly in IEEE arithmetic, so 1-D needs no branch
    return corr, np.sqrt(sum(lag**2 for lag in np.meshgrid(*lags, indexing="ij")))


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
    corr, radius = _snapshot(fld, spec, mach).autocorrelation
    return float(mach.grid.cell_volume**2 * np.sum(rho_values(radius, rho) * corr))


def morawetz_dI_bound(fld, spec: ModelSpec, mach: Machinery) -> float:
    """||u||^3_{L^2} ||u||_{H^1_x-dot} in the native norms."""
    snap = _snapshot(fld, spec, mach)
    return snap.mass**1.5 * math.sqrt(snap.kinetic_x)


def morawetz_weighted_potential(fld, spec: ModelSpec, mach: Machinery) -> float:
    """iint m(x) (Lap rho)(x - y) m_p(y) dx dy with rho = <x - y>.

    The positive quantity on the left side of the interaction bound, with
    m the native mass density and m_p the |u|^{p+2} density (nonlinearity
    weight included).  Measured only; no sharp constant is asserted.
    """
    snap = _snapshot(fld, spec, mach)
    corr, radius = _lag_correlation(
        snap.mass_density, mach.grid.spacing, snap.potential_density
    )
    bracket = rho_values(radius, "bracket")
    lap_rho = (spec.dim - 1) / bracket + 1.0 / bracket**3
    return float(mach.grid.cell_volume**2 * np.sum(lap_rho * corr))


def boundary_mass_fraction(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Native-mass fraction in the outermost 10% shell of the x box."""
    dens = _snapshot(fld, spec, mach).mass_density
    shell = [np.abs(c) >= 0.9 * mach.grid.half_length for c in mach.grid.coordinates()]
    outer = np.logical_or.reduce(np.broadcast_arrays(*shell))
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[outer].sum()) / total


MONITOR_THRESHOLD = 1e-8
TAIL_MODES = 4  # the top alpha modes whose mass the tail monitor reports


def tail_mass_fraction(fld, spec: ModelSpec, mach: Machinery) -> float:
    """Fraction of native alpha-spectral mass in the top TAIL_MODES modes."""
    return mach.axis.tail_fraction(_snapshot(fld, spec, mach).spectrum, TAIL_MODES)


def sample_record(fld: Field, spec: ModelSpec, mach: Machinery) -> DiagnosticsRecord:
    """Evaluate every monitored functional on one snapshot of the field: one
    |u|^2, one x-FFT, one alpha transform and one potential density.

    Warns when the truncation monitors cross 1e-8: the alpha band is too
    small (tail fraction) or the box is shedding mass (boundary fraction).
    """
    snap = Snapshot(fld, spec, mach)
    if spec.model == MODEL_DIV:
        vir = virial(snap, spec, mach)
        vir_rhs = virial_rhs(snap, spec, mach)
    else:
        vir = math.nan
        vir_rhs = math.nan
    tail = tail_mass_fraction(snap, spec, mach)
    boundary = boundary_mass_fraction(snap, spec, mach)
    if tail > MONITOR_THRESHOLD:
        warnings.warn("alpha truncation tail fraction above 1e-8", RuntimeWarning)
    if boundary > MONITOR_THRESHOLD:
        warnings.warn("boundary shell mass fraction above 1e-8", RuntimeWarning)
    return DiagnosticsRecord(
        time=fld.time,
        mass=mass(snap, spec, mach),
        energy=energy(snap, spec, mach),
        h1_native=h1_native(snap, spec, mach),
        virial=vir,
        virial_rhs=vir_rhs,
        morawetz_I=morawetz_I(snap, spec, mach, "abs"),
        morawetz_dI_bound=morawetz_dI_bound(snap, spec, mach),
        tail_mass_fraction=tail,
        boundary_mass_fraction=boundary,
    )
