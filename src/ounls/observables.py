"""Conserved and monitored functionals: mass, energy, weighted norms, the
virial potential with its second-derivative identity, and the interaction
functional with its first-derivative bound.

Every functional is called as ``f(fld, mach)``: a nodal array or a
``Snapshot`` of the field, and the Machinery, whose ``spec`` says which
model it is.  It evaluates with the model's native measure: plain
dx d(alpha) for the divergence form, the Gaussian-weighted measure for the
drift form.  The stepper hands each record a snapshot of the kept-row
spectrum that it holds, so a record runs no forward transform.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .grids import x_fft, x_ifft
from .models import MODEL_DIV
from .operators import Machinery, nonlinear_gain

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


class Snapshot:
    """The pieces of one field that the functionals share, each computed on
    first use and then held.  Mass, both kinetic integrals and the tail
    monitor are read off ``spectrum``, x-Fourier and alpha-spectral over
    ``rows`` (flat x-mode indices or a slice; the kept rows when None).  The
    nodal field ``data`` gives |u|^2, m(x), the potential density and the
    auto-correlation of m.  Either is given; the other is transformed from
    it once, when first read.
    """

    def __init__(self, spectrum: np.ndarray | None, mach: Machinery, rows=None, data=None):
        self.mach = mach
        self.rows = rows
        if spectrum is not None:
            self.spectrum = spectrum
        if data is not None:
            self.data = data

    @classmethod
    def of(cls, fld, mach: Machinery) -> "Snapshot":
        """``fld`` itself when it is a snapshot taken with this machinery,
        else a snapshot of the nodal field over every x mode, whose spectrum
        (one x-FFT and one alpha forward transform, and no projection) is
        formed only if a functional reads it."""
        if isinstance(fld, Snapshot) and fld.mach is mach:
            return fld
        data = np.asarray(fld.data if isinstance(fld, Snapshot) else fld)
        return cls(None, mach, slice(None), data)

    @cached_property
    def spectrum(self) -> np.ndarray:
        return self.mach.forward(self.data, rows=self.rows)

    @cached_property
    def data(self) -> np.ndarray:
        return self.mach.synthesize(self.spectrum)

    @cached_property
    def quadratic_forms(self) -> tuple[float, float, float]:
        """(mass, kinetic_x, kinetic_alpha): Machinery.quadratic_forms."""
        return self.mach.quadratic_forms(self.spectrum, self.rows)

    mass = property(lambda self: self.quadratic_forms[0])
    kinetic_x = property(lambda self: self.quadratic_forms[1])
    kinetic_alpha = property(lambda self: self.quadratic_forms[2])

    @cached_property
    def amp2(self) -> np.ndarray:
        amp2 = self.data.real**2
        amp2 += self.data.imag**2
        return amp2

    @cached_property
    def mass_density(self) -> np.ndarray:
        """m(x) = integral |u|^2 against the native alpha measure."""
        return self.amp2 @ self.mach.axis.weights

    @cached_property
    def potential_density(self) -> np.ndarray:
        """x density of g(alpha)|u|^{p+2} against the native alpha measure."""
        gain = nonlinear_gain(self.data, self.mach)
        return (gain * self.amp2) @ self.mach.axis.weights

    @cached_property
    def potential(self) -> float:
        """integral of g(alpha)|u|^{p+2} against the native measure (no sign)."""
        return float(self.mach.grid.cell_volume * self.potential_density.sum())

    @cached_property
    def autocorrelation(self):
        return _lag_correlation(self.mass_density, self.mach.grid.spacing)


def mass(fld, mach: Machinery) -> float:
    """Native squared L^2: integral of |u|^2 against the model's measure."""
    return Snapshot.of(fld, mach).mass


def energy_terms(fld, mach: Machinery) -> dict[str, float]:
    """The three energy terms: x-kinetic, alpha-kinetic, potential (signed)."""
    snap = Snapshot.of(fld, mach)
    return {
        "kinetic_x": 0.5 * snap.kinetic_x,
        "kinetic_alpha": 0.5 * snap.kinetic_alpha,
        "potential": mach.spec.sign / (mach.spec.power + 2) * snap.potential,
    }


def energy(fld, mach: Machinery) -> float:
    return float(sum(energy_terms(fld, mach).values()))


def h1_native(fld, mach: Machinery) -> float:
    """Energy-compatible H^1-type norm in the model's native measure."""
    return math.sqrt(sum(Snapshot.of(fld, mach).quadratic_forms))


def _require_div(mach: Machinery, what: str):
    if mach.spec.model != MODEL_DIV:
        raise UnsupportedModelError(
            f"{what} is defined for the divergence-form model only"
        )


def virial(fld, mach: Machinery) -> float:
    """V(t) = integral |x|^2 |u|^2 dx d(alpha)."""
    _require_div(mach, "virial")
    radius_sq = sum(c**2 for c in mach.grid.coordinates())
    dens = Snapshot.of(fld, mach).mass_density
    return float(mach.grid.cell_volume * np.sum(radius_sq * dens))


def virial_dt(fld, mach: Machinery) -> float:
    """First time derivative: 4 Im integral x . grad_x(u) conj(u)."""
    _require_div(mach, "virial_dt")
    u = fld.data if isinstance(fld, Snapshot) else np.asarray(fld)
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


def virial_rhs(fld, mach: Machinery) -> float:
    """Right side of the second-derivative identity, times 16.

    (1/16) V'' = E - (1/2) int e^{-a^2/2}|du/da|^2
               + sign * (d p - 4)/(4 (p + 2)) * int |u|^{p+2},
    with sign = +1 defocusing, -1 focusing; the focusing case is the
    concavity route to finite-time blow-up.
    """
    _require_div(mach, "virial_rhs")
    snap = Snapshot.of(fld, mach)
    coeff = (mach.spec.dim * mach.spec.power - 4) / (4.0 * (mach.spec.power + 2))
    return 16.0 * (
        energy(snap, mach)
        - 0.5 * snap.kinetic_alpha
        + mach.spec.sign * coeff * snap.potential
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


def morawetz_I(fld, mach: Machinery, rho: str = "abs") -> float:
    """I_rho = iint rho(x - y) m(x) m(y) dx dy as a discrete convolution.

    Lags use exact node differences; for rho = |x-y| the diagonal cell
    contributes zero by the quadrature convention rho(0) = 0.
    """
    corr, radius = Snapshot.of(fld, mach).autocorrelation
    return float(mach.grid.cell_volume**2 * np.sum(rho_values(radius, rho) * corr))


def morawetz_dI_bound(fld, mach: Machinery) -> float:
    """||u||^3_{L^2} ||u||_{H^1_x-dot} in the native norms."""
    snap = Snapshot.of(fld, mach)
    return snap.mass**1.5 * math.sqrt(snap.kinetic_x)


def morawetz_weighted_potential(fld, mach: Machinery) -> float:
    """iint m(x) (Lap rho)(x - y) m_p(y) dx dy with rho = <x - y>.

    The positive quantity on the left side of the interaction bound, with
    m the native mass density and m_p the |u|^{p+2} density (nonlinearity
    weight included).  Measured only; no sharp constant is asserted.
    """
    snap = Snapshot.of(fld, mach)
    corr, radius = _lag_correlation(
        snap.mass_density, mach.grid.spacing, snap.potential_density
    )
    bracket = rho_values(radius, "bracket")
    lap_rho = (mach.spec.dim - 1) / bracket + 1.0 / bracket**3
    return float(mach.grid.cell_volume**2 * np.sum(lap_rho * corr))


def boundary_mass_fraction(fld, mach: Machinery) -> float:
    """Native-mass fraction in the outermost 10% shell of the x box."""
    dens = Snapshot.of(fld, mach).mass_density
    shell = [np.abs(c) >= 0.9 * mach.grid.half_length for c in mach.grid.coordinates()]
    outer = np.logical_or.reduce(np.broadcast_arrays(*shell))
    total = float(dens.sum())
    if total == 0.0:
        return 0.0
    return float(dens[outer].sum()) / total


MONITOR_THRESHOLD = 1e-8
TAIL_MODES = 4  # the top alpha modes whose mass the tail monitor reports


def tail_mass_fraction(fld, mach: Machinery) -> float:
    """Fraction of native alpha-spectral mass in the top TAIL_MODES modes."""
    return mach.axis.tail_fraction(Snapshot.of(fld, mach).spectrum, TAIL_MODES)


def sample_record(fld, time: float, mach: Machinery) -> DiagnosticsRecord:
    """Evaluate every monitored functional on one snapshot of ``fld`` at
    ``time``: the spectral quadratic forms once, and one synthesis (for a
    snapshot of the stepper's spectrum), |u|^2 and potential density.  A
    nodal ``fld`` adds one x-FFT and one alpha forward transform.

    Warns when the truncation monitors cross 1e-8: the alpha band is too
    small (tail fraction) or the box is shedding mass (boundary fraction).
    """
    snap = Snapshot.of(fld, mach)
    if mach.spec.model == MODEL_DIV:
        vir = virial(snap, mach)
        vir_rhs = virial_rhs(snap, mach)
    else:
        vir = math.nan
        vir_rhs = math.nan
    tail = tail_mass_fraction(snap, mach)
    boundary = boundary_mass_fraction(snap, mach)
    if tail > MONITOR_THRESHOLD:
        warnings.warn("alpha truncation tail fraction above 1e-8", RuntimeWarning)
    if boundary > MONITOR_THRESHOLD:
        warnings.warn("boundary shell mass fraction above 1e-8", RuntimeWarning)
    return DiagnosticsRecord(
        time=time,
        mass=mass(snap, mach),
        energy=energy(snap, mach),
        h1_native=h1_native(snap, mach),
        virial=vir,
        virial_rhs=vir_rhs,
        morawetz_I=morawetz_I(snap, mach, "abs"),
        morawetz_dI_bound=morawetz_dI_bound(snap, mach),
        tail_mass_fraction=tail,
        boundary_mass_fraction=boundary,
    )
