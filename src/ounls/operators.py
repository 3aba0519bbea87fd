"""Linear generators and nonlinear terms of both confinement models.

The drift-form generator L = Laplacian_x + (d^2/da^2 - a d/da) is diagonal
in Fourier x Hermite; the divergence-form generator L = Laplacian_x + P with
P u = d/da(exp(-a^2/2) du/da) is handled by a conservative second-order
discretization on a uniform alpha grid, diagonalized once per run.

The two models differ only in the confined direction, and that difference
lives in two axis classes: HermiteAxis (drift form) and FluxAxis
(divergence form).  build_axis is the one place that picks one; everything
downstream calls the axis.  Each axis keeps its own flow arithmetic: both
unified variants measured slower (README, "The alpha axis").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import hermite
from .grids import BoxGrid, dealias_mask, laplacian_symbol, x_fft, x_ifft
from .hermite import HermiteBasis
from .models import MODEL_NONDIV, DiscretizationSpec, ModelSpec


class NonFiniteFieldError(FloatingPointError):
    """Nonfinite values reached the nonlinear term (upstream blow-up)."""


@dataclass
class DivAlphaOperator:
    """Conservative discretization of P u = d/da(exp(-a^2/2) du/da).

    Built on a uniform grid over [-half_width, half_width] with zero-flux
    faces, which keeps the matrix symmetric negative semidefinite with the
    constant vector in its kernel.  The eigendecomposition (ascending
    eigenvalues, orthonormal columns) is computed lazily on first use; the
    flux action and energy forms only need the face weights.
    """

    nodes: np.ndarray
    spacing: float
    face_weights: np.ndarray
    diagonal: np.ndarray
    offdiagonal: np.ndarray

    @property
    def n_nodes(self) -> int:
        return self.nodes.size

    @cached_property
    def _eigenpairs(self):
        return eigh_tridiagonal(self.diagonal, self.offdiagonal)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenpairs[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenpairs[1]


def build_div_operator(n_nodes: int = 513, half_width: float = 12.0) -> DivAlphaOperator:
    if n_nodes < 3:
        raise ValueError(f"n_nodes must be >= 3, got {n_nodes}")
    nodes = np.linspace(-half_width, half_width, n_nodes)
    h = nodes[1] - nodes[0]
    faces = 0.5 * (nodes[1:] + nodes[:-1])
    mu = np.exp(-0.5 * faces**2)

    diag = np.zeros(n_nodes)
    diag[:-1] -= mu
    diag[1:] -= mu
    diag /= h**2
    return DivAlphaOperator(nodes, float(h), mu, diag, mu / h**2)


class HermiteAxis:
    """Drift form: Gauss-Hermite nodes for the weight exp(-a^2/2).

    The spectrum is the Hermite coefficients, the OU flow is the diagonal
    phase exp(-itn) on them, and the gradient form is the modal sum
    sum n |c_n|^2.
    """

    def __init__(self, basis: HermiteBasis):
        self.basis = basis
        self.nodes = basis.nodes
        self.weights = basis.weights
        self.measure = 1.0
        # g(alpha)|u|^p is evaluated as (|u|^2 e^{-a^2})^(p/2), so large
        # nodal values at the outer nodes never meet the tiny weight as an
        # inf*0 product
        self.gain_weight = np.exp(-0.5 * basis.nodes**2) ** 2
        self._modes = -basis.eigenvalues

    def forward(self, values: np.ndarray) -> np.ndarray:
        """Alpha spectrum along the last axis: the Hermite coefficients."""
        return hermite.forward_tensor(values, self.basis)

    def flow(self, t: float) -> np.ndarray:
        """exp(itA) on the spectrum: the diagonal phases exp(it lambda_n)."""
        return np.exp(1j * t * self.basis.eigenvalues)

    def advance(self, spectrum, x_mult, flow) -> np.ndarray:
        """The spectrum times the x multiplier and the diagonal flow."""
        return spectrum * (x_mult * flow)

    def synthesize(self, spectrum, grid: BoxGrid) -> np.ndarray:
        """Nodal field of an x-by-alpha spectrum."""
        return x_ifft(hermite.inverse_tensor(spectrum, self.basis), grid)

    def grad_density(self, spectrum: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Alpha gradient form per x point, sum n |c_n|^2; ``power`` is
        |spectrum|^2."""
        return power @ self._modes

    def tail_fraction(self, spectrum: np.ndarray, n_tail: int) -> float:
        """Mass fraction of the top ``n_tail`` Hermite modes; values above
        ~1e-8 mean the retained band is too small for the field."""
        power = np.abs(spectrum) ** 2
        total = float(power.sum())
        return float(power[..., -n_tail:].sum()) / total if total else 0.0

    def band_shapes(self, band: int) -> np.ndarray:
        """Nodal shapes of the band+1 low profiles: the basis functions."""
        return self.basis.eigenfunctions[: band + 1]

    def mode_factors(self, band: int):
        """(measure, Strichartz norm factor per variant) of the low band:
        the basis is orthonormal, with an extra alpha-H^1 variant."""
        n = np.arange(band + 1, dtype=np.float64)
        return 1.0, {"k0": np.eye(band + 1), "h1alpha": np.diag(np.sqrt(1.0 + n))}


class FluxAxis:
    """Divergence form: the conservative flux operator on uniform nodes,
    with the plain L^2 measure and an unweighted power nonlinearity.

    The spectrum is the nodal x-spectrum itself, the flow is the dense
    G(t) = Q exp(it Lambda) Q^T, and the gradient form is the face-difference
    form, the exact invariant of the semi-discrete flow.
    """

    def __init__(self, op: DivAlphaOperator):
        self.op = op
        self.nodes = op.nodes
        self.weights = np.full(op.n_nodes, op.spacing)
        self.measure = op.spacing
        self.gain_weight = None  # the power nonlinearity is unweighted

    def forward(self, values: np.ndarray) -> np.ndarray:
        return values

    def flow(self, t: float) -> np.ndarray:
        q = self.op.eigenvectors
        return (q * np.exp(1j * t * self.op.eigenvalues)) @ q.T

    def advance(self, spectrum, x_mult, flow) -> np.ndarray:
        """The spectrum times the x multiplier, then G(t) along alpha (G is
        symmetric, so right multiplication applies it)."""
        return (spectrum * x_mult) @ flow

    def synthesize(self, spectrum, grid: BoxGrid) -> np.ndarray:
        return x_ifft(spectrum, grid)

    def grad_density(self, spectrum: np.ndarray, power: np.ndarray) -> np.ndarray:
        """sum_f mu_f |diff_a u|^2 / h^2 per x point (``power`` unused)."""
        diff = np.diff(spectrum, axis=-1)
        return (diff.real**2 + diff.imag**2) @ self.op.face_weights / self.op.spacing**2

    def tail_fraction(self, spectrum: np.ndarray, n_tail: int) -> float:
        """Mass fraction of the ``n_tail`` most oscillatory eigenmodes of P:
        the first columns of the real orthonormal Q (eigenvalues ascend), so
        the total is the nodal sum of |u|^2 and only (..., n) x (n, n_tail)
        products are taken, part by part without a complex copy of Q."""
        q = self.op.eigenvectors[:, :n_tail]
        tail = float(((spectrum.real @ q) ** 2 + (spectrum.imag @ q) ** 2).sum())
        total = float(np.vdot(spectrum, spectrum).real)
        return tail / total if total else 0.0

    def band_shapes(self, band: int) -> np.ndarray:
        """Gaussian-confined profiles phi_n exp(-a^2/2): the truncated
        operator's spectrum near zero is a dense continuum, so its raw
        eigenvectors are not usable as a smooth band."""
        return hermite.evaluate_modes(self.nodes, band + 1) * np.exp(-0.5 * self.nodes**2)

    def mode_factors(self, band: int):
        """The band shapes are not orthonormal in plain L^2, so the norm
        carries the Cholesky factor of their Gram matrix."""
        shapes = self.band_shapes(band)
        return self.op.spacing, {"k0": np.linalg.cholesky(shapes @ shapes.T)}


def build_axis(spec: ModelSpec, disc: DiscretizationSpec) -> HermiteAxis | FluxAxis:
    """The confined-direction discretization of the spec's model."""
    if spec.model == MODEL_NONDIV:
        return HermiteAxis(hermite.build_basis(disc.n_alpha))
    return FluxAxis(build_div_operator(disc.div_nodes, disc.div_half_width))


def apply_div_operator(values: np.ndarray, op: DivAlphaOperator) -> np.ndarray:
    """Flux-difference action of P along the last axis."""
    if values.shape[-1] != op.n_nodes:
        raise ValueError(
            f"field alpha size {values.shape[-1]} does not match operator grid {op.n_nodes}"
        )
    h = op.spacing
    flux = op.face_weights * np.diff(values, axis=-1) / h
    out = np.zeros_like(values)
    out[..., 0] = flux[..., 0] / h
    out[..., 1:-1] = np.diff(flux, axis=-1) / h
    out[..., -1] = -flux[..., -1] / h
    return out


def verify_div_identity(f, basis: HermiteBasis, op: DivAlphaOperator) -> float:
    """Sup-norm residual of d/da(e^{-a^2/2} f') = e^{-a^2/2}(f'' - a f').

    The left side uses the conservative discretization on the uniform grid;
    the right side is computed modally (c_n -> -n c_n) from the Hermite
    expansion of the callable ``f`` and resampled onto the uniform grid.
    """
    coeffs = hermite.forward_tensor(np.asarray(f(basis.nodes), dtype=np.complex128), basis)
    lhs = apply_div_operator(np.asarray(f(op.nodes), dtype=np.complex128), op)
    ou_f = hermite.evaluate_modal(coeffs * basis.eigenvalues, op.nodes)
    rhs = np.exp(-0.5 * op.nodes**2) * ou_f
    return float(np.abs(lhs - rhs).max())


@dataclass
class Machinery:
    """Assembled discrete machinery for one model on one discretization."""

    spec: ModelSpec
    grid: BoxGrid
    axis: HermiteAxis | FluxAxis
    dealias: np.ndarray
    include_nonlinearity: bool = True
    _propagators: dict = field(default_factory=dict, repr=False)

    def forward(self, data: np.ndarray) -> np.ndarray:
        """x-by-alpha spectrum of a nodal field."""
        return self.axis.forward(x_fft(data, self.grid))

    def synthesize(self, spectrum: np.ndarray) -> np.ndarray:
        """Nodal field of an x-by-alpha spectrum."""
        return self.axis.synthesize(spectrum, self.grid)

    def propagator(self, t: float) -> "LinearPropagator":
        """Cached exact propagator for time t (small LRU: the div-form
        alpha matrix is dense, so unbounded caching would hoard memory)."""
        prop = self._propagators.pop(t, None)
        if prop is None:
            prop = build_linear_propagator(self.grid, self.axis, t)
        self._propagators[t] = prop
        while len(self._propagators) > 16:
            self._propagators.pop(next(iter(self._propagators)))
        return prop


def build_machinery(
    spec: ModelSpec, disc: DiscretizationSpec, include_nonlinearity: bool = True
) -> Machinery:
    grid = BoxGrid(spec.dim, disc.resolved_box(spec.dim), disc.n_x)
    return Machinery(spec, grid, build_axis(spec, disc), dealias_mask(grid),
                     include_nonlinearity=include_nonlinearity)


@dataclass(frozen=True)
class LinearPropagator:
    """Exact application of exp(i t L): the x phases and the axis flow.

    ``apply`` is the composition of three spectral parts: the forward
    transform (the x-FFT, then the axis transform; ``Machinery.forward``),
    ``advance`` (the x multiplier and the alpha flow, both in spectral
    coordinates) and the synthesis back to the nodal field
    (``Machinery.synthesize``).  The adaptive stepper calls the parts
    directly to carry spectra between substeps.
    """

    grid: BoxGrid
    t: float
    x_phase: np.ndarray
    axis: HermiteAxis | FluxAxis
    flow: np.ndarray

    def apply(self, data: np.ndarray, mask: np.ndarray | None = None, h1: bool = False):
        """exp(i t L) data; with ``mask`` the x multiplier is x_phase * mask,
        so the substep also projects onto the kept Fourier modes.

        With ``h1`` (which needs ``mask``) the result is (field, native H^1
        of the field), the norm read off the masked spectrum: the flow is
        unitary and commutes with the H^1 form, so no further transform is
        needed.
        """
        spectrum = self.axis.forward(x_fft(data, self.grid))
        norm = self.spectral_h1(spectrum, mask) if h1 else None
        # rebinding frees the unphased spectrum before the synthesis allocates
        # (an extra live buffer measured several per cent slower drift steps)
        spectrum = self.advance(spectrum, mask)
        out = self.axis.synthesize(spectrum, self.grid)
        return (out, norm) if h1 else out

    def advance(self, spectrum: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """exp(i t L) in spectral coordinates; ``mask`` multiplies the x
        phase (the 2/3 projection commutes with the flow)."""
        x_mult = self.x_phase if mask is None else self.x_phase * mask
        return self.axis.advance(spectrum, x_mult[..., None], self.flow)

    def spectral_h1(self, spectrum: np.ndarray, mask: np.ndarray) -> float:
        """Native H^1 of the field whose x-by-alpha spectrum (times the mask)
        this is: vol * measure * sum [(1 + |k|^2)|s|^2 + alpha gradient form].
        """
        power = spectrum.real**2 + spectrum.imag**2
        dens = (1.0 - laplacian_symbol(self.grid)) * power.sum(axis=-1)
        dens = dens + self.axis.grad_density(spectrum, power)
        return self._native_norm(dens, mask)

    def spectral_l2(self, spectrum: np.ndarray, mask: np.ndarray) -> float:
        """Native L^2 of the field whose spectrum (times the mask) this is:
        both transforms are unitary in the native measure (Parseval)."""
        power = spectrum.real**2 + spectrum.imag**2
        return self._native_norm(power.sum(axis=-1), mask)

    def _native_norm(self, dens: np.ndarray, mask: np.ndarray) -> float:
        dens = dens * mask
        return float(np.sqrt(self.grid.cell_volume * self.axis.measure * dens.sum()))


def build_linear_propagator(
    grid: BoxGrid, axis: HermiteAxis | FluxAxis, t: float
) -> LinearPropagator:
    """Propagator for time ``t``; unitary in the model's native L^2."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t!r}")
    x_phase = np.exp(1j * t * laplacian_symbol(grid))
    return LinearPropagator(grid, t, x_phase, axis, axis.flow(t))


def nonlinear_gain(data: np.ndarray, spec: ModelSpec, mach: Machinery) -> np.ndarray:
    """Pointwise g(alpha)|u|^p = (|u|^2 times the axis gain weight)^(p/2);
    an axis without a gain weight (the div form) skips the multiply."""
    amp2 = data.real**2 + data.imag**2
    if mach.axis.gain_weight is not None:
        amp2 *= mach.axis.gain_weight
    return amp2 ** (spec.power // 2)


def apply_nonlinearity(data: np.ndarray, spec: ModelSpec, mach: Machinery, dt: float) -> np.ndarray:
    """Exact nonlinear substep: u -> u exp(-i sign g(alpha) |u|^p dt).

    Pure phase rotation, so |u| is preserved pointwise.  Raises
    NonFiniteFieldError on nonfinite input, which signals upstream blow-up.
    """
    if not np.all(np.isfinite(data.view(np.float64))):
        raise NonFiniteFieldError("nonfinite field values in nonlinear substep")
    if not mach.include_nonlinearity or dt == 0.0:
        return data.copy()
    theta = nonlinear_gain(data, spec, mach)
    theta *= -spec.sign * dt
    # exp(i theta) written part by part: cos and sin of a real array are
    # cheaper than the complex exponential of an imaginary one
    out = np.empty(data.shape, dtype=np.complex128)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    out *= data
    return out
