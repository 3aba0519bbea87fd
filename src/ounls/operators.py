"""Linear generators and nonlinear terms of both confinement models.

The drift-form generator L = Laplacian_x + (d^2/da^2 - a d/da) is diagonal
in Fourier x Hermite; the divergence-form generator L = Laplacian_x + P with
P u = d/da(exp(-a^2/2) du/da) is handled by a conservative second-order
discretization on a uniform alpha grid, diagonalized once per run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import hermite
from .grids import BoxGrid, dealias_mask, laplacian_symbol, x_fft, x_ifft
from .hermite import AlphaProfile, HermiteBasis
from .models import MODEL_DIV, MODEL_NONDIV, DiscretizationSpec, ModelSpec


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

    def _eigenpairs(self):
        cached = getattr(self, "_eigen_cache", None)
        if cached is None:
            cached = eigh_tridiagonal(self.diagonal, self.offdiagonal)
            self._eigen_cache = cached
        return cached

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigenpairs()[0]

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigenpairs()[1]


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


def apply_ou_nondiv(values: np.ndarray, basis: HermiteBasis) -> np.ndarray:
    """Drift-form action (d^2/da^2 - a d/da) computed modally: c_n -> -n c_n."""
    coeffs = hermite.forward_tensor(values, basis)
    return hermite.inverse_tensor(coeffs * basis.eigenvalues, basis)


def verify_div_identity(f, basis: HermiteBasis, op: DivAlphaOperator) -> float:
    """Sup-norm residual of d/da(e^{-a^2/2} f') = e^{-a^2/2}(f'' - a f').

    The left side uses the conservative discretization on the uniform grid;
    the right side is computed modally (c_n -> -n c_n) from the Hermite
    expansion of ``f`` and resampled onto the uniform grid.  ``f`` may be a
    callable of alpha or an AlphaProfile.
    """
    if callable(f):
        coeffs = hermite.forward_tensor(
            np.asarray(f(basis.nodes), dtype=np.complex128), basis
        )
        f_uniform = np.asarray(f(op.nodes), dtype=np.complex128)
    elif isinstance(f, AlphaProfile):
        coeffs = (
            f.data if f.space == "modal" else hermite.forward_tensor(f.data, basis)
        )
        f_uniform = hermite.evaluate_modal(coeffs, op.nodes)
    else:
        raise TypeError("f must be callable or an AlphaProfile")

    lhs = apply_div_operator(f_uniform, op)
    ou_f = hermite.evaluate_modal(coeffs * basis.eigenvalues[: coeffs.shape[-1]], op.nodes)
    rhs = np.exp(-0.5 * op.nodes**2) * ou_f
    return float(np.abs(lhs - rhs).max())


@dataclass
class Machinery:
    """Assembled discrete machinery for one model on one discretization."""

    spec: ModelSpec
    grid: BoxGrid
    basis: HermiteBasis | None = None
    div_op: DivAlphaOperator | None = None
    dealias: np.ndarray | None = None
    include_nonlinearity: bool = True
    _propagators: dict = field(default_factory=dict, repr=False)

    @property
    def alpha_nodes(self) -> np.ndarray:
        return self.basis.nodes if self.spec.model == MODEL_NONDIV else self.div_op.nodes

    @property
    def n_alpha(self) -> int:
        return self.alpha_nodes.size

    @property
    def alpha_weights(self) -> np.ndarray:
        """Native alpha quadrature weights (Gaussian-weighted or uniform)."""
        if self.spec.model == MODEL_NONDIV:
            return self.basis.weights
        return np.full(self.div_op.n_nodes, self.div_op.spacing)

    @property
    def half_gaussian(self) -> np.ndarray:
        """exp(-alpha^2/2) at the alpha nodes."""
        return np.exp(-0.5 * self.alpha_nodes**2)

    def propagator(self, t: float) -> "LinearPropagator":
        """Cached exact propagator for time t (small LRU: the div-form
        alpha matrix is dense, so unbounded caching would hoard memory)."""
        prop = self._propagators.pop(t, None)
        if prop is None:
            source = self.basis if self.spec.model == MODEL_NONDIV else self.div_op
            prop = build_linear_propagator(self.spec, self.grid, source, t)
        self._propagators[t] = prop
        while len(self._propagators) > 16:
            self._propagators.pop(next(iter(self._propagators)))
        return prop


def build_machinery(
    spec: ModelSpec, disc: DiscretizationSpec, include_nonlinearity: bool = True
) -> Machinery:
    grid = BoxGrid(spec.dim, disc.resolved_box(spec.dim), disc.n_x)
    mask = dealias_mask(grid) if disc.dealias else None
    if spec.model == MODEL_NONDIV:
        basis = hermite.build_basis(disc.n_alpha)
        return Machinery(spec, grid, basis=basis, dealias=mask,
                         include_nonlinearity=include_nonlinearity)
    op = build_div_operator(disc.div_nodes, disc.div_half_width)
    return Machinery(spec, grid, div_op=op, dealias=mask,
                     include_nonlinearity=include_nonlinearity)


@dataclass(frozen=True)
class LinearPropagator:
    """Exact application of exp(i t L) in the model's diagonal bases."""

    spec: ModelSpec
    grid: BoxGrid
    t: float
    x_phase: np.ndarray
    alpha_phase: np.ndarray | None = None
    alpha_matrix: np.ndarray | None = None
    basis: HermiteBasis | None = None
    div_op: DivAlphaOperator | None = None

    def apply(self, data: np.ndarray, mask: np.ndarray | None = None, h1: bool = False):
        """exp(i t L) data; with ``mask`` the x multiplier is x_phase * mask,
        so the substep also projects onto the kept Fourier modes.

        With ``h1`` the result is (field, native H^1 of the field), the norm
        read off the masked spectrum: the flow is unitary and commutes with
        the H^1 form, so no further transform is needed.
        """
        x_mult = self.x_phase if mask is None else self.x_phase * mask
        if self.spec.model == MODEL_NONDIV:
            coeffs = hermite.forward_tensor(x_fft(data, self.grid), self.basis)
            norm = self._spectral_h1(coeffs, mask) if h1 else None
            coeffs = coeffs * (x_mult[..., None] * self.alpha_phase)
            out = x_ifft(hermite.inverse_tensor(coeffs, self.basis), self.grid)
        else:
            hat = x_fft(data, self.grid)
            norm = self._spectral_h1(hat, mask) if h1 else None
            out = x_ifft(hat * x_mult[..., None], self.grid) @ self.alpha_matrix
        return (out, norm) if h1 else out

    def _spectral_h1(self, spectrum: np.ndarray, mask: np.ndarray | None) -> float:
        """Native H^1 of the field whose x-spectrum (times the mask) this is.

        Drift form, Hermite coefficients c_kn: vol * sum (1 + |k|^2 + n)|c|^2.
        Divergence form, alpha-nodal u_hat_k:
        vol * h * [sum (1 + |k|^2)|u_hat|^2 + sum_f mu_f |diff_a u_hat|^2 / h^2].
        """
        power = spectrum.real**2 + spectrum.imag**2
        dens = (1.0 - laplacian_symbol(self.grid)) * power.sum(axis=-1)
        if self.spec.model == MODEL_NONDIV:
            dens -= power @ self.basis.eigenvalues
            scale = 1.0
        else:
            op = self.div_op
            diff = np.diff(spectrum, axis=-1)
            dens += (diff.real**2 + diff.imag**2) @ op.face_weights / op.spacing**2
            scale = op.spacing
        if mask is not None:
            dens = dens * mask
        return float(np.sqrt(self.grid.cell_volume * scale * dens.sum()))


def build_linear_propagator(spec: ModelSpec, grid: BoxGrid, alpha_source, t: float) -> LinearPropagator:
    """Propagator for time ``t``; unitary in the model's native L^2."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t!r}")
    x_phase = np.exp(1j * t * laplacian_symbol(grid))
    if spec.model == MODEL_NONDIV:
        basis: HermiteBasis = alpha_source
        alpha_phase = np.exp(1j * t * basis.eigenvalues)
        return LinearPropagator(spec, grid, t, x_phase, alpha_phase=alpha_phase, basis=basis)
    op: DivAlphaOperator = alpha_source
    q = op.eigenvectors
    g = (q * np.exp(1j * t * op.eigenvalues)) @ q.T
    return LinearPropagator(spec, grid, t, x_phase, alpha_matrix=g, div_op=op)


def nonlinear_gain(data: np.ndarray, spec: ModelSpec, mach: Machinery) -> np.ndarray:
    """Pointwise g(alpha)|u|^p, grouped as (|u| e^{-a^2/2})^p for the
    drift-form model so that large nodal values at outer Hermite nodes
    never meet the tiny weight as an inf*0 product."""
    amp2 = data.real**2 + data.imag**2
    if spec.model == MODEL_NONDIV:
        m2 = amp2 * mach.half_gaussian**2
        return m2 ** (spec.power // 2)
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
    gain = nonlinear_gain(data, spec, mach)
    return data * np.exp(-1j * spec.sign * dt * gain)
