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

The div flow G(t) = exp(itP_h) is dense, but P_h is tridiagonal, so the
Chebyshev expansion of the propagator (Tal-Ezer & Kosloff, J. Chem. Phys.
81, 1984) bounds its entries away from the diagonal, in the decay-bound
style of Benzi & Golub (BIT 39, 1999): with x = |t| (lambda_max -
lambda_min), |G_ij| <= 2 sum_{k >= |i-j|} (x/4)^k / k!.  The reach R(t)
(flow_reach) is where that tail falls below BAND_TOL / sqrt(n), so every
entry farther out is below BAND_TOL times the largest.  FluxAxis.flow forms
G in row blocks, each on the columns within R of its rows only, and
FluxFlow applies those blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
# imported at module level on purpose: the benchmark traces this name as
# operators.div_eigh, and the import leaves glibc's dynamic mmap and trim
# thresholds raised, which the stepper's transient arrays rely on.  A build
# that never imports scipy.linalg took about 37,000 minor faults per
# drift_fixed call, against under 1,000, and ran 5-15 % slower (README,
# "Allocator dependence").
from scipy.linalg import eigh_tridiagonal

from . import hermite
from .grids import BoxGrid, dealias_mask, laplacian_symbol, x_fft, x_ifft
from .hermite import HermiteBasis
from .models import MODEL_NONDIV, DiscretizationSpec, ModelSpec


# entries of G(t) below BAND_TOL times the largest are never formed;
# FLOW_BLOCK rows of G are formed and applied per matmul
BAND_TOL = 1e-15
FLOW_BLOCK = 32

# the x-transforms of a Strang evaluation or a synthesis run per block of
# alpha columns, about WORK_BYTES of complex128 over the x grid each
WORK_BYTES = 2**18

# below PHASE_TINY a nonlinear phase angle is not resolvable in float64:
# half an ulp below 1.0 is 2^-54 and theta^2/2 < 2^-55, so cos(theta) rounds
# to 1.0, and theta^3/6 < theta 2^-56 is below half an ulp of theta, so
# sin(theta) rounds to theta.  cos first leaves 1.0 at 2^-26.5, where
# theta^2/2 reaches 2^-54: half a binade above PHASE_TINY.
PHASE_TINY = 2.0**-27


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


def flow_reach(x: float, n: int) -> int:
    """The reach R of G(t) on n nodes, with x = |t| (lambda_max - lambda_min):
    the smallest d with 2 sum_{k>d} (x/4)^k / k! < BAND_TOL / sqrt(n), or n
    where no d < n has it.

    Write P_h = c + r B with c the centre of the spectrum and r = x / (2|t|),
    so B has its spectrum in [-1, 1] and exp(itP_h) = e^{itc} sum_k
    (2 - delta_k0) i^k J_k(x/2) T_k(B).  T_k(B) has bandwidth k (B is
    tridiagonal) and entries of size at most 1, and |J_k(w)| <= (w/2)^k / k!
    (Abramowitz & Stegun 9.1.62), so the tail at d = |i - j| - 1 bounds
    |G_ij|.  A unitary column holds an entry >= 1 / sqrt(n), so every entry
    beyond R is below BAND_TOL times the largest.  The tail is summed
    relative to its first term, which is taken in log space, so no factorial
    overflows.
    """
    if x == 0.0:
        return 0
    y = x / 4.0
    log_tol, log_y = math.log(BAND_TOL / (2.0 * math.sqrt(n))), math.log(y)
    # the terms grow while k <= y, from 1 at k = 0: a tail from d < y is > 1
    for d in range(int(y), n):
        first = (d + 1) * log_y - math.lgamma(d + 2)
        if first >= log_tol:
            continue
        # 1 + y/(d+2) + y^2/((d+2)(d+3)) + ..., its ratios below 1 as d >= y
        rest, term, k = 1.0, 1.0, d + 1
        while term > 1e-17 * rest:
            k += 1
            term *= y / k
            rest += term
        if first + math.log(rest) < log_tol:
            return d
    return n


@dataclass(frozen=True)
class FluxFlow:
    """G(t) as the div axis applies it, along axis 0 of the data.

    ``blocks`` holds (c0, c1, lo, hi, G[c0:c1, lo:hi]) per FLOW_BLOCK
    output rows, with [lo, hi) the input rows within ``band`` (the reach,
    flow_reach) of [c0, c1); the entries farther out, all below BAND_TOL
    times the largest, are never formed.  The blocks never take more
    multiply-adds than the dense product: at a band near n each block
    reads every row, as the dense product does.
    """

    blocks: tuple
    band: int

    def apply(self, data: np.ndarray) -> np.ndarray:
        """G @ data over the blocks, each output row block written in place."""
        rows = data.reshape(data.shape[0], -1)
        out = np.empty_like(rows)
        for c0, c1, lo, hi, block in self.blocks:
            np.matmul(block, rows[lo:hi], out=out[c0:c1])
        return out.reshape(data.shape)


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
        """Alpha spectrum along axis 0: the Hermite coefficients."""
        return hermite.forward_tensor(values, self.basis)

    def flow(self, t: float) -> np.ndarray:
        """exp(itA) on the spectrum: the diagonal phases exp(it lambda_n)."""
        return np.exp(1j * t * self.basis.eigenvalues)

    def advance(self, spectrum, x_mult, flow) -> np.ndarray:
        """The spectrum times the diagonal flow per row and the x multiplier
        along the trailing axes."""
        return spectrum * np.multiply.outer(flow, x_mult)

    def flow_note(self) -> None:
        """The diagonal flow has no band to report."""
        return None

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        """Nodal values along axis 0 of an alpha spectrum."""
        return hermite.inverse_tensor(spectrum, self.basis)

    def grad_density(self, spectrum: np.ndarray, power: np.ndarray) -> np.ndarray:
        """Alpha gradient form per x point, sum n |c_n|^2; ``power`` is
        |spectrum|^2."""
        return (self._modes @ power.reshape(power.shape[0], -1)).reshape(power.shape[1:])

    def tail_fraction(self, spectrum: np.ndarray, n_tail: int) -> float:
        """Mass fraction of the top ``n_tail`` Hermite modes; values above
        ~1e-8 mean the retained band is too small for the field."""
        power = np.abs(spectrum) ** 2
        total = float(power.sum())
        return float(power[-n_tail:].sum()) / total if total else 0.0

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

    The spectrum is the nodal x-spectrum itself, the flow is
    G(t) = Q exp(it Lambda) Q^T formed and applied within its reach
    (FluxFlow), and the gradient form is the face-difference form, the
    exact invariant of the semi-discrete flow.  ``bands`` records, per
    propagator time built, the band of its flow.
    """

    def __init__(self, op: DivAlphaOperator):
        self.op = op
        self.nodes = op.nodes
        self.weights = np.full(op.n_nodes, op.spacing)
        self.measure = op.spacing
        self.gain_weight = None  # the power nonlinearity is unweighted
        self.bands: dict[float, int] = {}

    def forward(self, values: np.ndarray) -> np.ndarray:
        return values

    def flow(self, t: float) -> FluxFlow:
        """G(t), formed exactly from the eigendecomposition within its reach
        R (flow_reach), which is its band.

        Rows [c0, c1) of each FLOW_BLOCK are formed on columns
        [c0 - R, c1 + R) alone, since every entry farther out is below
        BAND_TOL times the largest; only the block's own rows of Q are
        scaled.  The cos and sin parts are two real products, written
        straight into the block's real and imaginary parts: a complex @ real
        product would first cast Q^T to complex.
        """
        q, lam = self.op.eigenvectors, self.op.eigenvalues
        n = lam.size
        band = flow_reach(abs(t) * float(lam[-1] - lam[0]), n)
        cos, sin = np.cos(t * lam), np.sin(t * lam)
        blocks = []
        for c0 in range(0, n, FLOW_BLOCK):
            c1 = min(c0 + FLOW_BLOCK, n)
            lo, hi = max(c0 - band, 0), min(c1 + band, n)
            rows, cols = q[c0:c1], q[lo:hi].T
            block = np.empty((c1 - c0, hi - lo), np.complex128)
            np.matmul(rows * cos, cols, out=block.real)
            np.matmul(rows * sin, cols, out=block.imag)
            blocks.append((c0, c1, lo, hi, block))
        self.bands[t] = band
        return FluxFlow(tuple(blocks), band)

    def advance(self, spectrum, x_mult, flow) -> np.ndarray:
        """The spectrum times the x multiplier along the trailing axes, then
        G(t) along alpha."""
        return flow.apply(spectrum * x_mult)

    def flow_note(self) -> str:
        """The band of each flow built so far, with the propagator times it
        served (their range where several share it), as a report note."""
        times = {}
        for t, band in self.bands.items():
            times.setdefault(band, []).append(t)
        parts = []
        for band, ts in times.items():
            lo, hi = min(ts), max(ts)
            span = f"{lo:.6g}" if lo == hi else f"{lo:.6g} to {hi:.6g}"
            parts.append(f"{band} at t {span}")
        return f"div flow band of {self.op.n_nodes} nodes: {', '.join(parts)}"

    def inverse(self, spectrum: np.ndarray) -> np.ndarray:
        return spectrum

    def grad_density(self, spectrum: np.ndarray, power: np.ndarray) -> np.ndarray:
        """sum_f mu_f |diff_a u|^2 / h^2 per x point (``power`` unused).

        Taken on the float64 view, where each alpha row holds the real and
        imaginary parts side by side: one real row difference gives both
        face differences, squared in place and weighted per face, with no
        complex copy of the spectrum.
        """
        flat = hermite.float_rows(spectrum)
        diff = flat[1:] - flat[:-1]
        diff *= diff
        dens = (self.op.face_weights / self.op.spacing**2) @ diff
        return (dens[0::2] + dens[1::2]).reshape(spectrum.shape[1:])

    def tail_fraction(self, spectrum: np.ndarray, n_tail: int) -> float:
        """Mass fraction of the ``n_tail`` most oscillatory eigenmodes of P:
        the first columns of the real orthonormal Q (eigenvalues ascend), so
        the total is the nodal sum of |u|^2 and only one (n_tail, n) x
        (n, ...) product is taken, on the float64 view without a complex
        copy of Q."""
        q = self.op.eigenvectors[:, :n_tail]
        tail = float(np.square(q.T @ hermite.float_rows(spectrum)).sum())
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
    """Assembled discrete machinery for one model on one discretization.

    The stepper's spectra hold only the rows of the x modes that the 2/3
    rule keeps: ``forward`` gathers them after the x-FFT (that gather is
    the 2/3 projection) and ``synthesize`` scatters them into zeros before
    the inverse x-FFT.  Every flow and norm on such a kept-row spectrum
    runs on the kept rows only; ``propagator`` binds them into each
    propagator, so no caller reads them.

    A kept-row spectrum is stored alpha-first: shape (alpha, kept x modes),
    C-contiguous, one row per alpha mode or node.  A real alpha matrix then
    acts from the left on its float64 view with no copy, so each Hermite
    transform is one real GEMM (hermite.forward_tensor), and the div flow's
    row blocks read contiguous rows.  The nodal blocks stay x-first, shape
    (x grid, alpha columns), where the x-FFTs run fastest; the transposition
    rides on the copies the 2/3 rule makes anyway: the scatter into zeros
    reads the transposed alpha rows of a block, and the gather writes the
    transposed kept rows into them.

    ``synthesize`` and ``phased`` run their x-transforms per block of alpha
    columns (``column_blocks``, about WORK_BYTES over the x grid each), so
    every nodal array they touch is block-sized and stays in cache.  Each
    block goes through two buffers, made on first use and reused: a scatter
    buffer whose dropped rows stay 0, which is never transformed in place,
    and a work buffer that the FFTs write into.  numpy transforms each
    column alone, so the blocks give bitwise the whole-field result.  The
    buffers are shared, so one Machinery synthesizes or phases one field
    at a time.
    """

    spec: ModelSpec
    grid: BoxGrid
    axis: HermiteAxis | FluxAxis
    dealias: np.ndarray
    _propagators: dict = field(default_factory=dict, repr=False)
    _scatter: np.ndarray | None = field(default=None, init=False, repr=False)
    _work: np.ndarray | None = field(default=None, init=False, repr=False)

    @cached_property
    def kept(self) -> np.ndarray:
        """Flat indices over the x grid of the modes the 2/3 rule keeps."""
        return np.flatnonzero(self.dealias)

    @cached_property
    def _k2_kept(self) -> np.ndarray:
        """|k|^2 at the kept modes."""
        return -laplacian_symbol(self.grid).reshape(-1)[self.kept]

    @cached_property
    def column_blocks(self) -> tuple[slice, ...]:
        """The alpha-column blocks of the x-transforms: WORK_BYTES // (16
        rows) columns wide at most, split evenly over as few blocks as that
        allows (9 of 57 for 513 nodes on 256 x points, one block for 64
        on 256)."""
        n = self.axis.nodes.size
        width = max(1, WORK_BYTES // (16 * self.dealias.size))
        count = -(-n // width)
        return tuple(slice(i * n // count, (i + 1) * n // count) for i in range(count))

    def _blocks(self, nodal: np.ndarray):
        """Per column block of the alpha-first kept-row nodal values
        ``nodal``: (columns, scatter, work), the block's alpha rows
        transposed into the kept rows of ``scatter`` over the x grid, and
        ``work`` the block-sized buffer for the transforms."""
        if self._scatter is None:
            width = max(b.stop - b.start for b in self.column_blocks)
            self._scatter = np.zeros(self.grid.shape + (width,), np.complex128)
            self._work = np.empty_like(self._scatter)
        for columns in self.column_blocks:
            width = columns.stop - columns.start
            scatter = self._scatter[..., :width]
            scatter.reshape(-1, width)[self.kept] = nodal[columns].T
            yield columns, scatter, self._work[..., :width]

    def forward(self, data: np.ndarray, rows=None) -> np.ndarray:
        """Kept-row spectrum of the 2/3 projection of a nodal field, or,
        with ``rows`` (flat x-mode indices or a slice), its spectrum over
        those rows."""
        hat = x_fft(data, self.grid)
        hat = hat.reshape(-1, hat.shape[-1])[self.kept if rows is None else rows]
        return self.axis.forward(np.ascontiguousarray(hat.T))

    def synthesize(self, spectrum: np.ndarray) -> np.ndarray:
        """Nodal field of a kept-row spectrum, block by block."""
        nodal = self.axis.inverse(spectrum)
        out = np.empty(self.grid.shape + nodal.shape[:1], np.complex128)
        for columns, scatter, _ in self._blocks(nodal):
            x_ifft(scatter, self.grid, out=out[..., columns])
        return out

    def phased(self, spectrum: np.ndarray, nonlinearity) -> np.ndarray:
        """Kept-row spectrum of the 2/3 projection of ``nonlinearity(data,
        columns)``, with data the nodal field of the kept-row ``spectrum``
        over alpha columns ``columns``, block by block: scatter, inverse
        x-FFT, nonlinearity, forward x-FFT, gather."""
        nodal = self.axis.inverse(spectrum)
        out = np.empty(nodal.shape, np.complex128)
        for columns, scatter, work in self._blocks(nodal):
            data = x_ifft(scatter, self.grid, out=work)
            x_fft(nonlinearity(data, columns), self.grid, out=work)
            out[columns] = work.reshape(-1, work.shape[-1])[self.kept].T
        return self.axis.forward(out)

    def quadratic_forms(self, spectrum: np.ndarray, rows=None) -> tuple[float, float, float]:
        """(mass, kinetic_x, kinetic_alpha) of the field whose spectrum over
        ``rows`` (the kept rows when None) this is: vol * measure * the sums
        of |s|^2, |k|^2 |s|^2 and the alpha gradient form (Parseval)."""
        k2 = self._k2_kept if rows is None else -laplacian_symbol(self.grid).reshape(-1)[rows]
        power = spectrum.real**2 + spectrum.imag**2
        scale = self.grid.cell_volume * self.axis.measure
        return (scale * float(power.sum()), scale * float((power @ k2).sum()),
                scale * float(self.axis.grad_density(spectrum, power).sum()))

    def spectral_l2(self, spectrum: np.ndarray) -> float:
        """Native L^2 of the field whose kept-row spectrum this is."""
        scale = self.grid.cell_volume * self.axis.measure
        return float(np.sqrt(scale * np.vdot(spectrum, spectrum).real))

    def propagator(self, t: float) -> "LinearPropagator":
        """Cached exact propagator for time t on the kept rows (small LRU:
        a div-form flow holds the band blocks of G(t), so unbounded caching
        would hoard memory)."""
        prop = self._propagators.pop(t, None)
        if prop is None:
            prop = build_linear_propagator(self, t)
        self._propagators[t] = prop
        while len(self._propagators) > 16:
            self._propagators.pop(next(iter(self._propagators)))
        return prop


def build_machinery(spec: ModelSpec, disc: DiscretizationSpec) -> Machinery:
    grid = BoxGrid(spec.dim, disc.resolved_box(spec.dim), disc.n_x)
    return Machinery(spec, grid, build_axis(spec, disc), dealias_mask(grid))


@dataclass(frozen=True)
class LinearPropagator:
    """Exact application of exp(i t L): the x phases and the axis flow.

    ``advance`` runs it on a kept-row spectrum, with the x phase at the kept
    rows gathered once per build.  ``apply`` runs it on a nodal field over
    every x mode: the tests' reference propagator, and a benchmark span.
    """

    grid: BoxGrid
    x_phase: np.ndarray
    kept_phase: np.ndarray
    axis: HermiteAxis | FluxAxis
    flow: np.ndarray | FluxFlow

    def apply(self, data: np.ndarray) -> np.ndarray:
        """exp(i t L) data, over every x mode; the spectrum in between is
        alpha-first, as a kept-row one."""
        hat = x_fft(data, self.grid)
        spectrum = self.axis.forward(np.ascontiguousarray(hat.reshape(-1, hat.shape[-1]).T))
        spectrum = self.axis.advance(spectrum, self.x_phase.reshape(-1), self.flow)
        nodal = np.ascontiguousarray(self.axis.inverse(spectrum).T)
        return x_ifft(nodal.reshape(hat.shape), self.grid)

    def advance(self, spectrum: np.ndarray) -> np.ndarray:
        """exp(i t L) on a kept-row spectrum."""
        return self.axis.advance(spectrum, self.kept_phase, self.flow)


def build_linear_propagator(mach: Machinery, t: float) -> LinearPropagator:
    """Propagator for time ``t`` on the machinery's grid, axis and kept
    rows; unitary in the model's native L^2."""
    if not np.isfinite(t):
        raise ValueError(f"propagation time must be finite, got {t!r}")
    x_phase = np.exp(1j * t * laplacian_symbol(mach.grid))
    kept_phase = x_phase.reshape(-1)[mach.kept]
    return LinearPropagator(mach.grid, x_phase, kept_phase, mach.axis, mach.axis.flow(t))


def squared_modulus(data: np.ndarray) -> np.ndarray:
    """|u|^2 of a nodal array, in one squaring pass."""
    amp2 = data.real**2
    amp2 += data.imag**2
    return amp2


def nonlinear_gain(amp2: np.ndarray, mach: Machinery, columns=slice(None)) -> np.ndarray:
    """Pointwise g(alpha)|u|^p = (|u|^2 times the axis gain weight)^(p/2)
    from ``amp2`` = |u|^2 over alpha columns ``columns``; an axis without a
    gain weight (the div form) skips the multiply.  ``amp2`` is never
    written: at p = 2 on the div form the gain is ``amp2`` itself."""
    if mach.axis.gain_weight is not None:
        amp2 = amp2 * mach.axis.gain_weight[columns]
    half = mach.spec.power // 2
    return amp2 if half == 1 else amp2**half


def apply_nonlinearity(data: np.ndarray, mach: Machinery, dt: float,
                       columns=slice(None)) -> np.ndarray:
    """Exact nonlinear substep: u -> u exp(-i sign g(alpha) |u|^p dt), on
    ``data`` over alpha columns ``columns`` (all by default).

    Pure phase rotation, so |u| is preserved pointwise.  Raises
    NonFiniteFieldError on nonfinite input, which signals upstream blow-up.

    The phase exp(i theta), theta = -sign g |u|^p dt, is filled as
    (1, theta), and cos and sin are evaluated only where |theta| >=
    PHASE_TINY.  Below it float64 cos rounds to exactly 1.0 and sin to
    exactly theta (see PHASE_TINY), so the result is bitwise that of cos
    and sin on every node; localized data leave most angles below it.
    """
    if not np.all(np.isfinite(data.view(np.float64))):
        raise NonFiniteFieldError("nonfinite field values in nonlinear substep")
    theta = nonlinear_gain(squared_modulus(data), mach, columns)
    theta *= -mach.spec.sign * dt
    # cos and sin of a real array are cheaper than the complex exponential
    # of an imaginary one; a NaN angle fails the mask and stays NaN
    out = np.empty(data.shape, dtype=np.complex128)
    out.real = 1.0
    out.imag = theta
    live = theta >= PHASE_TINY
    live |= theta <= -PHASE_TINY
    np.cos(theta, out=out.real, where=live)
    np.sin(theta, out=out.imag, where=live)
    out *= data
    return out
