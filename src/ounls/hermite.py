"""Hermite basis machinery for the Gaussian weight exp(-alpha^2/2).

Everything here uses the probabilists' convention: quadrature nodes and
weights integrate f(alpha)*exp(-alpha^2/2) d(alpha) exactly for polynomial f
up to degree 2n-1, and the basis functions are the normalized Hermite
polynomials

    phi_n = He_n / sqrt(n! * sqrt(2*pi)),

orthonormal in the weighted inner product.  The Ornstein-Uhlenbeck operator
d^2/da^2 - a d/da is diagonal in this basis with eigenvalue -n on mode n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


class IllConditionedBasisError(ValueError):
    """Requested mode count large enough that weight positivity is lost."""


@dataclass(frozen=True)
class HermiteBasis:
    """Quadrature rule plus normalized-eigenfunction table.

    Attributes
    ----------
    n_modes : int
        Number of retained modes (= number of quadrature nodes).
    nodes : ndarray, shape (n_modes,)
        Quadrature abscissae, ascending.
    weights : ndarray, shape (n_modes,)
        Strictly positive weights; they sum to sqrt(2*pi).
    eigenfunctions : ndarray, shape (n_modes, n_modes)
        eigenfunctions[n, k] = phi_n(nodes[k]).
    eigenvalues : ndarray, shape (n_modes,)
        Ornstein-Uhlenbeck eigenvalues, exactly -n stored as floats.
    """

    n_modes: int
    nodes: np.ndarray
    weights: np.ndarray
    eigenfunctions: np.ndarray
    eigenvalues: np.ndarray

    @cached_property
    def forward_matrix(self) -> np.ndarray:
        # coeffs = forward_matrix @ values; cached_property writes the
        # instance dict directly, so it works on the frozen dataclass
        return self.eigenfunctions * self.weights[None, :]


def evaluate_modes(alphas, n_modes: int) -> np.ndarray:
    """Table phi_n(alpha) for n < n_modes via the normalized recurrence.

    The recurrence phi_{n+1} = (alpha*phi_n - sqrt(n)*phi_{n-1})/sqrt(n+1)
    avoids factorials, so it stays finite well past n = 85.
    Returns shape (n_modes, len(alphas)).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    table = np.empty((n_modes, alphas.size), dtype=np.float64)
    table[0] = (2.0 * math.pi) ** (-0.25)
    if n_modes > 1:
        table[1] = alphas * table[0]
    for n in range(1, n_modes - 1):
        table[n + 1] = (alphas * table[n] - math.sqrt(n) * table[n - 1]) / math.sqrt(n + 1)
    return table


def build_basis(n_modes: int) -> HermiteBasis:
    """Build the Gauss-Hermite rule for exp(-alpha^2/2) with its mode table.

    Nodes/weights come from the Golub-Welsch eigendecomposition of the
    symmetric tridiagonal Jacobi matrix of the probabilists' recurrence
    (zero diagonal, off-diagonal sqrt(n)).

    Raises
    ------
    ValueError
        If ``n_modes < 2``.
    IllConditionedBasisError
        If weights lose positivity (underflow at very large ``n_modes``).
    """
    if not isinstance(n_modes, (int, np.integer)) or n_modes < 2:
        raise ValueError(f"n_modes must be an integer >= 2, got {n_modes!r}")
    n_modes = int(n_modes)

    offdiag = np.sqrt(np.arange(1, n_modes, dtype=np.float64))
    nodes = eigh_tridiagonal(np.zeros(n_modes), offdiag, eigvals_only=True)
    # enforce the parity symmetry of the Jacobi matrix exactly
    nodes = 0.5 * (nodes - nodes[::-1])
    if n_modes % 2 == 1:
        nodes[(n_modes - 1) // 2] = 0.0

    table = evaluate_modes(nodes, n_modes)
    # Christoffel form of the Golub-Welsch weights: robust where the LAPACK
    # eigenvector first components underflow; at very large n_modes the sum
    # overflows instead, which the positivity check below converts into the
    # ill-conditioned signal
    with np.errstate(over="ignore"):
        weights = 1.0 / np.sum(table**2, axis=0)

    if not np.all(weights > 0.0):
        raise IllConditionedBasisError(
            f"n_modes={n_modes} gives nonpositive quadrature weights"
        )
    total = weights.sum()
    if abs(total - SQRT_TWO_PI) > 1e-12 * SQRT_TWO_PI:
        raise IllConditionedBasisError(
            f"weight sum {total!r} deviates from sqrt(2*pi)"
        )

    eigenvalues = -np.arange(n_modes, dtype=np.float64)
    return HermiteBasis(n_modes, nodes, weights, table, eigenvalues)


def _require_length(data: np.ndarray, basis: HermiteBasis, what: str):
    if data.shape[-1] != basis.n_modes:
        raise ValueError(
            f"{what} length {data.shape[-1]} does not match basis size {basis.n_modes}"
        )


def forward_tensor(values: np.ndarray, basis: HermiteBasis) -> np.ndarray:
    """Nodal -> modal along the last axis of an (..., n_modes) tensor:
    coeffs_n = sum_k weights_k phi_n(node_k) values_k."""
    _require_length(values, basis, "field")
    return values @ basis.forward_matrix.T


def inverse_tensor(coeffs: np.ndarray, basis: HermiteBasis) -> np.ndarray:
    """Modal -> nodal along the last axis of an (..., n_modes) tensor:
    values_k = sum_n coeffs_n phi_n(node_k)."""
    _require_length(coeffs, basis, "coefficients")
    return coeffs @ basis.eigenfunctions


def evaluate_modal(coeffs: np.ndarray, alphas) -> np.ndarray:
    """Evaluate the modal expansion sum_n c_n phi_n at arbitrary points.

    ``coeffs`` may be a tensor with modes on the last axis; the result has
    that axis replaced by ``len(alphas)``.
    """
    table = evaluate_modes(alphas, coeffs.shape[-1])
    return coeffs @ table


def tail_mass_fraction(coeffs: np.ndarray, n_tail: int) -> float:
    """Fraction of modal mass carried by the top ``n_tail`` modes.

    Truncation-health monitor; values above ~1e-8 mean the retained band is
    too small for the current field.
    """
    power = np.abs(coeffs) ** 2
    total = float(power.sum())
    if total == 0.0:
        return 0.0
    tail = float(power[..., -n_tail:].sum())
    return tail / total
