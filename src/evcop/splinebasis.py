"""Orthonormal zero-integral spline bases (ZB-splines) on [0, 1].

The construction starts from the clamped B-spline basis of degree ``d`` with
``n`` interior knots (dimension ``n + d + 1``), restricts to the subspace of
splines with zero integral (dimension ``n + d``) and orthonormalizes that
subspace in L2.  The resulting functions parameterize log-densities through
the inverse centered-log-ratio map, see :mod:`evcop.bayes`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import splev

from ._quad import gauss_legendre
from .errors import InputError, NumericalError

__all__ = [
    "KnotConfig",
    "ZBasis",
    "CurvatureMatrix",
    "build_zb_basis",
    "eval_basis",
    "curvature_matrix",
    "project_center",
    "quantile_knots",
]


@dataclass(frozen=True)
class KnotConfig:
    """Interior knots and degree of a spline space on [0, 1].

    Endpoint knots are implied: the full knot vector carries ``degree + 1``
    coincident knots at 0 and at 1 (clamped basis).
    """

    interior_knots: tuple[float, ...] = ()
    degree: int = 3

    def __post_init__(self):
        kn = tuple(float(k) for k in self.interior_knots)
        object.__setattr__(self, "interior_knots", kn)
        if self.degree < 1:
            raise InputError(f"degree must be >= 1, got {self.degree}")
        arr = np.asarray(kn)
        if arr.size:
            if np.any(arr <= 0.0) or np.any(arr >= 1.0):
                raise InputError("interior knots must lie strictly inside (0, 1)")
            if np.any(np.diff(arr) <= 0.0):
                raise InputError("interior knots must be strictly increasing")

    @property
    def full_knots(self) -> np.ndarray:
        d = self.degree
        return np.concatenate([np.zeros(d + 1), self.interior_knots, np.ones(d + 1)])

    @property
    def breakpoints(self) -> np.ndarray:
        return np.concatenate([[0.0], self.interior_knots, [1.0]])


def _bspline_design(full_knots: np.ndarray, degree: int, x: np.ndarray, deriv: int) -> np.ndarray:
    """Design matrix of all clamped B-splines at ``x``: shape (len(x), nbasis)."""
    nb = len(full_knots) - degree - 1
    x = np.asarray(x, dtype=float)
    out = np.empty((x.size, nb))
    c = np.zeros(nb)
    for j in range(nb):
        c[j] = 1.0
        out[:, j] = splev(x.ravel(), (full_knots, c, degree), der=deriv)
        c[j] = 0.0
    return out


@dataclass(frozen=True)
class ZBasis:
    """Orthonormal zero-integral spline basis.

    ``transform`` maps raw B-spline coefficients to ZB coordinates: the i-th
    basis function is ``Z_i(x) = sum_j transform[i, j] * B_j(x)``.  The object
    is immutable; all evaluation goes through precomputed matrices.
    """

    knot_config: KnotConfig
    dim: int
    transform: np.ndarray
    quad_nodes: np.ndarray = field(repr=False)
    quad_weights: np.ndarray = field(repr=False)

    @property
    def degree(self) -> int:
        return self.knot_config.degree

    @property
    def interior_knots(self) -> np.ndarray:
        return np.asarray(self.knot_config.interior_knots)

    def evaluate(self, x, deriv: int = 0) -> np.ndarray:
        """Values (or derivatives) of all basis functions at ``x``.

        Returns shape ``(dim,)`` for scalar ``x``, else ``(len(x), dim)``.
        """
        return eval_basis(self, x, deriv)

    def inner_products(self, values_on_quad: np.ndarray) -> np.ndarray:
        """L2 inner products <g, Z_i> from ``g`` sampled on the quadrature grid."""
        zq = self.evaluate(self.quad_nodes)
        return (self.quad_weights * values_on_quad) @ zq

    def gram(self) -> np.ndarray:
        zq = self.evaluate(self.quad_nodes)
        return (zq * self.quad_weights[:, None]).T @ zq


@dataclass(frozen=True)
class CurvatureMatrix:
    """Symmetric PSD matrix of second-derivative inner products."""

    omega: np.ndarray

    def quadratic_form(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        return float(theta @ self.omega @ theta)


def build_zb_basis(cfg: KnotConfig) -> ZBasis:
    """Construct the orthonormal zero-integral basis for a knot configuration.

    The zero-integral subspace is spanned by differences of
    integral-normalized B-splines; it is orthonormalized by symmetric
    eigendecomposition of its Gram matrix, ordering functions by descending
    eigenvalue with a fixed sign convention for reproducibility.
    """
    d = cfg.degree
    n = len(cfg.interior_knots)
    dim = n + d
    if dim < 1:
        raise InputError(f"basis dimension n + d = {dim} must be >= 1")

    full = cfg.full_knots
    nb = len(full) - d - 1  # n + d + 1 raw B-splines
    # integral of each B-spline: (t[j+d+1] - t[j]) / (d + 1)
    integrals = (full[d + 1:] - full[:nb]) / (d + 1)

    # zero-integral sub-basis: B_j / c_j - B_{j+1} / c_{j+1}
    V = np.zeros((nb, dim))
    for j in range(dim):
        V[j, j] = 1.0 / integrals[j]
        V[j + 1, j] = -1.0 / integrals[j + 1]

    nodes, weights = gauss_legendre(cfg.breakpoints, 2 * d + 2)
    B = _bspline_design(full, d, nodes, 0)
    G = (B * weights[:, None]).T @ B  # raw Gram, exact at this rule
    M = V.T @ G @ V
    M = 0.5 * (M + M.T)
    evals, evecs = np.linalg.eigh(M)
    order = np.argsort(evals)[::-1]
    evals = evals[order]
    evecs = evecs[:, order]
    if evals[-1] <= 0:
        raise InputError("degenerate zero-integral subspace (knot configuration too tight)")
    T = (V @ (evecs / np.sqrt(evals))).T  # rows are ZB coefficient vectors
    # sign convention: largest-magnitude raw coefficient positive
    for i in range(dim):
        k = np.argmax(np.abs(T[i]))
        if T[i, k] < 0:
            T[i] = -T[i]
    return ZBasis(knot_config=cfg, dim=dim, transform=T,
                  quad_nodes=nodes, quad_weights=weights)


def eval_basis(b: ZBasis, x, deriv: int = 0) -> np.ndarray:
    """Evaluate all ZB-spline basis functions (or derivatives) at ``x``."""
    if deriv not in (0, 1, 2):
        raise InputError(f"deriv must be 0, 1 or 2, got {deriv}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(xa < 0.0) or np.any(xa > 1.0):
        raise InputError("evaluation points must lie in [0, 1]")
    Braw = _bspline_design(b.knot_config.full_knots, b.degree, xa, deriv)
    out = Braw @ b.transform.T
    return out[0] if scalar else out


def curvature_matrix(b: ZBasis) -> CurvatureMatrix:
    """Matrix of curvature inner products: integral of Z_i'' Z_j''.

    The integrand is piecewise polynomial of degree <= 2(d - 2), so the
    fixed Gauss rule integrates it exactly.
    """
    z2 = eval_basis(b, b.quad_nodes, deriv=2)
    omega = (z2 * b.quad_weights[:, None]).T @ z2
    return CurvatureMatrix(omega=0.5 * (omega + omega.T))


def _log_refined_rule(first_break: float, degree: int,
                      n_sub: int = 16, ratio: float = 0.5):
    """Gauss rule on [0, first_break] with geometrically shrinking subintervals.

    Handles integrable log-type singularities at 0: nodes never touch 0.
    """
    edges = first_break * ratio ** np.arange(n_sub, -1, -1.0)
    edges[0] = 0.0
    return gauss_legendre(edges, 2 * degree + 2)


def center_quadrature(b: ZBasis) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule accurate for spline products and log-type integrands.

    Same Gauss rule as the basis uses, with the first knot interval split
    geometrically toward 0; still exact for piecewise polynomials.
    """
    breaks = b.knot_config.breakpoints
    n0, w0 = _log_refined_rule(breaks[1], b.degree)
    n1, w1 = gauss_legendre(breaks[1:], 2 * b.degree + 2)
    return np.concatenate([n0, n1]), np.concatenate([w0, w1])


def project_center(b: ZBasis) -> np.ndarray:
    """Coefficients of the orthogonal projection of -(1 + log x) / 2.

    The projected function is the clr transform of the density of U^2
    (U uniform); using it as an affine center removes the asymmetry bias of
    the plain spline model.  The log singularity at 0 is handled by a
    geometrically refined quadrature on the first knot interval.
    """
    nodes, weights = center_quadrature(b)
    g = -0.5 * (1.0 + np.log(nodes))
    if not np.all(np.isfinite(g)):
        raise NumericalError("quadrature node collided with the log singularity at 0")
    zq = eval_basis(b, nodes)
    return (weights * g) @ zq


def quantile_knots(sample, n_interior: int) -> KnotConfig:
    """Interior knots at equally spaced quantiles of a sample in (0, 1).

    Duplicate quantiles (ties in the sample) are collapsed; raises if fewer
    than ``n_interior`` distinct knots survive.
    """
    s = np.asarray(sample, dtype=float)
    if n_interior < 0:
        raise InputError("n_interior must be >= 0")
    if n_interior == 0:
        return KnotConfig(interior_knots=(), degree=3)
    if s.size < n_interior + 2:
        raise InputError(f"need at least {n_interior + 2} points, got {s.size}")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise InputError("sample values must lie strictly inside (0, 1)")
    probs = np.arange(1, n_interior + 1) / (n_interior + 1)
    q = np.quantile(s, probs)
    q = np.unique(q)
    q = q[(q > 0.0) & (q < 1.0)]
    if len(q) < n_interior:
        raise InputError(
            f"ties collapsed quantile knots to {len(q)} < {n_interior}")
    return KnotConfig(interior_knots=tuple(q), degree=3)
