"""Densities on [0, 1] under the geometry of perturbation and powering.

Probability densities with square-integrable logarithm form a Hilbert space
where addition is pointwise multiplication followed by renormalization and
scalar multiplication is powering.  The centered-log-ratio (clr) map sends
this space isometrically onto the zero-integral subspace of L2([0, 1]), which
is where the spline parameterization lives.
"""

from __future__ import annotations

import numpy as np

from ._quad import gauss_legendre, norm_grid, trapezoid_weights
from .errors import InputError, NumericalError
from .splinebasis import ZBasis, project_center

__all__ = ["ClrDensity", "clr", "clr_inverse", "perturb", "power", "tvd",
           "default_grid"]

_CLR_OVERFLOW = 700.0  # exp overflows past this


def default_grid(n: int = 2049) -> np.ndarray:
    return np.linspace(0.0, 1.0, n)


def _graded_gauss_rule(npts: int = 8):
    """Quadrature on (0, 1] robust to integrable endpoint singularities at 0.

    Geometric panels absorb log-type behavior near 0; the uniform panels keep
    the rule accurate for piecewise-smooth integrands away from it.
    """
    edges = np.concatenate([[0.0], np.geomspace(1e-14, 0.05, 64),
                            np.linspace(0.05, 1.0, 121)[1:]])
    return gauss_legendre(edges, npts)


_SING_NODES, _SING_WEIGHTS = _graded_gauss_rule()


def integrate_01(fn) -> float:
    """Integral over [0, 1] tolerant of log-type singularities at 0."""
    vals = np.asarray(fn(_SING_NODES), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite integrand on (0, 1)")
    return float(_SING_WEIGHTS @ vals)


def clr(f, grid: np.ndarray | None = None):
    """Centered log-ratio of a positive density: log f minus its mean.

    The mean of ``log f`` is computed with a singularity-tolerant rule so
    densities with power-law endpoint behavior keep an accurate center.
    """
    sample = np.asarray(f(_SING_NODES), dtype=float)
    if np.any(sample <= 0.0):
        raise InputError("clr requires a strictly positive density")
    mean_log = float(_SING_WEIGHTS @ np.log(sample))

    def p(x):
        return np.log(f(x)) - mean_log

    return p


def clr_inverse(p, grid: np.ndarray | None = None):
    """Back-transform of a bounded function to a density: exp(p) normalized.

    Normalization uses the trapezoidal rule on ``grid`` (default 2049
    equispaced nodes), keeping the integral a plain weighted sum.
    """
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    pv = np.asarray(p(grid), dtype=float)
    if np.any(np.abs(pv) > _CLR_OVERFLOW):
        raise NumericalError(
            "clr argument exceeds exp range (|p| > 700); optimization diverged")
    norm = float(np.trapezoid(np.exp(pv), grid))
    if not np.isfinite(norm) or norm <= 0.0:
        raise NumericalError("normalization integral is not finite and positive")

    def f(x):
        return np.exp(p(x)) / norm

    return f


def perturb(f, g, grid: np.ndarray | None = None):
    """Density addition: pointwise product, renormalized."""
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    norm = float(np.trapezoid(f(grid) * g(grid), grid))
    if not np.isfinite(norm) or norm <= 0.0:
        raise NumericalError("perturbation integral is not finite and positive")

    def h(x):
        return f(x) * g(x) / norm

    return h


def power(alpha: float, f, grid: np.ndarray | None = None):
    """Density scalar multiplication: powering, renormalized."""
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    norm = float(np.trapezoid(f(grid) ** alpha, grid))
    if not np.isfinite(norm) or norm <= 0.0:
        raise NumericalError("powering integral is not finite and positive")

    def h(x):
        return f(x) ** alpha / norm

    return h


def tvd(f, g, grid: np.ndarray | None = None) -> float:
    """Total variation distance between two densities: half the L1 distance."""
    grid = default_grid() if grid is None else np.asarray(grid, dtype=float)
    if grid.size < 1024:
        raise InputError("tvd grid must have at least 1024 nodes")
    return float(0.5 * np.trapezoid(np.abs(f(grid) - g(grid)), grid))


class ClrDensity:
    """Spline-parameterized density: exp of a zero-integral spline, normalized.

    ``theta`` are coordinates in the orthonormal basis; with
    ``center_enabled`` the projection of -(1 + log x)/2 is added as an affine
    center, biasing the family toward the square-root density instead of the
    uniform one.  Immutable after construction; the normalization integral is
    cached on a trapezoid grid of 512 equispaced nodes plus the spline knots.
    """

    def __init__(self, basis: ZBasis, theta, center_enabled: bool = False):
        self.basis = basis
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.shape != (basis.dim,):
            raise InputError(
                f"theta must have shape ({basis.dim},), got {self.theta.shape}")
        self.center_enabled = bool(center_enabled)
        self._center = project_center(basis) if center_enabled else np.zeros(basis.dim)
        self.coeffs = self.theta + self._center
        self.eval_grid = norm_grid(basis.interior_knots)
        self._weights = trapezoid_weights(self.eval_grid)
        pv = self.log_spline(self.eval_grid)
        if np.any(np.abs(pv) > _CLR_OVERFLOW):
            raise NumericalError("spline exceeds exp range; coefficients diverged")
        self.norm = float(self._weights @ np.exp(pv))
        self._pdf_grid = np.exp(pv) / self.norm

    def log_spline(self, x) -> np.ndarray:
        """The zero-integral spline (center included) at ``x``."""
        return self.basis.evaluate(x) @ self.coeffs

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_spline(x)) / self.norm

    __call__ = pdf

    def mean(self) -> float:
        """First moment on the cached grid."""
        return float(self._weights @ (self.eval_grid * self._pdf_grid))

    def clr_values(self, x) -> np.ndarray:
        """clr of the density; equals the spline itself (zero integral)."""
        return self.log_spline(x)
