"""Densities on [0, 1] under the geometry of perturbation and powering.

Probability densities with square-integrable logarithm form a Hilbert space
where addition is pointwise multiplication followed by renormalization and
scalar multiplication is powering.  The centered-log-ratio (clr) map sends
this space isometrically onto the zero-integral subspace of L2([0, 1]), which
is where the spline parameterization lives.
"""

from __future__ import annotations

from functools import cache

import numpy as np

from ._quad import _read_only, gauss_legendre
from .errors import InputError, NumericalError
from .splinebasis import ZBasis, project_center, unit_points
from .williamson import default_w_nodes

__all__ = ["ClrDensity", "clr", "clr_inverse", "perturb", "power", "tvd"]

_CLR_OVERFLOW = 700.0  # exp overflows past this


@cache
def mass_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Panel edges, nodes and weights of the one rule for masses on [0, 1].

    8-point Gauss-Legendre on each panel of the tabulation grid, whose panels
    are geometric at both ends; built at first use, shared and read-only.
    """
    edges = default_w_nodes()
    return _read_only(edges, *gauss_legendre(edges, 8))


def integrate_01(fn) -> float:
    """Integral over [0, 1] by the mass rule, tolerant of log singularities at 0."""
    _, nodes, weights = mass_rule()
    vals = np.asarray(fn(nodes), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NumericalError("non-finite integrand on (0, 1)")
    return float(weights @ vals)


def clr(f):
    """Centered log-ratio of a positive density: log f minus its mean.

    The mean of ``log f`` is taken by :func:`mass_rule`, so densities with
    power-law endpoint behavior keep an accurate center.
    """
    _, nodes, weights = mass_rule()
    sample = np.asarray(f(nodes), dtype=float)
    if np.any(sample <= 0.0):
        raise InputError("clr requires a strictly positive density")
    mean_log = float(weights @ np.log(sample))

    def p(x):
        return np.log(f(x)) - mean_log

    return p


def _normalized(fn, what: str):
    """``fn`` divided by its mass on [0, 1] under :func:`mass_rule`.

    An overflow in ``fn`` raises :class:`NumericalError` in
    :func:`integrate_01`; so does a mass that is not finite and positive.
    """
    with np.errstate(over="ignore"):
        mass = integrate_01(fn)
    if not (np.isfinite(mass) and mass > 0.0):
        raise NumericalError(f"{what}: mass {mass:g} is not finite and positive")

    def h(x):
        return fn(x) / mass

    return h


def clr_inverse(p):
    """Back-transform of a function to a density: exp(p), normalized.

    The mass is taken by :func:`mass_rule`, whose nodes avoid 0 and 1, so
    ``p`` may diverge logarithmically at the ends.
    """
    return _normalized(lambda x: np.exp(p(x)), "inverse clr")


def perturb(f, g):
    """Density addition: pointwise product, renormalized by :func:`mass_rule`."""
    return _normalized(lambda x: f(x) * g(x), "perturbation")


def power(alpha: float, f):
    """Density scalar multiplication: powering, renormalized by :func:`mass_rule`."""
    return _normalized(lambda x: f(x) ** alpha, "powering")


def tvd(f, g) -> float:
    """Total variation distance: half the L1 distance, by :func:`mass_rule`."""
    return 0.5 * integrate_01(lambda x: np.abs(f(x) - g(x)))


class ClrDensity:
    """Spline-parameterized density: exp of a zero-integral spline, normalized.

    ``theta`` are coordinates in the orthonormal basis; with
    ``center_enabled`` the projection of -(1 + log x)/2 is added as an affine
    center, biasing the family toward the square-root density instead of the
    uniform one.  Immutable after construction; the normalization integral
    ``norm`` and the moments are taken by :func:`mass_rule`.  The spline is
    kept as one polynomial per knot interval (:meth:`ZBasis.spline`), so a
    read is one piece search and Horner's rule, with no design matrix.
    """

    def __init__(self, basis: ZBasis, theta, center_enabled: bool = False):
        self.basis = basis
        self.theta = np.asarray(theta, dtype=float)
        if self.theta.shape != (basis.dim,):
            raise InputError(
                f"theta must have shape ({basis.dim},), got {self.theta.shape}")
        self.coeffs = self.theta + (project_center(basis) if center_enabled else 0.0)
        self._spline = basis.spline(self.coeffs)
        _, nodes, weights = mass_rule()
        pv = self.log_spline(nodes)
        if np.any(np.abs(pv) > _CLR_OVERFLOW):
            raise NumericalError("spline exceeds exp range; coefficients diverged")
        self.norm = float(weights @ np.exp(pv))

    def log_spline(self, x) -> np.ndarray:
        """The zero-integral spline (center included) at ``x``."""
        return self._spline(unit_points(x))

    def pdf(self, x) -> np.ndarray:
        return np.exp(self.log_spline(x)) / self.norm

    __call__ = pdf

    def mean(self) -> float:
        """First moment."""
        return integrate_01(lambda x: x * self.pdf(x))
