"""Williamson transforms of densities supported on [0, 1].

For a density ``f`` on [0, 1], the transform
``W(x) = integral_x^1 (1 - x/r) f(r) dr`` is non-negative, non-increasing and
convex with ``W(0) = 1`` and ``W(1) = 0``, and every such function arises this
way.  ``W'' (x) = f(x)/x`` and the survival identity
``W(x) = Fbar(x) + x W'(x)`` (``Fbar`` the survival function of ``f``) drive a
backward recurrence that tabulates ``W`` and its derivatives on a grid while
preserving 2-monotonicity at node resolution.

The recurrence is a linear map of density values at fixed quadrature nodes
(:class:`WilliamsonKernel`).  Tabulation applies it to the values of a
density; the fit objective applies the same map to the values and the
Jacobian columns of its spline density, so fitting and saved models share
one construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.optimize import brentq

from ._hermite import hermite_interpolator
from ._quad import trapezoid_weights
from .errors import InputError, NumericalError

__all__ = [
    "WilliamsonKernel",
    "WilliamsonGrid",
    "williamson_from_density",
    "normalize_w",
    "w_power_complement",
    "w_uniform_power",
    "fixed_point",
    "default_w_nodes",
]


def default_w_nodes() -> np.ndarray:
    """Canonical tabulation grid: geometric near 0, uniform elsewhere."""
    return np.unique(np.concatenate([
        [0.0],
        np.geomspace(1e-6, 0.02, 49),
        np.linspace(0.02, 1.0, 481),
    ]))


def _segment_edges(x: np.ndarray, nsub: int = 8) -> np.ndarray:
    """Log-spaced subinterval edges per segment, shape (len(x)-1, nsub+1).

    Segments starting at 0 fall back to linear spacing.
    """
    a = x[:-1][:, None]
    b = x[1:][:, None]
    k = np.arange(nsub + 1)[None, :] / nsub
    with np.errstate(divide="ignore", invalid="ignore"):
        geo = a * (b / a) ** k
    lin = a + (b - a) * k
    edges = np.where(a > 0.0, geo, lin)
    edges[:, 0] = x[:-1]
    edges[:, -1] = x[1:]
    return edges


class WilliamsonKernel:
    """The backward recurrence on a grid, as a linear map of density values.

    ``nodes`` has one row per grid segment ``[x_j, x_{j+1}]`` (row 0 is
    ``[0, x_1]``), log-spaced inside each segment to tame the ``1/r``
    integrand near 0; ``nodes[j, 0] = x_j`` exactly.  Segment integrals of
    ``f`` and ``f/r`` use the trapezoidal rule on these nodes.  The
    recurrences
    ``W'_j = W'_{j+1} - S_j`` and
    ``W_j = W_{j+1} + x_j W'_j - x_{j+1} W'_{j+1} + P_j``
    run from the right endpoint and keep ``W`` non-increasing and ``W'``
    non-decreasing exactly.
    """

    def __init__(self, x_nodes):
        x = np.asarray(x_nodes, dtype=float)
        if x.ndim != 1 or x.size < 3:
            raise InputError("x_nodes must be a 1-d grid with at least 3 nodes")
        if x[0] != 0.0 or x[-1] != 1.0 or np.any(np.diff(x) <= 0.0):
            raise InputError("x_nodes must increase strictly from 0 to 1")
        self.x = x
        self.nodes = _segment_edges(x)
        self._weights = trapezoid_weights(self.nodes)
        self._slope_weights = self._weights[1:] / self.nodes[1:]

    def __call__(self, fv):
        """``(w, wp, wpp, tail, c)`` at the interior grid nodes.

        ``fv`` holds density values at :attr:`nodes`, optionally with trailing
        axes (Jacobian columns) that the map carries along.  ``tail`` is the
        mass right of each node and ``c`` the mass of [0, 1], the transform's
        value at 0+.
        """
        fv = np.asarray(fv, dtype=float)
        P = np.einsum("jk,jk...->j...", self._weights, fv)
        S = np.einsum("jk,jk...->j...", self._slope_weights, fv[1:])
        wp = -np.cumsum(S[::-1], axis=0)[::-1]
        tail = np.cumsum(P[:0:-1], axis=0)[::-1]
        x_in = self.x[1:-1].reshape((-1,) + (1,) * (fv.ndim - 2))
        wpp = fv[1:, 0] / x_in
        return x_in * wp + tail, wp, wpp, tail, tail[0] + P[0]


@dataclass(frozen=True)
class WilliamsonGrid:
    """Tabulated Williamson transform with a C2 piecewise interpolator.

    ``wp[0]`` and ``wpp[0]`` may be non-finite sentinels (unbounded slope at
    0); such entries impose no interpolation constraint.  ``w0_estimate`` is
    the raw W(0+) mass, kept through normalization as a diagnostic.  The
    interpolator is built on first evaluation.
    """

    x: np.ndarray
    w: np.ndarray
    wp: np.ndarray
    wpp: np.ndarray
    w0_estimate: float
    tail_mass: np.ndarray = field(repr=False)
    normalized: bool = False

    @cached_property
    def _ip(self):
        return hermite_interpolator(self.x, self.w, self.wp, self.wpp)

    @cached_property
    def _ip1(self):
        return self._ip.derivative()

    @cached_property
    def _ip2(self):
        return self._ip.derivative(2)

    def __call__(self, x):
        return self._ip(x)

    def deriv(self, x):
        return self._ip1(x)

    def deriv2(self, x):
        return self._ip2(x)

    @property
    def deriv_at_zero(self) -> float:
        """Right slope at 0; non-finite for densities positive at 0."""
        return float(self.wp[0])

    @property
    def deriv_at_one(self) -> float:
        return float(self.wp[-1])


def williamson_from_density(f, x_nodes) -> WilliamsonGrid:
    """Tabulate the Williamson transform of a density by backward recurrence.

    See :class:`WilliamsonKernel` for the quadrature and the recurrence.  A
    density unbounded at 0 gets the mass of [0, x_1] from a geometric
    refinement toward 0 instead.
    """
    kernel = WilliamsonKernel(x_nodes)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        fv = np.asarray(f(kernel.nodes.ravel()), dtype=float).reshape(
            kernel.nodes.shape)
    singular = not np.isfinite(fv[0, 0])
    if singular:
        fv[0, 0] = 0.0  # the mass of [0, x_1] is taken below
    if not np.all(np.isfinite(fv)) or np.any(fv < 0.0):
        raise NumericalError("density evaluated non-finite or negative on (0, 1)")
    w_in, wp_in, wpp_in, tail_in, c = kernel(fv)
    if singular:
        sub = kernel.x[1] * 0.5 ** np.arange(24, -1, -1.0)
        c = tail_in[0] + trapezoid_weights(sub) @ np.asarray(f(sub), dtype=float)

    if w_in[0] > 1.2:
        raise NumericalError(
            f"W(x_1) = {w_in[0]:.4f} > 1.2: grid too coarse for this density; "
            "refine the grid or normalize the transform")

    # the right endpoint slope is exactly 0; an unbounded slope at 0 is the
    # generic case for densities positive at 0
    w = np.concatenate([[1.0], w_in, [0.0]])
    wp = np.concatenate([[-np.inf], wp_in, [0.0]])
    wpp = np.concatenate([[np.inf], wpp_in, [fv[-1, -1]]])
    tail = np.concatenate([[c], tail_in, [0.0]])
    return WilliamsonGrid(x=kernel.x, w=w, wp=wp, wpp=wpp,
                          w0_estimate=float(c), tail_mass=tail)


def normalize_w(g: WilliamsonGrid) -> WilliamsonGrid:
    """Rescale a tabulated transform so its reconstructed value at 0+ is 1.

    Dividing by the W(0+) estimate restores ``W(x) <= 1 - x`` (hence a
    Pickands function below 1) when coarse quadrature let the reconstruction
    drift; the left endpoint is pinned back to exactly 1.  A normalized grid
    is returned as it is; it keeps the raw estimate as ``w0_estimate``.
    """
    if g.normalized:
        return g
    c = g.w0_estimate
    if not (0.5 < c < 2.0):
        raise NumericalError(
            f"W(0+) estimate {c:.4f} outside (0.5, 2): estimation failed")
    w = g.w / c
    w[0] = 1.0
    return WilliamsonGrid(x=g.x.copy(), w=w, wp=g.wp / c, wpp=g.wpp / c,
                          w0_estimate=c, tail_mass=g.tail_mass / c,
                          normalized=True)


class _AnalyticW:
    """Closed-form 2-monotone function with derivatives."""

    def __init__(self, fn, d1, d2, name: str):
        self._fn, self._d1, self._d2 = fn, d1, d2
        self.name = name

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def deriv(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            return self._d1(np.asarray(x, dtype=float))

    def deriv2(self, x):
        with np.errstate(divide="ignore", over="ignore"):
            return self._d2(np.asarray(x, dtype=float))

    @property
    def deriv_at_zero(self) -> float:
        return float(self.deriv(0.0))

    @property
    def deriv_at_one(self) -> float:
        return float(self.deriv(1.0))

    def __repr__(self):
        return f"<{self.name}>"


def w_power_complement(theta: float) -> _AnalyticW:
    """The family W(x) = (1 - x)^theta; density Beta(2, theta - 1) for theta > 1."""
    if theta < 0:
        raise InputError("theta must be >= 0")

    def fn(x):
        return (1.0 - x) ** theta

    def d1(x):
        x = np.asarray(x, dtype=float)
        if theta == 0.0:
            return np.zeros_like(x)
        return -theta * (1.0 - x) ** (theta - 1.0)

    def d2(x):
        x = np.asarray(x, dtype=float)
        if theta * (theta - 1.0) == 0.0:
            return np.zeros_like(x)
        return theta * (theta - 1.0) * (1.0 - x) ** (theta - 2.0)

    return _AnalyticW(fn, d1, d2, f"W=(1-x)^{theta:g}")


def w_uniform_power(theta: float) -> _AnalyticW:
    """Williamson transform of U^theta, U uniform on [0, 1].

    Closed form ``1 + x/(theta-1) - theta x^(1/theta) / (theta-1)`` away from
    theta = 1, and ``1 - x + x log x`` at theta = 1.  Only theta = 2 (the
    square-root density) is its own inverse, hence the only exchangeable
    member.
    """
    if theta <= 0:
        raise InputError("theta must be > 0")
    if theta == 1.0:
        def fn(x):
            with np.errstate(divide="ignore", invalid="ignore"):
                xl = np.where(x > 0, x * np.log(np.maximum(x, 1e-320)), 0.0)
            return 1.0 - x + xl

        def d1(x):
            with np.errstate(divide="ignore"):
                return np.log(x)

        def d2(x):
            with np.errstate(divide="ignore"):
                return 1.0 / x

        return _AnalyticW(fn, d1, d2, "W_U^1")

    a = 1.0 / (theta - 1.0)

    def fn(x):
        return 1.0 + a * x - theta * a * x ** (1.0 / theta)

    def d1(x):
        with np.errstate(divide="ignore"):
            return a - a * x ** (1.0 / theta - 1.0)

    def d2(x):
        with np.errstate(divide="ignore"):
            return (1.0 / theta) * x ** (1.0 / theta - 2.0)

    return _AnalyticW(fn, d1, d2, f"W_U^{theta:g}")


def fixed_point(w) -> float:
    """The unique solution of W(x) = x for a 2-monotone W with W(1) = 0."""
    def g(x):
        return float(w(x)) - x

    g0, g1 = g(0.0), g(1.0)
    if g0 <= 0.0 or g1 >= 0.0:
        raise NumericalError(
            f"no sign change for W(x) - x on [0, 1] (g(0)={g0:.3g}, g(1)={g1:.3g})")
    return float(brentq(g, 0.0, 1.0, xtol=1e-14, rtol=4 * np.finfo(float).eps))
