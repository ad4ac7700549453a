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
density; the fit objective applies the same map to its spline density and
the map's transpose to the cotangents of its reverse-mode gradient, so
fitting and saved models share one construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._hermite import hermite_interpolator
from ._quad import trapezoid_weights
from .errors import InputError, NumericalError

# numpy's C einsum: np.einsum without optimize calls it after an array-function
# dispatch and a Python wrapper that cost as much as the kernel's own sums
try:
    from numpy._core.multiarray import c_einsum as _einsum
except ImportError:
    _einsum = np.einsum

__all__ = [
    "WilliamsonKernel",
    "WilliamsonGrid",
    "williamson_from_density",
    "normalize_w",
    "w_power_complement",
    "w_uniform_power",
    "default_w_nodes",
    "default_kernel",
    "JetReads",
]


@cache
def default_w_nodes() -> np.ndarray:
    """Canonical tabulation grid: geometric toward both ends, uniform between.

    Saved models are tabulated at the link images of these nodes (see
    :func:`evcop.pickands.rotate`), so the grid is laid out for them: near 0
    the image ``t = (1 + x - W(x)) / 2`` grows like ``x |W'(x)|`` and W' is
    unbounded for densities positive at 0, hence the run from 1e-10; near 1
    the image approaches 1 like ``(1 - x) / 2``.  530 nodes, built at first
    use, shared and read-only.
    """
    x = np.unique(np.concatenate([
        [0.0],
        np.geomspace(1e-10, 0.01, 70),
        np.linspace(0.01, 0.98, 430),
        1.0 - np.geomspace(1e-6, 0.02, 30),
        [1.0],
    ]))
    x.setflags(write=False)
    return x


@cache
def default_kernel() -> WilliamsonKernel:
    """The :class:`WilliamsonKernel` of :func:`default_w_nodes`, built once,
    shared and read-only."""
    kernel = WilliamsonKernel(default_w_nodes())
    kernel.nodes.setflags(write=False)
    kernel._weights.setflags(write=False)
    return kernel


def _segment_edges(x: np.ndarray) -> np.ndarray:
    """Log-spaced edges of 8 subintervals per segment, shape (len(x)-1, 9).

    Segments starting at 0 fall back to linear spacing.
    """
    a = x[:-1][:, None]
    b = x[1:][:, None]
    k = np.arange(9)[None, :] / 8
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
    non-decreasing exactly.  :meth:`transpose` is the adjoint map, which
    carries cotangents of the outputs back to the density values.  Both
    broadcast over leading axes of their inputs, one entry per fit of a
    lockstep round, and give each entry what a call on it alone gives, to
    the last bit.
    """

    def __init__(self, x_nodes):
        x = np.asarray(x_nodes, dtype=float)
        if x.ndim != 1 or x.size < 3:
            raise InputError("x_nodes must be a 1-d grid with at least 3 nodes")
        if x[0] != 0.0 or x[-1] != 1.0 or np.any(np.diff(x) <= 0.0):
            raise InputError("x_nodes must increase strictly from 0 to 1")
        self.x = x
        self.x_in = x[1:-1]
        self.nodes = _segment_edges(x)
        # per segment, the weights of P (row 0) and of -S (row 1, zero for
        # segment 0): each product sum then is one reduction, and the suffix
        # sum of the -S is W' itself
        weights = trapezoid_weights(self.nodes)
        self._weights = np.stack([weights, np.zeros_like(weights)])
        self._weights[1, 1:] = -weights[1:] / self.nodes[1:]

    def __call__(self, fv):
        """``(w, wp, wpp, tail, c)`` at the interior grid nodes.

        ``fv`` holds density values at :attr:`nodes`.  ``tail`` is the mass
        right of each node and ``c`` the mass of [0, 1], the transform's value
        at 0+.  ``tail`` and ``wp`` are reversed views of one array of suffix
        sums; a dot product with ``wp`` sums in that order.
        """
        fv = np.asarray(fv, dtype=float)
        PS = _einsum("...ijk,...jk->...ij", self._weights, fv)
        # suffix sums: reversed prefix sums of the reversed rows
        R = np.add.accumulate(PS[..., :0:-1], axis=-1)[..., ::-1]
        tail, wp = R[..., 0, :], R[..., 1, :]
        wpp = fv[..., 1:, 0] / self.x_in
        return (self.x_in * wp + tail, wp, wpp, tail,
                tail[..., 0] + PS[..., 0, 0])

    def transpose(self, gw, gwp, gwpp, gc):
        """Cotangent of the density values from those of ``(w, wp, wpp, c)``.

        The reverse of each suffix sum in :meth:`__call__` is a prefix sum.
        """
        G = np.empty((*np.shape(gc), *self._weights.shape[:-1]))
        # c is the sum of all P, so gc reaches every one of them
        G[..., 0, 0], G[..., 1, 0] = gc, 0.0
        G[..., 0, 1:] = gw
        np.multiply(self.x_in, gw, out=G[..., 1, 1:])
        G[..., 1, 1:] += gwp
        np.add.accumulate(G, axis=-1, out=G)
        gfv = _einsum("...ijk,...ij->...jk", self._weights, G)
        gfv[..., 1:, 0] += gwpp / self.x_in
        return gfv


@dataclass(frozen=True)
class WilliamsonGrid:
    """Tabulated Williamson transform with a C2 piecewise interpolator.

    The interpolator is made of quintic Hermite pieces in Bernstein form.
    ``wp[0]`` and ``wpp[0]`` may be non-finite sentinels (unbounded slope at
    0); such entries impose no interpolation constraint.  ``w0_estimate`` is
    the W(0+) self-check of :func:`normalize_w`.  The interpolator is built
    on first evaluation, and W, W' and W'' are all read from it.
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

    def __call__(self, x):
        return self._ip(x)

    def deriv(self, x):
        return self._ip(x, 1)

    def deriv2(self, x):
        return self._ip(x, 2)


def williamson_from_density(f, x_nodes) -> WilliamsonGrid:
    """Tabulate the Williamson transform of a density by backward recurrence.

    ``x_nodes`` is the grid, or a :class:`WilliamsonKernel` already built
    on it.  See :class:`WilliamsonKernel` for the quadrature and the
    recurrence.  A density unbounded at 0 gets the mass of [0, x_1] from a
    geometric refinement toward 0 instead.
    """
    kernel = x_nodes if isinstance(x_nodes, WilliamsonKernel) \
        else WilliamsonKernel(x_nodes)
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


# Largest accepted distance of a W(0+) mass from 1: over ten times the kernel's
# worst error on fitted, study and random spline densities (3.6e-3)
_MASS_TOL = 0.05


def normalize_w(g: WilliamsonGrid) -> WilliamsonGrid:
    """Rescale a tabulated transform so its reconstructed value at 0+ is 1.

    For a unit-mass density the W(0+) estimate is the kernel's mass over the
    density's own, a self-check: :class:`NumericalError` when it is more than
    ``_MASS_TOL`` (0.05) from 1.  Dividing by it restores ``W(x) <= 1 - x``
    and pins the left endpoint to 1.  A normalized grid is returned as it is.
    """
    if g.normalized:
        return g
    c = g.w0_estimate
    if not abs(c - 1.0) <= _MASS_TOL:
        raise NumericalError(
            f"W(0+) mass {c:.6g} of a unit-mass density is more than "
            f"{_MASS_TOL:g} from 1: the Williamson quadrature failed")
    w = g.w / c
    w[0] = 1.0
    return WilliamsonGrid(x=g.x.copy(), w=w, wp=g.wp / c, wpp=g.wpp / c,
                          w0_estimate=c, tail_mass=g.tail_mass / c,
                          normalized=True)


class JetReads:
    """``deriv`` and ``deriv2`` of a function, read from its ``jet``.

    ``jet(x)`` returns the value and the first two derivatives at ``x``; it
    is the one derivative read of every Pickands function and 2-monotone
    transform in the package, and these two methods are views of it.
    """

    def deriv(self, x):
        return self.jet(x)[1]

    def deriv2(self, x):
        return self.jet(x)[2]


class _AnalyticW(JetReads):
    """Closed-form 2-monotone function with derivatives."""

    def __init__(self, fn, d1, d2, name: str):
        self._fn, self._d1, self._d2 = fn, d1, d2
        self.name = name

    def __call__(self, x):
        return self._fn(np.asarray(x, dtype=float))

    def jet(self, x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            return self._fn(x), self._d1(x), self._d2(x)

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
