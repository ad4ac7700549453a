"""Pickands dependence functions and the affine link to 2-monotone transforms.

A Pickands function is convex on [0, 1] with ``max(t, 1-t) <= A(t) <= 1``.
The affine change of coordinates
``t(x) = (1 + x - W(x)) / 2``, ``A(t(x)) = (1 + x + W(x)) / 2``
carries any 2-monotone ``W`` with ``W(0) = 1``, ``W(1) = 0`` to a Pickands
function and back.  This module implements both directions plus the derived
objects: the density of ``Z = log U / log(UV)``, the spectral measure,
association measures and structural transformations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._hermite import hermite_interpolator
from ._quad import gauss_legendre, gauss_square
from ._rootfind import vector_bisect
from .bayes import integrate_01
from .errors import InputError, NumericalError
from .williamson import JetReads, WilliamsonGrid, default_w_nodes

__all__ = [
    "PickandsModel",
    "SpectralMeasure",
    "PickandsDiagnostics",
    "rotate",
    "rotate_inverse",
    "h_density",
    "spectral_from_w",
    "fixed_point",
    "gini_from_pickands",
    "gini_from_density",
    "gini_from_copula",
    "blomqvist_beta",
    "upper_tail",
    "khoudraji",
    "symmetrize",
    "mirror",
    "validate_pickands",
]

# interior tabulation nodes closer than this to an end are dropped: the
# boundary pieces then extend the pinned endpoint slopes smoothly instead of
# chasing the (possibly unbounded) curvature right next to the ends
_EDGE = 5e-4


def link(x, w, wp, wpp):
    """Affine link at points ``x`` of a 2-monotone transform, all arrays.

    Maps ``W``, ``W'`` and ``W''`` at ``x`` to the node ``t`` and the values
    ``A``, ``A' = (1 + W') / (1 - W')`` and ``A'' = 4 W'' / (1 - W')^3`` of
    the Pickands function there.  An unbounded slope ``W' = -inf`` gives
    ``A' = -1``; a non-finite ``A''`` is returned as ``+inf``.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        d = 1.0 - wp
        ap = (1.0 + wp) / d
        app = 4.0 * wpp / d ** 3
    ap[wp == -np.inf] = -1.0
    app[~np.isfinite(app)] = np.inf
    xp = 1.0 + x
    return 0.5 * (xp - w), 0.5 * (xp + w), ap, app


def h_formula(t, a, ap, app):
    """Pseudo-angle density at ``t`` from ``A``, ``A'`` and ``A''`` there."""
    r = ap / a
    return 1.0 + (1.0 - 2.0 * t) * r + t * (1.0 - t) * (app / a - r * r)


@dataclass(frozen=True)
class PickandsModel:
    """Tabulated Pickands function with a C2 piecewise interpolator.

    The interpolator is made of quintic Hermite pieces in Bernstein form and
    is built when the model is constructed.  It is the table's only one: A,
    A', A'' and the integral of A are all read from it.  ``app[0]`` (and
    occasionally ``app[-1]``) may be non-finite sentinels; they impose no
    interpolation constraint.
    """

    t: np.ndarray
    a: np.ndarray
    ap: np.ndarray
    app: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "_ip", hermite_interpolator(
            self.t, self.a, self.ap, self.app))

    def __call__(self, t):
        return self._ip(t)

    def deriv(self, t):
        return self._ip(t, 1)

    def deriv2(self, t):
        return self._ip(t, 2)

    def jet(self, t):
        """``(A(t), A'(t), A''(t))`` from one piece search."""
        return self._ip.jet(t)

    def integrate(self) -> float:
        return self._ip.integrate()


def rotate(w) -> PickandsModel:
    """Pickands function of a 2-monotone transform, by the affine link.

    Each node ``x`` of a tabulated :class:`WilliamsonGrid` (or of
    :func:`default_w_nodes`, where any other ``W`` is read: its value through
    ``__call__``, checked to be a unit transform, then W' and W'' through
    ``jet``) maps to
    the node ``t = (1 + x - W(x)) / 2`` with ``A = (1 + x + W(x)) / 2`` and
    ``A'``, ``A''`` in closed form, so the values are exact at the nodes.
    Interior nodes with ``t`` within 5e-4 of an end are dropped.  Endpoint
    slopes use the one-sided limits of ``W'``; an unbounded slope at 0 gives
    ``A'(0+) = -1``.
    """
    if isinstance(w, WilliamsonGrid):
        x, wv, wp, wpp = w.x, w.w, w.wp, w.wpp
    else:
        x = default_w_nodes()
        wv = np.asarray(w(x), dtype=float)
        if not (abs(wv[0] - 1.0) <= 1e-3 and abs(wv[-1]) <= 1e-3):
            raise InputError(
                f"not a unit 2-monotone transform: W(0)={wv[0]:.4f}, "
                f"W(1)={wv[-1]:.4f}")
        _, wp, wpp = w.jet(x)
        wp = np.array(wp, dtype=float)
        # one-sided endpoint slopes, where the transform reports them
        wp[0] = getattr(w, "deriv_at_zero", wp[0])
        wp[-1] = getattr(w, "deriv_at_one", wp[-1])
    t, a, ap, app = link(x, wv, wp, wpp)
    keep = (t >= _EDGE) & (t <= 1.0 - _EDGE)
    keep[0] = keep[-1] = True
    t, a, ap, app = t[keep], a[keep], ap[keep], app[keep]
    t[0], t[-1] = 0.0, 1.0
    a[0] = a[-1] = 1.0
    # clip round-off excursions above the admissible band
    np.minimum(a, 1.0, out=a)
    return PickandsModel(t=t, a=a, ap=ap, app=app)


class _RotatedInverseW(JetReads):
    """2-monotone transform recovered from a Pickands function.

    Evaluation inverts ``x(t) = t + A(t) - 1`` by bracketed bisection and
    reads values and derivatives through the inverse affine link
    ``W = A - t``, ``W' = (A' - 1) / (A' + 1)``, ``W'' = 2 A'' / (1 + A')^3``;
    :meth:`jet` reads all three from one bisection.
    """

    def __init__(self, a):
        self._a = a
        probes = np.linspace(1e-4, 0.5, 256)
        if np.any(np.asarray(a(probes)) - (1.0 - probes) <= 0.0):
            raise InputError(
                "Pickands function touches the descending support line on "
                "(0, 1/2]; the transform is not invertible there")

    def _t_of_x(self, x):
        x = np.asarray(x, dtype=float)

        def resid(t):
            return t + self._a(t) - 1.0 - x

        return vector_bisect(resid, np.zeros_like(x), np.ones_like(x), iters=60)

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        t = self._t_of_x(np.atleast_1d(x))
        out = self._a(t) - t
        return float(out[0]) if scalar else out

    def jet(self, x):
        scalar = np.ndim(x) == 0
        t = self._t_of_x(np.atleast_1d(x))
        av, apv, appv = (np.asarray(v, dtype=float) for v in self._a.jet(t))
        with np.errstate(divide="ignore", over="ignore"):
            out = (av - t, (apv - 1.0) / (apv + 1.0),
                   2.0 * appv / (1.0 + apv) ** 3)
        return tuple(float(v[0]) for v in out) if scalar else out

    @property
    def deriv_at_zero(self) -> float:
        ap0 = float(self._a.jet(0.0)[1])
        if ap0 <= -1.0 + 1e-12:
            return -np.inf
        return (ap0 - 1.0) / (ap0 + 1.0)

    @property
    def deriv_at_one(self) -> float:
        ap1 = float(self._a.jet(1.0)[1])
        return (ap1 - 1.0) / (ap1 + 1.0)


def rotate_inverse(a) -> _RotatedInverseW:
    """2-monotone transform of a Pickands function (inverse affine link)."""
    return _RotatedInverseW(a)


def h_density(a):
    """Density of ``Z = log U / log(UV)`` under the copula with Pickands ``a``.

    ``h(z) = 1 + (1 - 2z) A'/A + z(1 - z) [A''/A - (A'/A)^2]``; endpoint
    values use the one-sided limits ``1 + A'(0)/A(0)`` and ``1 - A'(1)/A(1)``,
    which vanish for transforms built from strictly positive densities
    (limits below round-off resolution are snapped to exact zero).  Inside
    (0, 1) the formula's round-off can dip below 0 where h vanishes (strong
    dependence); such values are clamped to 0, so h is a density.

    ``a`` is any object with ``__call__`` and ``jet``; every read of A, A'
    and A'' here is one ``jet`` call.
    """
    a0, ap0, _ = a.jet(0.0)
    a1, ap1, _ = a.jet(1.0)
    h0 = max(0.0, 1.0 + float(ap0) / float(a0))
    h1 = max(0.0, 1.0 - float(ap1) / float(a1))
    h0 = 0.0 if h0 < 1e-9 else h0
    h1 = 0.0 if h1 < 1e-9 else h1

    def h(z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        inner = (z > 0.0) & (z < 1.0)
        zi = z[inner]
        out[inner] = np.maximum(h_formula(zi, *(np.asarray(v, dtype=float)
                                                for v in a.jet(zi))), 0.0)
        out[z <= 0.0] = h0
        out[z >= 1.0] = h1
        return float(out[0]) if scalar else out

    return h


@dataclass(frozen=True)
class SpectralMeasure:
    """Angular measure on [0, 1]: density on a grid plus endpoint atoms."""

    z: np.ndarray
    eta: np.ndarray
    h0: float
    h1: float

    def first_moment(self) -> float:
        return float(np.trapezoid(self.z * self.eta, self.z) + self.h1)


def spectral_from_w(w) -> SpectralMeasure:
    """Spectral measure induced by a 2-monotone transform.

    Read off :func:`rotate` (``w`` may also be the model it returned): the
    density is ``A''`` at its nodes (0 where unbounded), and the atoms are
    ``H0 = 1 + A'(0)`` and ``H1 = 1 - A'(1)``.  An unbounded slope
    ``W'(0+)`` gives H0 = 0.
    """
    a = w if isinstance(w, PickandsModel) else rotate(w)
    eta = np.where(np.isfinite(a.app), a.app, 0.0)
    return SpectralMeasure(z=a.t, eta=eta,
                           h0=max(0.0, min(1.0, 1.0 + float(a.ap[0]))),
                           h1=max(0.0, min(1.0, 1.0 - float(a.ap[-1]))))


def fixed_point(w) -> float:
    """The unique solution of W(x) = x for a 2-monotone W with W(1) = 0.

    The link maps it to ``t = 1/2``, so it is ``A(1/2) - 1/2`` with ``A``
    from :func:`rotate` (``w`` may also be the model it returned).  Raises
    :class:`NumericalError` when ``W`` is not a unit transform, so that
    ``W(x) - x`` need not change sign on [0, 1].
    """
    if isinstance(w, PickandsModel):
        return float(w(0.5)) - 0.5
    try:
        a = rotate(w)
    except InputError as exc:
        raise NumericalError(
            f"W(x) - x has no certified sign change on [0, 1]: {exc}") from exc
    return float(a(0.5)) - 0.5


def gini_from_pickands(a) -> float:
    """Dependence index ``G = 4 (1 - integral of A)``: 0 at independence."""
    if hasattr(a, "integrate"):
        integral = a.integrate()
    else:
        nodes, weights = gauss_legendre(np.linspace(0.0, 1.0, 33), 16)
        integral = float(weights @ np.asarray(a(nodes), dtype=float))
    return 4.0 * (1.0 - integral)


def gini_from_density(f) -> float:
    """Same index from the underlying density: ``G = 1 - E[X]``."""
    return 1.0 - integrate_01(lambda x: x * np.asarray(f(x)))


def gini_from_copula(c) -> float:
    """Same index from the copula itself: ``G = 4 (1 - mean of log C / log uv)``.

    The mean is a 64 x 64 tensor Gauss-Legendre rule on ``[1e-6, 1 - 1e-6]^2``.
    Requires a positively quadrant dependent copula (``C >= uv``).
    """
    uu, vv, w2 = gauss_square(1e-6, 64)
    cv = c.cdf(uu, vv)
    if np.min(cv - uu * vv) < -1e-9:
        raise InputError("copula is not positively quadrant dependent")
    integrand = np.log(cv) / np.log(uu * vv)
    return 4.0 * (1.0 - float(np.sum(w2 * integrand)))


def blomqvist_beta(a) -> float:
    """Median concordance: ``4^(1 - A(1/2)) - 1``."""
    return float(4.0 ** (1.0 - float(a(0.5))) - 1.0)


def upper_tail(a) -> float:
    """Upper tail dependence index: ``2 (1 - A(1/2))``."""
    return float(2.0 * (1.0 - float(a(0.5))))


class _KhoudrajiPickands(JetReads):
    """Asymmetric extension of a Pickands function with parameters in (0, 1]."""

    def __init__(self, base, alpha: float, beta: float):
        if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
            raise InputError("alpha and beta must lie in (0, 1]")
        self.base = base
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _parts(self, t):
        """The line ``(1 - t)(1 - alpha) + t(1 - beta)``, ``d`` and ``tau``."""
        a, b = self.alpha, self.beta
        t = np.asarray(t, dtype=float)
        d = (1.0 - t) * a + t * b
        return (1.0 - t) * (1.0 - a) + t * (1.0 - b), d, t * b / d

    def __call__(self, t):
        line, d, tau = self._parts(t)
        return line + d * np.asarray(self.base(tau))

    def jet(self, t):
        a, b = self.alpha, self.beta
        line, d, tau = self._parts(t)
        f, f1, f2 = (np.asarray(v) for v in self.base.jet(tau))
        return (line + d * f, (a - b) + (b - a) * f + a * b * f1 / d,
                (a * b) ** 2 * f2 / d ** 3)


def khoudraji(a, alpha: float, beta: float):
    """Asymmetric Pickands function; identity at ``alpha = beta = 1``."""
    return _KhoudrajiPickands(a, alpha, beta)


class _MirroredPickands(JetReads):
    """Pickands function with arguments reflected around 1/2."""

    def __init__(self, base):
        self.base = base

    def __call__(self, t):
        return self.base(1.0 - np.asarray(t, dtype=float))

    def jet(self, t):
        f, f1, f2 = self.base.jet(1.0 - np.asarray(t, dtype=float))
        return f, -np.asarray(f1), f2


def mirror(a):
    """Reflected Pickands function ``t -> A(1 - t)``.

    Tabulated models are rebuilt on the reflected grid; other inputs get a
    lightweight evaluating wrapper.
    """
    if isinstance(a, PickandsModel):
        return PickandsModel(t=1.0 - a.t[::-1], a=a.a[::-1].copy(),
                             ap=-a.ap[::-1], app=a.app[::-1].copy())
    if isinstance(a, _MirroredPickands):
        return a.base
    return _MirroredPickands(a)


class _SymmetrizedPickands(JetReads):
    """Even part of a Pickands function: ``(A(t) + A(1 - t)) / 2``."""

    def __init__(self, base):
        self.base = base

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (np.asarray(self.base(t)) + np.asarray(self.base(1.0 - t)))

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        (f, f1, f2), (g, g1, g2) = self.base.jet(t), self.base.jet(1.0 - t)
        return 0.5 * (f + g), 0.5 * (f1 - g1), 0.5 * (f2 + g2)


def symmetrize(a):
    """Exchangeable Pickands function ``(A(t) + A(1 - t)) / 2``."""
    return _SymmetrizedPickands(a)


@dataclass(frozen=True)
class PickandsDiagnostics:
    """Constraint-violation report for a candidate Pickands function."""

    max_upper_violation: float
    max_lower_violation: float
    max_convexity_violation: float
    endpoint_values: tuple[float, float]

    def passed(self, tol: float = 1e-6) -> bool:
        return (self.max_upper_violation <= tol
                and self.max_lower_violation <= tol
                and self.max_convexity_violation <= tol
                and abs(self.endpoint_values[0] - 1.0) <= tol
                and abs(self.endpoint_values[1] - 1.0) <= tol)


def validate_pickands(a) -> PickandsDiagnostics:
    """Measure violations of the Pickands constraints on 1000 equispaced probes.

    Convexity is assessed through second differences scaled to curvature
    units; bound violations are reported as positive excess above 1 or
    below ``max(t, 1 - t)``.
    """
    t = np.linspace(0.0, 1.0, 1000)
    av = np.asarray(a(t), dtype=float)
    upper = float(np.max(av - 1.0))
    lower = float(np.max(np.maximum(t, 1.0 - t) - av))
    h = t[1] - t[0]
    d2 = (av[:-2] - 2.0 * av[1:-1] + av[2:]) / h ** 2
    convex = float(max(0.0, -np.min(d2)))
    return PickandsDiagnostics(
        max_upper_violation=max(0.0, upper),
        max_lower_violation=max(0.0, lower),
        max_convexity_violation=convex,
        endpoint_values=(float(a(0.0)), float(a(1.0))),
    )
