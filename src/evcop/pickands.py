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
from functools import cached_property

import numpy as np

from ._hermite import hermite_interpolator
from ._quad import gauss_legendre
from ._rootfind import vector_bisect
from .bayes import integrate_01
from .errors import InputError

__all__ = [
    "PickandsModel",
    "SpectralMeasure",
    "PickandsDiagnostics",
    "rotate",
    "rotate_inverse",
    "h_density",
    "spectral_from_w",
    "gini_from_pickands",
    "gini_from_density",
    "gini_from_copula",
    "blomqvist_beta",
    "upper_tail",
    "khoudraji",
    "symmetrize",
    "mirror",
    "validate_pickands",
    "default_t_nodes",
]


def default_t_nodes() -> np.ndarray:
    """Canonical Pickands tabulation grid, clustered toward both endpoints.

    The first and last interior nodes sit at 5e-4: the boundary pieces then
    extend the pinned endpoint slopes smoothly instead of chasing the
    (possibly unbounded) curvature right next to the ends.
    """
    left = np.geomspace(5e-4, 0.02, 15)
    mid = np.linspace(0.02, 0.98, 401)
    return np.unique(np.concatenate([[0.0], left, mid, 1.0 - left[::-1], [1.0]]))


def _slope_to_pickands(wp):
    """First-derivative link: A' = (1 + W') / (1 - W'); -inf maps to -1."""
    wp = np.asarray(wp, dtype=float)
    with np.errstate(invalid="ignore"):
        out = np.where(np.isneginf(wp), -1.0, (1.0 + wp) / (1.0 - wp))
    return out


def _curvature_to_pickands(wpp, wp):
    """Second-derivative link: A'' = 4 W'' / (1 - W')^3; non-finite stays inf."""
    wpp = np.asarray(wpp, dtype=float)
    wp = np.asarray(wp, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        out = 4.0 * wpp / (1.0 - wp) ** 3
    return np.where(np.isfinite(out), out, np.inf)


def link(x, w, wp, wpp):
    """Affine link at points ``x`` of a 2-monotone transform.

    Maps ``W``, ``W'`` and ``W''`` at ``x`` to the node ``t`` and the values
    ``A``, ``A'`` and ``A''`` of the Pickands function there.
    """
    t = 0.5 * (1.0 + x - w)
    a = 0.5 * (1.0 + x + w)
    return t, a, _slope_to_pickands(wp), _curvature_to_pickands(wpp, wp)


def h_formula(t, a, ap, app):
    """Pseudo-angle density at ``t`` from ``A``, ``A'`` and ``A''`` there."""
    r = ap / a
    return 1.0 + (1.0 - 2.0 * t) * r + t * (1.0 - t) * (app / a - r * r)


@dataclass(frozen=True)
class PickandsModel:
    """Tabulated Pickands function with a C2 piecewise interpolator.

    ``app[0]`` (and occasionally ``app[-1]``) may be non-finite sentinels;
    they impose no interpolation constraint.  The interpolator is built on
    first evaluation.
    """

    t: np.ndarray
    a: np.ndarray
    ap: np.ndarray
    app: np.ndarray

    @cached_property
    def _ip(self):
        return hermite_interpolator(self.t, self.a, self.ap, self.app)

    @cached_property
    def _ip1(self):
        return self._ip.derivative()

    @cached_property
    def _ip2(self):
        return self._ip.derivative(2)

    def __call__(self, t):
        return self._ip(t)

    def deriv(self, t):
        return self._ip1(t)

    def deriv2(self, t):
        return self._ip2(t)

    def integrate(self) -> float:
        return float(self._ip.integrate(0.0, 1.0))


def rotate(w, t_nodes=None) -> PickandsModel:
    """Pickands function of a 2-monotone transform, tabulated on ``t_nodes``.

    For each interior node the equation ``(1 + x - W(x)) / 2 = t`` is solved
    by bracketed bisection (the left side is strictly increasing), then the
    value and derivatives follow from the affine link.  Endpoint slopes use
    the one-sided limits of ``W'``; an unbounded slope at 0 gives
    ``A'(0+) = -1``.
    """
    if not (abs(float(w(0.0)) - 1.0) <= 1e-3 and abs(float(w(1.0))) <= 1e-3):
        raise InputError(
            f"not a unit 2-monotone transform: W(0)={float(w(0.0)):.4f}, "
            f"W(1)={float(w(1.0)):.4f}")
    t = default_t_nodes() if t_nodes is None else np.asarray(t_nodes, dtype=float)
    if t[0] != 0.0 or t[-1] != 1.0 or np.any(np.diff(t) <= 0):
        raise InputError("t_nodes must increase strictly from 0 to 1")
    ti = t[1:-1]

    def resid(x):
        return 0.5 * (1.0 + x - w(x)) - ti

    xi = vector_bisect(resid, np.zeros_like(ti), np.ones_like(ti), iters=60)

    a = np.empty_like(t)
    ap = np.empty_like(t)
    app = np.empty_like(t)
    a[0] = a[-1] = 1.0
    _, a[1:-1], ap[1:-1], app[1:-1] = link(xi, w(xi), w.deriv(xi), w.deriv2(xi))

    wp0 = getattr(w, "deriv_at_zero", None)
    wp0 = float(w.deriv(0.0)) if wp0 is None else float(wp0)
    wp1 = getattr(w, "deriv_at_one", None)
    wp1 = float(w.deriv(1.0)) if wp1 is None else float(wp1)
    ap[0] = _slope_to_pickands(wp0)
    ap[-1] = _slope_to_pickands(wp1)
    if np.isfinite(wp0):
        app[0] = _curvature_to_pickands(float(w.deriv2(0.0)), wp0)
    else:
        app[0] = np.inf
    app[-1] = _curvature_to_pickands(float(w.deriv2(1.0)), wp1)

    # clip round-off excursions above the admissible band
    np.minimum(a, 1.0, out=a)
    return PickandsModel(t=t, a=a, ap=ap, app=app)


class _RotatedInverseW:
    """2-monotone transform recovered from a Pickands function.

    Evaluation inverts ``x(t) = t + A(t) - 1`` by bracketed bisection and
    reads values and derivatives through the inverse affine link.
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

        return vector_bisect(resid, np.zeros_like(x), np.ones_like(x),
                             iters=60, check_bracket=False)

    def __call__(self, x):
        scalar = np.ndim(x) == 0
        t = self._t_of_x(np.atleast_1d(x))
        out = self._a(t) - t
        return float(out[0]) if scalar else out

    def deriv(self, x):
        scalar = np.ndim(x) == 0
        t = self._t_of_x(np.atleast_1d(x))
        apv = np.asarray(self._a.deriv(t), dtype=float)
        with np.errstate(divide="ignore"):
            out = (apv - 1.0) / (apv + 1.0)
        return float(out[0]) if scalar else out

    def deriv2(self, x):
        scalar = np.ndim(x) == 0
        t = self._t_of_x(np.atleast_1d(x))
        apv = np.asarray(self._a.deriv(t), dtype=float)
        appv = np.asarray(self._a.deriv2(t), dtype=float)
        with np.errstate(divide="ignore", over="ignore"):
            out = 2.0 * appv / (1.0 + apv) ** 3
        return float(out[0]) if scalar else out

    @property
    def deriv_at_zero(self) -> float:
        ap0 = float(self._a.deriv(0.0))
        if ap0 <= -1.0 + 1e-12:
            return -np.inf
        return (ap0 - 1.0) / (ap0 + 1.0)

    @property
    def deriv_at_one(self) -> float:
        ap1 = float(self._a.deriv(1.0))
        return (ap1 - 1.0) / (ap1 + 1.0)


def rotate_inverse(a) -> _RotatedInverseW:
    """2-monotone transform of a Pickands function (inverse affine link)."""
    return _RotatedInverseW(a)


def h_density(a):
    """Density of ``Z = log U / log(UV)`` under the copula with Pickands ``a``.

    ``h(z) = 1 + (1 - 2z) A'/A + z(1 - z) [A''/A - (A'/A)^2]``; endpoint
    values use the one-sided limits ``1 + A'(0)/A(0)`` and ``1 - A'(1)/A(1)``,
    which vanish for transforms built from strictly positive densities
    (limits below round-off resolution are snapped to exact zero).
    """
    h0 = max(0.0, 1.0 + float(a.deriv(0.0)) / float(a(0.0)))
    h1 = max(0.0, 1.0 - float(a.deriv(1.0)) / float(a(1.0)))
    h0 = 0.0 if h0 < 1e-9 else h0
    h1 = 0.0 if h1 < 1e-9 else h1

    def h(z):
        z = np.asarray(z, dtype=float)
        scalar = z.ndim == 0
        z = np.atleast_1d(z)
        out = np.empty_like(z)
        inner = (z > 0.0) & (z < 1.0)
        zi = z[inner]
        av = np.asarray(a(zi), dtype=float)
        apv = np.asarray(a.deriv(zi), dtype=float)
        appv = np.asarray(a.deriv2(zi), dtype=float)
        out[inner] = h_formula(zi, av, apv, appv)
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


def spectral_from_w(w, z_grid=None) -> SpectralMeasure:
    """Spectral measure induced by a 2-monotone transform.

    The density is ``eta(z) = 4 W''(x) / (1 - W'(x))^3`` at ``x = t^{-1}(z)``;
    the atoms are ``H0 = 2 / (1 - W'(0+))`` and
    ``H1 = -2 W'(1-) / (1 - W'(1-))``.  An unbounded slope at 0 gives H0 = 0.
    """
    if z_grid is None:
        edge = np.geomspace(1e-9, 0.01, 40)
        z = np.unique(np.concatenate([edge, np.linspace(0.01, 0.99, 481),
                                      1.0 - edge[::-1]]))
    else:
        z = np.asarray(z_grid, dtype=float)

    def resid(x):
        return 0.5 * (1.0 + x - w(x)) - z

    x = vector_bisect(resid, np.zeros_like(z), np.ones_like(z), iters=60,
                      check_bracket=False)
    wp = np.asarray(w.deriv(x), dtype=float)
    wpp = np.asarray(w.deriv2(x), dtype=float)
    eta = _curvature_to_pickands(wpp, wp)
    eta = np.where(np.isfinite(eta), eta, 0.0)

    wp0 = getattr(w, "deriv_at_zero", None)
    wp0 = float(w.deriv(0.0)) if wp0 is None else float(wp0)
    wp1 = getattr(w, "deriv_at_one", None)
    wp1 = float(w.deriv(1.0)) if wp1 is None else float(wp1)
    h0 = 0.0 if not np.isfinite(wp0) else 2.0 / (1.0 - wp0)
    h1 = -2.0 * wp1 / (1.0 - wp1)
    return SpectralMeasure(z=z, eta=eta, h0=max(0.0, min(1.0, float(h0))),
                           h1=max(0.0, min(1.0, float(h1))))


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
    if hasattr(f, "mean"):
        return 1.0 - float(f.mean())
    return 1.0 - integrate_01(lambda x: x * np.asarray(f(x)))


def gini_from_copula(c, eps: float = 1e-6, npts: int = 64) -> float:
    """Same index from the copula itself: ``G = 4 (1 - mean of log C / log uv)``.

    Requires a positively quadrant dependent copula (``C >= uv``).
    """
    xg, wg = np.polynomial.legendre.leggauss(npts)
    u = 0.5 * (1.0 - 2.0 * eps) * (xg + 1.0) + eps
    uu, vv = np.meshgrid(u, u, indexing="ij")
    cv = c.cdf(uu, vv)
    if np.min(cv - uu * vv) < -1e-9:
        raise InputError("copula is not positively quadrant dependent")
    integrand = np.log(cv) / np.log(uu * vv)
    w2 = np.outer(wg, wg) * (0.5 * (1.0 - 2.0 * eps)) ** 2
    return 4.0 * (1.0 - float(np.sum(w2 * integrand)))


def blomqvist_beta(a) -> float:
    """Median concordance: ``4^(1 - A(1/2)) - 1``."""
    return float(4.0 ** (1.0 - float(a(0.5))) - 1.0)


def upper_tail(a) -> float:
    """Upper tail dependence index: ``2 (1 - A(1/2))``."""
    return float(2.0 * (1.0 - float(a(0.5))))


class _KhoudrajiPickands:
    """Asymmetric extension of a Pickands function with parameters in (0, 1]."""

    def __init__(self, base, alpha: float, beta: float):
        if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
            raise InputError("alpha and beta must lie in (0, 1]")
        self.base = base
        self.alpha = float(alpha)
        self.beta = float(beta)

    def _parts(self, t):
        t = np.asarray(t, dtype=float)
        d = (1.0 - t) * self.alpha + t * self.beta
        tau = t * self.beta / d
        return t, d, tau

    def __call__(self, t):
        t, d, tau = self._parts(t)
        return ((1.0 - t) * (1.0 - self.alpha) + t * (1.0 - self.beta)
                + d * np.asarray(self.base(tau)))

    def deriv(self, t):
        a, b = self.alpha, self.beta
        t, d, tau = self._parts(t)
        return ((a - b) + (b - a) * np.asarray(self.base(tau))
                + a * b * np.asarray(self.base.deriv(tau)) / d)

    def deriv2(self, t):
        a, b = self.alpha, self.beta
        t, d, tau = self._parts(t)
        return (a * b) ** 2 * np.asarray(self.base.deriv2(tau)) / d ** 3


def khoudraji(a, alpha: float, beta: float):
    """Asymmetric Pickands function; identity at ``alpha = beta = 1``."""
    return _KhoudrajiPickands(a, alpha, beta)


class _MirroredPickands:
    """Pickands function with arguments reflected around 1/2."""

    def __init__(self, base):
        self.base = base

    def __call__(self, t):
        return self.base(1.0 - np.asarray(t, dtype=float))

    def deriv(self, t):
        return -np.asarray(self.base.deriv(1.0 - np.asarray(t, dtype=float)))

    def deriv2(self, t):
        return self.base.deriv2(1.0 - np.asarray(t, dtype=float))


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


class _SymmetrizedPickands:
    """Even part of a Pickands function: ``(A(t) + A(1 - t)) / 2``."""

    def __init__(self, base):
        self.base = base

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (np.asarray(self.base(t)) + np.asarray(self.base(1.0 - t)))

    def deriv(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (np.asarray(self.base.deriv(t))
                      - np.asarray(self.base.deriv(1.0 - t)))

    def deriv2(self, t):
        t = np.asarray(t, dtype=float)
        return 0.5 * (np.asarray(self.base.deriv2(t))
                      + np.asarray(self.base.deriv2(1.0 - t)))


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
    n_probes: int = 1000

    def passed(self, tol: float = 1e-6) -> bool:
        return (self.max_upper_violation <= tol
                and self.max_lower_violation <= tol
                and self.max_convexity_violation <= tol
                and abs(self.endpoint_values[0] - 1.0) <= tol
                and abs(self.endpoint_values[1] - 1.0) <= tol)


def validate_pickands(a, n_probes: int = 1000) -> PickandsDiagnostics:
    """Measure violations of the Pickands constraints on a probe grid.

    Convexity is assessed through second differences scaled to curvature
    units; bound violations are reported as positive excess above 1 or
    below ``max(t, 1 - t)``.
    """
    t = np.linspace(0.0, 1.0, n_probes)
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
        n_probes=n_probes,
    )
