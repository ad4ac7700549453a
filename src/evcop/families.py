"""Closed-form extreme-value copula families and classical estimators.

The one-parameter Gumbel, Galambos and Husler-Reiss families provide ground
truths for simulation studies; the asymmetric extensions obtained through
the Khoudraji device are known as the Tawn and Joe families.  The
nonparametric estimators here (Pickands' minimum-based estimator with its
greatest convex minorant, and the CFG rank estimator) serve as pilots and
baselines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import InputError
from .pickands import khoudraji

__all__ = [
    "ParametricPickands",
    "pickands_estimator",
    "greatest_convex_minorant",
    "cfg_estimator",
]

_T_EDGE = 1e-8
_SQRT_2PI = np.sqrt(2.0 * np.pi)


def _phi(x):
    return np.exp(-0.5 * x * x) / _SQRT_2PI


class _GumbelA:
    """A(t) = (t^theta + (1-t)^theta)^(1/theta), theta >= 1."""

    def __init__(self, theta: float):
        self.theta = theta

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        th = self.theta
        return (t ** th + (1.0 - t) ** th) ** (1.0 / th)

    def deriv(self, t):
        t = np.clip(np.asarray(t, dtype=float), _T_EDGE, 1.0 - _T_EDGE)
        th = self.theta
        s = t ** th + (1.0 - t) ** th
        return s ** (1.0 / th - 1.0) * (t ** (th - 1.0) - (1.0 - t) ** (th - 1.0))

    def deriv2(self, t):
        t = np.clip(np.asarray(t, dtype=float), _T_EDGE, 1.0 - _T_EDGE)
        th = self.theta
        s = t ** th + (1.0 - t) ** th
        diff = t ** (th - 1.0) - (1.0 - t) ** (th - 1.0)
        curv = t ** (th - 2.0) + (1.0 - t) ** (th - 2.0)
        return (th - 1.0) * s ** (1.0 / th - 2.0) * (s * curv - diff * diff)


class _GalambosA:
    """A(t) = 1 - (t^-theta + (1-t)^-theta)^(-1/theta), theta > 0."""

    def __init__(self, theta: float):
        self.theta = theta

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        th = self.theta
        with np.errstate(divide="ignore", over="ignore"):
            s = t ** -th + (1.0 - t) ** -th
            return 1.0 - s ** (-1.0 / th)

    def deriv(self, t):
        t = np.clip(np.asarray(t, dtype=float), _T_EDGE, 1.0 - _T_EDGE)
        th = self.theta
        s = t ** -th + (1.0 - t) ** -th
        return s ** (-1.0 / th - 1.0) * ((1.0 - t) ** (-th - 1.0) - t ** (-th - 1.0))

    def deriv2(self, t):
        t = np.clip(np.asarray(t, dtype=float), _T_EDGE, 1.0 - _T_EDGE)
        th = self.theta
        s = t ** -th + (1.0 - t) ** -th
        diff = (1.0 - t) ** (-th - 1.0) - t ** (-th - 1.0)
        curv = t ** (-th - 2.0) + (1.0 - t) ** (-th - 2.0)
        return (th + 1.0) * (s ** (-1.0 / th - 1.0) * curv
                             - s ** (-1.0 / th - 2.0) * diff * diff)


class _HuslerReissA:
    """A(t) = phi(t) + phi(1-t) with phi(s) = s * Phi(theta + log(s/(1-s)) / (2 theta))."""

    def __init__(self, theta: float):
        self.theta = theta

    def _g(self, s):
        return self.theta + np.log(s / (1.0 - s)) / (2.0 * self.theta)

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            left = np.where(t > 0.0, t * ndtr(self._g(np.maximum(t, 1e-320))), 0.0)
            s = 1.0 - t
            right = np.where(s > 0.0, s * ndtr(self._g(np.maximum(s, 1e-320))), 0.0)
        return left + right

    def _psi(self, s):
        g = self._g(s)
        gp = 1.0 / (2.0 * self.theta * s * (1.0 - s))
        return ndtr(g) + s * _phi(g) * gp

    def _psi_prime(self, s):
        th = self.theta
        g = self._g(s)
        gp = 1.0 / (2.0 * th * s * (1.0 - s))
        gpp = -(1.0 - 2.0 * s) / (2.0 * th * s ** 2 * (1.0 - s) ** 2)
        pg = _phi(g)
        return 2.0 * pg * gp - s * g * pg * gp * gp + s * pg * gpp

    def deriv(self, t):
        t = np.clip(np.asarray(t, dtype=float), _T_EDGE, 1.0 - _T_EDGE)
        return self._psi(t) - self._psi(1.0 - t)

    def deriv2(self, t):
        t = np.clip(np.asarray(t, dtype=float), _T_EDGE, 1.0 - _T_EDGE)
        return self._psi_prime(t) + self._psi_prime(1.0 - t)


_FAMILIES = {
    "gumbel": (_GumbelA, lambda th: th >= 1.0, "theta >= 1"),
    "galambos": (_GalambosA, lambda th: th > 0.0, "theta > 0"),
    "husler-reiss": (_HuslerReissA, lambda th: th > 0.0, "theta > 0"),
}

_ALIASES = {
    "gumbel": "gumbel",
    "galambos": "galambos",
    "husler-reiss": "husler-reiss",
    "husler_reiss": "husler-reiss",
    "huslerreiss": "husler-reiss",
    "hr": "husler-reiss",
}


@dataclass(frozen=True)
class ParametricPickands:
    """One-parameter family member, optionally with asymmetry parameters.

    ``khoudraji=(alpha, beta)`` wraps the symmetric family through the
    asymmetrizing device (Tawn family for Gumbel, Joe family for Galambos).
    """

    family: str
    theta: float
    khoudraji: tuple[float, float] | None = None

    def __post_init__(self):
        key = _ALIASES.get(str(self.family).lower())
        if key is None:
            raise InputError(f"unknown family {self.family!r}; "
                             f"choose from {sorted(_FAMILIES)}")
        object.__setattr__(self, "family", key)
        cls, check, descr = _FAMILIES[key]
        if not check(self.theta):
            raise InputError(f"{key} requires {descr}, got theta={self.theta}")
        impl = cls(self.theta)
        if self.khoudraji is not None:
            a, b = self.khoudraji
            impl = khoudraji(impl, a, b)
        object.__setattr__(self, "_impl", impl)

    def __call__(self, t):
        return self._impl(t)

    def deriv(self, t):
        return self._impl.deriv(t)

    def deriv2(self, t):
        return self._impl.deriv2(t)


def pickands_estimator(sample, t):
    """Minimum-based nonparametric Pickands estimator.

    The copula sample is mapped to unit exponential margins
    ``X = -log U``, ``Y = -log V``; the estimate is the reciprocal of the
    sample mean of ``min(X / (1 - t), Y / t)``.  At the endpoints the minimum
    degenerates to a single coordinate.
    """
    uv = np.asarray(sample, dtype=float)
    if uv.size == 0:
        raise InputError("empty sample")
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise InputError("sample must be an (n, 2) array")
    x = -np.log(uv[:, 0])
    y = -np.log(uv[:, 1])
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    with np.errstate(divide="ignore"):
        sx = x[None, :] / (1.0 - t_arr)[:, None]
        sy = y[None, :] / t_arr[:, None]
    m = np.mean(np.minimum(sx, sy), axis=1)
    out = 1.0 / m
    return float(out[0]) if np.ndim(t) == 0 else out


def greatest_convex_minorant(x, y) -> np.ndarray:
    """Largest convex function below the points ``(x_i, y_i)``, at the ``x_i``.

    Computed as the lower convex hull of the point set (monotone chain),
    evaluated back on the input grid.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise InputError("x and y must be 1-d arrays of equal length")
    if np.any(np.diff(x) <= 0):
        raise InputError("x must be strictly increasing")
    hx: list[float] = []
    hy: list[float] = []
    for xi, yi in zip(x, y):
        while len(hx) >= 2:
            cross = ((hx[-1] - hx[-2]) * (yi - hy[-2])
                     - (hy[-1] - hy[-2]) * (xi - hx[-2]))
            if cross <= 0.0:  # middle point sits on or above the chord
                hx.pop()
                hy.pop()
            else:
                break
        hx.append(xi)
        hy.append(yi)
    return np.interp(x, hx, hy)


def cfg_estimator(sample, t_grid, from_z: bool = False) -> np.ndarray:
    """Rank-based nonparametric Pickands estimator.

    Uses the distribution of the pseudo-angle ``z = log u / log(uv)``:
    ``A(t) = exp of the integral over [0, t] of (H(z) - z) / (z (1 - z))``
    with the empirical CDF ``H``, integrated by the trapezoidal rule on a
    1024-node grid with the integrand pinned to 0 at both endpoints.

    ``sample`` is an (n, 2) copula sample, or the pseudo-angles themselves
    when ``from_z`` is true.
    """
    if from_z:
        z = np.asarray(sample, dtype=float)
    else:
        uv = np.asarray(sample, dtype=float)
        if uv.ndim != 2 or uv.shape[1] != 2:
            raise InputError("sample must be an (n, 2) array")
        lu = np.log(uv[:, 0])
        lv = np.log(uv[:, 1])
        z = lu / (lu + lv)
    if z.size == 0:
        raise InputError("empty sample")
    t_arr = np.atleast_1d(np.asarray(t_grid, dtype=float))
    if np.any(t_arr < 0.0) or np.any(t_arr > 1.0):
        raise InputError("t values must lie in [0, 1]")

    grid = np.linspace(0.0, 1.0, 1024)
    zs = np.sort(z)
    hcdf = np.searchsorted(zs, grid, side="right") / z.size
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = (hcdf - grid) / (grid * (1.0 - grid))
    integrand[0] = 0.0
    integrand[-1] = 0.0
    dg = np.diff(grid)
    log_a = np.concatenate([[0.0],
                            np.cumsum(0.5 * dg * (integrand[:-1] + integrand[1:]))])
    out = np.exp(np.interp(t_arr, grid, log_a))
    return float(out[0]) if np.ndim(t_grid) == 0 else out
