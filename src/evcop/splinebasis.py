"""Orthonormal zero-integral spline bases (ZB-splines) on [0, 1].

The construction starts from the clamped B-spline basis of degree ``d`` with
``n`` interior knots (dimension ``n + d + 1``), restricts to the subspace of
splines with zero integral (dimension ``n + d``) and orthonormalizes that
subspace in L2.  The resulting functions parameterize log-densities through
the inverse centered-log-ratio map, see :mod:`evcop.bayes`.  B-splines and
their derivatives are evaluated by the Cox-de Boor recursion, vectorized over
the points (:func:`_bspline_design`).  A single spline is read piece by
piece instead: :meth:`ZBasis.spline` gives it as one Bernstein polynomial per
knot interval, from a table built once per basis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._hermite import PiecewiseBernstein
from ._quad import gauss_legendre
from .errors import InputError, NumericalError, _at_least

__all__ = [
    "KnotConfig",
    "ZBasis",
    "build_zb_basis",
    "eval_basis",
    "curvature_matrix",
    "project_center",
    "quantile_knots",
    "sorted_quantiles",
    "ascending",
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
        _at_least("degree", 1)(self.degree)
        arr = np.asarray(kn)
        if arr.size:
            if not np.all((arr > 0.0) & (arr < 1.0)):
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
    """Design matrix of all clamped B-splines at ``x``: shape (len(x), nbasis).

    Cox-de Boor recursion on every point at once, in the operation order of
    FITPACK's ``fpbspl``: ``degree - deriv`` value steps, then ``deriv``
    derivative steps.  Row ``r`` holds the ``degree + 1`` B-splines that are
    nonzero on the knot interval ``[t_l, t_l+1)`` of ``x[r]`` (the last
    interval for ``x = 1``); NaN gives a row of NaN.
    """
    k = degree
    nb = len(full_knots) - k - 1
    x = np.asarray(x, dtype=float).ravel()
    ell = np.searchsorted(full_knots[k + 1:nb], x, side="right") + k
    # the knots t[l + m] for m = 1 - k, ..., k, and their distances from x
    t = {m: full_knots.take(ell + m) for m in range(1 - k, k + 1)}
    dist = {m: t[m] - x if m > 0 else x - t[m] for m in t}
    h = np.zeros((k + 1, x.size))
    h[0] = float(deriv <= k)  # a derivative above the degree vanishes
    for j in range(1, k + 1):
        hh = h[:j].copy()
        h[0] = 0.0
        for n in range(1, j + 1):
            if j <= k - deriv:
                w = hh[n - 1] / (t[n] - t[n - j])
                h[n - 1] += w * dist[n]
                np.multiply(w, dist[n - j], out=h[n])
            else:
                w = j * hh[n - 1] / (t[n] - t[n - j])
                h[n - 1] -= w
                h[n] = w
    out = np.zeros((x.size, nb))
    flat = out.reshape(-1)
    first = np.arange(0, out.size, nb) + ell - k
    for a in range(k + 1):
        flat[first + a] = h[a]
    out[np.isnan(x)] = np.nan
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

    @cached_property
    def _pieces(self) -> np.ndarray:
        """Bernstein coefficients of every basis function on every knot interval.

        Shape ``(degree + 1, intervals, dim)``.  On ``[t_l, t_l+1]`` the
        ``j``-th coefficient of a spline is its blossom at ``t_l`` taken
        ``degree - j`` times and ``t_l+1`` taken ``j`` times (de Boor 1978),
        formed by de Boor's algorithm from convex combinations of the active
        coefficients, for every interval and ``j`` at once.  Built at the
        first call for a basis and kept on it, read-only.
        """
        d = self.degree
        t = self.knot_config.full_knots
        ell = np.arange(d, t.size - d - 1)  # t[ell] is each interval's left end
        j = np.arange(d + 1)[:, None]
        # c[m, j, l]: the coefficients of B_{l-d+m} in the basis, for every j
        c = np.repeat(self.transform.T[ell - d + j][:, None], d + 1, axis=1)
        for r in range(1, d + 1):
            u = t[ell + (r > d - j)]  # the r-th blossom argument, per (j, l)
            for m in range(d, r - 1, -1):
                i = ell - d + m
                a = ((u - t[i]) / (t[i + d + 1 - r] - t[i]))[..., None]
                c[m] = (1.0 - a) * c[m - 1] + a * c[m]
        table = c[d]
        table.flags.writeable = False
        return table

    def spline(self, coeffs) -> PiecewiseBernstein:
        """The spline ``sum_i coeffs[i] Z_i``, one polynomial per knot interval.

        Reads give what ``evaluate(x) @ coeffs`` gives, up to round-off, but
        extrapolate outside [0, 1]; check points with :func:`unit_points`.
        """
        return PiecewiseBernstein(self._pieces @ np.asarray(coeffs, dtype=float),
                                  self.knot_config.breakpoints)

    @cached_property
    def _center(self) -> np.ndarray:
        """The coefficients :func:`project_center` returns."""
        nodes, weights = center_quadrature(self)
        g = -0.5 * (1.0 + np.log(nodes))
        if not np.all(np.isfinite(g)):
            raise NumericalError(
                "quadrature node collided with the log singularity at 0")
        center = (weights * g) @ eval_basis(self, nodes)
        center.flags.writeable = False
        return center


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


def unit_points(x) -> np.ndarray:
    """``x`` as a float array; :class:`InputError` if a point is outside [0, 1].

    NaN passes, and evaluates to NaN.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise InputError("evaluation points must lie in [0, 1]")
    return x


def eval_basis(b: ZBasis, x, deriv: int = 0) -> np.ndarray:
    """Evaluate all ZB-spline basis functions (or derivatives) at ``x``."""
    if deriv not in (0, 1, 2):
        raise InputError(f"deriv must be 0, 1 or 2, got {deriv}")
    scalar = np.isscalar(x) or np.ndim(x) == 0
    xa = np.atleast_1d(unit_points(x))
    Braw = _bspline_design(b.knot_config.full_knots, b.degree, xa, deriv)
    out = Braw @ b.transform.T
    return out[0] if scalar else out


def curvature_matrix(b: ZBasis) -> np.ndarray:
    """Symmetric PSD matrix of curvature inner products: integral of Z_i'' Z_j''.

    The integrand is piecewise polynomial of degree <= 2(d - 2), so the
    fixed Gauss rule integrates it exactly.
    """
    z2 = eval_basis(b, b.quad_nodes, deriv=2)
    omega = (z2 * b.quad_weights[:, None]).T @ z2
    return 0.5 * (omega + omega.T)


def center_quadrature(b: ZBasis) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature rule accurate for spline products and log-type integrands.

    Same Gauss rule as the basis uses, with the first knot interval split on
    16 panels halving toward 0, so that nodes never touch the singularity at
    0; still exact for piecewise polynomials.
    """
    breaks = b.knot_config.breakpoints
    edges = np.concatenate([[0.0], breaks[1] * 0.5 ** np.arange(15, -1, -1.0),
                            breaks[2:]])
    return gauss_legendre(edges, 2 * b.degree + 2)


def project_center(b: ZBasis) -> np.ndarray:
    """Coefficients of the orthogonal projection of -(1 + log x) / 2.

    The projected function is the clr transform of the density of U^2
    (U uniform); using it as an affine center removes the asymmetry bias of
    the plain spline model.  The log singularity at 0 is handled by a
    geometrically refined quadrature on the first knot interval.  Computed
    at the first call for a basis and kept on it, read-only.
    """
    return b._center


def ascending(sample: np.ndarray) -> np.ndarray:
    """A 1-d float sample sorted ascending: itself when it already is.

    A sorted sample costs one comparison pass instead of a sort, so a fit
    sorts its sample once and every reader after it checks.  A NaN fails
    the check, and the sorted copy puts it last, as :func:`numpy.sort` does.
    """
    if sample.size < 2 or (sample[1:] >= sample[:-1]).all():
        return sample
    return np.sort(sample)


def sorted_quantiles(s: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """``np.quantile(s, probs)`` of a sorted 1-d sample, to the last bit.

    numpy's default 'linear' rule read off the sorted sample, without the
    partition and the wrappers: ``v = (n - 1) p`` falls between ``s[i]`` and
    ``s[i + 1]`` with ``i = floor(v)``, and the weight ``v - i`` is applied
    from the nearer end, as numpy's ``_lerp`` does.  A NaN, sorted last,
    makes every quantile NaN.
    """
    if np.isnan(s[-1]):
        return np.full(probs.shape, np.nan)
    v = (s.size - 1) * probs
    i = np.floor(v)
    gamma = v - i
    i = i.astype(np.intp)
    a, b = s[i], s[np.minimum(i + 1, s.size - 1)]
    diff = b - a
    q = a + diff * gamma
    np.subtract(b, diff * (1.0 - gamma), out=q, where=gamma >= 0.5)
    return q


def quantile_knots(sample, n_interior: int) -> KnotConfig:
    """Interior knots at equally spaced quantiles of a sample in (0, 1).

    Duplicate quantiles (ties in the sample) are collapsed; raises if fewer
    than ``n_interior`` distinct knots survive.
    """
    s = np.asarray(sample, dtype=float)
    _at_least("n_interior", 0)(n_interior)
    if n_interior == 0:
        return KnotConfig(interior_knots=(), degree=3)
    if s.size < n_interior + 2:
        raise InputError(f"need at least {n_interior + 2} points, got {s.size}")
    if np.any(s <= 0.0) or np.any(s >= 1.0):
        raise InputError("sample values must lie strictly inside (0, 1)")
    probs = np.arange(1, n_interior + 1) / (n_interior + 1)
    q = np.unique(sorted_quantiles(ascending(s), probs))
    q = q[(q > 0.0) & (q < 1.0)]
    if len(q) < n_interior:
        raise InputError(
            f"ties collapsed quantile knots to {len(q)} < {n_interior}")
    return KnotConfig(interior_knots=tuple(q), degree=3)
