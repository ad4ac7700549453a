"""Extreme-value copula objects: evaluation, density, simulation.

``C(u, v) = exp(log(uv) A(log u / log(uv)))`` for a Pickands function ``A``.
The class also evaluates through the survival transform
``u + v - 1 + C(1 - u, 1 - v)``, which swaps lower and upper tail behavior.
Simulation inverts the conditional distribution ``dC/du``: a table of it at
the nodes of the Pickands function brackets each root, and safeguarded Newton
steps solve inside the bracket.  Total variation is taken in the coordinates
of Ghoudi, Khoudraji & Rivest (1998), ``u = e^{-rz}``, ``v = e^{-r(1-z)}``,
where the density times the Jacobian is ``e^{-rA(z)} (r P(z) + Q(z))``: a
Gauss rule in ``z`` on panels at quantiles of both pseudo-angle laws, and
the ``r``-integral in closed form between the sign changes of the
difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np

from ._quad import _read_only, gauss_legendre
from ._rootfind import vector_bisect
from .errors import _COUNT, InputError, NumericalError
from .pickands import PickandsModel

__all__ = ["EvCopula", "tvd_copulas", "supnorm_bound_check", "SupnormBound"]

# simulation solves for v in [_V_MIN, _V_MAX]; its table holds the nodes of
# a tabulated model (_T_GRID for other objects) and geometric runs to t = 0
# and t = 1; draws still open after _NEWTON_STEPS steps are bisected
_V_MIN, _V_MAX = 1e-15, 1.0 - 1e-15
_T_GRID = np.linspace(0.0, 1.0, 401)
_T_RUN = np.geomspace(1e-12, 1e-3, 37)
_NEWTON_STEPS = 8
# tvd_copulas: Gauss-Legendre order of its z panels, and the largest error it
# allows in either density's mass on them, 10 times the worst measured: 9.9e-5
# over 1500 fitted/truth pairs of tvd studies (sizes 250 and 1000) and 5.8e-5
# over Gumbel (theta up to 50), Galambos, Khoudraji and random spline models
_TVD_ORDER = 8
_TVD_MASS_TOL = 1e-3


@dataclass(frozen=True)
class EvCopula:
    """Bivariate extreme-value copula driven by a Pickands function.

    ``pickands`` is any object with ``__call__`` (the value A) and ``jet``
    (A, A' and A'' together): tabulated models, parametric families,
    transformation wrappers, or a user's own object.  With
    ``survival=True`` every quantity is evaluated through the survival
    formula; applying the transform twice returns to the original copula.
    """

    pickands: object
    survival: bool = False

    def survival_copula(self) -> "EvCopula":
        return EvCopula(self.pickands, not self.survival)

    # -- base (non-survival) quantities -------------------------------------

    def _cdf_base(self, u, v):
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        out = np.empty(u.shape)
        lo = (u <= 0.0) | (v <= 0.0)
        hi_u = (u >= 1.0) & ~lo
        hi_v = (v >= 1.0) & ~lo
        inner = ~(lo | hi_u | hi_v)
        out[lo] = 0.0
        out[hi_u] = v[hi_u]
        out[hi_v] = u[hi_v]
        out[hi_u & hi_v] = 1.0
        lu = np.log(u[inner])
        lv = np.log(v[inner])
        s = lu + lv
        out[inner] = np.exp(s * np.asarray(self.pickands(lu / s), dtype=float))
        return out

    def _base(self, u, v):
        """``dC/du``, ``dC/dv`` and the density, from one read of A, A', A''
        (``pickands.jet``).

        In the coordinates ``s = log(uv)``, ``t = log u / s`` of Ghoudi,
        Khoudraji & Rivest (1998): ``dC/du = v e^{s(A-1)} (A + (1-t)A')``,
        ``dC/dv = u e^{s(A-1)} (A - tA')`` and
        ``c = e^{s(A-1)} [(A + (1-t)A')(A - tA') - t(1-t)A''/s]``.
        """
        # C/u = v exp(s (A - 1)): exact (no exp/log round trip) at A == 1,
        # which keeps conditional inversion exact for the independence copula
        u, v = np.broadcast_arrays(np.asarray(u, dtype=float),
                                   np.asarray(v, dtype=float))
        lu = np.log(u)
        lv = np.log(v)
        s = lu + lv
        t = lu / s
        a, ap, app = self.pickands.jet(t)
        scale = np.exp(s * (a - 1.0))
        pu = v * scale * (a + (1.0 - t) * ap)
        pv = u * scale * (a - t * ap)
        core = (a + (1.0 - t) * ap) * (a - t * ap) - t * (1.0 - t) * app / s
        return pu, pv, scale * core

    def _reflect(self, *xs):
        """The arguments as float arrays, mapped ``x -> 1 - x`` if survival."""
        xs = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs))
        return [1.0 - x for x in xs] if self.survival else xs

    # -- public surface ------------------------------------------------------

    def cdf(self, u, v):
        """Copula value, honoring the boundary conventions."""
        out = self._cdf_base(*self._reflect(u, v))
        if self.survival:  # u + v - 1 + C(1 - u, 1 - v)
            out = np.maximum(np.asarray(u, dtype=float)
                             + np.asarray(v, dtype=float) - 1.0 + out, 0.0)
        return _scalar_if_scalars(u, v, out)

    def partial_u(self, u, v):
        """Conditional CDF of V given U = u (interior arguments)."""
        pu = self._base(*self._reflect(u, v))[0]
        return _scalar_if_scalars(u, v, 1.0 - pu if self.survival else pu)

    def partial_v(self, u, v):
        """Conditional CDF of U given V = v (interior arguments)."""
        pv = self._base(*self._reflect(u, v))[1]
        return _scalar_if_scalars(u, v, 1.0 - pv if self.survival else pv)

    def pdf(self, u, v):
        """Copula density (interior arguments)."""
        return _scalar_if_scalars(u, v, self._base(*self._reflect(u, v))[2])

    def simulate(self, n: int, seed=None) -> np.ndarray:
        """Draw ``n`` pairs by conditional-distribution inversion.

        For each uniform pair ``(U, P)`` the second coordinate solves
        ``dC/du(U, v) = P``.  A table of the conditional CDF at the nodes of
        the Pickands function brackets every root, and safeguarded Newton
        steps in ``v`` solve inside the bracket.  Deterministic for a given
        seed; at independence the draw is ``(U, P)`` itself.
        """
        _COUNT(n)
        rng = seed if isinstance(seed, np.random.Generator) \
            else np.random.default_rng(seed)
        u = rng.random(n)
        p = rng.random(n)
        for arr in (u, p):
            bad = arr <= 0.0
            while np.any(bad):
                arr[bad] = rng.random(int(np.sum(bad)))
                bad = arr <= 0.0
        w, r = self._invert_base(*self._reflect(u, p))
        (v,) = self._reflect(w)  # the reflection is its own inverse
        if not np.all(np.isfinite(v)):
            raise NumericalError("conditional inversion produced non-finite values")
        # a residual surviving the solve means the conditional CDF never
        # crossed the target level: the dependence function is invalid
        stuck = np.abs(r) > 1e-6
        if np.any(stuck):
            bad = int(np.argmax(stuck))
            raise NumericalError(
                f"conditional inversion failed at u={u[bad]:.4g}, p={p[bad]:.4g} "
                f"(residual {r[bad]:.3g}); the dependence function is not a "
                "valid Pickands function")
        return np.column_stack([u, v])

    def _invert_base(self, u, p):
        """Roots ``v`` of ``dC/du(u, v) = p`` in the base copula, and residuals.

        In the pseudo-angle ``t`` the point is ``v = u^((1 - t)/t)`` and the
        conditional CDF is ``exp(log u (A/t - 1)) (A + (1 - t) A')``, so one
        table of ``A/t - 1`` and ``A + (1 - t) A'`` brackets every root by a
        binary search over its nodes.  Newton steps in ``v`` then run on the
        open draws only, and a step that leaves the bracket bisects it.
        """
        a = self.pickands
        nodes = a.t if isinstance(a, PickandsModel) else _T_GRID
        tt = np.unique(np.concatenate([nodes, _T_RUN, 1.0 - _T_RUN]))[1:-1]
        av, apv, _ = (np.asarray(v, dtype=float) for v in a.jet(tt))
        dv = av + (1.0 - tt) * apv
        # rows 0 and -1 are t = 0 and t = 1, where the conditional CDF is 0
        # and 1 and v is 0 and 1
        g = np.concatenate([[np.inf], av / tt - 1.0, [0.0]])
        d = np.concatenate([[1.0], dv, [1.0]])
        q = np.concatenate([[np.inf], (1.0 - tt) / tt, [0.0]])
        tt = np.concatenate([[0.0], tt, [1.0]])

        # F(lo) < p <= F(hi) throughout, so a bracket of width 1 stays put
        lu = np.log(u)
        lo = np.zeros(u.size, dtype=np.intp)
        hi = np.full(u.size, tt.size - 1, dtype=np.intp)
        for _ in range(int(np.ceil(np.log2(tt.size - 1)))):
            mid = (lo + hi) // 2
            up = np.exp(lu * g[mid]) * d[mid] >= p
            hi = np.where(up, mid, hi)
            lo = np.where(up, lo, mid)
        # start where the linear interpolant in t reaches p
        f_lo = np.exp(lu * g[lo]) * d[lo]
        f_hi = np.exp(lu * g[hi]) * d[hi]
        t0 = tt[lo] + (p - f_lo) / (f_hi - f_lo) * (tt[hi] - tt[lo])
        v_lo = np.clip(np.exp(lu * q[lo]), _V_MIN, _V_MAX)
        v_hi = np.clip(np.exp(lu * q[hi]), _V_MIN, _V_MAX)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.clip(np.exp(lu * ((1.0 - t0) / t0)), v_lo, v_hi)

        r = np.empty(u.size)
        act = np.arange(u.size)
        for _ in range(_NEWTON_STEPS):
            va = v[act]
            cond, _, dens = self._base(u[act], va)
            ra = cond - p[act]
            r[act] = ra
            la = np.where(ra < 0.0, va, v_lo[act])
            ha = np.where(ra >= 0.0, va, v_hi[act])
            with np.errstate(divide="ignore", invalid="ignore"):
                step = ra / dens
            done = ((np.abs(step) <= 1e-9 * np.minimum(va, 1.0 - va) + 4e-16 * va)
                    & (np.abs(ra) <= 1e-6))
            # a converged draw takes its last step unbracketed: at
            # independence that step is v - (v - p) = p exactly
            v[act[done]] = np.clip(va[done] - step[done], _V_MIN, _V_MAX)
            nxt = va - step
            nxt = np.where((nxt > la) & (nxt < ha), nxt, 0.5 * (la + ha))
            open_ = ~done
            act = act[open_]
            v[act], v_lo[act], v_hi[act] = nxt[open_], la[open_], ha[open_]
            if act.size == 0:
                return v, r
        ua, pa = u[act], p[act]

        def resid(x):
            return self._base(ua, x)[0] - pa

        v[act] = vector_bisect(resid, v_lo[act], v_hi[act], iters=50)
        r[act] = resid(v[act])
        return v, r


def _scalar_if_scalars(u, v, out):
    """``out`` as a float when ``u`` and ``v`` are both scalars."""
    out = np.asarray(out)
    return float(out.flat[0]) if np.ndim(u) == 0 and np.ndim(v) == 0 else out


@cache
def _tvd_tables():
    """The fixed tables of :func:`tvd_copulas`, built at first use and
    read-only: the ``z`` table on which each pseudo-angle CDF is read, the
    CDF levels whose quantiles are panel edges (geometric from 1e-7 to 0.02,
    then ``k/20``, then the mirrored tail levels), and the grid in
    ``x = r min(A1, A2)`` that brackets the sign changes in ``r``."""
    tail = np.geomspace(1e-10, 0.02, 15)
    z = np.concatenate([tail, np.linspace(0.02, 0.98, 121)[1:-1],
                        1.0 - tail[::-1]])
    geo = np.geomspace(1e-7, 0.02, 6)
    levels = np.concatenate([geo, np.arange(1, 20) / 20, 1.0 - geo[::-1]])
    x = np.concatenate([[0.0], np.geomspace(0.05, 32.0, 15)])
    return _read_only(z, levels, x)


def _tvd_nodes(a1, a2):
    """Nodes and weights in ``z`` of :func:`tvd_copulas` for the Pickands
    functions ``a1`` and ``a2``: 8-point Gauss-Legendre on the panels between
    the quantiles of both pseudo-angle CDFs ``H = z + z(1 - z)A'/A``, each
    read by one ``jet`` call on a fixed table."""
    z_table, levels, _ = _tvd_tables()
    edges = [np.array([0.0, 1.0])]
    for a in (a1, a2):
        f, f1, _ = (np.asarray(v, dtype=float) for v in a.jet(z_table))
        cdf = z_table + z_table * (1.0 - z_table) * f1 / f
        cdf = np.maximum.accumulate(np.clip(cdf, 0.0, 1.0))
        edges.append(np.interp(levels, cdf, z_table))
    return gauss_legendre(np.unique(np.concatenate(edges)), _TVD_ORDER)


def _angle_terms(a, z):
    """``A``, ``P = (A + (1 - z)A')(A - zA')`` and ``Q = z(1 - z)A''`` at ``z``,
    from one ``jet`` read."""
    f, f1, f2 = (np.asarray(v, dtype=float) for v in a.jet(z))
    return f, (f + (1.0 - z) * f1) * (f - z * f1), z * (1.0 - z) * f2


def tvd_copulas(c1, c2) -> float:
    """Total variation distance between two copula densities.

    In ``u = e^{-rz}``, ``v = e^{-r(1-z)}`` a density times its Jacobian is
    ``e^{-rA}(rP + Q)`` (see :func:`_angle_terms`), so the distance is half
    the integral over ``z`` of ``T(z) = int_0^inf |g| dr``, ``g`` the
    difference of the two.  ``g = -G'`` for ``G = F1 - F2``,
    ``F = e^{-rA}((rP + Q)/A + P/A^2)``, with ``G(0) = h1 - h2`` (the
    pseudo-angle densities) and ``G(inf) = 0``; so ``T`` is the sum of
    ``|G|``'s steps between the sign changes of ``g``, exact in ``r`` but for
    the roots.  Each root is bracketed on a fixed grid in ``r min(A1, A2)``
    and placed by one secant step; its error enters only at second order.
    No bound on the number of roots is assumed: where ``A'' < 0``,
    ``rP + Q`` itself changes sign.  In ``z`` the rule is 8-point
    Gauss-Legendre on the panels between quantiles of both pseudo-angle laws.

    Each density's mass ``sum w h`` is checked on the same rule, and a mass
    off 1 by more than ``_TVD_MASS_TOL`` raises :class:`NumericalError`.  The
    distance does not change when both copulas are reflected, so both must
    have the same survival flag.  Swapping the pair gives the same value,
    and equal models give 0.
    """
    if c1.survival != c2.survival:
        raise InputError("tvd_copulas: both copulas need the same survival flag")
    z, w = _tvd_nodes(c1.pickands, c2.pickands)
    f1, p1, q1 = _angle_terms(c1.pickands, z)
    f2, p2, q2 = _angle_terms(c2.pickands, z)
    h1 = (p1 / f1 + q1) / f1
    h2 = (p2 / f2 + q2) / f2
    for mass in (w @ h1, w @ h2):
        if not abs(mass - 1.0) <= _TVD_MASS_TOL:
            raise NumericalError(
                f"copula density integrates to {mass:.8g} on the tvd rule, "
                f"off 1 by more than {_TVD_MASS_TOL:g}")

    # on the grid r = x / m, m = min(A1, A2), e^{rm} g is the difference of
    # e^{-r(A - m)} (rP + Q) between the two models
    m = np.minimum(f1, f2)[:, None]
    r = _tvd_tables()[2] / m
    k = np.zeros_like(r)
    for f, p, q, sign in ((f1, p1, q1, 1.0), (f2, p2, q2, -1.0)):
        k += sign * np.exp(r * (m - f[:, None])) * (r * p[:, None] + q[:, None])
    up = k >= 0.0
    rows, cols = np.nonzero(up[:, 1:] != up[:, :-1])
    ka, kb = k[rows, cols], k[rows, cols + 1]
    ra, rb = r[rows, cols], r[rows, cols + 1]
    root = ra - ka * (rb - ra) / (kb - ka)
    g_root = np.zeros(rows.size)
    for f, p, q, sign in ((f1, p1, q1, 1.0), (f2, p2, q2, -1.0)):
        f, p, q = f[rows], p[rows], q[rows]
        g_root += sign * np.exp(-root * f) * (root * p + q + p / f) / f
    # steps of G row by row: G(0), G at each root, G(inf) = 0
    g0 = h1 - h2
    first = np.append(True, rows[1:] != rows[:-1])
    last = np.append(first[1:], True)
    before = np.where(first, g0[rows], np.roll(g_root, 1))
    steps = np.abs(before - g_root) + last * np.abs(g_root)
    total = np.where(np.bincount(rows, minlength=z.size) == 0,
                     np.abs(g0),  # g keeps one sign
                     np.bincount(rows, steps, minlength=z.size))
    return float(0.5 * (w @ total))


class SupnormBound(NamedTuple):
    gamma: float
    bound: float
    measured: float


def supnorm_bound_check(a1, a2) -> SupnormBound:
    """Sup-norm gap between two copulas against its Pickands-level bound.

    ``gamma`` is the sup distance between the two Pickands functions on 1000
    equispaced probes; the copula sup distance, measured on the 100 x 100
    grid of multiples of 1/101, never exceeds
    ``2 gamma / (1 + 2 gamma)^(1 + 1/(2 gamma))``.
    """
    t = np.linspace(0.0, 1.0, 1000)
    gamma = float(np.max(np.abs(np.asarray(a1(t)) - np.asarray(a2(t)))))
    if gamma == 0.0:
        bound = 0.0
    else:
        bound = 2.0 * gamma / (1.0 + 2.0 * gamma) ** (1.0 + 1.0 / (2.0 * gamma))
    g = np.arange(1, 101) / 101
    uu, vv = np.meshgrid(g, g, indexing="ij")
    c1 = EvCopula(a1).cdf(uu, vv)
    c2 = EvCopula(a2).cdf(uu, vv)
    measured = float(np.max(np.abs(c1 - c2)))
    return SupnormBound(gamma=gamma, bound=bound, measured=measured)
