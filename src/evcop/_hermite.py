"""Piecewise polynomials in Bernstein form: the quintic Hermite tables and
the spline pieces.

:class:`PiecewiseBernstein` holds a polynomial of any degree per piece.  It
serves the quintic Hermite interpolators of the W and A tables, built here,
and the spline log-densities of :class:`evcop.bayes.ClrDensity` (cubic
by default, of any degree), whose pieces come from
:meth:`evcop.splinebasis.ZBasis.spline`.

On a piece ``[x0, x1]`` of width ``h`` the quintic with values ``y``, first
derivatives ``y'`` and second derivatives ``y''`` given at both ends has the
Bernstein coefficients

    c0 = y0
    c1 = y0 + h y0' / 5
    c2 = y0 + 2 h y0' / 5 + h^2 y0'' / 20
    c3 = y1 - 2 h y1' / 5 + h^2 y1'' / 20
    c4 = y1 - h y1' / 5
    c5 = y1

so every piece is built at once from the node arrays.  A non-finite
derivative imposes no constraint at its node, and a non-finite first
derivative drops the second one there too.  Only the pieces touching such a
node (the sentinels at the ends of the W and A tables) are built apart, by
:func:`_sentinel_piece`: at the lowest degree that meets their constraints,
then raised to degree five.

:class:`PiecewiseBernstein` evaluates the result, or its first or second
derivative, with numpy alone: a binary search for the piece, then Horner's
rule on the piece's Taylor coefficients about its left end; ``jet`` reads
all three after one search.  The three Taylor tables are formed together,
once per interpolator, and the integral over all pieces is read off the
Bernstein coefficients.
"""

from __future__ import annotations

from functools import cached_property
from math import comb, perm

import numpy as np


class PiecewiseBernstein:
    """Piecewise polynomial with Bernstein coefficients ``c`` on breakpoints ``x``.

    ``c`` has shape ``(degree + 1, len(x) - 1)``; column ``i`` holds the piece
    on ``[x[i], x[i + 1]]``.  Points outside ``[x[0], x[-1]]`` are extrapolated
    from the end pieces and NaN evaluates to NaN.  One object answers every
    read of a table: values, first and second derivatives, and the integral.
    """

    def __init__(self, c: np.ndarray, x: np.ndarray):
        self.c = c
        self.x = x

    @cached_property
    def _taylor(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Taylor coefficients about each piece's left end, highest power first.

        Entry ``nu`` is the table of the ``nu``-th derivative.  Row ``k - j``
        of the value table holds the coefficients of ``(t - x[i])**j``:
        ``comb(k, j)`` times the ``j``-th forward difference of the Bernstein
        coefficients, over ``h**j``.  Each derivative's table is the one
        before it with its last row dropped and each row scaled by its power.
        """
        k = self.c.shape[0] - 1
        h = np.diff(self.x)
        rows, d = [], self.c
        for j in range(k + 1):
            rows.append(comb(k, j) * d[0] / h ** j)
            d = np.diff(d, axis=0)
        value = np.stack(rows[::-1])
        first = value[:-1] * np.arange(k, 0, -1.0)[:, None]
        second = first[:-1] * np.arange(k - 1, 0, -1.0)[:, None]
        return value, first, second

    def _locate(self, t):
        """Piece index of each ``t`` and its offset from the piece's left end."""
        t = np.asarray(t, dtype=float)
        i = np.searchsorted(self.x[1:-1], t, side="right")
        return i, t - self.x[i]

    @staticmethod
    def _horner(table, i, dt):
        a = table.take(i, axis=1)
        r = a[0]
        for row in a[1:]:
            r = r * dt
            r += row
        return r

    def __call__(self, t, nu: int = 0):
        """The ``nu``-th derivative (``nu <= 2``) at ``t``, of any shape."""
        return self._horner(self._taylor[nu], *self._locate(t))

    def jet(self, t):
        """Value, first and second derivative at ``t`` from one piece search,
        each equal to its own ``__call__`` bit for bit."""
        i, dt = self._locate(t)
        return tuple(self._horner(table, i, dt) for table in self._taylor)

    def integrate(self) -> float:
        """Integral over ``[x[0], x[-1]]``: each piece's width times the mean
        of its Bernstein coefficients, which is exact."""
        return float(np.diff(self.x) @ self.c.mean(axis=0))


def _sentinel_piece(x, ya, yb) -> np.ndarray:
    """Degree-five Bernstein coefficients of one lower-degree Hermite piece.

    The polynomial on ``[x[0], x[1]]`` of the lowest degree with values and
    derivatives ``ya`` at ``x[0]`` and ``yb`` at ``x[1]``, built in the
    operation order of the reference construction (scipy's
    ``BPoly.from_derivatives``), so that the coefficients match its own to
    the last bit.
    """
    n = len(ya) + len(yb)
    h = x[1] - x[0]
    c = np.empty(n)
    for q, y in enumerate(ya):
        c[q] = y / perm(n - 1, q) * h ** q
        for j in range(q):
            c[q] -= (-1) ** (j + q) * comb(q, j) * c[j]
    for q, y in enumerate(yb):
        c[-q - 1] = y / perm(n - 1, q) * (-1) ** q * h ** q
        for j in range(q):
            c[-q - 1] -= (-1) ** (j + 1) * comb(q, j + 1) * c[-q + j]
    # raise the degree: b_{a,k} = comb(k, a) sum_j comb(5-k, j)
    # b_{a+j,5} / comb(5, a+j)
    out = np.zeros(6)
    for a in range(n):
        f = c[a] * comb(n - 1, a)
        for j in range(7 - n):
            out[a + j] += f * comb(6 - n, j) / comb(5, a + j)
    return out


def hermite_interpolator(x, values, d1, d2) -> PiecewiseBernstein:
    """C2 piecewise quintic through ``(x, values)`` with derivatives ``d1``, ``d2``.

    Non-finite entries of ``d1`` or ``d2`` impose no constraint; the pieces
    next to them are of lower degree (stored at degree five).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(values, dtype=float)
    d1 = np.asarray(d1, dtype=float)
    d2 = np.asarray(d2, dtype=float)
    h = np.diff(x)
    h2 = h ** 2
    c = np.empty((6, h.size))
    # the operation order of ``from_derivatives``, so that the coefficients
    # match its own to the last bit
    with np.errstate(invalid="ignore"):
        c[0] = y[:-1]
        c[1] = d1[:-1] / 5.0 * h + c[0]
        c[2] = d2[:-1] / 20.0 * h2 - c[0] + 2.0 * c[1]
        c[5] = y[1:]
        c[4] = -(d1[1:] / 5.0) * h + c[5]
        c[3] = d2[1:] / 20.0 * h2 + 2.0 * c[4] - c[5]
    # constraints per node: the value, then d1 and d2 while they are finite
    order = 1 + np.isfinite(d1) * (1 + np.isfinite(d2))
    for i in np.flatnonzero(np.minimum(order[:-1], order[1:]) < 3):
        ya, yb = ([y[j], d1[j], d2[j]][:order[j]] for j in (i, i + 1))
        c[:, i] = _sentinel_piece(x[i:i + 2], ya, yb)
    return PiecewiseBernstein(c, x)
