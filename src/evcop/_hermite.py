"""Piecewise quintic Hermite interpolation in Bernstein form.

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
node (the sentinels at the ends of the W and A tables) are built apart: at
the lower degree by :meth:`scipy.interpolate.BPoly.from_derivatives` on their
one interval, then raised to degree five.
"""

from __future__ import annotations

from math import comb

import numpy as np
from scipy.interpolate import BPoly


def _raise_degree(c, degree: int) -> np.ndarray:
    """Bernstein coefficients ``c`` of one polynomial, re-expressed at ``degree``.

    The same arithmetic as the degree raising inside ``from_derivatives``.
    """
    k = c.size - 1
    out = np.zeros(degree + 1)
    for a in range(k + 1):
        f = c[a] * comb(k, a)
        for j in range(degree - k + 1):
            out[a + j] += f * comb(degree - k, j) / comb(degree, a + j)
    return out


def hermite_interpolator(x, values, d1, d2) -> BPoly:
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
        rows = [[y[j], d1[j], d2[j]][:order[j]] for j in (i, i + 1)]
        piece = BPoly.from_derivatives(x[i:i + 2], rows).c[:, 0]
        c[:, i] = _raise_degree(piece, 5)
    return BPoly(c, x)
