"""Quadrature rules shared by the spline, density and transform modules.

The Legendre rule of each order and each tensor square rule is built once,
at first use, and shared read-only by every caller.
"""

from __future__ import annotations

from functools import cache

import numpy as np


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@cache
def _legendre(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], ``npts`` of them."""
    return _read_only(*np.polynomial.legendre.leggauss(npts))


def gauss_legendre(edges, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights, ``npts`` per panel.

    ``edges`` are the panel boundaries; the flattened nodes run panel by
    panel, left to right.
    """
    edges = np.asarray(edges, dtype=float)
    xg, wg = _legendre(npts)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * (xg[None, :] + 1.0) + a
    weights = 0.5 * (b - a) * wg[None, :]
    return nodes.ravel(), weights.ravel()


@cache
def gauss_square(eps: float, npts: int):
    """Tensor Gauss-Legendre rule on ``[eps, 1 - eps]^2``, ``npts`` per side.

    Returns the node coordinates ``(u, v)`` as ``(npts, npts)`` grids and the
    matching weights, built once per ``(eps, npts)`` and read-only.
    """
    # the right edge is eps plus the exact width 1 - 2 eps: (1 - eps) - eps
    # rounds away from 1 - 2 eps at some eps (1e-6), which moves every node
    x, w = gauss_legendre([eps, eps + (1.0 - 2.0 * eps)], npts)
    u, v = np.meshgrid(x, x, indexing="ij")
    return _read_only(u, v, np.outer(w, w))


def trapezoid_weights(x) -> np.ndarray:
    """Trapezoid-rule weights for the nodes ``x`` along their last axis."""
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    d = np.diff(x, axis=-1)
    w[..., :-1] += 0.5 * d
    w[..., 1:] += 0.5 * d
    return w


def cumulative_trapezoid(x, y) -> np.ndarray:
    """Running trapezoid integral of ``y`` over the nodes ``x``, 0 at ``x[0]``."""
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(x) * (y[:-1] + y[1:]))])

