"""Quadrature rules shared by the spline, density and transform modules."""

from __future__ import annotations

import numpy as np


def gauss_legendre(edges, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights, ``npts`` per panel.

    ``edges`` are the panel boundaries; the flattened nodes run panel by
    panel, left to right.
    """
    edges = np.asarray(edges, dtype=float)
    xg, wg = np.polynomial.legendre.leggauss(npts)
    a = edges[:-1][:, None]
    b = edges[1:][:, None]
    nodes = 0.5 * (b - a) * (xg[None, :] + 1.0) + a
    weights = 0.5 * (b - a) * wg[None, :]
    return nodes.ravel(), weights.ravel()


def trapezoid_weights(x) -> np.ndarray:
    """Trapezoid-rule weights for the nodes ``x`` along their last axis."""
    x = np.asarray(x, dtype=float)
    w = np.zeros_like(x)
    d = np.diff(x, axis=-1)
    w[..., :-1] += 0.5 * d
    w[..., 1:] += 0.5 * d
    return w


def norm_grid(knots) -> np.ndarray:
    """Trapezoid grid normalizing spline densities: 512 uniform nodes plus knots."""
    return np.unique(np.concatenate([np.linspace(0.0, 1.0, 512),
                                     np.asarray(knots, dtype=float)]))
