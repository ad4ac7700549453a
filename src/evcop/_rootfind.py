"""Vectorized bracketed root finding for monotone scalar equations."""

from __future__ import annotations

import numpy as np


def vector_bisect(fn, lo, hi, iters: int = 60) -> np.ndarray:
    """Roots of ``fn`` (vectorized, increasing in its argument) per component.

    ``fn`` maps an array of trial points to an array of residuals; ``lo`` and
    ``hi`` must bracket a sign change componentwise, which is not checked.
    """
    lo = np.array(lo, dtype=float, copy=True)
    hi = np.array(hi, dtype=float, copy=True)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        # ties go left so plateaus of exact zeros resolve to their left edge
        take_hi = (fm >= 0)
        hi = np.where(take_hi, mid, hi)
        lo = np.where(take_hi, lo, mid)
    return 0.5 * (lo + hi)
