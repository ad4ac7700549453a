"""Machine-speed reference for the time metrics.

The benchmark runs on shared hosts whose speed swings by 2x for seconds to
minutes at a time: on a 2-vCPU host one fixed n=1000 fit took 134 ms in one
minute and 357 ms in another, with the process never waiting for a CPU, so
raw wall times of two runs are not comparable.  A fixed reference
computation, which uses numpy and scipy but not evcop, is timed before the
first op and after every op.  An op's time is divided by its slowdown, the
mean of the reference times on either side of it over ``REFERENCE_S``; a
set-up time by the run's median slowdown.  In ten 40-second fit-1k runs on
that host the raw median latency ranged from 256 to 350 ms (interquartile
range 12% of the median) and the scaled one spread by 3.6%.  A change to
evcop cannot move the reference, so a gain or a regression in the program
shows in full.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
from scipy.interpolate import BPoly

# Nominal time of one reference computation: about its time on an unloaded
# 2-vCPU Xeon host at 2.0 GHz.
REFERENCE_S = 0.010

_X = np.linspace(0.0, 1.0, 120)
_Y = np.column_stack([np.sin(_X), np.cos(_X), -np.sin(_X)])
_P = np.linspace(0.0, 1.0, 20001)


def reference_work() -> float:
    """A fixed mix like the program's: a Python loop, numpy and scipy calls."""
    rows = [[float(a), float(b), float(c)] for a, b, c in _Y]
    values = BPoly.from_derivatives(_X, rows)(_P)
    idx = np.clip(np.searchsorted(_X, _P, side="right") - 1, 0, _X.size - 2)
    total = np.bincount(idx, weights=np.log1p(values * values), minlength=_X.size)
    acc = 0.0
    for k in range(3000):
        acc += k * 0.5
    return float(total.sum()) + acc


class SpeedProbe:
    """Collects reference times during a run and turns them into a scale."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        """Time one reference computation, keep it and return it."""
        start = time.perf_counter()
        reference_work()
        self.samples.append(time.perf_counter() - start)
        return self.samples[-1]

    def slowdown(self) -> float:
        """How much slower than nominal the host ran: divide times by this."""
        return statistics.median(self.samples) / REFERENCE_S
