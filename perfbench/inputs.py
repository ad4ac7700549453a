"""Seeded inputs for the benchmark, made without the code under test.

The fit workloads receive samples drawn by the samplers below, not by
``EvCopula.simulate``, so a change to the program's simulator cannot change
what the fits are given.  Each sampler has its Pickands function in closed
form, which the fit checks compare the fitted model against.

Copula convention (the program's): ``C(u, v) = exp(log(uv) A(t))`` with
``t = log u / log(uv)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np


def gumbel_pickands(t, theta: float):
    """Gumbel (logistic) Pickands function ``(t^th + (1-t)^th)^(1/th)``."""
    t = np.asarray(t, dtype=float)
    return (t ** theta + (1.0 - t) ** theta) ** (1.0 / theta)


def tawn_pickands(t, theta: float, alpha: float, beta: float):
    """Asymmetric logistic (Tawn) Pickands function via Khoudraji's device.

    ``A(t) = (1-t)(1-alpha) + t(1-beta) + d A_G(t beta / d)`` with
    ``d = (1-t) alpha + t beta`` and ``A_G`` the Gumbel function; this is the
    copula ``u^(1-beta) v^(1-alpha) C_G(u^beta, v^alpha)``.
    """
    t = np.asarray(t, dtype=float)
    d = (1.0 - t) * alpha + t * beta
    return ((1.0 - t) * (1.0 - alpha) + t * (1.0 - beta)
            + d * gumbel_pickands(t * beta / d, theta))


def sample_gumbel(rng: np.random.Generator, n: int, theta: float) -> np.ndarray:
    """Gumbel copula pairs by positive-stable frailty (Marshall-Olkin).

    ``S`` is positive stable with Laplace transform ``exp(-s^(1/theta))``,
    drawn by the Chambers-Mallows-Stuck (Kanter) formula; then
    ``U = exp(-(E1/S)^(1/theta))`` and likewise ``V``.
    """
    if theta == 1.0:
        return rng.random((n, 2))
    a = 1.0 / theta
    w = rng.uniform(0.0, np.pi, n)
    e = rng.exponential(size=n)
    s = (np.sin(a * w) / np.sin(w) ** (1.0 / a)
         * (np.sin((1.0 - a) * w) / e) ** ((1.0 - a) / a))
    e12 = rng.exponential(size=(n, 2))
    return np.exp(-(e12 / s[:, None]) ** a)


def sample_tawn(rng: np.random.Generator, n: int, theta: float,
                alpha: float, beta: float) -> np.ndarray:
    """Pairs of :func:`tawn_pickands` by Khoudraji's max-construction."""
    g = sample_gumbel(rng, n, theta)
    r = rng.random((n, 2))
    u = np.maximum(g[:, 0] ** (1.0 / beta), r[:, 0] ** (1.0 / (1.0 - beta)))
    v = np.maximum(g[:, 1] ** (1.0 / alpha), r[:, 1] ** (1.0 / (1.0 - alpha)))
    return np.column_stack([u, v])


@dataclass(frozen=True)
class Structure:
    """A dependence structure the fit workloads cycle through."""

    name: str
    sample: Callable[[np.random.Generator, int], np.ndarray]
    pickands: Callable[[np.ndarray], np.ndarray]


# Independence, weak to strong symmetric dependence, and one asymmetric case
# whose pseudo-angle mode lies left of 1/2, so the fit takes the flip branch
# and mirrors its tabulated model.
FIT_STRUCTURES = (
    Structure("independence", lambda rng, n: rng.random((n, 2)),
              lambda t: np.ones_like(np.asarray(t, dtype=float))),
    Structure("gumbel-1.5", lambda rng, n: sample_gumbel(rng, n, 1.5),
              lambda t: gumbel_pickands(t, 1.5)),
    Structure("gumbel-3", lambda rng, n: sample_gumbel(rng, n, 3.0),
              lambda t: gumbel_pickands(t, 3.0)),
    Structure("gumbel-8", lambda rng, n: sample_gumbel(rng, n, 8.0),
              lambda t: gumbel_pickands(t, 8.0)),
    Structure("tawn-3-0.6-0.9", lambda rng, n: sample_tawn(rng, n, 3.0, 0.6, 0.9),
              lambda t: tawn_pickands(t, 3.0, 0.6, 0.9)),
)


def op_rng(seed: int, stream: int, op: int) -> np.random.Generator:
    """Independent generator for one op of one workload."""
    return np.random.default_rng(np.random.SeedSequence([seed, stream, op]))


def write_pairs_csv(path, data: np.ndarray) -> None:
    """Two-column CSV with a ``u,v`` header and round-trip precision."""
    np.savetxt(path, data, delimiter=",", fmt="%.17g", header="u,v",
               comments="")


# Model files of the model-read workload: the 13-function cubic basis on 10
# uniform interior knots (the basis random models use), center applied.
MODEL_KNOTS = tuple(float(k) for k in np.linspace(0.0, 1.0, 12)[1:-1])
MODEL_DIM = 13
# The study's default prior radius R: theta norms are spread over [0, R].
MODEL_RADIUS = 5.0


def model_doc(rng: np.random.Generator, stratum: int, n_strata: int,
              flipped: bool) -> dict:
    """A model JSON whose theta norm lies in stratum ``stratum`` of [0, R]."""
    direction = rng.standard_normal(MODEL_DIM)
    direction /= np.linalg.norm(direction)
    radius = MODEL_RADIUS * (stratum + rng.random()) / n_strata
    return {
        "version": 1,
        "degree": 3,
        "knots": list(MODEL_KNOTS),
        "theta": [float(v) for v in radius * direction],
        "center_applied": True,
        "flipped": bool(flipped),
        "lambda": 1e-4,
    }


def study_spec(seed: int, count: int) -> dict:
    """A tvd study spec: ``count`` random models, sizes 250 and 1000."""
    return {
        "study": "tvd",
        "seed": int(seed),
        "sample_sizes": [250, 1000],
        "replications": 1,
        "random_evc": {"lambda": 1e-4, "R": MODEL_RADIUS, "dim": MODEL_DIM,
                       "count": int(count)},
        "fit": {"dim": MODEL_DIM, "lambda": 1e-4, "grid_k": 78},
    }


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
