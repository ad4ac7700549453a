"""Estimation pipeline for spline-parameterized extreme-value copulas.

The copula sample is reduced to the univariate pseudo-angles
``z_i = log u_i / log(u_i v_i)`` whose density is a smooth functional of the
Pickands function.  A fixed interpolation grid (built once from a
nonparametric pilot estimate) lets the whole chain

    coefficients -> density -> Williamson transform -> Pickands -> z-density

be evaluated as plain array arithmetic, so the penalized log-likelihood and
its exact reverse-mode (adjoint) gradient are cheap enough for quasi-Newton
optimization: the adjoint sweep reuses the forward sweep's intermediates in
the closed-form partials of the z-density in ``(W, W', W'')``.  The
pseudo-angles are sorted once, when the objective is set up; the z-density
is linear between the grid's knots, so each evaluation locates the data
with one search per knot, and the gradient of the data term reduces to two
sums per knot segment (``S0`` and ``S1``, see :func:`_loss_and_grad`).  An
evaluation costs about a hundred numpy calls on arrays of the grid's size
whatever the sample size, so it is written to make few of them; every
value and gradient keeps the operation order of the plain formulas, to the
last bit, because the optimizer's path hinges on last bits.  A fit keeps
no state between evaluations: every array an evaluation makes is fresh,
and the objects set-up built are never written.  The objective and the
tabulation of fitted models (:func:`pipeline_pickands`) are one construction:
both run the Williamson kernel, divide the transform by its W(0+) mass and
map each grid node through the affine link.  The objective does so on the
fitting grid, the tabulation on :func:`evcop.williamson.default_w_nodes`,
where the saved model reads ``A`` at the link images without inverting W.
Every fit, of a copula or of a density, whitens its ``value_and_grad`` by
the penalty and descends it (:func:`_maximize`) by :func:`minimize`,
L-BFGS-B without bounds that keeps every curvature pair since its last
restart and evaluates no point twice in a line search.  Only one trial step
differs: in a bracket that straddles a kink the search tries where the end
tangents meet (:func:`_kink_step`), not Moré and Thuente's cubic.  The
fitted model's data term is evaluated once more, without gradient, at the
maximizer.  A copula fit sorts its sample once; the flip heuristic, the
pilot grid and the likelihood read the sorted values.

The optimizer is one generator, :func:`_descent`, that yields the points
it needs evaluated.  :func:`minimize` drives one descent with a function:
a lone fit (:func:`optimize`, the univariate fit).  :func:`optimize_many`
drives the descents of many copula fits in lockstep
(:func:`_descend_together`), as a simulation study's runs are fitted: each
round evaluates the next point of every open fit in one objective pass on
a stack of pipelines (:meth:`_HhatPipeline.stack`), one per grid size.  An
evaluation at n = 1000 is mostly the fixed cost of about a hundred numpy
calls, which a pass shares.  The pass keeps each fit's BLAS products, dot
products, sums and penalty per fit, so every fit takes the steps and
returns the bits it does alone.
"""

from __future__ import annotations

import logging
import math
from itertools import islice
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bayes import ClrDensity, mass_rule
from .errors import (_BASIS_DIM, _BOUNDS, _COUNT, _LAM, _RADIUS, _SAMPLE_SIZE,
                     EvcopError, InputError, NumericalError, _as_bool,
                     _at_least, integer, read_field, real)
from .families import cfg_estimator
from .pickands import (
    PickandsModel,
    mirror,
    rotate,
)
from .splinebasis import (
    KnotConfig,
    ZBasis,
    ascending,
    build_zb_basis,
    curvature_matrix,
    project_center,
    quantile_knots,
    sorted_quantiles,
)
from .williamson import (
    WilliamsonGrid,
    WilliamsonKernel,
    default_kernel,
    normalize_w,
    williamson_from_density,
)

logger = logging.getLogger("evcop")

__all__ = [
    "FitConfig",
    "FittedModel",
    "z_transform",
    "empirical_w_grid",
    "PenalizedLikelihood",
    "optimize",
    "optimize_many",
    "ordering_heuristic",
    "fit_univariate_density",
    "UnivariateDensityFit",
    "mcmc_sample",
    "random_pickands",
    "pipeline_pickands",
    "model_to_dict",
    "model_from_dict",
]

_LOG_FLOOR = 1e-12
_EXP_CLIP = 300.0
# spline degree of every fitted basis (the degree quantile_knots returns)
_DEGREE = 3
# interior nodes of the fitting grid (grid size _GRID_K + 2)
_GRID_K = 78
# L-BFGS-B's iteration cap and projected-gradient stop; the gradient bound
# also counts a run as converged when the optimizer stops for another reason
_MAX_ITER = 500
_GRAD_TOL = 1e-4
# L-BFGS-B's other settings, without bounds: evaluations per line search,
# the relative-reduction stop, the largest step, and Moré-Thuente's
# sufficient-decrease, curvature and interval-width constants
_MAXLS = 20
_REL_TOL = 1e-13
_STPMAX = 1e10
_LS_FTOL, _LS_GTOL, _LS_XTOL = 1e-3, 0.9, 0.1
# a bracket straddles a kink when its end tangents meet within 1/2 - _KINK
# of an end (in units of its width); the trial there stays _KINK_MARGIN
# inside the bracket
_KINK, _KINK_MARGIN = 0.35, 0.01
_EPS = float(np.finfo(float).eps)
# edges of the flip heuristic's 32 histogram bins on [0, 1]
_BIN_EDGES = np.arange(33) / 32.0


def _penalty_whitener(omega: np.ndarray, lam: float) -> np.ndarray:
    """Symmetric map making the penalized objective well conditioned.

    Optimizing in ``phi`` with ``theta = S phi`` where
    ``S = (I + 2 lam Omega)^(-1/2)`` flattens the huge spread between
    penalized (stiff) and unpenalized spline directions.
    """
    evals, evecs = np.linalg.eigh(omega)
    scale = 1.0 / np.sqrt(1.0 + 2.0 * lam * np.clip(evals, 0.0, None))
    return (evecs * scale) @ evecs.T


@dataclass(frozen=True)
class FitConfig:
    """Settings of a copula fit.

    ``lam`` is the curvature penalty weight.  ``flip`` fixes whether the
    variable ordering is swapped; ``None`` lets :func:`ordering_heuristic`
    decide.
    """

    basis_dim: int = 13
    lam: float = 1e-4
    flip: bool | None = None

    def __post_init__(self):
        _LAM(self.lam)
        _BASIS_DIM(self.basis_dim)


def z_transform(sample) -> np.ndarray:
    """Pseudo-angles ``z = log u / log(uv)`` of a copula sample.

    Rows with a coordinate at 0 or 1 are dropped with a warning: the
    transform is undefined there.
    """
    uv = np.asarray(sample, dtype=float)
    if uv.ndim != 2 or uv.shape[1] != 2:
        raise InputError("sample must be an (n, 2) array")
    ok = np.all((uv > 0.0) & (uv < 1.0), axis=1)
    if not np.all(ok):
        logger.warning("z_transform: dropping %d rows with coordinates at 0 or 1",
                       int(np.sum(~ok)))
    uv = uv[ok]
    if uv.shape[0] == 0:
        raise InputError("no valid rows after dropping boundary coordinates")
    lu = np.log(uv[:, 0])
    lv = np.log(uv[:, 1])
    return lu / (lu + lv)


def ordering_heuristic(z_sample) -> bool:
    """Whether to swap the variable ordering before fitting.

    The mode of the pseudo-angle histogram (32 equal bins) sitting left of
    1/2 indicates the steep part of the transform would land near 0; flipping
    ``z -> 1 - z`` (and mirroring the fitted Pickands function afterwards)
    avoids it.  Ties break toward not flipping.  The bins are counted as
    ``np.histogram(z, 32, (0, 1))`` counts them, by one search on the
    sorted sample (:func:`evcop.splinebasis.ascending`): bin ``j`` holds
    ``j/32 <= z < (j + 1)/32``, the last one also ``z = 1``, and values
    outside [0, 1] are left out.
    """
    z = np.asarray(z_sample, dtype=float)
    if z.size == 0:
        raise InputError("empty sample")
    zs = ascending(z.ravel())
    below = zs.searchsorted(_BIN_EDGES, side="left")
    below[-1] = zs.searchsorted(1.0, side="right")
    counts = below[1:] - below[:-1]
    # the rightmost modal bin lies left of 1/2 when the left half's largest
    # count beats the right half's
    return bool(counts[:16].max() > counts[16:].max())


def empirical_w_grid(z_sample, k: int) -> np.ndarray:
    """Interpolation grid in the transform domain from a pilot estimate.

    Uniform sample quantiles ``q_i`` are pushed through
    ``x_i = q_i + A_pilot(q_i) - 1`` with the nonparametric pilot from
    :func:`evcop.families.cfg_estimator`, so that grid images under the
    fitted model roughly follow the sample.
    """
    z = np.asarray(z_sample, dtype=float)
    _at_least("k", 2)(k)
    if z.size == 0:
        raise InputError("empty sample")
    # the pilot reads the sample only through its sorted values
    zs = ascending(z.ravel())
    q = sorted_quantiles(zs, np.arange(1, k + 1) / (k + 1))
    x = q + cfg_estimator(zs, q) - 1.0
    x = np.clip(x, 1e-9, 1.0 - 1e-9)
    keep = [x[0]]
    for xi in x[1:]:
        if xi >= keep[-1] + 1e-6:
            keep.append(xi)
    x = np.asarray(keep)
    x = x[x <= 1.0 - 1e-6]
    if x.size < 2:
        raise InputError("interpolation grid degenerate after de-duplication")
    return np.concatenate([[0.0], x, [1.0]])


class _HhatPipeline:
    """Precomputed design matrices for the coefficient-to-z-density chain.

    The basis is evaluated once at the quadrature nodes of the Williamson
    kernel on the grid; per-iteration work is array arithmetic on the grid.
    The forward pass takes the normalized ``(W, W', W'')`` at the interior
    nodes, where ``W'`` is finite, straight to the knots ``(t, h)``, rounding
    as :func:`evcop.pickands.link` and :func:`evcop.pickands.h_formula` do
    (which also serve the endpoint limits of :func:`evcop.pickands.rotate`).
    The exact gradient is one reverse (adjoint) sweep: closed-form partials
    of ``h`` in ``(W, W', W'')`` built from the forward pass's arrays, the
    kernel's transpose and one product with the design matrix.

    The constructor builds one fit's pipeline; :meth:`stack` joins the
    pipelines of several fits whose grids and bases have one size, and
    every array of a stack's passes carries a leading fit axis.  One set
    of formulas serves both: the elementwise passes, the kernel and its
    transpose run once for a whole stack, while the products with each
    fit's design matrix and the dot products over a grid (``matvec``,
    ``vecmat`` and ``vecdot`` make the BLAS calls ``@`` makes for one fit)
    sum per fit, so each fit's knots and gradient in a stack are those of
    its own pipeline, to the last bit.  A lone fit's per-fit values (its
    W(0+) mass, the mass of its z-density) are numpy scalars, which numpy
    takes several times faster than one-element arrays.

    The pipeline holds no data and no buffer: :func:`_loss_and_grad` passes
    it the cotangents of the knots, and everything :meth:`sweep` returns,
    and everything a pullback reads, is fresh on every call.
    """

    def __init__(self, basis: ZBasis, x_grid: np.ndarray):
        self.kernel = WilliamsonKernel(x_grid)
        self.m = self.kernel.x_in.size
        self.B = basis.evaluate(self.kernel.nodes.ravel())
        self._half_xp = 0.5 * (1.0 + self.kernel.x_in)
        self._knots_shape = (3, self.m + 2)

    @classmethod
    def stack(cls, pipes) -> _HhatPipeline:
        """One pipeline for several fits whose grids and bases have one size."""
        out = cls.__new__(cls)
        out.kernel = WilliamsonKernel.stack([p.kernel for p in pipes])
        out.m = pipes[0].m
        out.B = np.stack([p.B for p in pipes])
        out._half_xp = np.stack([p._half_xp for p in pipes])
        out._knots_shape = (3, len(pipes), out.m + 2)
        return out

    def sweep(self, theta: np.ndarray):
        """Knots ``(t, h)`` of the z-density, their mass and a pullback.

        ``theta`` must be a float array, of shape (dim,) for one fit's
        pipeline and (fits, dim) for a stack, whose outputs gain the same
        leading axis.  Returns ``(knots, I_h, pullback)``, fresh on every
        call.  Rows 0 and 1 of the block ``knots``, (3, m + 2) for one fit,
        are ``t_full`` and ``h_full``; row 2 is zero, free for the caller
        (:func:`_loss_and_grad` writes the segment slopes there).
        ``pullback(gt, gh)`` maps cotangents of ``t_full[..., 1:-1]`` and
        ``h_full[..., 1:-1]`` to the gradient in ``theta``.
        """
        p = np.matvec(self.B, theta)
        # exponentials clipped at +-_EXP_CLIP are constant in theta; a call
        # that clips none skips the clip and the zeroing of their gradient
        clip = np.maximum.reduce(np.abs(p), axis=None) >= _EXP_CLIP
        e = np.exp(p.clip(-_EXP_CLIP, _EXP_CLIP) if clip else p)
        kernel = self.kernel
        # dividing by the W(0+) mass, as normalize_w does for tabulated
        # models, also normalizes the density: the kernel is linear
        w, wp, wpp, _, c = kernel(e.reshape(kernel.nodes.shape))
        c_col = _column(c)
        Wp = wp / c_col
        # the affine link and the z-density in the operation order of link
        # and h_formula, so that the knots round as the saved model's do;
        # scaling by powers of 2 is exact, so W/2 = w/(2c) and 4 W'' / d^3
        # = (wpp / (c/4)) / d^3 to the last bit
        dn = 1.0 - Wp                             # 1/d, d = 1/(1 - W')
        ap = (1.0 + Wp) / dn                      # A'
        dn3 = dn ** 3
        app = wpp / (0.25 * c_col) / dn3          # A''
        half_w = w / (2.0 * c_col)
        knots = np.zeros(self._knots_shape)
        # rows by index: unpacking iterates, at several times the cost
        t_full, h_full = knots[0], knots[1]
        t_full[..., -1] = 1.0
        t = np.subtract(self._half_xp, half_w, out=t_full[..., 1:-1])
        a = self._half_xp + half_w                # A
        r = ap / a
        q = 1.0 - 2.0 * t                         # W - x
        tt = t * (1.0 - t)
        s = app / a
        u = s - r * r
        h = np.add(1.0 + q * r, tt * u, out=h_full[..., 1:-1])
        # trapezoid weights of the interior knots; h is 0 at both ends
        I_h = np.vecdot(0.5 * (t_full[..., 2:] - t_full[..., :-2]), h)

        def pullback(gt, gh):
            # h = 1 + q r + t(1 - t)(s - r^2) in q = W - x, r = A'/A and
            # s = A''/A, with t = (1 - q)/2, A = (1 + x + W)/2,
            # A' = 2d - 1 and A'' = 4 W'' d^3
            gq = gh * (r - 0.5 * q * u)
            gr = gh * (q - 2.0 * tt * r)
            gs = gh * tt
            gs_s = gs * s
            gW = gq - 0.5 * ((gr * r + gs_s) / a + gt)
            gWp = (2.0 * gr / (a * dn) + 3.0 * gs_s) / dn
            gWpp = 4.0 * gs / (a * dn3)
            # the division by c, which is linear: the sweep runs on c times
            # the cotangents of the unnormalized (w, wp, wpp).  wp is the
            # kernel's reversed view: a dot product with wp sums in that
            # order, and a contiguous copy would sum in another and change
            # last bits
            gc = -(np.vecdot(gW, w) + np.vecdot(gWp, wp)
                   + np.vecdot(gWpp, wpp)) / c
            gfv = kernel.transpose(gW, gWp, gWpp, gc)
            # clipped exponentials are constant in theta
            gfv = gfv.reshape(e.shape) * e
            if clip:
                gfv[np.abs(p) >= _EXP_CLIP] = 0.0
            return np.vecmat(gfv, self.B) / c_col

        return knots, I_h, pullback


def _column(values):
    """Per-fit values shaped to broadcast against arrays with a fit axis.

    A stack's (fits,) array becomes a column; a lone fit's scalar stays.
    """
    return values[:, None] if isinstance(values, np.ndarray) else values


def _loss_and_grad(pipe: _HhatPipeline, z, theta: np.ndarray,
                   want_grad: bool):
    """Data term ``sum log h_hat(z_i)`` at ``theta`` and, if wanted, its gradient.

    ``z`` must be sorted ascending and not empty (:class:`PenalizedLikelihood`
    sorts it once) and ``theta`` a float array.  For a stacked pipeline,
    ``z`` holds each fit's sample and ``theta`` has shape (fits, dim); the
    data terms come as a list and the gradients as rows.  The z-density is
    linear on each knot segment ``[t_j, t_{j+1})``, ``h = h_j + beta_j (z -
    t_j)``, so the segments are located by one search per knot, not per
    observation.  An observation at ``t_j`` belongs to segment ``j``; the
    end segments take anything beyond ``[0, 1]``.  The gradient needs only
    ``S0_j``, the sum of ``1 / h``, and ``S1_j``, the sum of ``(z - t_j) /
    h``, over the live observations of each segment (``h_hat`` above the
    log floor): the knot cotangents follow from them in arithmetic on the
    grid, and the pipeline's adjoint sweep (closed-form partials of ``h``
    in ``(W, W', W'')``) carries them to ``theta``.  The objective has
    kinks where an observation meets a moving knot; the gradient is exact
    between them.

    A stack's observations are laid end to end, so one expansion of the
    knots, the passes over the observations and one segment reduction
    serve all its fits; the searches, and each data term's sum over the
    fit's own observations, run per fit, as for a lone fit.  Every array a
    call makes is fresh, so calls share nothing.  The floor and the zero
    sums of empty segments cost array passes only on the calls that need
    them.
    """
    knots, I_h, pullback = pipe.sweep(theta)
    lone = theta.ndim == 1
    I_h = max(I_h, 1e-300) if lone else np.maximum(I_h, 1e-300)
    t_full, h_full, beta = knots[0], knots[1], knots[2]
    # per fit: the start of each segment in its sample, then the sample's
    # size twice, so that its end knot expands to no observation; column 0
    # stays 0
    bounds = np.zeros((*t_full.shape[:-1], t_full.shape[-1] + 1),
                      dtype=np.intp)
    for row, z_f, t_f in ((bounds, z, t_full),) if lone \
            else zip(bounds, z, t_full):
        row[1:-2] = z_f.searchsorted(t_f[1:-1], side="left")
        row[-2:] = z_f.size
    sizes = z.size if lone else bounds[:, -1]
    seg_starts = bounds[:-2]
    if not lone:
        # the same bounds in the samples laid end to end
        bounds = bounds + (np.add.accumulate(sizes) - sizes)[:, None]
        seg_starts = bounds[:, :-2].ravel()
        z = np.concatenate(z)
    counts = bounds[..., 1:] - bounds[..., :-1]
    delta = t_full[..., 1:] - t_full[..., :-1]
    np.divide(h_full[..., 1:] - h_full[..., :-1], delta, out=beta[..., :-1])
    # one expansion of (t_j, h_j, beta_j) to the observations; the passes
    # over them then run in place in its rows: at large n each fresh array
    # costs more in page faults than its arithmetic
    per_obs = knots.reshape(3, -1).repeat(counts.ravel(), axis=1)
    dz, hhat, raw = per_obs[0], per_obs[1], per_obs[2]
    np.subtract(z, dz, out=dz)
    raw *= dz
    raw += hhat
    # division by I_h > 0 keeps the order, so no fit floors an h_hat or
    # has a raw value below 1e-300 when the least raw value is 1e-300 or
    # more and, over the largest I_h, above the floor.  Else every fit takes
    # the floor step, which changes nothing where nothing is floored
    low = np.minimum.reduce(raw)
    floored = not (low >= 1e-300
                   and low / (I_h if lone else np.maximum.reduce(I_h))
                   > _LOG_FLOOR)
    np.divide(raw, I_h if lone else I_h.repeat(sizes), out=hhat)
    if floored:
        live = hhat > _LOG_FLOOR
        np.maximum(hhat, _LOG_FLOOR, out=hhat)
    np.log(hhat, out=hhat)
    if lone:
        ll = float(np.add.reduce(hhat))
    else:
        ends = bounds[:, -1].tolist()
        ll = [float(np.add.reduce(hhat[a:b]))
              for a, b in zip([0] + ends, ends)]
    if not want_grad:
        return ll, None

    if floored:
        inv_raw = np.divide(live, np.maximum(raw, 1e-300, out=raw), out=raw)
        n_live = np.count_nonzero(live) if lone \
            else np.add.reduceat(live, bounds[:, 0])
    else:
        inv_raw = np.divide(1.0, raw, out=raw)
        n_live = sizes
    dz *= inv_raw
    # rows (S0, S1) from one reduction over the rows (1/h, (z - t)/h).
    # reduceat sums each start up to the next one, so when a segment is
    # empty only the others are passed, and the empty ones keep zero sums
    if np.count_nonzero(counts) == seg_starts.size:
        sums = np.add.reduceat(per_obs[::-2], seg_starts, axis=1)
    else:
        full = counts[..., :-1].ravel() > 0
        sums = np.zeros((2, seg_starts.size))
        sums[:, full] = np.add.reduceat(per_obs[::-2], seg_starts[full],
                                        axis=1)
    if not lone:
        sums.shape = (2, *delta.shape)
    # segment j sends a_j to h_j, b_j to h_{j+1}, -beta_j a_j to t_j and
    # -beta_j b_j to t_{j+1}; the end knots are pinned.  The data give
    # a_j = S0_j - q_j and b_j = q_j = S1_j / delta_j; the trapezoid mass
    # I_h = sum_j delta_j (h_j + h_{j+1}) / 2, whose cotangent is minus the
    # live count over I_h, adds that times delta_j / 2 to both.  In place,
    # the rows (S0, S1) become (a, b).
    sums[1] /= delta
    sums[0] -= sums[1]
    sums += _column(-0.5 * n_live / I_h) * delta
    gh = sums[0, ..., 1:] + sums[1, ..., :-1]
    sums *= beta[..., :-1]
    gt = -(sums[0, ..., 1:] + sums[1, ..., :-1])
    return ll, pullback(gt, gh)


class PenalizedLikelihood:
    """Penalized log-likelihood of a pseudo-angle sample, set up once.

    ``value(theta) = sum log h_hat(z_i) - lam * theta' Omega theta``, the data
    term (densities floored at 1e-12) taken at ``theta + center``: a dominating
    penalty collapses a fit onto the center model.  The basis is evaluated on
    the grid once, here, and the pseudo-angles are kept sorted in ``z`` (the
    caller's array when it is sorted already, else a sorted copy); the sum
    is order-free, and sorted data let the data term work per knot segment.
    Nothing here changes after set-up: each call evaluates afresh.
    """

    def __init__(self, basis: ZBasis, x_grid, z, lam: float, center=0.0):
        self.pipe = _HhatPipeline(basis, x_grid)
        self.omega = curvature_matrix(basis)
        self.z = ascending(np.asarray(z, dtype=float))
        self.lam = float(lam)
        self.center = np.zeros(basis.dim) + center

    def loglik(self, theta) -> float:
        """The data term alone."""
        return _loss_and_grad(self.pipe, self.z, theta + self.center, False)[0]

    def penalty(self, theta) -> float:
        return self.lam * float(theta @ self.omega @ theta)

    def value(self, theta) -> float:
        return self.loglik(theta) - self.penalty(theta)

    def value_and_grad(self, theta):
        """Value and exact reverse-mode (adjoint) gradient."""
        theta = np.asarray(theta, dtype=float)
        ll, grad = _loss_and_grad(self.pipe, self.z, theta + self.center, True)
        return self._penalize(theta, ll, grad)

    def _penalize(self, theta, ll, grad):
        """The objective at ``theta`` from its data term and that term's gradient."""
        # ndarray.dot makes the BLAS calls @ makes, with less overhead
        return (ll - self.lam * float(theta.dot(self.omega).dot(theta)),
                grad - 2.0 * self.lam * self.omega.dot(theta))


@dataclass(frozen=True)
class FittedModel:
    """Result of a copula fit: coefficients plus the derived Pickands model.

    ``density`` is the spline density and ``w_grid`` the normalized
    Williamson grid that ``pickands`` was rotated from (before any
    mirroring).  ``converged``, ``iterations``, ``evaluations`` (objective
    calls), ``grad_max`` (the largest final gradient entry, in the whitened
    coordinates the convergence rule reads) and ``message`` describe the
    optimizer run.
    """

    theta: np.ndarray
    basis: ZBasis
    center_applied: bool
    flipped: bool
    loglik: float
    penalty: float
    lam: float
    pickands: PickandsModel
    converged: bool
    iterations: int
    evaluations: int
    grad_max: float
    message: str
    density: ClrDensity = field(repr=False)
    w_grid: WilliamsonGrid = field(repr=False)

    @property
    def w0_estimate(self) -> float:
        """W(0+) self-check: kernel mass over the density's own, about 1."""
        return self.w_grid.w0_estimate

    @property
    def coeffs(self) -> np.ndarray:
        """Full spline coefficients (center included)."""
        off = project_center(self.basis) if self.center_applied else 0.0
        return self.theta + off


def pipeline_pickands(basis: ZBasis, theta, center_enabled: bool,
                      flipped: bool):
    """Deterministic coefficients-to-Pickands conversion.

    Shared by the optimizer and by model deserialization so that a saved
    model reproduces its in-memory counterpart exactly.  The returned grid
    is normalized and carries the W(0+) self-check ratio.
    """
    dens = ClrDensity(basis, theta, center_enabled=center_enabled)
    grid = normalize_w(williamson_from_density(dens, default_kernel()))
    model = rotate(grid)
    if flipped:
        model = mirror(model)
    return model, dens, grid


class _Minimum(NamedTuple):
    x: np.ndarray
    jac: np.ndarray
    nit: int
    nfev: int
    success: bool
    message: str


def _cubic(fa, da, a, fp, dp, stp):
    """``theta`` and ``|gamma|`` of the cubic through two steps, as dcstep forms them."""
    theta = 3.0 * (fa - fp) / (stp - a) + da + dp
    s = max(abs(theta), abs(da), abs(dp))
    ts = theta / s
    return theta, s * math.sqrt(max(0.0, ts * ts - (da / s) * (dp / s)))


def _dcstep(stx, fx, dx, sty, fy, dy, stp, fp, dp, brackt, stpmin, stpmax):
    """Moré & Thuente's safeguarded trial step (MINPACK-2 ``dcstep``).

    ``(stx, fx, dx)`` is the best step so far with its value and slope,
    ``(sty, fy, dy)`` the other end of the bracket and ``(stp, fp, dp)`` the
    step just evaluated.  Returns the updated ends, the next step and
    whether a minimizer is bracketed.  Plain floats throughout.
    """
    opposite = dp < 0.0 < dx or dx < 0.0 < dp
    if fp > fx:
        # a higher value: the minimizer is bracketed
        theta, gamma = _cubic(fx, dx, stx, fp, dp, stp)
        gamma = -gamma if stp < stx else gamma
        p = (gamma - dx) + theta
        q = ((gamma - dx) + gamma) + dp
        stpc = stx + p / q * (stp - stx)
        stpq = stx + dx / ((fx - fp) / (stp - stx) + dx) / 2.0 * (stp - stx)
        if abs(stpc - stx) < abs(stpq - stx):
            stpf = stpc
        else:
            stpf = stpc + (stpq - stpc) / 2.0
        brackt = True
    elif opposite:
        # a lower value and slopes of opposite sign: bracketed
        theta, gamma = _cubic(fx, dx, stx, fp, dp, stp)
        gamma = -gamma if stp > stx else gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dx
        stpc = stp + p / q * (stx - stp)
        stpq = stp + dp / (dp - dx) * (stx - stp)
        stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
        brackt = True
    elif abs(dp) < abs(dx):
        # a lower value, slopes of one sign, and the slope shrinks
        theta, gamma = _cubic(fx, dx, stx, fp, dp, stp)
        gamma = -gamma if stp > stx else gamma
        p = (gamma - dp) + theta
        q = (gamma + (dx - dp)) + gamma
        r = p / q
        if r < 0.0 and gamma != 0.0:
            stpc = stp + r * (stx - stp)
        else:
            stpc = stpmax if stp > stx else stpmin
        stpq = stp + dp / (dp - dx) * (stx - stp)
        if brackt:
            stpf = stpc if abs(stpc - stp) < abs(stpq - stp) else stpq
            if stp > stx:
                stpf = min(stp + 0.66 * (sty - stp), stpf)
            else:
                stpf = max(stp + 0.66 * (sty - stp), stpf)
        else:
            stpf = stpc if abs(stpc - stp) > abs(stpq - stp) else stpq
            stpf = max(stpmin, min(stpmax, stpf))
    elif brackt:
        # the slope does not shrink: cubic step toward sty
        theta, gamma = _cubic(fy, dy, sty, fp, dp, stp)
        gamma = -gamma if stp > sty else gamma
        p = (gamma - dp) + theta
        q = ((gamma - dp) + gamma) + dy
        stpf = stp + p / q * (sty - stp)
    else:
        stpf = stpmax if stp > stx else stpmin
    if fp > fx:
        sty, fy, dy = stp, fp, dp
    else:
        if opposite:
            sty, fy, dy = stx, fx, dx
        stx, fx, dx = stp, fp, dp
    return stx, fx, dx, sty, fy, dy, stpf, brackt


def _kink_step(stx, fx, gx, sty, fy, gy):
    """Where the end tangents of a bracket meet, if it straddles a kink; else None.

    The ends ``(st, f, g)`` must have slopes of opposite sign.  The tangents
    meet at the fraction ``(m - gy) / (gx - gy)`` of the way from ``stx`` to
    ``sty``, ``m`` the mean slope ``(fy - fx) / (sty - stx)``; it lies within
    ``1/2 - _KINK`` of an end when ``|m - (gx + gy)/2| > _KINK |gy - gx|``.
    A smooth function seen through a small bracket has ``m`` near the mean
    of the end slopes (on a quadratic it is that mean), so Moré-Thuente's
    cubic and secant steps model it; a V does not.
    """
    if not (gx < 0.0 < gy or gy < 0.0 < gx):
        return None
    frac = ((fy - fx) / (sty - stx) - gy) / (gx - gy)
    if abs(frac - 0.5) <= _KINK:
        return None
    frac = min(max(frac, _KINK_MARGIN), 1.0 - _KINK_MARGIN)
    return stx + frac * (sty - stx)


def _line_search(x, z, d, finit, g0, ginit, stp):
    """Moré & Thuente's search (MINPACK-2 ``dcsrch``) along ``d`` from ``x``.

    A generator, as :func:`_descent` is: it yields each trial point and is
    sent the objective's value and gradient there.  ``z = x + d`` is the
    full step, ``finit``, ``g0`` and ``ginit`` the value, gradient and
    slope at ``x``, and ``stp`` the first trial step.  Returns ``(stp, x,
    f, g, slope)`` at the accepted step, or None after ``_MAXLS`` trials
    without one, and the count of evaluations.  As in
    L-BFGS-B, a search that warns accepts the step it last evaluated.  One
    step differs from ``dcsrch``: when the ends of a bracket have slopes of
    opposite sign and their tangents meet near one end, as they do across a
    kink, the next trial is that meeting point (:func:`_kink_step`), taken
    before the bisection safeguard; a smooth function, whose tangents meet
    near the middle of a small bracket, keeps ``dcstep``'s trial.  Every
    point of the search is kept with its value and gradient, keyed by its
    bytes and seeded with ``x``, so a trial that lands on ``x`` or on any
    earlier trial point reuses them and is not counted.  A non-finite value
    or slope is never passed on: the step is halved toward the best one so
    far, which becomes the largest step allowed.
    """
    gtest = _LS_FTOL * ginit
    width, width1 = _STPMAX, 2.0 * _STPMAX
    stx = sty = 0.0
    fx = fy = finit
    gx = gy = ginit
    stmin, stmax, stpmax = 0.0, stp + 4.0 * stp, _STPMAX
    brackt, stage1 = False, True
    seen = {x.tobytes(): (finit, g0)}
    for _ in range(_MAXLS):
        xt = z if stp == 1.0 else x + stp * d
        key = xt.tobytes()
        if key not in seen:
            seen[key] = yield xt
        f, g = seen[key]
        f, gd = float(f), float(g.dot(d))
        if not (math.isfinite(f) and math.isfinite(gd)):
            stp = stpmax = stx + 0.5 * (stp - stx)
            continue
        ftest = finit + stp * gtest
        if stage1 and f <= ftest and gd >= 0.0:
            stage1 = False
        if (brackt and (stp <= stmin or stp >= stmax
                        or stmax - stmin <= _LS_XTOL * stmax)
                or stp == stpmax and f <= ftest and gd <= gtest
                or stp == 0.0 and (f > ftest or gd >= gtest)
                or f <= ftest and abs(gd) <= _LS_GTOL * -ginit):
            return (stp, xt, f, g, gd), len(seen) - 1
        try:
            if stage1 and ftest < f <= fx:
                # the value fell, not enough: step on f - stp * gtest
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx - stx * gtest, gx - gtest, sty, fy - sty * gtest,
                    gy - gtest, stp, f - stp * gtest, gd - gtest, brackt,
                    stmin, stmax)
                fx, fy = fx + stx * gtest, fy + sty * gtest
                gx, gy = gx + gtest, gy + gtest
            else:
                stx, fx, gx, sty, fy, gy, stp, brackt = _dcstep(
                    stx, fx, gx, sty, fy, gy, stp, f, gd, brackt, stmin, stmax)
            kink = _kink_step(stx, fx, gx, sty, fy, gy) if brackt else None
        except ZeroDivisionError:
            break
        if brackt:
            if kink is not None:
                stp = kink
            if abs(sty - stx) >= 0.66 * width1:
                stp = stx + 0.5 * (sty - stx)
            width1, width = width, abs(sty - stx)
            stmin, stmax = min(stx, sty), max(stx, sty)
        else:
            stmin = stp + 1.1 * (stp - stx)
            stmax = stp + 4.0 * (stp - stx)
        stp = min(max(stp, 0.0), stpmax)
        if brackt and (stp <= stmin or stp >= stmax
                       or stmax - stmin <= _LS_XTOL * stmax):
            stp = stx
    return None, len(seen) - 1


def minimize(fun, x0, callback=None) -> _Minimum:
    """Unbounded L-BFGS-B minimization of ``fun``, which returns value and gradient.

    Runs :func:`_descent`, calling ``fun`` at each point it yields.
    """
    steps = _descent(x0, callback)
    try:
        x = next(steps)
        while True:
            x = steps.send(fun(x))
    except StopIteration as stop:
        return stop.value


def _descent(x0, callback=None):
    """Unbounded L-BFGS-B from ``x0``, as a generator of the points to evaluate.

    Each point it yields is sent back its objective value and gradient;
    it returns the :class:`_Minimum`.  :func:`minimize` drives one descent
    with a function, :func:`_descend_together` many in lockstep.  A numpy
    port of what L-BFGS-B (Byrd, Lu, Nocedal & Zhu 1995, v3.0 as scipy
    ships it) does without bounds, with its constants, stop rules and
    message strings.  It follows L-BFGS-B except for the trial step inside a
    line-search bracket that straddles a kink (see :func:`_line_search`),
    which smooth functions do not meet.  The direction is ``-H g``, with
    ``H`` the compact inverse form of Byrd, Nocedal & Schnabel (1994) over
    every pair since the last restart and ``H0 = I / theta``, where
    ``theta = y'y / s'y`` as in L-BFGS-B.  L-BFGS-B bounds its memory for
    large problems; at a few dozen coordinates and at most ``_MAX_ITER``
    pairs the whole history is cheap and takes fewer steps, so this is
    L-BFGS-B with ``maxcor`` at ``_MAX_ITER``.  ``H`` is applied through
    ``T = R^-1 S`` (``R`` the upper triangle of ``S'Y``), which is kept up
    to date in O(kn) per pair.  With no pairs the direction is ``-g``; the
    first step is ``1/|g|``, later first steps 1.  A pair is skipped when
    ``s'y <= eps (-g'd stp)``.  A failed line search restarts once from
    steepest descent, then stops "ABNORMAL".  ``callback``, when given,
    receives every accepted iterate.  ``nfev`` counts the points evaluated;
    no line search yields one twice or its start (see :func:`_line_search`).
    """
    # ndarray.dot makes the BLAS calls @ makes, with less overhead
    x = np.array(x0, dtype=float)
    f, g = yield x
    f, f_old = float(f), math.nan  # no reduction to test before a step
    nit, nfev, k = 0, 1, 0
    # the k pairs since the last restart by rows, oldest first: T = R^-1 S,
    # Y and D = diag(S'Y).  At most one pair comes per iteration.
    T, Y = np.zeros((_MAX_ITER, x.size)), np.zeros((_MAX_ITER, x.size))
    D = np.zeros(_MAX_ITER)
    message = "ABNORMAL: "
    while math.isfinite(f):
        if nit >= _MAX_ITER:
            message = "STOP: TOTAL NO. OF ITERATIONS REACHED LIMIT"
            break
        if float(np.maximum.reduce(abs(g))) <= _GRAD_TOL:
            message = "CONVERGENCE: NORM OF PROJECTED GRADIENT <= PGTOL"
            break
        if f_old - f <= _REL_TOL * max(abs(f_old), abs(f), 1.0):
            message = "CONVERGENCE: RELATIVE REDUCTION OF F <= FACTR*EPSMCH"
            break
        if k == 0:
            z = x - g
        else:
            # H g = (I - G)(I - G)' g / theta + T'D T g with G = T'Y: the
            # compact form of Byrd, Nocedal & Schnabel with H0 = I / theta
            Tk, Yk = T[:k], Y[:k]
            tg = Tk.dot(g)
            v = g - tg.dot(Yk)
            z = x - (v / theta + (D[:k] * tg - Yk.dot(v) / theta).dot(Tk))
        d = z - x
        gd = float(g.dot(d))
        stp = min(1.0 / math.sqrt(float(d.dot(d))), _STPMAX) if nit == 0 else 1.0
        found, evals = ((yield from _line_search(x, z, d, f, g, gd, stp))
                        if gd < 0.0 else (None, 0))
        nfev += evals
        if found is None:
            if k == 0:
                break
            k = 0
            continue
        stp, x, f_new, g_new, gd_new = found
        nit += 1
        if callback is not None:
            callback(x)
        f_old, f, y, g = f, f_new, g_new - g, g_new
        s_y = (gd_new - gd) * stp
        if s_y <= _EPS * (-gd * stp):
            continue
        # R^-1 gains the column (-R^-1 S'y / s'y, 1 / s'y), so T its row
        # s / s'y and T -= (T y) (s / s'y)'
        u = d * (stp / s_y)
        Tk = T[:k]
        Tk -= np.multiply.outer(Tk.dot(y), u)
        T[k], Y[k], D[k] = u, y, s_y
        theta = float(y.dot(y)) / s_y
        k += 1
    return _Minimum(x, g, nit, nfev, message.startswith("CONV"), message)


class _OptimizerRun(NamedTuple):
    converged: bool
    iterations: int
    evaluations: int
    grad_max: float
    message: str


def _ascent(white: np.ndarray, res: _Minimum):
    """The maximizer and :class:`_OptimizerRun` of a descent in whitened coordinates.

    The run converged when the optimizer reports success (either of
    L-BFGS-B's convergence stops), or when no final gradient entry exceeds
    the tolerance.
    """
    grad_max = float(np.max(np.abs(res.jac)))
    converged = bool(res.success) or grad_max <= _GRAD_TOL
    if not converged:
        logger.warning("optimizer stopped without convergence: %s",
                       res.message)
    return white @ res.x, _OptimizerRun(converged, int(res.nit), int(res.nfev),
                                        grad_max, str(res.message))


def _maximize(value_and_grad, omega: np.ndarray, lam: float, callback=None):
    """Ascent from zero by :func:`minimize`, in coordinates whitened by the penalty.

    Any ``value_and_grad(theta)`` is descended as ``phi -> (-value, -S
    grad)`` at ``theta = S phi``, with ``S`` from :func:`_penalty_whitener`;
    ``callback``, when given, receives every accepted iterate.  Returns the
    maximizer and an :class:`_OptimizerRun` (see :func:`_ascent`).
    """
    white = _penalty_whitener(omega, lam)

    # ndarray.dot makes the BLAS calls @ makes, with less overhead
    def negloss_white(phi):
        value, grad = value_and_grad(white.dot(phi))
        return -value, white.dot(-grad)

    return _ascent(white, minimize(
        negloss_white, np.zeros(omega.shape[0]),
        None if callback is None else lambda phi: callback(white @ phi)))


def _descend_together(liks):
    """:func:`_maximize` of each likelihood's ``value_and_grad``, all in lockstep.

    Each round evaluates the pending point of every open descent: the fits
    whose grids and bases have one size share one :func:`_loss_and_grad`
    call on a stacked pipeline (a fit alone in its size, its own pipeline),
    and each fit's whitening, center and penalty are its own, in the
    operation order of a lone fit, so every fit takes the steps, and
    returns the maximizer and run, that :func:`_maximize` gives it alone.
    Returns those ``(theta, run)`` pairs.
    """
    whites = [_penalty_whitener(lik.omega, lik.lam) for lik in liks]
    shapes = [lik.pipe.B.shape for lik in liks]
    descents = [_descent(np.zeros(lik.omega.shape[0])) for lik in liks]
    pending = {f: next(steps) for f, steps in enumerate(descents)}
    results = [None] * len(liks)
    stacks = {}
    while pending:
        by_size = {}
        for f in pending:
            by_size.setdefault(shapes[f], []).append(f)
        replies = {}
        for shape, fits in by_size.items():
            thetas = [whites[f].dot(pending[f]) for f in fits]
            if len(fits) == 1:
                # a stack of one is the fit's own pipeline
                values = [liks[fits[0]].value_and_grad(thetas[0])]
            else:
                # each size's stack is rebuilt when one of its fits closes
                if stacks.get(shape, (None,))[0] != fits:
                    stacks[shape] = (
                        fits,
                        _HhatPipeline.stack([liks[f].pipe for f in fits]),
                        tuple(liks[f].z for f in fits),
                        np.array([liks[f].center for f in fits]))
                _, pipe, z, centers = stacks[shape]
                ll, grad = _loss_and_grad(pipe, z, np.array(thetas) + centers,
                                          True)
                values = [liks[f]._penalize(*args)
                          for f, args in zip(fits, zip(thetas, ll, grad))]
            for f, (value, g) in zip(fits, values):
                replies[f] = (-value, whites[f].dot(-g))
        for f, reply in replies.items():
            try:
                pending[f] = descents[f].send(reply)
            except StopIteration as stop:
                results[f] = _ascent(whites[f], stop.value)
                del pending[f]
    return results


class _Setup(NamedTuple):
    """A fit set up to descend: its likelihood, basis and flip decision."""
    lik: PenalizedLikelihood
    basis: ZBasis
    flipped: bool


def _set_up(z_sample, config: FitConfig | None) -> _Setup:
    """Flip decision, pilot grid, basis and likelihood of one fit.

    The sample is sorted once; the flip heuristic, the pilot grid and the
    likelihood read the sorted values.
    """
    cfg = config or FitConfig()
    z = np.asarray(z_sample, dtype=float)
    _SAMPLE_SIZE(z.size)
    zs = np.sort(z, axis=None)
    flip = ordering_heuristic(zs) if cfg.flip is None else bool(cfg.flip)
    # 1 - z reverses the order
    zf = 1.0 - zs[::-1] if flip else zs
    x_grid = empirical_w_grid(zf, _GRID_K)
    basis = build_zb_basis(quantile_knots(x_grid[1:-1],
                                          cfg.basis_dim - _DEGREE))
    lik = PenalizedLikelihood(basis, x_grid, zf, cfg.lam,
                              project_center(basis))
    return _Setup(lik, basis, flip)


def _fitted(setup: _Setup, theta_hat, run: _OptimizerRun) -> FittedModel:
    """The fitted model at the maximizer: tabulation and diagnostics."""
    lik = setup.lik
    model, dens, grid = pipeline_pickands(setup.basis, theta_hat, True,
                                          setup.flipped)
    return FittedModel(theta=theta_hat, basis=setup.basis, center_applied=True,
                       flipped=setup.flipped, loglik=lik.loglik(theta_hat),
                       penalty=lik.penalty(theta_hat), lam=lik.lam,
                       pickands=model, **run._asdict(), density=dens,
                       w_grid=grid)


def optimize(z_sample, config: FitConfig | None = None) -> FittedModel:
    """Fit the spline copula model to a pseudo-angle sample.

    Quasi-Newton ascent of the penalized log-likelihood from the affine
    center (coefficients at zero), followed by conversion of the optimum to a
    tabulated Pickands function.  Non-convergence returns the best iterate
    with ``converged=False``.
    """
    setup = _set_up(z_sample, config)
    lik = setup.lik
    return _fitted(setup, *_maximize(lik.value_and_grad, lik.omega, lik.lam))


def optimize_many(z_samples, configs):
    """:func:`optimize` of each sample with its config, descending in lockstep.

    Returns one outcome per sample: the :class:`FittedModel` that
    :func:`optimize` returns for the sample, to the last bit, or the
    :class:`~evcop.errors.EvcopError` its set-up or tabulation raised; a
    failed fit leaves the others alone.  The lists must be equally long.
    """
    if len(z_samples) != len(configs):
        raise InputError(f"optimize_many: {len(z_samples)} samples but "
                         f"{len(configs)} configs")
    outcomes, setups = [], []
    for z, cfg in zip(z_samples, configs):
        try:
            setups.append(_set_up(z, cfg))
            outcomes.append(None)
        except EvcopError as exc:
            outcomes.append(exc)
    live = [f for f, out in enumerate(outcomes) if out is None]
    runs = _descend_together([s.lik for s in setups])
    for f, setup, (theta_hat, run) in zip(live, setups, runs):
        try:
            outcomes[f] = _fitted(setup, theta_hat, run)
        except EvcopError as exc:
            outcomes[f] = exc
    return outcomes


@dataclass(frozen=True)
class UnivariateDensityFit:
    """Spline density on an interval, with CDF and quantile functions.

    The CDF is tabulated at the panel edges of the mass rule
    (:func:`evcop.bayes.mass_rule`) and inverted by linear interpolation, so
    ``quantile(cdf(x)) = x`` on grid-interior points.
    """

    density: ClrDensity
    bounds: tuple[float, float]
    loglik: float
    penalty: float
    lam: float
    converged: bool
    _grid: np.ndarray = field(repr=False)
    _cdf: np.ndarray = field(repr=False)

    def _to_unit(self, x):
        a, b = self.bounds
        return (np.asarray(x, dtype=float) - a) / (b - a)

    def pdf(self, x):
        a, b = self.bounds
        return self.density(self._to_unit(x)) / (b - a)

    def cdf(self, x):
        return np.interp(self._to_unit(x), self._grid, self._cdf)

    def quantile(self, p):
        a, b = self.bounds
        y = np.interp(p, self._cdf, self._grid)
        return a + (b - a) * y

    @property
    def theta(self) -> np.ndarray:
        return self.density.theta

    @property
    def basis(self) -> ZBasis:
        return self.density.basis


def fit_univariate_density(sample, bounds, dim: int = 13, lam: float = 1e-4
                           ) -> UnivariateDensityFit:
    """Penalized maximum likelihood spline density on an interval.

    The sample is rescaled to [0, 1]; ``dim`` spline functions have knots at
    sample quantiles and the objective is ``sum log f(x_i) - lam * theta'
    Omega theta`` (no affine center).  The gradient is available in closed
    form, making the optimization fast and reliable.
    """
    _LAM(lam)
    a, b = _BOUNDS(bounds)
    x = np.asarray(sample, dtype=float)
    if np.any(x <= a) or np.any(x >= b):
        raise InputError("sample values must lie strictly inside the bounds")
    y = (x - a) / (b - a)

    basis = build_zb_basis(quantile_knots(y, dim - _DEGREE))
    omega = curvature_matrix(basis)

    # the penalty as |R theta|^2: with clustered knots Omega has entries near
    # 1e12, and round-off in theta' Omega theta stalls the line search
    evals, evecs = np.linalg.eigh(omega)
    R = np.sqrt(np.clip(evals, 0.0, None))[:, None] * evecs.T
    edges, nodes, weights = mass_rule()
    BG = basis.evaluate(nodes)
    BD = basis.evaluate(y)
    n = y.size

    def value_and_grad(theta):
        pg = BG @ theta
        live = np.abs(pg) < _EXP_CLIP
        eg = np.exp(np.clip(pg, -_EXP_CLIP, _EXP_CLIP))
        I = float(weights @ eg)
        r = R @ theta
        ll = float(np.sum(BD @ theta)) - n * np.log(I) - lam * float(r @ r)
        grad = (BD.sum(axis=0) - n / I * ((weights * eg * live) @ BG)
                - 2.0 * lam * (r @ R))
        return ll, grad

    theta_hat, run = _maximize(value_and_grad, omega, lam)
    dens = ClrDensity(basis, theta_hat, center_enabled=False)
    panels = (weights * dens(nodes)).reshape(edges.size - 1, -1).sum(axis=1)
    cdf = np.concatenate([[0.0], np.cumsum(panels)])
    cdf /= cdf[-1]
    ll = float(np.sum(np.log(np.maximum(dens(y), _LOG_FLOOR))))
    pen = lam * float(np.sum((R @ theta_hat) ** 2))
    return UnivariateDensityFit(density=dens, bounds=(a, b), loglik=ll,
                                penalty=pen, lam=lam, converged=run.converged,
                                _grid=edges, _cdf=cdf)


def mcmc_sample(log_target, dim: int, n_samples: int, seed=None,
                step_scale: float = 0.5, x0=None) -> np.ndarray:
    """Random-walk Metropolis chain with burn-in step adaptation.

    Spherical Gaussian proposals; during the first 20% of the run the step
    is rescaled every 50 proposals toward an acceptance rate in [0.2, 0.4].
    The burn-in segment is discarded from the returned chain.
    """
    rng = np.random.default_rng(seed)
    x = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float).copy()
    lp = float(log_target(x))
    if not np.isfinite(lp):
        raise InputError("log_target must be finite at the initial point")
    burn = int(0.2 * n_samples)
    chain = np.empty((n_samples, dim))
    scale = float(step_scale)
    accepted_window = 0
    accepted_total = 0
    for i in range(n_samples):
        prop = x + scale * rng.standard_normal(dim)
        lp_prop = float(log_target(prop))
        if np.log(rng.random()) < lp_prop - lp:
            x, lp = prop, lp_prop
            accepted_window += 1
            if i >= burn:
                accepted_total += 1
        chain[i] = x
        if i < burn and (i + 1) % 50 == 0:
            rate = accepted_window / 50.0
            if rate == 0.0:
                scale *= 0.5
            elif rate < 0.2:
                scale *= 0.8
            elif rate > 0.4:
                scale *= 1.25
            accepted_window = 0
    if n_samples - burn > 0 and accepted_total == 0:
        raise NumericalError("Metropolis chain accepted no moves after adaptation")
    return chain[burn:]


def default_random_basis(dim: int = FitConfig.basis_dim) -> ZBasis:
    """Uniform-knot cubic basis used to generate random models."""
    _BASIS_DIM(dim)
    knots = tuple(np.linspace(0.0, 1.0, dim - _DEGREE + 2)[1:-1])
    return build_zb_basis(KnotConfig(interior_knots=knots, degree=_DEGREE))


# proposals per batch of the prior sampler, and per call before it gives up
_PRIOR_BATCH = 1024
_PRIOR_BUDGET = 1_000_000


def _prior_draws(lam: float, R: float, omega: np.ndarray, center: np.ndarray,
                 rng: np.random.Generator):
    """Endless exact i.i.d. draws of the truncated curvature prior.

    With ``Omega = U diag(e) U'``, ``(U' theta)_k`` is Gaussian about ``-(U'
    center)_k`` with variance ``1 / (2 lam e_k)``, or flat along null
    directions (all at ``lam = 0``).  Proposals truncate the Gaussians to
    [-R, R] by inverse CDF and draw the flat part uniformly in its radius-R
    ball; on the ball ``|theta| <= R``, inside their support, they are
    proportional to the prior, so keeping those that fall in it is exact.
    """
    from scipy.special import ndtr, ndtri

    evals, U = np.linalg.eigh(omega)  # ascending: null directions first
    n_flat = int(np.sum(evals <= 1e-9 * evals[-1])) if lam > 0 else evals.size
    mu = -(U.T @ center)[n_flat:]
    sd = 1.0 / np.sqrt(2.0 * lam * evals[n_flat:])
    lo, hi = ndtr((-R - mu) / sd), ndtr((R - mu) / sd)
    kept = 0
    for tried in range(_PRIOR_BATCH, _PRIOR_BUDGET + 1, _PRIOR_BATCH):
        g = rng.standard_normal((_PRIOR_BATCH, n_flat))
        g *= R * rng.random((_PRIOR_BATCH, 1)) ** (1.0 / n_flat) \
            / np.linalg.norm(g, axis=1, keepdims=True)
        u = rng.random((_PRIOR_BATCH, mu.size))
        theta = np.hstack([g, mu + sd * ndtri(lo + (hi - lo) * u)]) @ U.T
        ok = np.linalg.norm(theta, axis=1) <= R
        kept += int(np.sum(ok))
        yield from theta[ok]
    raise NumericalError(
        f"truncated prior sampler kept {kept} of {tried} proposals "
        f"(acceptance {kept / tried:.2g}) at lam={lam:g}, R={R:g}")


def random_pickands(lam: float, R: float, n: int, seed=None,
                    basis: ZBasis | None = None):
    """Random Pickands functions from the truncated curvature prior.

    Exact draws of ``p(theta) ~ exp(-lam * (theta + theta0)' Omega (theta +
    theta0))`` on the ball ``|theta| <= R`` (theta0 the affine center) by
    rejection sampling, pushed through the full construction; up to n draws
    that fail tabulation are replaced, with a warning.  Every second model is
    mirrored so the collection has no preferred orientation.
    """
    _LAM(lam)
    _RADIUS(R)
    _COUNT(n)
    basis = basis if basis is not None else default_random_basis()
    draws = _prior_draws(lam, R, curvature_matrix(basis),
                         project_center(basis), np.random.default_rng(seed))
    models = []
    for theta in islice(draws, 2 * n):
        try:
            model, _, _ = pipeline_pickands(basis, theta, True, False)
        except (NumericalError, InputError) as exc:
            logger.warning("random model rejected, resampling: %s", exc)
            continue
        models.append(mirror(model) if len(models) % 2 == 1 else model)
        if len(models) == n:
            break
    if len(models) < n:
        raise NumericalError(
            f"could only generate {len(models)} of {n} random models")
    return models


def model_to_dict(fm: FittedModel) -> dict:
    """JSON-serializable description of a fitted model."""
    return {
        "version": 1,
        "degree": fm.basis.degree,
        "knots": [float(k) for k in fm.basis.interior_knots],
        "theta": [float(v) for v in fm.theta],
        "center_applied": bool(fm.center_applied),
        "flipped": bool(fm.flipped),
        "lambda": float(fm.lam),
        "diagnostics": {
            "loglik": float(fm.loglik),
            "penalty": float(fm.penalty),
            "iterations": int(fm.iterations),
            "evaluations": int(fm.evaluations),
            "grad_max": float(fm.grad_max),
            "message": fm.message,
            "converged": bool(fm.converged),
            "w0_estimate": float(fm.w0_estimate),
        },
    }


def _finite_vector(value) -> np.ndarray:
    theta = np.asarray([real(v) for v in value], dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("expected finite numbers")
    return theta


def model_from_dict(d: dict) -> FittedModel:
    """Rebuild a fitted model (and its Pickands function) from its JSON form."""
    basis = build_zb_basis(KnotConfig(
        interior_knots=read_field(d, "knots", lambda v: tuple(map(real, v))),
        degree=read_field(d, "degree", integer)))
    theta = read_field(d, "theta", _finite_vector)
    center_applied = read_field(d, "center_applied", _as_bool)
    flipped = read_field(d, "flipped", _as_bool)
    lam = read_field(d, "lambda", _LAM)
    loglik = read_field(d, "diagnostics.loglik", real, np.nan)
    penalty = read_field(d, "diagnostics.penalty", real, np.nan)
    converged = read_field(d, "diagnostics.converged", _as_bool, True)
    iterations = read_field(d, "diagnostics.iterations", integer, 0)
    evaluations = read_field(d, "diagnostics.evaluations", integer, 0)
    grad_max = read_field(d, "diagnostics.grad_max", real, np.nan)
    message = read_field(d, "diagnostics.message", str, "")
    model, dens, grid = pipeline_pickands(basis, theta, center_applied, flipped)
    return FittedModel(theta=theta, basis=basis, center_applied=center_applied,
                       flipped=flipped, loglik=loglik, penalty=penalty,
                       lam=lam, pickands=model, converged=converged,
                       iterations=iterations, evaluations=evaluations,
                       grad_max=grad_max, message=message, density=dens,
                       w_grid=grid)
