"""Estimation pipeline for spline-parameterized extreme-value copulas.

The copula sample is reduced to the univariate pseudo-angles
``z_i = log u_i / log(u_i v_i)`` whose density is a smooth functional of the
Pickands function.  A fixed interpolation grid (built once from a
nonparametric pilot estimate) lets the whole chain

    coefficients -> density -> Williamson transform -> Pickands -> z-density

be evaluated as plain array arithmetic, so the penalized log-likelihood and
its exact gradient (forward-mode differentiation of every step) are cheap
enough for quasi-Newton optimization.  The objective and the tabulation of
fitted models (:func:`pipeline_pickands`) share the Williamson kernel and
the affine link, and both divide the transform by the kernel's W(0+) mass.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.optimize import minimize

from ._quad import norm_grid, trapezoid_weights
from .bayes import ClrDensity
from .errors import InputError, NumericalError
from .families import cfg_estimator
from .pickands import (
    PickandsModel,
    default_t_nodes,
    h_formula,
    link,
    mirror,
    rotate,
)
from .splinebasis import (
    KnotConfig,
    ZBasis,
    build_zb_basis,
    curvature_matrix,
    project_center,
    quantile_knots,
)
from .williamson import (
    WilliamsonKernel,
    default_w_nodes,
    normalize_w,
    williamson_from_density,
)

logger = logging.getLogger("evcop")

__all__ = [
    "FitConfig",
    "FittedModel",
    "z_transform",
    "empirical_w_grid",
    "build_h_hat",
    "penalized_loglik",
    "penalized_loglik_grad",
    "optimize",
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
    """Knobs of the estimation pipeline.

    ``lam`` is the curvature penalty weight; ``grid_k`` the number of interior
    interpolation nodes (grid size ``grid_k + 2``).
    """

    basis_dim: int = 13
    degree: int = 3
    lam: float = 1e-4
    grid_k: int = 78
    max_iter: int = 500
    grad_tol: float = 1e-4
    ordering_heuristic: bool = True
    center: bool = True

    def __post_init__(self):
        if self.lam < 0:
            raise InputError("lam must be >= 0")
        if self.grid_k < 8:
            raise InputError("grid_k must be >= 8")
        if self.basis_dim < 2:
            raise InputError("basis_dim must be >= 2")
        if self.basis_dim <= self.degree:
            raise InputError("basis_dim must exceed the spline degree")


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
    avoids it.  Ties break toward not flipping.
    """
    z = np.asarray(z_sample, dtype=float)
    if z.size == 0:
        raise InputError("empty sample")
    counts, edges = np.histogram(z, bins=32, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    modal = centers[counts == counts.max()]
    return bool(np.max(modal) < 0.5)


def empirical_w_grid(z_sample, k: int, pilot=None) -> np.ndarray:
    """Interpolation grid in the transform domain from a pilot estimate.

    Uniform sample quantiles ``q_i`` are pushed through
    ``x_i = q_i + A_pilot(q_i) - 1`` with the nonparametric pilot from
    :func:`evcop.families.cfg_estimator` (or an explicit ``pilot`` callable),
    so that grid images under the fitted model roughly follow the sample.
    """
    z = np.asarray(z_sample, dtype=float)
    if k < 2:
        raise InputError("k must be >= 2")
    if z.size == 0:
        raise InputError("empty sample")
    q = np.quantile(z, np.arange(1, k + 1) / (k + 1))
    a_tilde = cfg_estimator(z, q, from_z=True) if pilot is None \
        else np.asarray(pilot(q), dtype=float)
    x = q + a_tilde - 1.0
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
    """Precomputed design matrix for the coefficient-to-z-density chain.

    The basis is evaluated once at the quadrature nodes of the Williamson
    kernel on the grid; per-iteration work is dense matrix arithmetic in the
    coefficient dimension.
    """

    def __init__(self, basis: ZBasis, x_grid: np.ndarray):
        self.kernel = WilliamsonKernel(x_grid)
        self.x_in = self.kernel.x[1:-1]
        self.m = self.x_in.size
        self.B = basis.evaluate(self.kernel.nodes.ravel())

    def forward(self, theta: np.ndarray, want_grad: bool):
        """Interpolation knots ``(t, h)`` of the z-density and their Jacobians.

        Returns ``(t_full, h_full, I_h, J_t, J_h, J_Ih)``; the Jacobian slots
        are None when ``want_grad`` is false.
        """
        theta = np.asarray(theta, dtype=float)
        d = theta.size
        m = self.m
        shape = self.kernel.nodes.shape

        p = self.B @ theta
        live = np.abs(p) < _EXP_CLIP
        e = np.exp(np.clip(p, -_EXP_CLIP, _EXP_CLIP))
        # dividing by the W(0+) mass, as normalize_w does for tabulated
        # models, also normalizes the density: the kernel is linear
        w, wp, wpp, _, c = self.kernel(e.reshape(shape))
        w, wp, wpp = w / c, wp / c, wpp / c
        t, a, ap, app = link(self.x_in, w, wp, wpp)
        h = h_formula(t, a, ap, app)

        t_full = np.concatenate([[0.0], t, [1.0]])
        h_full = np.concatenate([[0.0], h, [0.0]])
        wt = trapezoid_weights(t_full)
        I_h = float(wt @ h_full)

        if not want_grad:
            return t_full, h_full, I_h, None, None, None

        # forward-mode Jacobians, one row per grid quantity
        J_e = ((e * live)[:, None] * self.B).reshape(shape + (d,))
        J_w, J_wp, J_wpp, _, J_c = self.kernel(J_e)
        J_w = (J_w - w[:, None] * J_c) / c
        J_wp = (J_wp - wp[:, None] * J_c) / c
        J_wpp = (J_wpp - wpp[:, None] * J_c) / c

        J_t = -0.5 * J_w
        J_a = 0.5 * J_w
        J_ap = (2.0 / (1.0 - wp) ** 2)[:, None] * J_wp
        J_app = (4.0 / (1.0 - wp) ** 3)[:, None] * J_wpp \
            + (12.0 * wpp / (1.0 - wp) ** 4)[:, None] * J_wp
        rr = ap / a
        J_rr = J_ap / a[:, None] - (ap / a ** 2)[:, None] * J_a

        dh_dt = -2.0 * rr + (1.0 - 2.0 * t) * (app / a - rr * rr)
        dh_drr = (1.0 - 2.0 * t) - 2.0 * t * (1.0 - t) * rr
        dh_dapp = t * (1.0 - t) / a
        dh_da = -t * (1.0 - t) * app / a ** 2
        J_h = (dh_dt[:, None] * J_t + dh_drr[:, None] * J_rr
               + dh_dapp[:, None] * J_app + dh_da[:, None] * J_a)

        J_t_full = np.zeros((m + 2, d))
        J_t_full[1:-1] = J_t
        J_h_full = np.zeros((m + 2, d))
        J_h_full[1:-1] = J_h

        dI_dt = 0.5 * (h_full[:-2] - h_full[2:])          # interior t nodes
        J_Ih = dI_dt @ J_t + wt @ J_h_full

        return t_full, h_full, I_h, J_t_full, J_h_full, J_Ih


class HHat:
    """Piecewise-linear density of the pseudo-angle, normalized exactly."""

    def __init__(self, t_knots: np.ndarray, h_knots: np.ndarray):
        self.t = np.asarray(t_knots, dtype=float)
        integral = float(np.trapezoid(h_knots, t_knots))
        if integral <= 0:
            raise NumericalError("degenerate z-density: non-positive mass")
        self.h = np.asarray(h_knots, dtype=float) / integral
        self.raw_integral = integral

    def pdf(self, z):
        return np.interp(z, self.t, self.h)

    __call__ = pdf


def build_h_hat(theta, basis: ZBasis, x_grid) -> HHat:
    """Fast interpolated density of the pseudo-angle for given coefficients.

    ``theta`` are the full spline coefficients (center included, if any).
    Interior values follow the transform chain at the grid nodes; endpoint
    values are pinned to 0 and the trapezoid integral is normalized to 1 on
    the same knots.  A materially negative node value signals constraint
    breakdown.
    """
    pipe = _HhatPipeline(basis, x_grid)
    t_full, h_full, _, _, _, _ = pipe.forward(np.asarray(theta, dtype=float), False)
    if np.min(h_full) < -1e-6:
        raise NumericalError(
            f"z-density negative beyond tolerance (min {np.min(h_full):.3g})")
    return HHat(t_full, np.maximum(h_full, 0.0))


def _loss_and_grad(pipe: _HhatPipeline, omega: np.ndarray, z: np.ndarray,
                   lam: float, theta: np.ndarray, want_grad: bool):
    t_full, h_full, I_h, J_t, J_h, J_Ih = pipe.forward(theta, want_grad)
    I_h = max(I_h, 1e-300)
    idx = np.clip(np.searchsorted(t_full, z, side="right") - 1, 0, pipe.m)
    tl = t_full[idx]
    tr = t_full[idx + 1]
    hl = h_full[idx]
    hr = h_full[idx + 1]
    delta = tr - tl
    s = (z - tl) / delta
    raw = hl * (1.0 - s) + hr * s
    hhat = raw / I_h
    live = hhat > _LOG_FLOOR
    ll = float(np.sum(np.log(np.maximum(hhat, _LOG_FLOOR))))
    pen = lam * float(theta @ omega @ theta)
    value = ll - pen
    if not want_grad:
        return value, None

    inv_raw = np.where(live, 1.0 / np.maximum(raw, 1e-300), 0.0)
    n_live = int(np.sum(live))
    coef_hl = (1.0 - s) * inv_raw
    coef_hr = s * inv_raw
    slope = hr - hl
    coef_tl = slope * (z - tr) / delta ** 2 * inv_raw
    coef_tr = -slope * (z - tl) / delta ** 2 * inv_raw
    nnode = pipe.m + 2
    gh = (np.bincount(idx, weights=coef_hl, minlength=nnode)
          + np.bincount(idx + 1, weights=coef_hr, minlength=nnode))
    gt = (np.bincount(idx, weights=coef_tl, minlength=nnode)
          + np.bincount(idx + 1, weights=coef_tr, minlength=nnode))
    grad = gh @ J_h + gt @ J_t - n_live * J_Ih / I_h - 2.0 * lam * (omega @ theta)
    return value, grad


def penalized_loglik(theta, basis: ZBasis, omega: np.ndarray, x_grid, z_sample,
                     lam: float) -> float:
    """Penalized log-likelihood of the pseudo-angle sample.

    ``sum log h_hat(z_i) - lam * theta' Omega theta`` with density values
    floored at 1e-12 inside the logarithm.
    """
    pipe = _HhatPipeline(basis, x_grid)
    value, _ = _loss_and_grad(pipe, np.asarray(omega, dtype=float),
                              np.asarray(z_sample, dtype=float), float(lam),
                              np.asarray(theta, dtype=float), False)
    return value


def penalized_loglik_grad(theta, basis: ZBasis, omega: np.ndarray, x_grid,
                          z_sample, lam: float):
    """Value and exact gradient of :func:`penalized_loglik`.

    The gradient propagates forward-mode derivatives through every stage of
    the chain (no finite differences).
    """
    pipe = _HhatPipeline(basis, x_grid)
    return _loss_and_grad(pipe, np.asarray(omega, dtype=float),
                          np.asarray(z_sample, dtype=float), float(lam),
                          np.asarray(theta, dtype=float), True)


@dataclass(frozen=True)
class FittedModel:
    """Result of a copula fit: coefficients plus the derived Pickands model."""

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
    w0_estimate: float = 1.0

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
    is normalized and carries the raw W(0+) estimate.
    """
    dens = ClrDensity(basis, theta, center_enabled=center_enabled)
    grid = williamson_from_density(dens, default_w_nodes())
    if abs(grid.w0_estimate - 1.0) > 1e-3:
        logger.info("normalizing Williamson grid: W(0+) estimate %.5f",
                    grid.w0_estimate)
    grid = normalize_w(grid)
    model = rotate(grid, default_t_nodes())
    if flipped:
        model = mirror(model)
    return model, dens, grid


def optimize(z_sample, config: FitConfig | None = None,
             force_flip: bool | None = None, trace: list | None = None
             ) -> FittedModel:
    """Fit the spline copula model to a pseudo-angle sample.

    Quasi-Newton ascent of the penalized log-likelihood from the affine
    center (coefficients at zero), followed by conversion of the optimum to a
    tabulated Pickands function.  Non-convergence returns the best iterate
    with ``converged=False``.  When ``trace`` is a list it collects the
    objective value at every accepted iterate.
    """
    cfg = config or FitConfig()
    z = np.asarray(z_sample, dtype=float)
    if z.size < 30:
        raise InputError(f"sample size {z.size} < 30")

    if force_flip is not None:
        flip = bool(force_flip)
    else:
        flip = ordering_heuristic(z) if cfg.ordering_heuristic else False
    zf = 1.0 - z if flip else z

    x_grid = empirical_w_grid(zf, cfg.grid_k)
    knots = quantile_knots(x_grid[1:-1], cfg.basis_dim - cfg.degree)
    basis = build_zb_basis(replace(knots, degree=cfg.degree))
    omega = curvature_matrix(basis).omega
    center = project_center(basis) if cfg.center else np.zeros(basis.dim)
    pipe = _HhatPipeline(basis, x_grid)

    # the curvature penalty acts on the perturbation away from the affine
    # center, so a dominating penalty collapses the fit onto the center model
    def negloss(theta_pert):
        full = theta_pert + center
        value, grad = _loss_and_grad(pipe, omega, zf, 0.0, full, True)
        pen = cfg.lam * float(theta_pert @ omega @ theta_pert)
        grad = grad - 2.0 * cfg.lam * (omega @ theta_pert)
        return -(value - pen), -grad

    white = _penalty_whitener(omega, cfg.lam)

    def negloss_white(phi):
        value, grad = negloss(white @ phi)
        return value, white @ grad

    callback = None
    if trace is not None:
        callback = lambda phi: trace.append(-negloss(white @ phi)[0])  # noqa: E731

    res = minimize(negloss_white, np.zeros(basis.dim), jac=True,
                   method="L-BFGS-B", callback=callback,
                   options={"maxiter": cfg.max_iter, "gtol": cfg.grad_tol,
                            "ftol": 1e-13, "maxcor": 20})
    theta_hat = white @ res.x
    converged = bool(res.success) or float(
        np.max(np.abs(res.jac))) <= cfg.grad_tol
    if not converged:
        logger.warning("optimizer stopped without convergence: %s",
                       res.message)
    full_hat = theta_hat + center
    ll, _ = _loss_and_grad(pipe, omega, zf, 0.0, full_hat, False)
    pen = cfg.lam * float(theta_hat @ omega @ theta_hat)

    model, _, grid = pipeline_pickands(basis, theta_hat, cfg.center, flip)
    return FittedModel(theta=theta_hat, basis=basis, center_applied=cfg.center,
                       flipped=flip, loglik=ll, penalty=pen, lam=cfg.lam,
                       pickands=model, converged=converged,
                       iterations=int(res.nit), w0_estimate=grid.w0_estimate)


@dataclass(frozen=True)
class UnivariateDensityFit:
    """Spline density on an interval, with CDF and quantile functions.

    The CDF is the cumulative trapezoid of the density on the evaluation
    grid, inverted by linear interpolation, so ``quantile(cdf(x)) = x`` on
    grid-interior points.
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


def fit_univariate_density(sample, bounds, config: FitConfig | None = None
                           ) -> UnivariateDensityFit:
    """Penalized maximum likelihood spline density on an interval.

    The sample is rescaled to [0, 1]; knots sit at sample quantiles and the
    objective is ``sum log f(x_i) - lam * theta' Omega theta`` (no affine
    center).  The gradient is available in closed form, making the
    optimization fast and reliable.
    """
    cfg = config or FitConfig()
    a, b = float(bounds[0]), float(bounds[1])
    x = np.asarray(sample, dtype=float)
    if not (b > a):
        raise InputError("bounds must satisfy a < b")
    if np.any(x <= a) or np.any(x >= b):
        raise InputError("sample values must lie strictly inside the bounds")
    y = (x - a) / (b - a)

    knots = quantile_knots(y, cfg.basis_dim - cfg.degree)
    basis = build_zb_basis(replace(knots, degree=cfg.degree))
    omega = curvature_matrix(basis).omega

    grid = norm_grid(basis.interior_knots)
    wtr = trapezoid_weights(grid)
    BG = basis.evaluate(grid)
    BD = basis.evaluate(y)
    n = y.size

    def negloss(theta):
        pg = BG @ theta
        live = np.abs(pg) < _EXP_CLIP
        eg = np.exp(np.clip(pg, -_EXP_CLIP, _EXP_CLIP))
        I = float(wtr @ eg)
        ll = float(np.sum(BD @ theta)) - n * np.log(I) - float(
            cfg.lam * theta @ omega @ theta)
        grad = (BD.sum(axis=0) - n / I * ((wtr * eg * live) @ BG)
                - 2.0 * cfg.lam * omega @ theta)
        return -ll, -grad

    white = _penalty_whitener(omega, cfg.lam)

    def negloss_white(phi):
        value, grad = negloss(white @ phi)
        return value, white @ grad

    res = minimize(negloss_white, np.zeros(basis.dim), jac=True,
                   method="L-BFGS-B",
                   options={"maxiter": cfg.max_iter, "gtol": cfg.grad_tol,
                            "ftol": 1e-13})
    theta_hat = white @ res.x
    converged = bool(res.success) or float(
        np.max(np.abs(res.jac))) <= cfg.grad_tol
    dens = ClrDensity(basis, theta_hat, center_enabled=False)
    pv = dens(grid)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * np.diff(grid)
                                           * (pv[:-1] + pv[1:]))])
    cdf /= cdf[-1]
    ll = float(np.sum(np.log(np.maximum(dens(y), _LOG_FLOOR))))
    pen = cfg.lam * float(theta_hat @ omega @ theta_hat)
    return UnivariateDensityFit(density=dens, bounds=(a, b), loglik=ll,
                                penalty=pen, lam=cfg.lam,
                                converged=converged,
                                _grid=grid, _cdf=cdf)


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


def default_random_basis(dim: int = 13, degree: int = 3) -> ZBasis:
    """Uniform-knot basis used to generate random models."""
    n_int = dim - degree
    knots = tuple(np.linspace(0.0, 1.0, n_int + 2)[1:-1])
    return build_zb_basis(KnotConfig(interior_knots=knots, degree=degree))


def random_pickands(lam: float, R: float, n: int, seed=None,
                    basis: ZBasis | None = None, thin: int = 3000,
                    return_pre_mirror: bool = False):
    """Random Pickands functions from the truncated curvature prior.

    States are drawn by Metropolis sampling of
    ``p(theta) ~ exp(-lam * (theta + theta0)' Omega (theta + theta0))``
    restricted to the ball ``|theta| <= R`` (theta0 the affine center), then
    pushed through the full construction.  Every second model is mirrored so
    the collection has no preferred orientation.
    """
    if lam < 0 or R <= 0 or n < 1:
        raise InputError("need lam >= 0, R > 0, n >= 1")
    basis = basis if basis is not None else default_random_basis()
    omega = curvature_matrix(basis).omega
    center = project_center(basis)

    def log_target(theta):
        if np.linalg.norm(theta) > R:
            return -np.inf
        tb = theta + center
        return -lam * float(tb @ omega @ tb)

    # start near the step the stiffest penalized direction tolerates; the
    # burn-in adaptation then settles the overall acceptance rate
    stiffness = max(1.0, lam * float(np.linalg.eigvalsh(omega)[-1]))
    step0 = min(0.3 * R, 2.4 / np.sqrt(stiffness)) / np.sqrt(basis.dim)
    total = max(int(np.ceil(1.3 * n * thin / 0.8)) + 200, 4000)
    chain = mcmc_sample(log_target, basis.dim, total, seed=seed,
                        step_scale=step0)
    states = chain[::thin]

    models = []
    raw_models = []
    for theta in states:
        if len(models) == n:
            break
        try:
            model, _, _ = pipeline_pickands(basis, theta, True, False)
        except (NumericalError, InputError) as exc:
            logger.warning("random model rejected, resampling: %s", exc)
            continue
        raw_models.append(model)
        if len(models) % 2 == 1:
            model = mirror(model)
        models.append(model)
    if len(models) < n:
        raise NumericalError(
            f"could only generate {len(models)} of {n} random models")
    if return_pre_mirror:
        return models, raw_models
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
            "converged": bool(fm.converged),
            "w0_estimate": float(fm.w0_estimate),
        },
    }


def model_from_dict(d: dict) -> FittedModel:
    """Rebuild a fitted model (and its Pickands function) from its JSON form."""
    try:
        basis = build_zb_basis(KnotConfig(interior_knots=tuple(d["knots"]),
                                          degree=int(d["degree"])))
        theta = np.asarray(d["theta"], dtype=float)
        center_applied = bool(d["center_applied"])
        flipped = bool(d["flipped"])
        lam = float(d["lambda"])
        diag = d.get("diagnostics", {})
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed model dictionary: {exc}") from exc
    model, _, grid = pipeline_pickands(basis, theta, center_applied, flipped)
    return FittedModel(theta=theta, basis=basis, center_applied=center_applied,
                       flipped=flipped, loglik=float(diag.get("loglik", np.nan)),
                       penalty=float(diag.get("penalty", np.nan)), lam=lam,
                       pickands=model, converged=bool(diag.get("converged", True)),
                       iterations=int(diag.get("iterations", 0)),
                       w0_estimate=grid.w0_estimate)
