import json

import numpy as np
import pytest

import evcop.pickands
import evcop.williamson
from evcop.bayes import ClrDensity
from evcop.copula import EvCopula, tvd_copulas
from evcop.errors import InputError
from evcop.families import ParametricPickands
from evcop.fit import (
    _HhatPipeline,
    FitConfig,
    build_h_hat,
    empirical_w_grid,
    fit_univariate_density,
    mcmc_sample,
    model_from_dict,
    model_to_dict,
    optimize,
    ordering_heuristic,
    penalized_loglik,
    penalized_loglik_grad,
    pipeline_pickands,
    random_pickands,
    z_transform,
)
from evcop.pickands import (
    blomqvist_beta,
    gini_from_pickands,
    h_density,
    upper_tail,
    validate_pickands,
)
from evcop.splinebasis import build_zb_basis, curvature_matrix, quantile_knots
from evcop.williamson import default_w_nodes, normalize_w, williamson_from_density


def test_z_transform_values():
    e = np.exp(1.0)
    z = z_transform(np.array([[1 / e, 1 / e], [np.exp(-3.0), 1 / e]]))
    assert abs(z[0] - 0.5) <= 1e-14
    assert abs(z[1] - 0.75) <= 1e-14


def test_z_transform_flip_relation():
    rng = np.random.default_rng(0)
    uv = rng.uniform(0.01, 0.99, size=(100, 2))
    z = z_transform(uv)
    z_swapped = z_transform(uv[:, ::-1])
    assert np.max(np.abs(z_swapped - (1.0 - z))) <= 1e-12


def test_z_transform_drops_boundary_rows():
    uv = np.array([[0.5, 0.5], [1.0, 0.5], [0.3, 0.0]])
    z = z_transform(uv)
    assert z.shape == (1,)
    with pytest.raises(InputError):
        z_transform(np.array([[0.0, 1.0]]))


def test_ordering_heuristic():
    rng = np.random.default_rng(1)
    sym = np.clip(0.5 + 0.15 * rng.standard_normal(4000), 0.01, 0.99)
    assert ordering_heuristic(sym) is False
    low = np.clip(0.2 + 0.05 * rng.standard_normal(4000), 0.01, 0.99)
    assert ordering_heuristic(low) is True
    with pytest.raises(InputError):
        ordering_heuristic(np.empty(0))


def test_empirical_w_grid_with_exact_pilots():
    rng = np.random.default_rng(2)
    z = rng.random(800)
    flat = lambda q: np.ones_like(q)
    grid = empirical_w_grid(z, 20, pilot=flat)
    q = np.quantile(z, np.arange(1, 21) / 21)
    assert np.max(np.abs(grid[1:-1] - q)) <= 1e-12

    quad = lambda qq: qq * qq - qq + 1.0
    grid2 = empirical_w_grid(z, 20, pilot=quad)
    assert np.max(np.abs(grid2[1:-1] - q * q)) <= 1e-12


def test_empirical_w_grid_increasing(gumbel2_sample):
    z = z_transform(gumbel2_sample)
    grid = empirical_w_grid(z, 78)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.min(np.diff(grid)) > 0.0
    with pytest.raises(InputError):
        empirical_w_grid(z, 1)


def test_build_h_hat_normalization_and_consistency(gumbel2_fit, gumbel2_sample):
    fm = gumbel2_fit
    z = z_transform(gumbel2_sample)
    zf = 1.0 - z if fm.flipped else z
    x_grid = empirical_w_grid(zf, 78)
    hh = build_h_hat(fm.coeffs, fm.basis, x_grid)
    # exact unit mass on its own knots
    assert abs(np.trapezoid(hh.h, hh.t) - 1.0) <= 1e-12

    # converges to the density computed through the dense route as the grid
    # grows; knot values already agree at the default grid size
    dens_model, _, grid = pipeline_pickands(fm.basis, fm.theta,
                                            fm.center_applied, False)
    h_slow = h_density(dens_model)
    zz = np.linspace(0.05, 0.95, 181)
    assert np.max(np.abs(hh.h[1:-1] - h_slow(hh.t[1:-1]))) <= 0.02
    errs = []
    for k in (40, 78, 300):
        hk = build_h_hat(fm.coeffs, fm.basis, empirical_w_grid(zf, k))
        errs.append(float(np.max(np.abs(hk(zz) - h_slow(zz)))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.05


def test_build_h_hat_near_independence():
    rng = np.random.default_rng(3)
    uv = rng.random((1500, 2))
    z = z_transform(uv)
    fm = optimize(z, FitConfig(lam=1e-4))
    x_grid = empirical_w_grid(1.0 - z if fm.flipped else z, 78)
    hh = build_h_hat(fm.coeffs, fm.basis, x_grid)
    zz = np.linspace(0.1, 0.9, 101)
    assert np.mean(np.abs(hh(zz) - 1.0)) <= 0.15


def test_penalized_loglik_penalty_scaling(gumbel2_sample):
    z = z_transform(gumbel2_sample)
    x_grid = empirical_w_grid(z, 40)
    knots = quantile_knots(x_grid[1:-1], 10)
    basis = build_zb_basis(knots)
    omega = curvature_matrix(basis)
    rng = np.random.default_rng(4)
    theta = 0.4 * rng.standard_normal(basis.dim)
    l0 = penalized_loglik(theta, basis, omega.omega, x_grid, z, 0.0)
    l1 = penalized_loglik(theta, basis, omega.omega, x_grid, z, 1.0)
    l2 = penalized_loglik(theta, basis, omega.omega, x_grid, z, 2.0)
    pen = omega.quadratic_form(theta)
    assert pen > 0.0
    assert abs((l0 - l1) - pen) <= 1e-9 * max(1.0, abs(pen))
    assert l2 < l1 < l0


@pytest.mark.parametrize("dim,k,lam", [(13, 78, 1e-4), (8, 40, 1e-5),
                                       (5, 20, 0.0)])
def test_gradient_matches_finite_differences(gumbel2_sample, dim, k, lam):
    z = z_transform(gumbel2_sample)
    x_grid = empirical_w_grid(z, k)
    knots = quantile_knots(x_grid[1:-1], dim - 3)
    basis = build_zb_basis(knots)
    omega = curvature_matrix(basis).omega
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = 0.3 * rng.standard_normal(basis.dim)
        _, grad = penalized_loglik_grad(theta, basis, omega, x_grid, z, lam)
        fd = np.empty(basis.dim)
        for i in range(basis.dim):
            h = 1e-6 * max(1.0, abs(theta[i]))
            e = np.zeros(basis.dim)
            e[i] = h
            fd[i] = (penalized_loglik(theta + e, basis, omega, x_grid, z, lam)
                     - penalized_loglik(theta - e, basis, omega, x_grid, z,
                                        lam)) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) <= 1e-4


def test_optimize_requires_sample():
    with pytest.raises(InputError):
        optimize(np.full(10, 0.5))


def test_optimize_center_self_consistency(basis13, center_model):
    model, _, _ = center_model
    cop = EvCopula(model)
    for seed in (0, 1):
        uv = cop.simulate(2000, seed=seed)
        fm = optimize(z_transform(uv), FitConfig(lam=1e-4))
        assert np.linalg.norm(fm.theta) <= 1.0


def test_optimize_monotone_objective(gumbel2_sample):
    trace = []
    optimize(z_transform(gumbel2_sample), FitConfig(lam=1e-5), trace=trace)
    assert len(trace) > 3
    diffs = np.diff(np.asarray(trace))
    assert np.min(diffs) >= -1e-7


def test_optimize_heavy_penalty_collapses_to_center(gumbel2_sample):
    # the penalty leaves the zero-curvature direction free, so compare the
    # fitted Pickands function with its own basis' center model
    fm = optimize(z_transform(gumbel2_sample), FitConfig(lam=1e3))
    center_a, _, _ = pipeline_pickands(fm.basis, np.zeros(fm.basis.dim),
                                       True, fm.flipped)
    t = np.linspace(0, 1, 301)
    # the remaining gap is the likelihood tilt along the penalty's null
    # space (straight-line log-densities carry no curvature)
    assert np.max(np.abs(fm.pickands(t) - center_a(t))) <= 0.08
    # curvature of the perturbation is essentially gone
    from evcop.splinebasis import curvature_matrix as _cm

    assert _cm(fm.basis).quadratic_form(fm.theta) <= 1e-4


def test_optimize_gumbel_quality(gumbel2, gumbel2_fit):
    tv = tvd_copulas(EvCopula(gumbel2_fit.pickands), gumbel2)
    assert tv <= 0.10
    assert validate_pickands(gumbel2_fit.pickands).passed(1e-6)


def test_flip_mirror_consistency(gumbel2):
    uv = gumbel2.simulate(2000, seed=33)
    z = z_transform(uv)
    a_flip = optimize(z, FitConfig(lam=1e-5), force_flip=True).pickands
    a_plain = optimize(z, FitConfig(lam=1e-5), force_flip=False).pickands
    t = np.linspace(0, 1, 301)
    assert np.max(np.abs(a_flip(t) - a_plain(t))) <= 0.03

    # fitting z with a forced flip equals fitting 1 - z and mirroring back
    a_of_mirrored = optimize(1.0 - z, FitConfig(lam=1e-5),
                             force_flip=False).pickands
    assert np.max(np.abs(a_flip(t) - a_of_mirrored(1.0 - t))) <= 1e-12


def test_fit_univariate_density_roundtrip():
    rng = np.random.default_rng(6)
    sample = rng.beta(2.0, 4.0, size=800) * 80.0 + 10.0
    fit = fit_univariate_density(sample, (5.0, 95.0),
                                 FitConfig(basis_dim=9, lam=1.0))
    x = np.linspace(20.0, 80.0, 50)
    p = fit.cdf(x)
    assert np.max(np.abs(fit.quantile(p) - x)) <= 1e-6
    grid = np.linspace(5.0, 95.0, 3000)
    mass = np.trapezoid(fit.pdf(grid), grid)
    assert abs(mass - 1.0) <= 1e-3


def test_fit_univariate_density_uniform_shrinks():
    rng = np.random.default_rng(7)
    norms = []
    for n in (200, 20000):
        vals = [np.linalg.norm(fit_univariate_density(
            rng.random(n), (-0.01, 1.01),
            FitConfig(basis_dim=7, lam=1e-2)).theta) for _ in range(3)]
        norms.append(float(np.mean(vals)))
    assert norms[1] < norms[0]
    assert norms[1] < 0.2


def test_fit_univariate_density_ligo_config():
    rng = np.random.default_rng(8)
    sample = np.concatenate([rng.lognormal(0.5, 0.4, 60) + 1.0,
                             rng.lognormal(3.0, 0.3, 40)])
    sample = np.clip(sample, 1.05, 99.0)
    fit = fit_univariate_density(sample, (1.0, 100.0),
                                 FitConfig(basis_dim=17, lam=10.0))
    assert fit.basis.dim == 17
    assert fit.converged
    assert np.all(fit.pdf(np.linspace(2, 95, 40)) >= 0.0)


def test_fit_univariate_density_bounds_checked():
    with pytest.raises(InputError):
        fit_univariate_density(np.array([0.5, 1.5]), (0.0, 1.0))


def test_mcmc_gaussian_moments():
    chain = mcmc_sample(lambda x: -0.5 * float(x @ x), 2, 20000, seed=5)
    assert np.max(np.abs(chain.mean(axis=0))) <= 0.1
    cov = np.cov(chain.T)
    assert np.max(np.abs(cov - np.eye(2))) <= 0.15


def test_mcmc_requires_finite_start():
    with pytest.raises(InputError):
        mcmc_sample(lambda x: -np.inf, 2, 100, seed=0)


def test_mcmc_truncated_prior_stays_in_ball(basis13):
    omega = curvature_matrix(basis13).omega
    R = 2.0

    def log_target(theta):
        if np.linalg.norm(theta) > R:
            return -np.inf
        return -1e-4 * float(theta @ omega @ theta)

    chain = mcmc_sample(log_target, 13, 4000, seed=6, step_scale=0.05)
    assert np.max(np.linalg.norm(chain, axis=1)) <= R


def test_mcmc_mode_consistent_with_map(gumbel2_sample):
    z = z_transform(gumbel2_sample)
    cfg = FitConfig(lam=1e-4)
    fm = optimize(z, cfg, force_flip=False)
    x_grid = empirical_w_grid(z, cfg.grid_k)
    omega = curvature_matrix(fm.basis)
    from evcop.splinebasis import project_center

    center = project_center(fm.basis)

    def log_target(theta):
        # same objective the optimizer maximizes: data term plus the
        # curvature penalty on the perturbation away from the center
        if np.linalg.norm(theta) > 8.0:
            return -np.inf
        ll = penalized_loglik(theta + center, fm.basis, omega.omega, x_grid, z,
                              0.0)
        return ll - cfg.lam * float(theta @ omega.omega @ theta)

    chain = mcmc_sample(log_target, fm.basis.dim, 8000, seed=7,
                        step_scale=0.05, x0=fm.theta)
    best = max(log_target(s) for s in chain[::20])
    assert log_target(fm.theta) - best <= 2.0
    assert best <= log_target(fm.theta) + 1e-6


def test_random_pickands_validity_and_mirroring():
    models, raw = random_pickands(1e-4, 5.0, 6, seed=8, thin=200,
                                  return_pre_mirror=True)
    t = np.linspace(0, 1, 201)
    for i, m in enumerate(models):
        assert validate_pickands(m).passed(1e-6)
        if i % 2 == 1:
            assert np.max(np.abs(m(t) - raw[i](1.0 - t))) <= 1e-12
        else:
            assert np.max(np.abs(m(t) - raw[i](t))) <= 1e-12
    with pytest.raises(InputError):
        random_pickands(-1.0, 5.0, 3)


def test_model_serialization_roundtrip(gumbel2_fit):
    doc = model_to_dict(gumbel2_fit)
    clone = model_from_dict(doc)
    t = np.linspace(0, 1, 257)
    assert np.max(np.abs(clone.pickands(t) - gumbel2_fit.pickands(t))) == 0.0
    assert blomqvist_beta(clone.pickands) == blomqvist_beta(gumbel2_fit.pickands)
    assert upper_tail(clone.pickands) == upper_tail(gumbel2_fit.pickands)
    assert gini_from_pickands(clone.pickands) == gini_from_pickands(
        gumbel2_fit.pickands)
    with pytest.raises(InputError):
        model_from_dict({"degree": 3})


def test_pipeline_validity_across_random_coefficients(basis13):
    rng = np.random.default_rng(9)
    for _ in range(5):
        theta = 0.7 * rng.standard_normal(13)
        model, _, _ = pipeline_pickands(basis13, theta, True, False)
        assert validate_pickands(model).passed(1e-6)


def test_objective_and_tabulation_share_the_chain(basis13):
    # the W implied by the objective's z-density nodes is the normalized
    # tabulated transform of the same spline density
    x = default_w_nodes()
    pipe = _HhatPipeline(basis13, x)
    rng = np.random.default_rng(12)
    for _ in range(10):
        theta = rng.standard_normal(13)
        t_full = pipe.forward(theta, False)[0]
        w_objective = 1.0 + x[1:-1] - 2.0 * t_full[1:-1]
        grid = normalize_w(williamson_from_density(ClrDensity(basis13, theta), x))
        assert np.max(np.abs(w_objective - grid.w[1:-1])) <= 1e-14


def test_pipeline_builds_interpolators_only_when_read(basis13, monkeypatch):
    calls = []
    for module in (evcop.williamson, evcop.pickands):
        def counted(*args, _build=module.hermite_interpolator, **kwargs):
            calls.append(1)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "hermite_interpolator", counted)
    model, _, _ = pipeline_pickands(basis13, np.zeros(13), True, flipped=True)
    assert len(calls) == 1  # the normalized transform, read by the rotation
    model(0.3)
    model.deriv(0.3)
    assert len(calls) == 2


def test_raw_w0_estimate_reported_and_reloaded():
    uv = EvCopula(ParametricPickands("gumbel", 8.0)).simulate(1000, seed=1)
    fm = optimize(z_transform(uv))
    doc = json.loads(json.dumps(model_to_dict(fm)))
    est = doc["diagnostics"]["w0_estimate"]
    assert abs(est - 1.0) > 0.01
    assert est == fm.w0_estimate
    assert model_from_dict(doc).w0_estimate == est
