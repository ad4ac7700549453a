"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines alongside the pytest report.
"""

import math
import time

import numpy as np
import pytest

from evcop.bayes import tvd
from evcop.copula import EvCopula, supnorm_bound_check, tvd_copulas
from evcop.families import ParametricPickands, cfg_estimator
from evcop.fit import (
    FitConfig,
    PenalizedLikelihood,
    _fit_chain,
    mcmc_sample,
    optimize,
    pipeline_pickands,
    z_transform,
)
from evcop.pickands import (
    blomqvist_beta,
    gini_from_copula,
    gini_from_density,
    gini_from_pickands,
    khoudraji,
    rotate,
    rotate_inverse,
    upper_tail,
    validate_pickands,
)
from evcop.splinebasis import curvature_matrix
from evcop.williamson import (
    default_w_nodes,
    w_uniform_power,
    williamson_from_density,
)

from conftest import random_spline_density


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


class _Quadratic:
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t * t - t + 1.0

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        return t * t - t + 1.0, 2.0 * t - 1.0, np.full_like(t, 2.0)


def test_criterion_01_closed_form_round_trip():
    start = time.perf_counter()
    a = rotate(w_uniform_power(2.0))
    t = np.linspace(0.0, 1.0, 2001)
    err_a = float(np.max(np.abs(a(t) - (t * t - t + 1.0))))
    w = rotate_inverse(_Quadratic())
    x = np.linspace(0.0, 1.0, 400)
    err_w = float(np.max(np.abs(w(x) - (x - 2.0 * np.sqrt(x) + 1.0))))
    elapsed = time.perf_counter() - start
    ok = err_a <= 1e-6 and err_w <= 1e-8 and elapsed < 1.0
    _report(1, ok, f"rotate sup {err_a:.2e} (<=1e-6), inverse sup "
                   f"{err_w:.2e} (<=1e-8), {elapsed:.2f}s (<1s)")


def test_criterion_02_williamson_pipeline():
    def sqrt_density(xv):
        with np.errstate(divide="ignore"):
            return 0.5 / np.sqrt(np.asarray(xv, dtype=float))

    grid = williamson_from_density(sqrt_density, np.linspace(0.0, 1.0, 200))
    err = float(np.max(np.abs(grid.w - (grid.x - 2.0 * np.sqrt(grid.x) + 1.0))))
    mid = float(w_uniform_power(1.0)(0.5))
    expected = 1.0 - 0.5 + 0.5 * math.log(0.5)
    ok = err <= 2e-3 and abs(mid - expected) <= 1e-10
    _report(2, ok, f"square-root-density grid sup {err:.2e} (<=2e-3), "
                   f"uniform transform mid |{mid - expected:.1e}| (<=1e-10)")


def test_criterion_03_association_measures(random_models_200):
    start = time.perf_counter()
    quad = _Quadratic()
    lam = upper_tail(quad)
    beta = blomqvist_beta(quad)
    ok_point = lam == 0.5 and abs(beta - (math.sqrt(2.0) - 1.0)) <= 1e-12

    ok_identity = True
    for model in random_models_200[:100]:
        b = blomqvist_beta(model)
        l = upper_tail(model)
        if abs(b - (2.0 ** l - 1.0)) > 8 * math.ulp(1.0 + abs(b)):
            ok_identity = False
            break

    gum = ParametricPickands("gumbel", 2.0)
    g_a = gini_from_pickands(gum)
    g_c = gini_from_copula(EvCopula(gum))
    w_inv = rotate_inverse(gum)

    def inner_density(xv):
        xv = np.asarray(xv, dtype=float)
        return xv * np.asarray(w_inv.deriv2(xv))

    g_f = gini_from_density(inner_density)
    ok_gini = abs(g_a - g_c) <= 5e-3 and abs(g_a - g_f) <= 5e-3

    from evcop.williamson import w_power_complement

    fam_err1 = max(abs(gini_from_pickands(rotate(w_power_complement(th)))
                       - (th - 1.0) / (th + 1.0)) for th in (1.5, 2.0, 4.0))
    fam_err2 = max(abs(gini_from_pickands(rotate(w_uniform_power(th)))
                       - th / (th + 1.0)) for th in (0.5, 1.0, 2.0, 4.0))
    elapsed = time.perf_counter() - start
    ok = (ok_point and ok_identity and ok_gini
          and fam_err1 <= 1e-3 and fam_err2 <= 1e-3 and elapsed < 30.0)
    _report(3, ok, f"lambda=0.5 exact, beta err <=1e-12, identity on 100 "
                   f"models, gini forms |dGc|={abs(g_a - g_c):.1e} "
                   f"|dGf|={abs(g_a - g_f):.1e} (<=5e-3), family errs "
                   f"{fam_err1:.1e}/{fam_err2:.1e} (<=1e-3), {elapsed:.1f}s (<30s)")


def test_criterion_04_copula_laws():
    start = time.perf_counter()
    cop = EvCopula(ParametricPickands("gumbel", 2.0))
    u = np.linspace(1 / 21, 20 / 21, 20)
    uu, vv = np.meshgrid(u, u)
    base = cop.cdf(uu, vv)
    ms = max(float(np.max(np.abs(cop.cdf(uu ** (1 / n), vv ** (1 / n)) ** n
                                 - base))) for n in (2, 5, 10))

    rng = np.random.default_rng(44)
    pu, pv = rng.uniform(0.1, 0.9, size=(2, 100))
    h = 1e-5
    fd_mixed = (cop.cdf(pu + h, pv + h) - cop.cdf(pu - h, pv + h)
                - cop.cdf(pu + h, pv - h) + cop.cdf(pu - h, pv - h)) / (4 * h * h)
    pdf_rel = float(np.max(np.abs(cop.pdf(pu, pv) - fd_mixed) / np.abs(fd_mixed)))

    a = rng.uniform(0.0, 1.0, size=(500, 2))
    b = rng.uniform(0.0, 1.0, size=(500, 2))
    u1, u2 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
    v1, v2 = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
    rect = float(np.min(cop.cdf(u2, v2) - cop.cdf(u1, v2)
                        - cop.cdf(u2, v1) + cop.cdf(u1, v1)))

    fdu = (cop.cdf(pu + 1e-6, pv) - cop.cdf(pu - 1e-6, pv)) / 2e-6
    part_rel = float(np.max(np.abs(cop.partial_u(pu, pv) - fdu) / np.abs(fdu)))
    elapsed = time.perf_counter() - start
    ok = (ms <= 1e-9 and pdf_rel <= 1e-4 and rect >= -1e-10
          and part_rel <= 1e-5 and elapsed < 60.0)
    _report(4, ok, f"max-stability {ms:.1e} (<=1e-9), pdf rel {pdf_rel:.1e} "
                   f"(<=1e-4), rectangle mass {rect:.1e} (>=-1e-10), partial "
                   f"rel {part_rel:.1e} (<=1e-5), {elapsed:.1f}s (<1min)")


def test_criterion_05_convergence_inequalities(basis13, random_models_200):
    start = time.perf_counter()
    rng = np.random.default_rng(55)
    nodes = default_w_nodes()
    probes = np.linspace(0.0, 1.0, 300)
    ok_w = True
    for _ in range(100):
        f = random_spline_density(basis13, rng, scale=0.6)
        g = random_spline_density(basis13, rng, scale=0.6)
        wf = williamson_from_density(f, nodes)
        wg = williamson_from_density(g, nodes)
        gap = float(np.max(np.abs(wf(probes) - wg(probes))))
        if gap > 2.0 * tvd(f, g) + 1e-9:
            ok_w = False
            break

    ok_c = True
    worst_margin = np.inf
    for k in range(100):
        i, j = rng.integers(0, len(random_models_200), size=2)
        res = supnorm_bound_check(random_models_200[i], random_models_200[j])
        worst_margin = min(worst_margin, res.bound - res.measured)
        if res.measured > res.bound + 1e-9:
            ok_c = False
            break
    elapsed = time.perf_counter() - start
    ok = ok_w and ok_c and elapsed < 120.0
    _report(5, ok, f"100 transform pairs within 2*tvd, 100 copula pairs "
                   f"within the sup-norm bound (min margin {worst_margin:.3g}), "
                   f"{elapsed:.1f}s (<2min)")


def test_criterion_06_estimation_quality():
    start = time.perf_counter()
    results = {}
    for name, theta, lam in (("gumbel", 2.0, 1e-5), ("galambos", 1.0, 1e-4)):
        truth = EvCopula(ParametricPickands(name, theta))
        good = 0
        tvs = []
        for seed in range(10):
            sample = truth.simulate(1000, seed=1000 + seed)
            fitted = optimize(z_transform(sample), FitConfig(lam=lam))
            tv = tvd_copulas(EvCopula(fitted.pickands), truth)
            tvs.append(tv)
            good += tv <= 0.10
        results[name] = (good, float(np.median(tvs)))
    elapsed = time.perf_counter() - start
    ok = all(good >= 8 for good, _ in results.values()) and elapsed < 7200.0
    _report(6, ok, f"tvd<=0.10 in gumbel {results['gumbel'][0]}/10 "
                   f"(median {results['gumbel'][1]:.3f}), galambos "
                   f"{results['galambos'][0]}/10 (median "
                   f"{results['galambos'][1]:.3f}), {elapsed:.0f}s (<2h)")


def test_criterion_07_scaled_tvd_study(random_models_200):
    start = time.perf_counter()
    models = random_models_200[:20]
    medians = {}
    for size in (250, 1000, 2000):
        tvs = []
        for cid, model in enumerate(models):
            truth = EvCopula(model)
            rng = np.random.default_rng(
                np.random.SeedSequence((20250810, cid, size)))
            sample = truth.simulate(size, seed=rng)
            fitted = optimize(z_transform(sample), FitConfig(lam=1e-4))
            tvs.append(tvd_copulas(EvCopula(fitted.pickands), truth))
        medians[size] = float(np.median(tvs))
    elapsed = time.perf_counter() - start
    ok = medians[1000] <= 0.08 and medians[2000] <= medians[250]
    _report(7, ok, f"median tvd at n=1000: {medians[1000]:.4f} (<=0.08); "
                   f"medians 250/2000: {medians[250]:.4f}/{medians[2000]:.4f} "
                   f"(monotone), {elapsed:.0f}s")


def test_criterion_08_simulation_correctness():
    class Flat:
        def __call__(self, t):
            return np.ones_like(np.asarray(t, dtype=float))

        def jet(self, t):
            t = np.asarray(t, dtype=float)
            return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)

    ci = EvCopula(Flat())
    sim = ci.simulate(5000, seed=88)
    rng = np.random.default_rng(88)
    u_ref = rng.random(5000)
    p_ref = rng.random(5000)
    exact = np.array_equal(sim[:, 0], u_ref) and np.array_equal(sim[:, 1], p_ref)

    truth = EvCopula(ParametricPickands("gumbel", 2.0))
    sample = truth.simulate(5000, seed=77)
    beta_hat = 4.0 * np.mean((sample[:, 0] <= 0.5) & (sample[:, 1] <= 0.5)) - 1.0
    beta_true = 4.0 ** (1.0 - 2.0 ** -0.5) - 1.0
    beta_err = abs(beta_hat - beta_true)

    t = np.linspace(0.0, 1.0, 201)
    cfg_err = float(np.max(np.abs(cfg_estimator(sample, t)
                                  - truth.pickands(t))))
    ok = exact and beta_err <= 0.05 and cfg_err <= 0.03
    _report(8, ok, f"independence inversion exact: {exact}; blomqvist err "
                   f"{beta_err:.3f} (<=0.05); CFG sup err {cfg_err:.3f} (<=0.03)")


def test_criterion_09_gradient_check():
    truth = EvCopula(ParametricPickands("gumbel", 2.0))
    z = z_transform(truth.simulate(800, seed=99))
    rng = np.random.default_rng(9)
    worst = 0.0
    for dim, lam in ((13, 1e-4), (8, 1e-5), (5, 0.0)):
        # the objective a fit with this basis size and weight maximizes
        lik = PenalizedLikelihood(_fit_chain(dim), z, lam)
        basis = lik.chain.basis
        for _ in range(5):
            theta = 0.3 * rng.standard_normal(basis.dim)
            _, grad = lik.value_and_grad(theta)
            fd = np.empty(basis.dim)
            for i in range(basis.dim):
                h = 1e-6 * max(1.0, abs(theta[i]))
                e = np.zeros(basis.dim)
                e[i] = h
                fd[i] = (lik.value(theta + e) - lik.value(theta - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(grad - fd))
                                     / np.max(np.abs(fd))))
    ok = worst <= 1e-4
    _report(9, ok, f"gradient vs central differences, worst rel err "
                   f"{worst:.2e} (<=1e-4) over 3 configurations x 5 points")


@pytest.fixture(scope="module")
def pipeline_fit_models(basis13):
    models = [pipeline_pickands(basis13, np.zeros(13), True, False)[0]]
    for name, theta, lam, seed in (("gumbel", 2.0, 1e-5, 11),
                                   ("galambos", 1.0, 1e-4, 12)):
        sample = EvCopula(ParametricPickands(name, theta)).simulate(1000,
                                                                    seed=seed)
        models.append(optimize(z_transform(sample),
                               FitConfig(lam=lam)).pickands)
    return models


def test_criterion_10_khoudraji_boundary_slopes(pipeline_fit_models):
    h = 1e-6
    worst = 0.0
    for model in pipeline_fit_models:
        for alpha, beta in ((0.3, 0.8), (0.6, 0.4), (1.0, 0.5)):
            ak = khoudraji(model, alpha, beta)
            s0 = (float(ak(h)) - float(ak(0.0))) / h
            s1 = (float(ak(1.0)) - float(ak(1.0 - h))) / h
            worst = max(worst, abs(s0 + beta), abs(s1 - alpha))
    ok_slopes = worst <= 1e-3

    grid_vals = (0.5, 0.75, 1.0)
    ok_valid = all(validate_pickands(khoudraji(base, a, b)).passed(1e-6)
                   for base in pipeline_fit_models
                   for a in grid_vals for b in grid_vals)
    ok = ok_slopes and ok_valid
    _report(10, ok, f"boundary slopes worst err {worst:.2e} (<=1e-3) on "
                    f"fitted pipeline models; 3x3 parameter grids pass "
                    f"validation: {ok_valid}")


def test_criterion_11_random_generation(basis13, random_models_200):
    start = time.perf_counter()
    omega = curvature_matrix(basis13)
    R = 5.0

    def log_target(theta):
        if np.linalg.norm(theta) > R:
            return -np.inf
        return -1e-4 * float(theta @ omega @ theta)

    chain = mcmc_sample(log_target, 13, 6000, seed=11, step_scale=0.05)
    in_ball = bool(np.max(np.linalg.norm(chain, axis=1)) <= R)

    all_valid = all(validate_pickands(m).passed(1e-6)
                    for m in random_models_200)
    ginis = np.asarray([gini_from_pickands(m) for m in random_models_200])
    spread = bool(ginis.min() <= 0.1 and ginis.max() >= 0.9)
    elapsed = time.perf_counter() - start
    ok = in_ball and all_valid and spread and elapsed < 600.0
    _report(11, ok, f"chain stays in ball: {in_ball}; 200/200 valid: "
                    f"{all_valid}; gini span [{ginis.min():.3f}, "
                    f"{ginis.max():.3f}] covers [0.1, 0.9]: {spread}; "
                    f"{elapsed:.0f}s (<10min)")
