import json
from itertools import islice

import numpy as np
import pytest
from scipy.stats import chi2, ks_2samp, kstest

import evcop.fit
import evcop.pickands
import evcop.williamson
from evcop._quad import gauss_legendre
from evcop.bayes import ClrDensity, integrate_01
from evcop.copula import EvCopula, tvd_copulas
from evcop.errors import InputError, NumericalError
from evcop.families import ParametricPickands
from evcop.fit import (
    _EXP_CLIP,
    _LOG_FLOOR,
    _HhatPipeline,
    _kink_step,
    _line_search,
    _loss_and_grad,
    _maximize,
    _prior_draws,
    FitConfig,
    PenalizedLikelihood,
    default_random_basis,
    empirical_w_grid,
    fit_univariate_density,
    mcmc_sample,
    minimize,
    model_from_dict,
    model_to_dict,
    optimize,
    optimize_many,
    ordering_heuristic,
    pipeline_pickands,
    random_pickands,
    z_transform,
)
from evcop.pickands import (
    blomqvist_beta,
    gini_from_density,
    gini_from_pickands,
    h_density,
    h_formula,
    link,
    rotate,
    upper_tail,
    validate_pickands,
)
from evcop.splinebasis import (
    build_zb_basis,
    curvature_matrix,
    project_center,
    quantile_knots,
)
from evcop.williamson import (
    WilliamsonKernel,
    default_w_nodes,
    normalize_w,
    williamson_from_density,
)


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


def _histogram_flip(z):
    """The flip rule read off numpy's histogram: the rightmost modal bin centre."""
    counts, edges = np.histogram(z, bins=32, range=(0.0, 1.0))
    centers = 0.5 * (edges[:-1] + edges[1:])
    return bool(np.max(centers[counts == counts.max()]) < 0.5)


def test_ordering_heuristic_counts_bins_as_the_histogram_does():
    rng = np.random.default_rng(3)
    edges = np.arange(33) / 32
    flips = 0
    for trial in range(1000):
        n = int(rng.integers(1, 200))
        z = rng.random(n)
        # values on the bin edges k/32 (0 and 1 among them), a few outside
        # [0, 1], and small samples, whose modal bins often tie
        on_edge = rng.random(n) < rng.random()
        z[on_edge] = rng.choice(edges, int(on_edge.sum()))
        if trial % 7 == 0:
            z[: n // 5] = rng.choice([-0.5, -1e-300, 1.0 + 1e-15, 2.0], n // 5)
        decision = ordering_heuristic(z)
        assert decision is _histogram_flip(z), z
        flips += decision
    assert 0 < flips < 1000
    for z in ([0.0], [1.0], [0.5], [0.5 - 2 ** -53], [0.0, 1.0], [-1.0, 2.0]):
        assert ordering_heuristic(np.array(z)) is _histogram_flip(z)


def test_empirical_w_grid_with_exact_pilots(monkeypatch):
    rng = np.random.default_rng(2)
    z = rng.random(800)
    q = np.quantile(z, np.arange(1, 21) / 21)
    monkeypatch.setattr(evcop.fit, "cfg_estimator",
                        lambda zz, qq: np.ones_like(qq))
    grid = empirical_w_grid(z, 20)
    assert np.max(np.abs(grid[1:-1] - q)) <= 1e-12

    monkeypatch.setattr(evcop.fit, "cfg_estimator",
                        lambda zz, qq: qq * qq - qq + 1.0)
    grid2 = empirical_w_grid(z, 20)
    assert np.max(np.abs(grid2[1:-1] - q * q)) <= 1e-12


def test_empirical_w_grid_increasing(gumbel2_sample):
    z = z_transform(gumbel2_sample)
    grid = empirical_w_grid(z, 78)
    assert grid[0] == 0.0 and grid[-1] == 1.0
    assert np.min(np.diff(grid)) > 0.0
    with pytest.raises(InputError):
        empirical_w_grid(z, 1)


def _h_hat_knots(coeffs, basis, x_grid):
    """The objective's z-density knots, divided by their trapezoid mass."""
    (t, h, _), I_h, _ = _HhatPipeline(basis, x_grid).sweep(coeffs)
    return t, h / I_h


def test_build_h_hat_normalization_and_consistency(gumbel2_fit, gumbel2_sample):
    fm = gumbel2_fit
    z = z_transform(gumbel2_sample)
    zf = 1.0 - z if fm.flipped else z
    t, h = _h_hat_knots(fm.coeffs, fm.basis, empirical_w_grid(zf, 78))
    # exact unit mass on its own knots
    assert abs(np.trapezoid(h, t) - 1.0) <= 1e-12

    # converges to the density computed through the dense route as the grid
    # grows; knot values already agree at the default grid size
    dens_model, _, grid = pipeline_pickands(fm.basis, fm.theta,
                                            fm.center_applied, False)
    h_slow = h_density(dens_model)
    zz = np.linspace(0.05, 0.95, 181)
    assert np.max(np.abs(h[1:-1] - h_slow(t[1:-1]))) <= 0.02
    errs = []
    for k in (40, 78, 300):
        tk, hk = _h_hat_knots(fm.coeffs, fm.basis, empirical_w_grid(zf, k))
        errs.append(float(np.max(np.abs(np.interp(zz, tk, hk) - h_slow(zz)))))
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 0.05


def test_build_h_hat_near_independence():
    rng = np.random.default_rng(3)
    uv = rng.random((1500, 2))
    z = z_transform(uv)
    fm = optimize(z, FitConfig(lam=1e-4))
    x_grid = empirical_w_grid(1.0 - z if fm.flipped else z, 78)
    t, h = _h_hat_knots(fm.coeffs, fm.basis, x_grid)
    zz = np.linspace(0.1, 0.9, 101)
    assert np.mean(np.abs(np.interp(zz, t, h) - 1.0)) <= 0.15


def test_penalized_loglik_penalty_scaling(gumbel2_sample):
    z = z_transform(gumbel2_sample)
    x_grid = empirical_w_grid(z, 40)
    knots = quantile_knots(x_grid[1:-1], 10)
    basis = build_zb_basis(knots)
    omega = curvature_matrix(basis)
    rng = np.random.default_rng(4)
    theta = 0.4 * rng.standard_normal(basis.dim)
    l0, l1, l2 = (PenalizedLikelihood(basis, x_grid, z, lam).value(theta)
                  for lam in (0.0, 1.0, 2.0))
    pen = theta @ omega @ theta
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
    lik = PenalizedLikelihood(basis, x_grid, z, lam)
    rng = np.random.default_rng(5)
    for _ in range(5):
        theta = 0.3 * rng.standard_normal(basis.dim)
        _, grad = lik.value_and_grad(theta)
        fd = np.empty(basis.dim)
        for i in range(basis.dim):
            h = 1e-6 * max(1.0, abs(theta[i]))
            e = np.zeros(basis.dim)
            e[i] = h
            fd[i] = (lik.value(theta + e) - lik.value(theta - e)) / (2 * h)
        assert np.max(np.abs(grad - fd)) / np.max(np.abs(fd)) <= 1e-4


def _forward_mode_loss_and_grad(pipe, omega, z, lam, theta):
    """Reference: the objective with one Jacobian column per coefficient.

    This is the forward-mode differentiation the objective used before its
    reverse sweep; the kernel, being linear, is applied column by column.
    """
    kernel = pipe.kernel
    shape = kernel.nodes.shape
    d = theta.size
    p = pipe.B @ theta
    live = np.abs(p) < _EXP_CLIP
    e = np.exp(np.clip(p, -_EXP_CLIP, _EXP_CLIP))
    w, wp, wpp, _, c = kernel(e.reshape(shape))
    w, wp, wpp = w / c, wp / c, wpp / c
    t, a, ap, app = link(kernel.x_in, w, wp, wpp)
    h = h_formula(t, a, ap, app)
    t_full = np.concatenate([[0.0], t, [1.0]])
    h_full = np.concatenate([[0.0], h, [0.0]])
    wt = 0.5 * np.concatenate([[t_full[1] - t_full[0]],
                               t_full[2:] - t_full[:-2],
                               [t_full[-1] - t_full[-2]]])
    I_h = max(float(wt @ h_full), 1e-300)

    J_e = ((e * live)[:, None] * pipe.B).reshape(shape + (d,))
    cols = [kernel(J_e[..., i]) for i in range(d)]
    J_w, J_wp, J_wpp, _, J_c = (np.stack(q, axis=-1) for q in zip(*cols))
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
    J_Ih = 0.5 * (h_full[:-2] - h_full[2:]) @ J_t + wt[1:-1] @ J_h

    idx = np.clip(np.searchsorted(t_full, z, side="right") - 1, 0, pipe.m)
    tl, tr = t_full[idx], t_full[idx + 1]
    hl, hr = h_full[idx], h_full[idx + 1]
    delta = tr - tl
    s = (z - tl) / delta
    raw = hl * (1.0 - s) + hr * s
    live_z = raw / I_h > _LOG_FLOOR
    inv_raw = np.where(live_z, 1.0 / np.maximum(raw, 1e-300), 0.0)
    # rows of J_t and J_h for the left and right knot of every observation;
    # the pinned end knots have zero rows
    J_t_full = np.vstack([np.zeros(d), J_t, np.zeros(d)])
    J_h_full = np.vstack([np.zeros(d), J_h, np.zeros(d)])
    slope = hr - hl
    grad_z = (((1.0 - s) * inv_raw) @ J_h_full[idx]
              + (s * inv_raw) @ J_h_full[idx + 1]
              + (slope * (z - tr) / delta ** 2 * inv_raw) @ J_t_full[idx]
              - (slope * (z - tl) / delta ** 2 * inv_raw) @ J_t_full[idx + 1])
    return grad_z - np.sum(live_z) * J_Ih / I_h - 2.0 * lam * (omega @ theta)


def _gumbel_objective(theta, n):
    """Objective pieces of an n-pair Gumbel sample, set up as `optimize` does."""
    uv = EvCopula(ParametricPickands("gumbel", theta)).simulate(n, seed=3)
    z = z_transform(uv)
    if ordering_heuristic(z):
        z = 1.0 - z
    x_grid = empirical_w_grid(z, 78)
    basis = build_zb_basis(quantile_knots(x_grid[1:-1], 10))
    return (basis, x_grid, z, curvature_matrix(basis), project_center(basis))


@pytest.fixture(scope="module")
def gumbel_objectives():
    """Objective pieces of n=1000 Gumbel samples, keyed by the parameter."""
    return {theta: _gumbel_objective(theta, 1000) for theta in (1.5, 4.0, 20.0)}


def _offset(rng, dim, norm):
    v = rng.standard_normal(dim)
    return norm * v / np.linalg.norm(v)


@pytest.mark.parametrize("dep,n", [
    pytest.param(1.5, 1000, id="1.5"),
    pytest.param(4.0, 1000, id="4.0"),
    pytest.param(20.0, 1000, id="20.0"),
    pytest.param(4.0, 100_000, id="4.0-n100000"),
])
def test_adjoint_gradient_matches_forward_mode(gumbel_objectives, dep, n):
    basis, x_grid, z, omega, center = (
        gumbel_objectives[dep] if n == 1000 else _gumbel_objective(dep, n))
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-4)
    rng = np.random.default_rng(int(dep))
    for norm in (0.0, 1.0, 3.0, 10.0):
        theta = center + _offset(rng, basis.dim, norm)
        _, grad = lik.value_and_grad(theta)
        ref = _forward_mode_loss_and_grad(lik.pipe, omega, z, 1e-4, theta)
        assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_adjoint_gradient_matches_finite_differences(gumbel_objectives):
    basis, x_grid, z, omega, center = gumbel_objectives[1.5]
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-4)
    rng = np.random.default_rng(6)

    def value_and_bins(theta):
        # the objective has kinks where an observation crosses a moving t
        # node; a valid difference quotient keeps every bin fixed
        bins = np.searchsorted(lik.pipe.sweep(theta)[0][0], z)
        return lik.value(theta), bins

    for norm in (0.0, 1.0):
        theta = center + _offset(rng, basis.dim, norm)
        _, grad = lik.value_and_grad(theta)
        bins = value_and_bins(theta)[1]
        fd = np.empty(basis.dim)
        for i in range(basis.dim):
            step = np.zeros(basis.dim)
            step[i] = 1e-6
            up, bins_up = value_and_bins(theta + step)
            down, bins_down = value_and_bins(theta - step)
            assert np.array_equal(bins_up, bins)
            assert np.array_equal(bins_down, bins)
            fd[i] = (up - down) / 2e-6
        assert np.max(np.abs(grad - fd)) <= 1e-6 * np.max(np.abs(grad))


def test_clipped_exponentials_contribute_nothing(gumbel_objectives):
    basis, x_grid, z, omega, center = gumbel_objectives[4.0]
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-4)
    B = lik.pipe.B
    theta = center + _offset(np.random.default_rng(7), basis.dim, 1.0)
    theta *= 1.1 * _EXP_CLIP / np.max(np.abs(B @ theta))
    clipped = np.abs(B @ theta) >= _EXP_CLIP
    assert 0 < np.sum(clipped) < clipped.size
    value, grad = lik.value_and_grad(theta)
    ref = _forward_mode_loss_and_grad(lik.pipe, omega, z, 1e-4, theta)
    assert np.isfinite(value)
    assert np.max(np.abs(grad - ref)) <= 1e-12 * np.max(np.abs(ref))
    # moving the clipped spline values further out changes nothing at all
    B[clipped] *= 2.0
    assert lik.value_and_grad(theta)[0] == value
    assert np.array_equal(lik.value_and_grad(theta)[1], grad)


def test_floored_observations_contribute_nothing(gumbel_objectives):
    basis, x_grid, z, omega, center = gumbel_objectives[1.5]
    theta = center + _offset(np.random.default_rng(8), basis.dim, 1.0)
    # the z-density is pinned to 0 at both ends, so these fall below the floor
    z_floor = np.concatenate([z, [0.0, 1e-300, 1.0]])
    value, grad = PenalizedLikelihood(basis, x_grid, z, 1e-4).value_and_grad(
        theta)
    lik_f = PenalizedLikelihood(basis, x_grid, z_floor, 1e-4)
    value_f, grad_f = lik_f.value_and_grad(theta)
    ref = _forward_mode_loss_and_grad(lik_f.pipe, omega, z_floor, 1e-4, theta)
    assert value_f == pytest.approx(value + 3.0 * np.log(_LOG_FLOOR), abs=1e-9)
    assert np.max(np.abs(grad_f - ref)) <= 1e-12 * np.max(np.abs(ref))
    assert np.array_equal(grad_f, grad)


def _per_observation_hhat(pipe, z, theta):
    """Reference z-density at each observation, located by its own search."""
    (t_full, h_full, _), I_h, _ = pipe.sweep(theta)
    idx = np.clip(np.searchsorted(t_full, z, side="right") - 1, 0, pipe.m)
    tl, tr = t_full[idx], t_full[idx + 1]
    s = (z - tl) / (tr - tl)
    raw = h_full[idx] * (1.0 - s) + h_full[idx + 1] * s
    return raw / max(I_h, 1e-300)


def test_data_term_on_sorted_pseudo_angles(gumbel_objectives):
    # the objective sorts z once and sums per knot segment: knot ties,
    # duplicates, empty segments and floored observations must give what a
    # search per observation gives, whatever the order of the input
    basis, x_grid, z, omega, center = gumbel_objectives[4.0]
    theta = center + _offset(np.random.default_rng(11), basis.dim, 1.0)
    t_full = _HhatPipeline(basis, x_grid).sweep(theta)[0][0]
    # segments 20-29 emptied, knots 5-14 hit exactly, 50 observations
    # repeated, and three at the pinned ends, where h_hat is floored
    kept = z[(z < t_full[20]) | (z >= t_full[30])]
    z_case = np.concatenate([kept, t_full[5:15], kept[:50], [0.0, 1e-300, 1.0]])
    lik = PenalizedLikelihood(basis, x_grid, z_case, 1e-4)
    counts = np.diff(np.searchsorted(lik.z, t_full[1:-1]))
    assert np.sum(counts == 0) >= 9
    hhat = _per_observation_hhat(lik.pipe, z_case, theta)
    assert np.sum(hhat <= _LOG_FLOOR) >= 3

    value, grad = lik.value_and_grad(theta)
    ref_value = (float(np.sum(np.log(np.maximum(hhat, _LOG_FLOOR))))
                 - lik.penalty(theta))
    ref_grad = _forward_mode_loss_and_grad(lik.pipe, omega, z_case, 1e-4, theta)
    assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
    assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))

    shuffled = np.random.default_rng(12).permutation(z_case)
    before = shuffled.copy()
    value_s, grad_s = PenalizedLikelihood(basis, x_grid, shuffled,
                                          1e-4).value_and_grad(theta)
    assert np.array_equal(shuffled, before)
    assert abs(value_s - value) <= 1e-12 * abs(value)
    assert np.max(np.abs(grad_s - grad)) <= 1e-12 * np.max(np.abs(grad))


def _fit_inputs(n=1000):
    """Objectives of five n-pair samples, set up as `optimize` does.

    Independence, Gumbel 1.5, 3 and 8, and Khoudraji's asymmetric
    max-construction on Gumbel 3 (shape 0.6, 0.9), which takes the flip.
    Yields ``(basis, x_grid, likelihood)``.
    """
    rng = np.random.default_rng(13)
    g3 = EvCopula(ParametricPickands("gumbel", 3.0)).simulate(n, seed=14)
    r = rng.random((n, 2))
    samples = [rng.random((n, 2))] + [
        EvCopula(ParametricPickands("gumbel", dep)).simulate(n, seed=15)
        for dep in (1.5, 3.0, 8.0)] + [np.column_stack([
            np.maximum(g3[:, 0] ** (1 / 0.9), r[:, 0] ** (1 / 0.1)),
            np.maximum(g3[:, 1] ** (1 / 0.6), r[:, 1] ** (1 / 0.4))])]
    for uv in samples:
        z = z_transform(uv)
        if ordering_heuristic(z):
            z = 1.0 - z
        x_grid = empirical_w_grid(z, 78)
        basis = build_zb_basis(quantile_knots(x_grid[1:-1], 10))
        yield basis, x_grid, PenalizedLikelihood(basis, x_grid, z, 1e-4,
                                                 project_center(basis))


def test_fused_sweep_matches_link_and_h_formula():
    # at every iterate of a fit, the knots of the fused forward pass are
    # those of the affine link and h_formula on the same kernel output
    for _, _, lik in _fit_inputs():
        pipe = lik.pipe
        iterates = []
        _maximize(lik.value_and_grad, lik.omega, lik.lam, iterates.append)
        assert len(iterates) >= 5
        for theta in iterates:
            coeffs = theta + lik.center
            (t_full, h_full, _), _, _ = pipe.sweep(coeffs)
            e = np.exp(np.clip(pipe.B @ coeffs, -_EXP_CLIP, _EXP_CLIP))
            w, wp, wpp, _, c = pipe.kernel(e.reshape(pipe.kernel.nodes.shape))
            t, a, ap, app = link(pipe.kernel.x_in, w / c, wp / c, wpp / c)
            h = h_formula(t, a, ap, app)
            assert np.max(np.abs(t_full[1:-1] - t) / t) <= 1e-12
            big = h >= 1e-6
            assert np.max(np.abs(h_full[1:-1] - h)[big] / h[big]) <= 1e-12
            assert (t_full[0], t_full[-1], h_full[0], h_full[-1]) == (0, 1, 0, 0)


def test_objective_calls_share_no_state(gumbel_objectives):
    # what one call returns must survive later calls, and a call must not
    # read what an earlier one left
    basis, x_grid, z, omega, center = gumbel_objectives[4.0]
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-4, center)
    rng = np.random.default_rng(16)
    theta1, theta2 = _offset(rng, basis.dim, 1.0), _offset(rng, basis.dim, 3.0)
    value1, grad1 = lik.value_and_grad(theta1)
    lik.value_and_grad(theta2)
    value, grad = lik.value_and_grad(theta1)
    assert value == value1 and np.array_equal(grad, grad1)

    pipe = lik.pipe
    (t_full, h_full, _), I_h, pullback = pipe.sweep(theta1 + center)
    kept = (t_full.copy(), h_full.copy())
    cotangents = (np.cos(np.arange(pipe.m)), np.sin(np.arange(pipe.m)))
    g = pullback(*cotangents)
    later = pipe.sweep(theta2 + center)
    later[2](*cotangents)
    assert np.array_equal(t_full, kept[0]) and np.array_equal(h_full, kept[1])
    assert np.array_equal(pullback(*cotangents), g)

    # samples of other sizes on one pipeline, as on a fresh one each
    z_sorted = np.sort(z)
    for sample in (z_sorted, z_sorted[::3], z_sorted[:-1], z_sorted):
        ll, g = _loss_and_grad(pipe, sample, theta1 + center, True)
        ref_ll, ref_g = _loss_and_grad(_HhatPipeline(basis, x_grid), sample,
                                       theta1 + center, True)
        assert ll == ref_ll and np.array_equal(g, ref_g)


def _count_pipeline_builds(monkeypatch):
    builds = []
    init = _HhatPipeline.__init__

    def counted(self, *args, **kwargs):
        builds.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(_HhatPipeline, "__init__", counted)
    return builds


def test_value_and_grad_is_the_loss_and_grad_composition(gumbel_objectives):
    # the data term at theta + center minus the penalty on theta, as the
    # optimizer composed it by hand before the likelihood object
    basis, x_grid, z, omega, center = gumbel_objectives[4.0]
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-4, center)
    pipe = _HhatPipeline(basis, x_grid)
    z_sorted = np.sort(z)
    rng = np.random.default_rng(10)
    for norm in (0.0, 1.0, 3.0):
        theta = _offset(rng, basis.dim, norm)
        ll, g = _loss_and_grad(pipe, z_sorted, theta + center, True)
        value, grad = lik.value_and_grad(theta)
        assert value == ll - 1e-4 * float(theta @ omega @ theta)
        assert np.array_equal(grad, g - 2.0 * 1e-4 * (omega @ theta))
        assert lik.value(theta) == value


def _assert_call_matches_references(pipe, basis, x_grid, z, theta, omega):
    """One objective call on a used pipeline against a fresh one and forward mode."""
    ll, g = _loss_and_grad(pipe, z, theta, True)
    ref_ll, ref_g = _loss_and_grad(_HhatPipeline(basis, x_grid), z, theta, True)
    assert ll == ref_ll and np.array_equal(g, ref_g)
    hhat = _per_observation_hhat(pipe, z, theta)
    direct = float(np.sum(np.log(np.maximum(hhat, _LOG_FLOOR))))
    assert abs(ll - direct) <= 1e-12 * abs(direct)
    ref = _forward_mode_loss_and_grad(pipe, omega, z, 0.0, theta)
    assert np.max(np.abs(g - ref)) <= 1e-12 * np.max(np.abs(ref))
    return hhat


def test_empty_knot_segments_match_the_references():
    # with empty segments the per-segment sums are scattered into zeros;
    # with none they come straight from one reduction.  Small samples
    # leave many of the 79 segments empty: the five n = 250 fit inputs at
    # every fourth iterate of their fits, and n = 40
    cases = []
    for basis, x_grid, lik in _fit_inputs(250):
        iterates = [np.zeros(basis.dim)]
        _maximize(lik.value_and_grad, lik.omega, lik.lam, iterates.append)
        cases.append((basis, x_grid, lik, iterates[::4]))
    uv = EvCopula(ParametricPickands("gumbel", 2.0)).simulate(40, seed=17)
    z = z_transform(uv)
    x_grid = empirical_w_grid(z, 78)
    basis = build_zb_basis(quantile_knots(x_grid[1:-1], 10))
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-4, project_center(basis))
    rng = np.random.default_rng(18)
    cases.append((basis, x_grid, lik, [_offset(rng, basis.dim, norm)
                                       for norm in (0.0, 1.0, 3.0)]))
    empties = []
    for basis, x_grid, lik, thetas in cases:
        for theta in thetas:
            coeffs = theta + lik.center
            t_full = lik.pipe.sweep(coeffs)[0][0]
            bounds = np.concatenate([[0], lik.z.searchsorted(t_full[1:-1]),
                                     [lik.z.size]])
            empties.append(int(np.sum(np.diff(bounds) == 0)))
            _assert_call_matches_references(lik.pipe, basis, x_grid, lik.z,
                                            coeffs, lik.omega)
    assert len(empties) >= 50 and max(empties) >= 30
    assert sum(e > 0 for e in empties) >= 0.9 * len(empties)


def test_floored_and_unfloored_calls_share_no_state(gumbel_objectives):
    # a floored call runs the floor step and an unfloored one skips it; on
    # one pipeline, in either order, each must give what a fresh one gives
    basis, x_grid, z, omega, center = gumbel_objectives[1.5]
    theta = center + _offset(np.random.default_rng(19), basis.dim, 1.0)
    plain = np.sort(z)
    floored = np.sort(np.concatenate([z, [0.0, 1e-300, 1.0]]))
    for order in ((floored, plain), (plain, floored)):
        pipe = _HhatPipeline(basis, x_grid)
        for sample in order:
            hhat = _assert_call_matches_references(pipe, basis, x_grid,
                                                   sample, theta, omega)
            assert (np.min(hhat) <= _LOG_FLOOR) == (sample is floored)


def test_a_stacked_objective_gives_each_fit_its_own(gumbel_objectives):
    # one call on a stack of pipelines, whose fits include one with floored
    # densities, one whose 40 observations leave most segments empty and
    # one whose exponentials are clipped, gives each fit the data term and
    # gradient of a call on its own pipeline, to the last bit; the floor
    # step that the floored fit forces on all changes nothing for the rest
    rng = np.random.default_rng(21)
    fits = []
    for (dep, (basis, x_grid, z, _, center)), norm in zip(
            gumbel_objectives.items(), (1.0, 3.0, 400.0)):
        pipe = _HhatPipeline(basis, x_grid)
        zs = np.sort(z)
        fits.append((pipe, zs, center + _offset(rng, basis.dim, norm)))
        if dep == 1.5:
            floored = np.sort(np.concatenate([z, [0.0, 1e-300, 1.0]]))
            fits.append((pipe, floored, center + _offset(rng, basis.dim, 1.0)))
            fits.append((pipe, zs[::25],
                         center + _offset(rng, basis.dim, 3.0)))
    assert len({pipe.B.shape for pipe, _, _ in fits}) == 1
    pipe, _, theta = fits[-1]
    assert np.max(np.abs(pipe.B @ theta)) >= _EXP_CLIP
    stack = _HhatPipeline.stack([pipe for pipe, _, _ in fits])
    theta = np.stack([theta for _, _, theta in fits])
    for want_grad in (True, False):
        ll, grad = _loss_and_grad(stack, tuple(z for _, z, _ in fits), theta,
                                  want_grad)
        for f, (pipe, z, theta_f) in enumerate(fits):
            ll_f, grad_f = _loss_and_grad(pipe, z, theta_f, want_grad)
            assert ll[f] == ll_f
            if want_grad:
                assert grad[f].tobytes() == grad_f.tobytes()


def test_a_fit_in_a_lockstep_group_is_the_fit_alone(monkeypatch):
    # a group that mixes grid sizes (one grid keeps 76 interior nodes) and
    # sample sizes 250 and 1000, with a run that fails in set-up: every
    # other fit ends where it ends alone, after the same steps, and the
    # failed one raises what it raises alone
    truths = [EvCopula(m) for m in random_pickands(1e-4, 5.0, 2, seed=3)]
    gumbel = EvCopula(ParametricPickands("gumbel", 3.0))
    samples = [z_transform(truths[1].simulate(250, seed=1)),
               z_transform(truths[0].simulate(1000, seed=2)),
               np.full(10, 0.5),
               z_transform(truths[1].simulate(1000, seed=4)),
               z_transform(gumbel.simulate(250, seed=5))]
    configs = [None, FitConfig(), None, FitConfig(lam=1e-5), None]
    stacked = []

    def counted(pipe, z, theta, want_grad):
        stacked.append(theta.ndim == 2)
        return _loss_and_grad(pipe, z, theta, want_grad)

    monkeypatch.setattr(evcop.fit, "_loss_and_grad", counted)
    group = optimize_many(samples, configs)
    assert any(stacked)
    for outcome, z, config in zip(group, samples, configs):
        try:
            alone = optimize(z, config)
        except InputError as exc:
            assert isinstance(outcome, InputError)
            assert str(outcome) == str(exc)
            continue
        assert outcome.theta.tobytes() == alone.theta.tobytes()
        assert ((outcome.iterations, outcome.evaluations, outcome.grad_max,
                 outcome.message, outcome.loglik, outcome.converged)
                == (alone.iterations, alone.evaluations, alone.grad_max,
                    alone.message, alone.loglik, alone.converged))
    assert sum(isinstance(o, InputError) for o in group) == 1
    # the fitting grids: 78 and 76 interior nodes
    fitting = {evcop.fit._set_up(z, c).lik.pipe.m
               for z, c in zip(samples, configs) if z.size >= 30}
    assert fitting == {76, 78}


@pytest.mark.parametrize("configs", [[None], []])
def test_optimize_many_refuses_unequal_lists(gumbel2_sample, configs):
    # zipping would drop the samples without a config
    z = z_transform(gumbel2_sample)
    with pytest.raises(InputError, match=f"2 samples but {len(configs)} "):
        optimize_many([z, z], configs)


def test_optimize_builds_one_pipeline(gumbel2_sample, monkeypatch):
    builds = _count_pipeline_builds(monkeypatch)
    optimize(z_transform(gumbel2_sample), FitConfig(lam=1e-4))
    assert len(builds) == 1


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
    # the objective optimize maximizes, set up as it does, at every accepted
    # iterate
    z = z_transform(gumbel2_sample)
    if ordering_heuristic(z):
        z = 1.0 - z
    x_grid = empirical_w_grid(z, evcop.fit._GRID_K)
    basis = build_zb_basis(quantile_knots(x_grid[1:-1], 10))
    lik = PenalizedLikelihood(basis, x_grid, z, 1e-5, project_center(basis))
    trace = []
    _maximize(lik.value_and_grad, lik.omega, lik.lam,
              lambda theta: trace.append(lik.value(theta)))
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

    assert fm.theta @ _cm(fm.basis) @ fm.theta <= 1e-4


def test_optimize_gumbel_quality(gumbel2, gumbel2_fit):
    tv = tvd_copulas(EvCopula(gumbel2_fit.pickands), gumbel2)
    assert tv <= 0.10
    assert validate_pickands(gumbel2_fit.pickands).passed(1e-6)


def test_flip_mirror_consistency(gumbel2):
    uv = gumbel2.simulate(2000, seed=33)
    z = z_transform(uv)
    a_flip = optimize(z, FitConfig(lam=1e-5, flip=True)).pickands
    a_plain = optimize(z, FitConfig(lam=1e-5, flip=False)).pickands
    t = np.linspace(0, 1, 301)
    assert np.max(np.abs(a_flip(t) - a_plain(t))) <= 0.03

    # fitting z with a forced flip equals fitting 1 - z and mirroring back
    a_of_mirrored = optimize(1.0 - z, FitConfig(lam=1e-5, flip=False)).pickands
    assert np.max(np.abs(a_flip(t) - a_of_mirrored(1.0 - t))) <= 1e-12


def test_fit_univariate_density_roundtrip():
    rng = np.random.default_rng(6)
    sample = rng.beta(2.0, 4.0, size=800) * 80.0 + 10.0
    fit = fit_univariate_density(sample, (5.0, 95.0), 9, 1.0)
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
            rng.random(n), (-0.01, 1.01), 7, 1e-2).theta) for _ in range(3)]
        norms.append(float(np.mean(vals)))
    assert norms[1] < norms[0]
    assert norms[1] < 0.2


def test_fit_univariate_density_ligo_config():
    rng = np.random.default_rng(8)
    sample = np.concatenate([rng.lognormal(0.5, 0.4, 60) + 1.0,
                             rng.lognormal(3.0, 0.3, 40)])
    sample = np.clip(sample, 1.05, 99.0)
    fit = fit_univariate_density(sample, (1.0, 100.0), 17, 10.0)
    assert fit.basis.dim == 17
    assert fit.converged
    assert np.all(fit.pdf(np.linspace(2, 95, 40)) >= 0.0)


def test_fit_univariate_density_bounds_checked():
    with pytest.raises(InputError):
        fit_univariate_density(np.array([0.5, 1.5]), (0.0, 1.0))


def _scipy_lbfgsb(fun, x0, callback=None):
    """The oracle: scipy's L-BFGS-B with the settings the port copies.

    The port keeps every pair since its last restart, and it makes at most
    one pair per iteration, so its memory is L-BFGS-B's at ``maxcor`` equal
    to the iteration cap.
    """
    from scipy.optimize import minimize as scipy_minimize
    return scipy_minimize(fun, x0, jac=True, method="L-BFGS-B",
                          callback=callback,
                          options={"maxiter": 500, "gtol": 1e-4,
                                   "ftol": 1e-13, "maxcor": 500})


def _rosen(x):
    from scipy.optimize import rosen, rosen_der
    return rosen(x), rosen_der(x)


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_minimize_takes_scipys_path_on_rosenbrock(n, seed):
    x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, n)
    ours, ref = evcop.fit.minimize(_rosen, x0), _scipy_lbfgsb(_rosen, x0)
    assert (ours.nit, ours.nfev, ours.message) == (ref.nit, ref.nfev,
                                                   ref.message)
    assert ours.success and np.max(np.abs(ours.x - ref.x)) <= 1e-10
    # past 20 iterations the directions use pairs that a memory of 20
    # would have dropped
    assert ours.nit > 20


def test_minimize_reaches_scipys_value_in_13_dimensions():
    for seed in range(3):
        x0 = np.random.default_rng(seed).uniform(-2.0, 2.0, 13)
        ours, ref = evcop.fit.minimize(_rosen, x0), _scipy_lbfgsb(_rosen, x0)
        assert ours.success and ours.nit > 20
        assert abs(_rosen(ours.x)[0] - ref.fun) <= 1e-9


def test_univariate_fit_matches_the_scipy_optimizer(monkeypatch):
    rng = np.random.default_rng(6)
    sample = rng.beta(2.0, 4.0, size=800) * 80.0 + 10.0
    rng = np.random.default_rng(8)
    bimodal = np.clip(np.concatenate([rng.lognormal(0.5, 0.4, 60) + 1.0,
                                      rng.lognormal(3.0, 0.3, 40)]), 1.05, 99.0)
    cases = [(sample, (5.0, 95.0), 9, 1.0), (bimodal, (1.0, 100.0), 17, 10.0)]
    ours = [fit_univariate_density(*case).theta for case in cases]
    monkeypatch.setattr(evcop.fit, "minimize", _scipy_lbfgsb)
    for theta, case in zip(ours, cases):
        assert np.max(np.abs(theta - fit_univariate_density(*case).theta)) <= 1e-8


@pytest.mark.parametrize("good_calls", [0, 6])
def test_an_ascent_gradient_ends_abnormal(good_calls):
    # from the first call (no pairs yet) or after a few good steps (a restart
    # from steepest descent first), a gradient of the wrong sign makes every
    # line search fail
    calls = []

    def value_and_grad(theta):
        calls.append(None)
        value, grad = _rosen(theta)
        return -value, grad * (-1 if len(calls) <= good_calls else 1)

    theta, run = _maximize(value_and_grad, np.eye(2), 0.0)
    assert not run.converged
    assert run.message.startswith("ABNORMAL")
    assert run.evaluations == len(calls)
    assert (run.iterations > 0) == (good_calls > 0)


def test_kink_step_is_where_the_tangents_of_a_v_meet():
    # on a quadratic the mean slope of a bracket is the mean of its end
    # slopes: no kink; on a V the tangents meet at the kink, kept 1% inside
    for a, b in [(0.0, 1.0), (2.0, -3.0), (0.2, 0.25)]:
        mid = 0.3 * a + 0.7 * b
        f, g = (lambda s: (s - mid) ** 2), (lambda s: 2.0 * (s - mid))
        assert _kink_step(a, f(a), g(a), b, f(b), g(b)) is None
    for kink, step in [(0.1, 0.1), (0.9, 0.9), (0.001, 0.01), (0.5, None)]:
        v = lambda s: 3.0 * abs(s - kink) + 0.5 * s
        dv = lambda s: 0.5 + (3.0 if s > kink else -3.0)
        # the best end may be either one
        for a, b in [(0.0, 1.0), (1.0, 0.0)]:
            found = _kink_step(a, v(a), dv(a), b, v(b), dv(b))
            assert found is None if step is None else found == pytest.approx(step)
    # slopes of one sign: no bracket of a kink
    assert _kink_step(0.0, 0.0, -1.0, 1.0, -0.1, -0.5) is None


def _kinked(x):
    """``10 |x0 - 0.3| + x1^2``, kinked along ``x0 = 0.3``."""
    return (10.0 * abs(x[0] - 0.3) + x[1] ** 2,
            np.array([10.0 * np.sign(x[0] - 0.3), 2.0 * x[1]]))


def _searched(fun, search):
    """The result of a line search, a generator of trial points, run on ``fun``."""
    try:
        x = next(search)
        while True:
            x = search.send(fun(x))
    except StopIteration as stop:
        return stop.value


def test_line_search_steps_onto_a_kink(monkeypatch):
    # from (0, 0.5) along -g = (10, -1) the first trial, step 1, crosses the
    # kink at step 0.03; Moré-Thuente's cubic steps land 9.9e-4 from it in 5
    # evaluations, the tangents' meeting point 4.4e-6 from it in 4
    x = np.array([0.0, 0.5])
    f, g = _kinked(x)
    d = -g

    def search():
        return _searched(_kinked, _line_search(x, x + d, d, f, g,
                                               float(g @ d), 1.0))

    (stp, *_), evals = search()
    monkeypatch.setattr(evcop.fit, "_kink_step", lambda *ends: None)
    (stp_off, *_), evals_off = search()
    assert (evals, evals_off) == (4, 5)
    # within 1% of the first bracket [0, 1] either way; the kink step also
    # within 1e-5 of it
    assert abs(stp - 0.03) <= 1e-5 < abs(stp_off - 0.03) <= 0.01


@pytest.mark.parametrize("n", [2, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kink_step_never_fires_on_rosenbrock(n, seed, monkeypatch):
    # a smooth function keeps Moré-Thuente's steps, so the port keeps
    # scipy's path (test_minimize_takes_scipys_path_on_rosenbrock)
    steps = []

    def counted(*ends):
        steps.append(_kink_step(*ends))
        return steps[-1]

    monkeypatch.setattr(evcop.fit, "_kink_step", counted)
    evcop.fit.minimize(_rosen, np.random.default_rng(seed).uniform(-2.0, 2.0, n))
    assert steps and steps.count(None) == len(steps)


def test_a_nan_trial_value_is_never_accepted():
    # a line-search trial leaves the region where the objective is defined;
    # the search steps back and the fit converges
    values, accepted = [], []

    def fun(x):
        value, grad = _rosen(x)
        values.append(value if np.max(np.abs(x)) < 1.5 else np.nan)
        return values[-1], grad

    res = evcop.fit.minimize(fun, np.array([-1.2, 1.0]), accepted.append)
    assert np.isnan(values).sum() >= 1
    assert all(np.max(np.abs(x)) < 1.5 for x in accepted)
    assert res.success and np.max(np.abs(res.x - 1.0)) <= 1e-3


def _search_reusing_the_last_trial(x, z, d, finit, g0, ginit, stp):
    """The port's search, kink step included, reusing only ``x`` and its last trial.

    The reference for the trial memo of ``evcop.fit._line_search``, and a
    generator of trial points as it is: the same steps, but a trial that
    lands on an earlier trial point other than the last one is yielded
    again.
    """
    from evcop.fit import (_dcstep, _kink_step, _LS_FTOL, _LS_GTOL, _LS_XTOL,
                           _MAXLS, _STPMAX)
    gtest = _LS_FTOL * ginit
    width, width1 = _STPMAX, 2.0 * _STPMAX
    stx = sty = 0.0
    fx = fy = finit
    gx = gy = ginit
    stmin, stmax, stpmax = 0.0, stp + 4.0 * stp, _STPMAX
    brackt, stage1 = False, True
    xl, fl, gl = x, finit, g0
    nfev = 0
    for trial in range(_MAXLS):
        xt = z if stp == 1.0 else x + stp * d
        if trial and (xt == x).all():
            f, g = finit, g0
        elif trial and (xt == xl).all():
            f, g = fl, gl
        else:
            xl, (fl, gl) = xt, (yield xt)
            f, g, nfev = fl, gl, nfev + 1
        f, gd = float(f), float(g @ d)
        if not (np.isfinite(f) and np.isfinite(gd)):
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
            return (stp, xt, f, g, gd), nfev
        try:
            if stage1 and ftest < f <= fx:
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
    return None, nfev


def _recorded_fit(z, search, monkeypatch):
    """``optimize(z)`` with ``search``: the points evaluated, iterates and run."""
    points, iterates, runs = [], [], []

    def recording(fun, x0, callback=None):
        def fun_logged(x):
            points.append(x.tobytes())
            return fun(x)

        runs.append(minimize(fun_logged, x0,
                             lambda x: iterates.append(x.tobytes())))
        return runs[-1]

    monkeypatch.setattr(evcop.fit, "_line_search", search)
    monkeypatch.setattr(evcop.fit, "minimize", recording)
    optimize(z)
    return points, iterates, runs[0]


@pytest.fixture(scope="module")
def fit1k_structures():
    """The five dependence structures of the fit benchmark's inputs."""
    gumbel = [EvCopula(ParametricPickands("gumbel", th))
              for th in (1.5, 3.0, 8.0)]
    tawn = EvCopula(evcop.pickands.khoudraji(ParametricPickands("gumbel", 3.0),
                                             0.6, 0.9))
    samples = []
    for seed in (1, 2):
        for n in (250, 1000):
            uniform = np.random.default_rng(seed).random((n, 2))
            samples += [z_transform(uniform)] + [
                z_transform(c.simulate(n, seed=seed)) for c in gumbel + [tawn]]
    return samples


def test_line_search_evaluates_no_point_twice(fit1k_structures, monkeypatch):
    # the memo of every trial changes which calls are made, never a value:
    # both searches take the same path, and the memo saves exactly the
    # reference's repeated points
    repeats = 0
    for z in fit1k_structures:
        ref_points, ref_iterates, ref = _recorded_fit(
            z, _search_reusing_the_last_trial, monkeypatch)
        points, iterates, run = _recorded_fit(z, _line_search, monkeypatch)
        assert iterates == ref_iterates
        assert (run.nit, run.message) == (ref.nit, ref.message)
        assert run.x.tobytes() == ref.x.tobytes()
        assert len(set(points)) == len(points) == run.nfev
        ref_repeats = len(ref_points) - len(set(ref_points))
        assert run.nfev == ref.nfev - ref_repeats
        repeats += ref_repeats
    assert repeats > 0


def test_optimize_calls_the_objective_once_per_evaluation(fit1k_structures,
                                                          monkeypatch):
    # once per optimizer evaluation, and once more for the saved model's
    # data term, which equals a fresh evaluation to the last bit
    calls, objectives = [], []

    def counted(*args):
        calls.append(None)
        return _loss_and_grad(*args)

    def recorded(objective, *args):
        objectives.append(objective)
        return _maximize(objective, *args)

    monkeypatch.setattr(evcop.fit, "_loss_and_grad", counted)
    monkeypatch.setattr(evcop.fit, "_maximize", recorded)
    for z in fit1k_structures:
        calls.clear()
        fm = optimize(z)
        assert len(calls) == fm.evaluations + 1
        lik = objectives[-1].__self__
        fresh = _loss_and_grad(lik.pipe, lik.z, fm.theta + lik.center, False)
        assert fm.loglik == fresh[0]


def _state(value):
    """A snapshot of ``value``: arrays by dtype, shape and bytes, objects by
    their attributes and dicts by their entries, anything else as it is."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if hasattr(value, "__dict__"):
        value = vars(value)
    if isinstance(value, dict):
        return {k: _state(v) for k, v in value.items()}
    return value


def test_a_fit_leaves_its_likelihood_and_pipeline_as_set_up(fit1k_structures,
                                                             monkeypatch):
    # a fit keeps no state between calls: after the descent and the
    # tabulation, alone or in lockstep, every attribute of its likelihood,
    # of the likelihood's pipeline and of the pipeline's kernel holds what
    # set-up left there
    made = []
    set_up = evcop.fit._set_up

    def recorded(*args):
        setup = set_up(*args)
        made.append((setup.lik, _state(setup.lik)))
        return setup

    monkeypatch.setattr(evcop.fit, "_set_up", recorded)
    samples = fit1k_structures[:5]
    for z in samples:
        optimize(z)
    optimize_many(samples, [None] * len(samples))
    assert len(made) == 2 * len(samples)
    for lik, state in made:
        assert _state(lik) == state


@pytest.mark.parametrize("bad", [np.nan, np.inf, -1.0])
def test_penalty_weights_and_radii_must_be_finite(bad):
    # NaN passes every "< 0" test; it must be refused like a negative value
    with pytest.raises(InputError, match="finite"):
        FitConfig(lam=bad)
    with pytest.raises(InputError, match="finite"):
        fit_univariate_density(np.array([0.3, 0.5, 0.7]), (0.0, 1.0), 5, bad)
    with pytest.raises(InputError, match="finite"):
        random_pickands(bad, 5.0, 1)
    with pytest.raises(InputError, match="finite"):
        random_pickands(1e-4, bad, 1)


def test_mcmc_gaussian_moments():
    chain = mcmc_sample(lambda x: -0.5 * float(x @ x), 2, 20000, seed=5)
    assert np.max(np.abs(chain.mean(axis=0))) <= 0.1
    cov = np.cov(chain.T)
    assert np.max(np.abs(cov - np.eye(2))) <= 0.15


def test_mcmc_requires_finite_start():
    with pytest.raises(InputError):
        mcmc_sample(lambda x: -np.inf, 2, 100, seed=0)


def test_mcmc_truncated_prior_stays_in_ball(basis13):
    omega = curvature_matrix(basis13)
    R = 2.0

    def log_target(theta):
        if np.linalg.norm(theta) > R:
            return -np.inf
        return -1e-4 * float(theta @ omega @ theta)

    chain = mcmc_sample(log_target, 13, 4000, seed=6, step_scale=0.05)
    assert np.max(np.linalg.norm(chain, axis=1)) <= R


def test_mcmc_mode_consistent_with_map(gumbel2_sample, monkeypatch):
    z = z_transform(gumbel2_sample)
    cfg = FitConfig(lam=1e-4, flip=False)
    fm = optimize(z, cfg)
    x_grid = empirical_w_grid(z, evcop.fit._GRID_K)
    builds = _count_pipeline_builds(monkeypatch)
    # same objective the optimizer maximizes: data term plus the curvature
    # penalty on the perturbation away from the center
    lik = PenalizedLikelihood(fm.basis, x_grid, z, cfg.lam,
                              project_center(fm.basis))

    def log_target(theta):
        if np.linalg.norm(theta) > 8.0:
            return -np.inf
        return lik.value(theta)

    chain = mcmc_sample(log_target, fm.basis.dim, 8000, seed=7,
                        step_scale=0.05, x0=fm.theta)
    best = max(log_target(s) for s in chain[::20])
    assert log_target(fm.theta) - best <= 2.0
    assert best <= log_target(fm.theta) + 1e-6
    assert len(builds) == 1


def test_random_basis_needs_more_functions_than_the_degree():
    for dim in (0, 2, 3):
        with pytest.raises(InputError,
                           match=f"basis_dim must be >= 4, got {dim}$"):
            default_random_basis(dim)
    assert default_random_basis(4).dim == 4


@pytest.fixture(scope="module")
def random_prior():
    """Curvature matrix and center of the basis random models use."""
    basis = default_random_basis()
    return curvature_matrix(basis), project_center(basis)


def _draws(lam, R, prior, seed, n):
    rng = np.random.default_rng(seed)
    return np.array(list(islice(_prior_draws(lam, R, *prior, rng), n)))


def test_flat_prior_is_uniform_on_the_ball(random_prior):
    # at lam = 0 every direction is flat: P(|theta| <= r) = (r / R)^13
    norms = np.linalg.norm(_draws(0.0, 5.0, random_prior, 13, 2000), axis=1)
    assert kstest(norms, lambda r: (r / 5.0) ** 13).pvalue > 0.01


@pytest.mark.parametrize("lam", [1e-3, 1e-5, 1e-7, 0.0])
def test_prior_draws_stay_in_the_ball(random_prior, lam):
    draws = _draws(lam, 5.0, random_prior, 14, 500)
    assert draws.shape == (500, 13)
    assert np.max(np.linalg.norm(draws, axis=1)) <= 5.0


def test_penalized_directions_follow_the_gaussian_prior(random_prior):
    # at lam = 1e-2 the penalized coordinates spread about 0.4, far inside
    # R = 5, so away from the ball's edge along the null direction
    # 2 lam (theta + c)' Omega (theta + c) is chi-square with 12 dof
    omega, center = random_prior
    draws = _draws(1e-2, 5.0, random_prior, 15, 2000)
    null = np.linalg.eigh(omega)[1][:, 0]
    inner = draws[np.abs(draws @ null) <= 4.0] + center
    q = 2e-2 * np.einsum("ij,jk,ik->i", inner, omega, inner)
    assert kstest(q, chi2(12).cdf).pvalue > 0.01


def test_same_seed_gives_same_random_models():
    t = np.linspace(0.0, 1.0, 101)
    first = random_pickands(1e-4, 5.0, 3, seed=21)
    second = random_pickands(1e-4, 5.0, 3, seed=21)
    assert all(np.array_equal(a(t), b(t)) for a, b in zip(first, second))


def test_prior_sampler_reports_low_acceptance(monkeypatch):
    # about 1e-4 of the proposals land in the ball at lam = 1e-9, R = 5
    monkeypatch.setattr(evcop.fit, "_PRIOR_BUDGET", 4 * 1024)
    with pytest.raises(NumericalError, match=r"acceptance .* lam=1e-09, R=5"):
        random_pickands(1e-9, 5.0, 50, seed=0)


def _metropolis_prior_states(lam, R, n, seed, thin=3000):
    """Reference: the chain random_pickands ran before it sampled exactly.

    Same target, starting step, chain length and thinning.
    """
    basis = default_random_basis()
    omega = curvature_matrix(basis)
    center = project_center(basis)

    def log_target(theta):
        if np.linalg.norm(theta) > R:
            return -np.inf
        tb = theta + center
        return -lam * float(tb @ omega @ tb)

    stiffness = max(1.0, lam * float(np.linalg.eigvalsh(omega)[-1]))
    step0 = min(0.3 * R, 2.4 / np.sqrt(stiffness)) / np.sqrt(basis.dim)
    total = max(int(np.ceil(1.3 * n * thin / 0.8)) + 200, 4000)
    chain = mcmc_sample(log_target, basis.dim, total, seed=seed,
                        step_scale=step0)
    return basis, chain[::thin][:n]


def test_exact_prior_matches_metropolis_reference(random_models_200):
    # the reference chain has the seed the 200 study models were drawn with
    # before the exact sampler
    basis, states = _metropolis_prior_states(1e-4, 5.0, 200, seed=20250810)
    reference = [gini_from_pickands(pipeline_pickands(basis, theta, True,
                                                      False)[0])
                 for theta in states]
    exact = [gini_from_pickands(m) for m in random_models_200]
    assert len(exact) == len(reference) == 200
    assert ks_2samp(exact, reference).pvalue > 0.01


def test_random_pickands_validity_and_mirroring(random_prior):
    models = random_pickands(1e-4, 5.0, 6, seed=8)
    # the unmirrored models, rebuilt from the same seed's prior draws
    basis = default_random_basis()
    raw = [pipeline_pickands(basis, theta, True, False)[0]
           for theta in _draws(1e-4, 5.0, random_prior, 8, 6)]
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
    for name in ("converged", "iterations", "evaluations", "grad_max",
                 "message"):
        assert getattr(clone, name) == getattr(gumbel2_fit, name), name
    assert gumbel2_fit.evaluations >= gumbel2_fit.iterations >= 1
    assert gumbel2_fit.message
    # model files written before the optimizer record still load
    old = {**doc, "diagnostics": {k: v for k, v in doc["diagnostics"].items()
                                  if k not in ("evaluations", "grad_max",
                                               "message")}}
    legacy = model_from_dict(old)
    assert (legacy.evaluations, legacy.message) == (0, "")
    assert np.isnan(legacy.grad_max)
    with pytest.raises(InputError):
        model_from_dict({"degree": 3})


def test_pipeline_validity_across_random_coefficients(basis13):
    rng = np.random.default_rng(9)
    for _ in range(5):
        theta = 0.7 * rng.standard_normal(13)
        model, _, _ = pipeline_pickands(basis13, theta, True, False)
        assert validate_pickands(model).passed(1e-6)
    # directions at the radius of the study's default prior ball; a draw may
    # be refused with NumericalError, but no returned model may be invalid
    basis = default_random_basis()
    refused = 0
    for _ in range(60):
        theta = rng.standard_normal(13)
        theta *= 5.0 / np.linalg.norm(theta)
        try:
            model, _, _ = pipeline_pickands(basis, theta, True, False)
        except NumericalError:
            refused += 1
            continue
        assert validate_pickands(model).passed(1e-6)
    assert refused <= 5


def test_random_directions_pass_the_mass_self_check():
    # 60 directions per norm up to the largest norm fits reach; before the
    # density had one accurate mass rule, 83 of these 300 draws were refused
    # by a W(0+) range check that read the error of the density's mass
    basis = default_random_basis()
    edges = np.unique(np.concatenate([default_w_nodes(),
                                      basis.knot_config.breakpoints]))
    fine = edges[:-1, None] + np.diff(edges)[:, None] * np.arange(4) / 4
    nodes, weights = gauss_legendre(np.append(fine.ravel(), 1.0), 12)
    design = basis.evaluate(nodes)
    rng = np.random.default_rng(1)
    for norm in (5.0, 10.0, 30.0, 60.0, 105.0):
        for _ in range(60):
            theta = rng.standard_normal(13)
            theta *= norm / np.linalg.norm(theta)
            try:
                model, dens, _ = pipeline_pickands(basis, theta, True, False)
            except NumericalError as exc:
                assert "exp range" in str(exc)
                continue
            reference = weights @ np.exp(design @ dens.coeffs)
            assert abs(dens.norm / reference - 1.0) <= 1e-5
            assert abs(gini_from_density(dens)
                       - gini_from_pickands(model)) <= 1e-3


def test_objective_and_tabulation_share_the_chain(basis13):
    # the W implied by the objective's z-density nodes is the normalized
    # tabulated transform of the same spline density
    x = default_w_nodes()
    pipe = _HhatPipeline(basis13, x)
    rng = np.random.default_rng(12)
    for _ in range(10):
        theta = rng.standard_normal(13)
        t_full = pipe.sweep(theta)[0][0]
        w_objective = 1.0 + x[1:-1] - 2.0 * t_full[1:-1]
        grid = normalize_w(williamson_from_density(ClrDensity(basis13, theta), x))
        assert np.max(np.abs(w_objective - grid.w[1:-1])) <= 1e-14
        # the saved model's interior nodes are the objective's knots away
        # from the ends, with the same z-density there up to round-off
        t, h = t_full[1:-1], pipe.sweep(theta)[0][1][1:-1]
        inner = (t >= 5e-4) & (t <= 1.0 - 5e-4)
        m = rotate(grid)
        assert np.max(np.abs(t[inner] - m.t[1:-1])) <= 1e-14
        h_model = h_formula(m.t[1:-1], m.a[1:-1], m.ap[1:-1], m.app[1:-1])
        assert np.max(np.abs(h[inner] - h_model) / np.abs(h_model)) <= 1e-12


def test_pipeline_builds_interpolators_only_when_read(basis13, monkeypatch):
    calls = []
    for module in (evcop.williamson, evcop.pickands):
        def counted(*args, _build=module.hermite_interpolator, **kwargs):
            calls.append(1)
            return _build(*args, **kwargs)

        monkeypatch.setattr(module, "hermite_interpolator", counted)
    # the rotation builds its model's interpolator; mirroring builds another
    # for the reflected table; no W interpolator is built
    model, _, _ = pipeline_pickands(basis13, np.zeros(13), True, flipped=False)
    assert len(calls) == 1
    model, _, _ = pipeline_pickands(basis13, np.zeros(13), True, flipped=True)
    assert len(calls) == 3
    model(0.3)
    model.deriv(0.3)
    assert len(calls) == 3


def test_raw_w0_estimate_reported_and_reloaded():
    uv = EvCopula(ParametricPickands("gumbel", 8.0)).simulate(1000, seed=1)
    fm = optimize(z_transform(uv))
    doc = json.loads(json.dumps(model_to_dict(fm)))
    est = doc["diagnostics"]["w0_estimate"]
    # the Williamson kernel's mass of exp(spline) over the mass rule's
    kernel = WilliamsonKernel(default_w_nodes())
    spline = fm.density.log_spline
    kernel_mass = kernel(np.exp(spline(kernel.nodes.ravel())).reshape(
        kernel.nodes.shape))[4]
    assert abs(est - kernel_mass / integrate_01(lambda x: np.exp(spline(x)))
               ) <= 1e-14
    assert est != 1.0
    assert est == fm.w0_estimate
    assert model_from_dict(doc).w0_estimate == est
