import numpy as np
import pytest
from scipy.interpolate import BSpline, splev

from evcop.errors import InputError
from evcop.splinebasis import (
    KnotConfig,
    _bspline_design,
    build_zb_basis,
    center_quadrature,
    curvature_matrix,
    eval_basis,
    project_center,
    quantile_knots,
    sorted_quantiles,
)


def uniform_config(n_interior, degree=3):
    knots = tuple(np.linspace(0.0, 1.0, n_interior + 2)[1:-1])
    return KnotConfig(interior_knots=knots, degree=degree)


def test_dimension_cubic_ten_knots():
    b = build_zb_basis(uniform_config(10))
    assert b.dim == 13


def test_dimension_linear_no_knots():
    b = build_zb_basis(KnotConfig((), degree=1))
    assert b.dim == 1


@pytest.mark.parametrize("n_interior,degree", [(10, 3), (0, 1), (4, 2), (7, 3)])
def test_orthonormal_and_zero_integral(n_interior, degree):
    b = build_zb_basis(uniform_config(n_interior, degree))
    gram = b.gram()
    assert np.max(np.abs(gram - np.eye(b.dim))) <= 1e-6
    integrals = b.inner_products(np.ones_like(b.quad_nodes))
    assert np.max(np.abs(integrals)) <= 1e-8


def test_invalid_knots_rejected():
    with pytest.raises(InputError):
        KnotConfig(interior_knots=(0.5, 0.3), degree=3)
    with pytest.raises(InputError):
        KnotConfig(interior_knots=(0.0, 0.5), degree=3)
    with pytest.raises(InputError):
        KnotConfig(interior_knots=(), degree=0)


def test_eval_zero_coefficients():
    b = build_zb_basis(uniform_config(5))
    x = np.linspace(0, 1, 40)
    p = eval_basis(b, x) @ np.zeros(b.dim)
    assert np.all(p == 0.0)


def test_eval_continuity_at_knots():
    b = build_zb_basis(uniform_config(10))
    rng = np.random.default_rng(1)
    theta = rng.standard_normal(b.dim)
    eps = 1e-13
    for k in b.interior_knots:
        left = eval_basis(b, k - eps) @ theta
        right = eval_basis(b, k + eps) @ theta
        assert abs(left - right) <= 1e-10


def test_eval_derivative_matches_finite_differences():
    b = build_zb_basis(uniform_config(10))
    rng = np.random.default_rng(2)
    theta = rng.standard_normal(b.dim)
    x = np.linspace(0.03, 0.97, 50)
    h = 1e-6
    d_an = eval_basis(b, x, deriv=1) @ theta
    d_fd = ((eval_basis(b, x + h) - eval_basis(b, x - h)) @ theta) / (2 * h)
    assert np.max(np.abs(d_an - d_fd)) / np.max(np.abs(d_fd)) <= 1e-5


def _splev_design(full_knots, degree, x, deriv):
    """Reference design matrix: one ``splev`` call per B-spline."""
    nb = len(full_knots) - degree - 1
    out = np.empty((x.size, nb))
    c = np.zeros(nb)
    for j in range(nb):
        c[j] = 1.0
        out[:, j] = splev(x, (full_knots, c, degree), der=deriv)
        c[j] = 0.0
    return out


@pytest.mark.parametrize("degree", [2, 3, 5])
def test_design_matrix_matches_splev_loop(degree):
    rng = np.random.default_rng(degree)
    for _ in range(10):
        cfg = KnotConfig(tuple(np.sort(rng.uniform(0.01, 0.99,
                                                   rng.integers(1, 15)))),
                         degree=degree)
        x = np.concatenate([[0.0, 1.0], cfg.interior_knots,
                            rng.uniform(0.0, 1.0, 300),
                            np.geomspace(1e-9, 1e-2, 20)])
        full = cfg.full_knots
        assert np.array_equal(_bspline_design(full, degree, x, 0),
                              _splev_design(full, degree, x, 0))
        for deriv in (1, 2):
            ref = _splev_design(full, degree, x, deriv)
            err = np.abs(_bspline_design(full, degree, x, deriv) - ref)
            assert np.all(err <= 1e-14 * np.max(np.abs(ref), axis=0))


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_design_matrix_edge_inputs_match_bspline(degree):
    # the values and derivatives of scipy's BSpline to the last bit: at the
    # ends, exactly at interior knots, next to them, and for NaN and no points
    cfg = uniform_config(6, degree)
    full = cfg.full_knots
    nb = len(full) - degree - 1
    knots = np.asarray(cfg.interior_knots)
    for x in (np.empty(0), np.array([0.0, 1.0]), knots,
              np.concatenate([np.nextafter(knots, 0.0), np.nextafter(knots, 1.0)]),
              np.array([np.nextafter(1.0, 0.0), 5e-324, np.nan])):
        for deriv in (0, 1, 2):
            expected = BSpline(full, np.eye(nb), degree)(x, nu=deriv)
            assert np.array_equal(_bspline_design(full, degree, x, deriv),
                                  expected, equal_nan=True), (x, deriv)


def test_eval_rejects_outside_domain():
    b = build_zb_basis(uniform_config(3))
    with pytest.raises(InputError):
        eval_basis(b, 1.5)
    with pytest.raises(InputError):
        eval_basis(b, np.array([-0.1, 0.5]))


def test_curvature_matrix_properties():
    b = build_zb_basis(uniform_config(10))
    om = curvature_matrix(b)
    assert np.max(np.abs(om - om.T)) <= 1e-12
    assert np.linalg.eigvalsh(om)[0] >= -1e-8
    assert np.zeros(b.dim) @ om @ np.zeros(b.dim) == 0.0


def test_curvature_matches_direct_quadrature():
    b = build_zb_basis(uniform_config(10))
    om = curvature_matrix(b)
    rng = np.random.default_rng(3)
    for _ in range(3):
        theta = rng.standard_normal(b.dim)
        pdd = eval_basis(b, b.quad_nodes, deriv=2) @ theta
        direct = float(b.quad_weights @ pdd ** 2)
        assert abs(theta @ om @ theta - direct) <= 1e-8 * max(1.0, direct)


def test_projection_approximates_log_center():
    b = build_zb_basis(uniform_config(10))
    theta0 = project_center(b)
    x = np.linspace(0.05, 1.0, 300)
    z = eval_basis(b, x) @ theta0
    assert np.max(np.abs(z + 0.5 * (1.0 + np.log(x)))) < 0.1


def test_projection_residual_orthogonal():
    b = build_zb_basis(uniform_config(10))
    theta0 = project_center(b)
    nodes, weights = center_quadrature(b)
    resid = -0.5 * (1.0 + np.log(nodes)) - eval_basis(b, nodes) @ theta0
    ips = (weights * resid) @ eval_basis(b, nodes)
    assert np.max(np.abs(ips)) <= 1e-6


def test_projection_zero_integral_and_idempotent():
    b = build_zb_basis(uniform_config(10))
    theta0 = project_center(b)
    nodes, weights = center_quadrature(b)
    z = eval_basis(b, nodes) @ theta0
    assert abs(weights @ z) <= 1e-8
    reproj = (weights * z) @ eval_basis(b, nodes)
    assert np.max(np.abs(reproj - theta0)) <= 1e-10


def test_zero_integral_polynomial_reproduction():
    # with no interior knots the space is exactly zero-integral cubics
    b = build_zb_basis(KnotConfig((), degree=3))
    rng = np.random.default_rng(4)
    c = rng.standard_normal(4)
    poly = np.polynomial.Polynomial(c)
    shift = poly.integ()(1.0) - poly.integ()(0.0)

    def target(x):
        return poly(x) - shift

    coeffs = b.inner_products(target(b.quad_nodes))
    x = np.linspace(0, 1, 200)
    recon = eval_basis(b, x) @ coeffs
    assert np.max(np.abs(recon - target(x))) <= 1e-8


def test_quantile_knots_uniform_sample():
    rng = np.random.default_rng(5)
    sample = rng.random(1000)
    cfg = quantile_knots(sample, 10)
    expected = np.arange(1, 11) / 11
    assert np.max(np.abs(np.asarray(cfg.interior_knots) - expected)) < 0.05


def test_quantile_knots_concentrated_sample():
    rng = np.random.default_rng(6)
    sample = np.clip(0.5 + 0.01 * rng.standard_normal(500), 0.01, 0.99)
    cfg = quantile_knots(sample, 5)
    assert np.all(np.abs(np.asarray(cfg.interior_knots) - 0.5) < 0.05)


def test_quantile_knots_empty_and_ties():
    assert quantile_knots(np.linspace(0.1, 0.9, 50), 0).interior_knots == ()
    with pytest.raises(InputError):
        quantile_knots(np.full(100, 0.5), 4)


# the fit's two quantile reads: the pilot grid's 78 interior probabilities
# and the knots' of a basis of 13 functions (and of 9 and 17); and a grid
# with 1/2 and 1/4, where the interpolation weight can be exactly 1/2
_PROBS = [np.arange(1, 79) / 79] + [np.arange(1, m + 1) / (m + 1)
                                    for m in (10, 6, 14)] + [
    np.linspace(0.0, 1.0, 41)]


@pytest.mark.parametrize("n", [30, 31, 79, 100, 999, 1000, 12345, 100_000])
def test_sorted_quantiles_is_numpys_linear_rule(n):
    rng = np.random.default_rng(n)
    smooth = rng.random(n)
    # ties: few distinct values, and runs of a repeated value
    tied = np.round(rng.random(n), 2)
    runs = np.repeat(rng.random(n // 10 + 1), 10)[:n]
    # neighbours far apart, whose difference rounds
    spread = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-8, 8, n)
    for sample in (smooth, tied, runs, spread, -smooth, 1e-9 * smooth):
        s = np.sort(sample)
        for probs in _PROBS:
            assert (sorted_quantiles(s, probs).tobytes()
                    == np.quantile(sample, probs).tobytes())


def test_sorted_quantiles_on_random_samples_and_probabilities():
    rng = np.random.default_rng(20)
    for _ in range(300):
        n = int(np.exp(rng.uniform(np.log(30), np.log(20_000))))
        sample = rng.random(n)
        if rng.random() < 0.3:
            sample = 10.0 ** (16 * sample - 8)
        if rng.random() < 0.5:
            sample = np.round(sample, int(rng.integers(1, 4)))
        probs = np.sort(rng.random(int(rng.integers(1, 100))))
        probs[rng.random(probs.size) < 0.05] = 0.5
        assert (sorted_quantiles(np.sort(sample), probs).tobytes()
                == np.quantile(sample, probs).tobytes())
    probs = np.array([0.0, 0.25, 1.0])
    s = np.sort(rng.random(40))
    assert sorted_quantiles(s, probs).tobytes() == np.quantile(s, probs).tobytes()
    s[-1] = np.nan
    assert np.isnan(sorted_quantiles(s, probs)).all()
    assert np.isnan(np.quantile(s, probs)).all()
