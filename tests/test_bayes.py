from functools import partial

import numpy as np
import pytest

from evcop.bayes import (
    ClrDensity,
    clr,
    clr_inverse,
    integrate_01,
    mass_rule,
    perturb,
    power,
    tvd,
)
from evcop.errors import InputError, NumericalError
from evcop.fit import default_random_basis
from evcop.splinebasis import KnotConfig, build_zb_basis, quantile_knots
from evcop.williamson import default_kernel

from conftest import random_spline_density


def test_clr_inverse_of_zero_is_uniform():
    f = clr_inverse(lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    x = np.linspace(0, 1, 50)
    assert np.max(np.abs(f(x) - 1.0)) <= 1e-12


def test_clr_inverse_square_root_density():
    # the clr of the square-root center diverges at 0; the mass rule's nodes
    # avoid the end, so no special grid is needed
    f = clr_inverse(lambda x: -0.5 * (1.0 + np.log(x)))
    x = np.linspace(0.05, 1.0, 200)
    assert np.max(np.abs(f(x) - 0.5 / np.sqrt(x))) <= 1e-5


def test_clr_inverse_normalizes_spline_densities(basis13):
    rng = np.random.default_rng(0)
    half = np.geomspace(1e-10, 0.5, 4096)
    dense = np.unique(np.concatenate([[0.0], half, 1.0 - half, [1.0]]))
    for _ in range(3):
        dens = random_spline_density(basis13, rng)
        # unit mass under the density's own normalization rule
        assert abs(integrate_01(dens) - 1.0) <= 1e-6
    for _ in range(3):
        # moderate bounded densities also have unit mass on an independent
        # grid
        dens = random_spline_density(basis13, rng, scale=0.1, center=False)
        assert abs(np.trapezoid(dens(dense), dense) - 1.0) <= 1e-3


def test_clr_inverse_overflow_rejected():
    with pytest.raises(NumericalError):
        clr_inverse(lambda x: np.full_like(np.asarray(x, dtype=float), 800.0))


def test_clr_of_uniform_is_zero():
    p = clr(lambda x: np.ones_like(np.asarray(x, dtype=float)))
    assert np.max(np.abs(p(np.linspace(0.01, 1, 64)))) <= 1e-12


def test_clr_rejects_nonpositive():
    with pytest.raises(InputError):
        clr(lambda x: np.asarray(x, dtype=float) - 0.5)


def test_clr_roundtrip_on_spline(basis13):
    rng = np.random.default_rng(1)
    dens = random_spline_density(basis13, rng, center=False)
    p = clr(dens)
    x = np.linspace(0.01, 0.99, 257)
    assert np.max(np.abs(p(x) - dens.log_spline(x))) <= 1e-6


def test_clr_of_uniform_powers():
    theta = 3.0

    def f(x):
        x = np.asarray(x, dtype=float)
        return (1.0 / theta) * x ** (1.0 / theta - 1.0)

    p = clr(f)
    x = np.linspace(0.01, 1.0, 200)
    expected = (1.0 - theta) / theta * (1.0 + np.log(x))
    assert np.max(np.abs(p(x) - expected)) <= 1e-5


def test_perturb_with_uniform_is_identity(basis13):
    # the identity renormalizes the density by the mass rule
    dens = random_spline_density(basis13, np.random.default_rng(2))
    mixed = perturb(dens, lambda x: np.ones_like(np.asarray(x, dtype=float)))
    x = np.linspace(0, 1, 101)
    renormalized = dens(x) / integrate_01(dens)
    assert np.max(np.abs(mixed(x) - renormalized)) <= 1e-12


def test_perturbation_yields_beta_density():
    from math import gamma

    a, b = 2.0, 3.0
    f1 = lambda x: a * np.asarray(x, dtype=float) ** (a - 1.0)
    f2 = lambda x: b * (1.0 - np.asarray(x, dtype=float)) ** (b - 1.0)
    mixed = perturb(f1, f2)
    x = np.linspace(0.02, 0.98, 200)
    beta_pdf = x ** (a - 1) * (1 - x) ** (b - 1) * gamma(a + b) / (gamma(a) * gamma(b))
    assert np.max(np.abs(mixed(x) - beta_pdf)) <= 1e-5


def test_clr_is_additive_under_perturbation(basis13):
    rng = np.random.default_rng(3)
    f = random_spline_density(basis13, rng)
    g = random_spline_density(basis13, rng)
    h = perturb(f, g)
    x = np.linspace(0.01, 0.99, 200)
    lhs = clr(h)(x)
    rhs = clr(f)(x) + clr(g)(x)
    assert np.max(np.abs(lhs - rhs)) <= 1e-6


def test_powering_is_linear_in_clr(basis13):
    rng = np.random.default_rng(4)
    f = random_spline_density(basis13, rng)
    alpha = 1.7
    h = power(alpha, f)
    x = np.linspace(0.01, 0.99, 200)
    assert np.max(np.abs(clr(h)(x) - alpha * clr(f)(x))) <= 1e-6


def test_tvd_basic_properties(basis13):
    uniform = lambda x: np.ones_like(np.asarray(x, dtype=float))
    wedge = lambda x: 2.0 * np.asarray(x, dtype=float)
    assert tvd(uniform, uniform) == 0.0
    assert abs(tvd(uniform, wedge) - 0.25) <= 1e-4
    rng = np.random.default_rng(5)
    f = random_spline_density(basis13, rng)
    g = random_spline_density(basis13, rng)
    assert abs(tvd(f, g) - tvd(g, f)) <= 1e-12


def test_tvd_matches_a_dense_reference_on_centered_densities():
    # centered densities diverge like x**-0.5 at the ends; the reference is
    # a trapezoid on 40k geometric nodes, within 5e-7 of one on 400k
    basis = default_random_basis()
    rng = np.random.default_rng(0)
    dens = [random_spline_density(basis, rng, scale=3.0) for _ in range(31)]
    half = np.geomspace(1e-14, 0.5, 20_000)
    x = np.concatenate([half, 1.0 - half[-2::-1]])
    vals = [d(x) for d in dens]
    for i in range(30):
        reference = 0.5 * np.trapezoid(np.abs(vals[i] - vals[i + 1]), x)
        assert abs(tvd(dens[i], dens[i + 1]) - reference) <= 1e-4, i


def test_inner_product_isometry(basis13):
    # B2 inner product via its double integral vs the clr L2 inner product
    rng = np.random.default_rng(6)
    f = random_spline_density(basis13, rng, scale=0.3, center=False)
    g = random_spline_density(basis13, rng, scale=0.3, center=False)
    x = np.linspace(1e-4, 1.0 - 1e-4, 256)
    lf = np.log(f(x))
    lg = np.log(g(x))
    d1 = lf[:, None] - lf[None, :]
    d2 = lg[:, None] - lg[None, :]
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    double = 0.5 * float(w @ (d1 * d2) @ w)
    pf = clr(f)(x)
    pg = clr(g)(x)
    direct = float(np.trapezoid(pf * pg, x))
    assert abs(double - direct) <= 1e-4


def test_clr_density_positive_and_cached(basis13):
    dens = random_spline_density(basis13, np.random.default_rng(7))
    assert np.all(dens(np.linspace(0.0, 1.0, 513)) > 0.0)
    assert dens.norm > 0.0


def _clustered_basis():
    """Quantile knots of angles bunched at 1/2, as in a fit to Gumbel
    theta = 8 data."""
    z = np.clip(0.5 + 0.02 * np.random.default_rng(8).standard_t(3, 1000),
                1e-6, 1.0 - 1e-6)
    return build_zb_basis(quantile_knots(z, 10))


def _uniform_basis(degree):
    return build_zb_basis(KnotConfig(tuple(np.linspace(0.0, 1.0, 9)[1:-1]),
                                     degree))


@pytest.mark.parametrize("make_basis", [
    default_random_basis, _clustered_basis,
    *(partial(_uniform_basis, d) for d in (1, 2, 3, 5))])
def test_spline_reads_match_the_design(make_basis):
    # the spline is read piece by piece; the design times the coefficients
    # is the reference.  exp turns an absolute error in p into a relative
    # one in the norm, and the design itself errs by about eps * max|p|,
    # so the norm's bound is 1e-13 up to |p| = 10 and grows with |p| beyond
    basis = make_basis()
    _, nodes, weights = mass_rule()
    x = np.concatenate([nodes, default_kernel().nodes.ravel(),
                        basis.knot_config.breakpoints, [0.0, 1.0]])
    design = basis.evaluate(x)
    rng = np.random.default_rng(9)
    for norm in (0.0, 5.0, 60.0, 105.0):
        for _ in range(8):
            theta = rng.standard_normal(basis.dim)
            theta *= norm / np.linalg.norm(theta)
            p = design @ theta
            pmax = max(1.0, np.max(np.abs(p)))
            if pmax > 700.0:
                with pytest.raises(NumericalError):
                    ClrDensity(basis, theta)
                continue
            dens = ClrDensity(basis, theta)
            assert np.max(np.abs(dens.log_spline(x) - p)) <= 1e-12 * pmax
            ref = float(weights @ np.exp(basis.evaluate(nodes) @ theta))
            assert abs(dens.norm - ref) <= 1e-14 * max(10.0, pmax) * ref


def test_spline_reads_keep_the_domain_rules(basis13):
    dens = ClrDensity(basis13, np.linspace(-1.0, 1.0, 13), center_enabled=True)
    got = dens.log_spline(np.array([0.25, np.nan, 1.0]))
    assert np.isnan(got[1]) and not np.isnan(got[[0, 2]]).any()
    assert np.isnan(dens.pdf(np.nan))
    assert dens.log_spline(0.25) == got[0]
    for bad in (1.5, -1e-300, np.array([0.5, 1.0 + 1e-15])):
        with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
            dens.log_spline(bad)
        with pytest.raises(InputError, match=r"must lie in \[0, 1\]"):
            dens(bad)
