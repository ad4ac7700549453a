import math

import numpy as np
import pytest

from evcop.bayes import integrate_01
from evcop.errors import InputError
from evcop.families import ParametricPickands
from evcop.pickands import (
    blomqvist_beta,
    gini_from_copula,
    gini_from_density,
    gini_from_pickands,
    h_density,
    khoudraji,
    mirror,
    rotate,
    rotate_inverse,
    spectral_from_w,
    symmetrize,
    upper_tail,
    validate_pickands,
)
from evcop.copula import EvCopula
from evcop.williamson import (
    default_w_nodes,
    normalize_w,
    w_power_complement,
    w_uniform_power,
    williamson_from_density,
)

from conftest import random_spline_density


class PolyPickands:
    """A(t) = t^2 - t + 1, the quadratic exchangeable Pickands function."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return t * t - t + 1.0

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        return t * t - t + 1.0, 2.0 * t - 1.0, np.full_like(t, 2.0)

    def integrate(self):
        return 5.0 / 6.0


def test_rotate_closed_form():
    a = rotate(w_uniform_power(2.0))
    t = np.linspace(0, 1, 2001)
    assert np.max(np.abs(a(t) - (t * t - t + 1.0))) <= 1e-6


def test_rotate_independence():
    a = rotate(w_power_complement(1.0))
    t = np.linspace(0, 1, 700)
    assert np.max(np.abs(a(t) - 1.0)) <= 1e-12


def test_rotate_respects_support(basis13):
    rng = np.random.default_rng(0)
    t = np.linspace(0, 1, 400)
    for _ in range(5):
        dens = random_spline_density(basis13, rng)
        g = normalize_w(williamson_from_density(dens, default_w_nodes()))
        a = rotate(g)
        vals = a(t)
        assert np.all(vals >= np.maximum(t, 1 - t) - 1e-9)


def test_rotate_rejects_degenerate():
    with pytest.raises(InputError):
        rotate(lambda x: np.ones_like(np.asarray(x, dtype=float)))


def test_rotate_inverse_closed_form():
    w = rotate_inverse(PolyPickands())
    x = np.linspace(0, 1, 200)
    assert np.max(np.abs(w(x) - (x - 2.0 * np.sqrt(x) + 1.0))) <= 1e-8


def test_rotate_inverse_independence():
    class One:
        def __call__(self, t):
            return np.ones_like(np.asarray(t, dtype=float))

        def jet(self, t):
            t = np.asarray(t, dtype=float)
            return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)

    w = rotate_inverse(One())
    x = np.linspace(0, 1, 101)
    assert np.max(np.abs(w(x) - (1.0 - x))) <= 1e-10


def test_rotate_round_trip_gumbel():
    base = ParametricPickands("gumbel", 2.0)
    back = rotate(rotate_inverse(base))
    t = np.linspace(0, 1, 1000)
    assert np.max(np.abs(back(t) - base(t))) <= 1e-6


def test_rotated_inverse_jet_bisects_once(monkeypatch):
    # rotate reads W through __call__ and W', W'' through one jet: one
    # bisection each
    import evcop.pickands as pk

    calls = [0]
    bisect = pk.vector_bisect

    def counted(*args, **kwargs):
        calls[0] += 1
        return bisect(*args, **kwargs)

    monkeypatch.setattr(pk, "vector_bisect", counted)
    tawn = ParametricPickands("gumbel", 3.0, khoudraji=(0.6, 0.9))
    back = rotate(rotate_inverse(tawn))
    assert calls[0] == 2
    t = np.linspace(0, 1, 1000)
    assert np.max(np.abs(back(t) - tawn(t))) <= 1e-6


def test_rotate_inverse_rejects_support_touch():
    class PerfectDep:
        def __call__(self, t):
            t = np.asarray(t, dtype=float)
            return np.maximum(t, 1.0 - t)

    with pytest.raises(InputError):
        rotate_inverse(PerfectDep())


def test_h_density_flat_and_normalized():
    class One:
        def __call__(self, t):
            return np.ones_like(np.asarray(t, dtype=float))

        def jet(self, t):
            t = np.asarray(t, dtype=float)
            return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)

    h = h_density(One())
    z = np.array([0.0, 0.2, 0.5, 0.8, 1.0])
    assert np.max(np.abs(h(z) - 1.0)) <= 1e-12

    hg = h_density(ParametricPickands("gumbel", 2.0))
    mass = integrate_01(hg)
    assert abs(mass - 1.0) <= 1e-4


def test_h_density_mirror_symmetry(gumbel2_fit):
    a_sym = symmetrize(gumbel2_fit.pickands)
    h = h_density(a_sym)
    z = np.linspace(0.01, 0.99, 101)
    assert np.max(np.abs(h(z) - h(1.0 - z))) <= 1e-8


def test_h_density_vanishes_at_ends_for_pipeline(center_model):
    model, _, _ = center_model
    h = h_density(model)
    assert h(0.0) == 0.0
    assert h(1.0) == 0.0


def test_spectral_endpoint_masses(center_model):
    model, _, grid = center_model
    sm = spectral_from_w(grid)
    assert sm.h0 == 0.0
    assert sm.h1 == 0.0

    sm_ind = spectral_from_w(w_power_complement(1.0))
    assert abs(sm_ind.h0 - 1.0) <= 1e-12
    assert abs(sm_ind.h1 - 1.0) <= 1e-12
    # A(t) = t H0 + (1 - t) H1 = 1 at independence
    t = np.linspace(0, 1, 11)
    assert np.max(np.abs(t * sm_ind.h0 + (1 - t) * sm_ind.h1 - 1.0)) <= 1e-12


def test_spectral_first_moment():
    sm = spectral_from_w(w_uniform_power(2.0))
    assert abs(sm.first_moment() - 1.0) <= 1e-3


def test_gini_extremes():
    class One:
        def __call__(self, t):
            return np.ones_like(np.asarray(t, dtype=float))

    class PerfectDep:
        def __call__(self, t):
            t = np.asarray(t, dtype=float)
            return np.maximum(t, 1.0 - t)

    assert abs(gini_from_pickands(One())) <= 1e-12
    assert abs(gini_from_pickands(PerfectDep()) - 1.0) <= 1e-9


@pytest.mark.parametrize("theta", [1.5, 2.0, 3.0, 5.0])
def test_gini_power_complement_family(theta):
    a = rotate(w_power_complement(theta))
    expected = (theta - 1.0) / (theta + 1.0)
    assert abs(gini_from_pickands(a) - expected) <= 1e-3


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0, 4.0])
def test_gini_uniform_power_family(theta):
    def dens(x):
        x = np.asarray(x, dtype=float)
        return (1.0 / theta) * x ** (1.0 / theta - 1.0)

    expected = theta / (theta + 1.0)
    assert abs(gini_from_density(dens) - expected) <= 1e-3
    a = rotate(w_uniform_power(theta))
    assert abs(gini_from_pickands(a) - expected) <= 1e-3


def test_gini_three_forms_agree(gumbel2_fit):
    from evcop.bayes import ClrDensity

    fm = gumbel2_fit
    a = fm.pickands
    dens = ClrDensity(fm.basis, fm.theta, center_enabled=fm.center_applied)
    g_a = gini_from_pickands(a)
    g_f = gini_from_density(dens)
    g_c = gini_from_copula(EvCopula(a))
    assert abs(g_a - g_f) <= 1e-3
    assert abs(g_a - g_c) <= 5e-3


def test_gini_from_copula_rejects_npqd():
    class NegQuad:
        def cdf(self, u, v):
            return np.maximum(np.asarray(u) + np.asarray(v) - 1.0, 0.0) * 0.9

    with pytest.raises(InputError):
        gini_from_copula(NegQuad())


def test_blomqvist_and_upper_tail():
    a = PolyPickands()
    assert abs(blomqvist_beta(a) - (np.sqrt(2.0) - 1.0)) <= 1e-12
    assert upper_tail(a) == 0.5

    half = lambda t: np.full_like(np.asarray(t, dtype=float), 0.5)
    assert abs(blomqvist_beta(half) - 1.0) <= 1e-12
    assert abs(upper_tail(half) - 1.0) <= 1e-12

    one = lambda t: np.ones_like(np.asarray(t, dtype=float))
    assert blomqvist_beta(one) == 0.0
    assert upper_tail(one) == 0.0


def test_beta_lambda_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a_half = rng.uniform(0.5, 1.0)
        beta = 4.0 ** (1.0 - a_half) - 1.0
        lam = 2.0 * (1.0 - a_half)
        assert abs(beta - (2.0 ** lam - 1.0)) <= 8 * math.ulp(1.0 + beta)


def test_khoudraji_identity_and_slopes(center_model):
    model, _, _ = center_model
    ident = khoudraji(model, 1.0, 1.0)
    t = np.linspace(0, 1, 301)
    assert np.max(np.abs(ident(t) - model(t))) <= 1e-12

    alpha, beta = 0.7, 0.4
    ak = khoudraji(model, alpha, beta)
    h = 1e-6
    slope0 = (ak(h) - ak(0.0)) / h
    slope1 = (ak(1.0) - ak(1.0 - h)) / h
    assert abs(slope0 - (-beta)) <= 1e-3
    assert abs(slope1 - alpha) <= 1e-3


def test_khoudraji_preserves_validity():
    rng = np.random.default_rng(8)
    base = ParametricPickands("gumbel", 3.0)
    for _ in range(5):
        alpha, beta = rng.uniform(0.1, 1.0, size=2)
        ak = khoudraji(base, alpha, beta)
        assert validate_pickands(ak).passed(1e-6)
    with pytest.raises(InputError):
        khoudraji(base, 0.0, 0.5)


def test_khoudraji_derivatives_match_fd():
    base = ParametricPickands("gumbel", 2.5)
    ak = khoudraji(base, 0.6, 0.3)
    t = np.linspace(0.05, 0.95, 50)
    h = 1e-6
    fd1 = (ak(t + h) - ak(t - h)) / (2 * h)
    fd2 = (ak(t + h) - 2 * ak(t) + ak(t - h)) / h ** 2
    assert np.max(np.abs(ak.deriv(t) - fd1)) / np.max(np.abs(fd1)) <= 1e-5
    assert np.max(np.abs(ak.deriv2(t) - fd2)) / np.max(np.abs(fd2)) <= 1e-3


def test_symmetrize_and_mirror():
    tawn = ParametricPickands("gumbel", 5.0, khoudraji=(0.5, 0.1))
    sym = symmetrize(tawn)
    t = np.linspace(0, 1, 513)
    assert np.max(np.abs(sym(t) - sym(1.0 - t))) <= 1e-10

    poly = PolyPickands()
    sym_poly = symmetrize(poly)
    assert np.max(np.abs(sym_poly(t) - poly(t))) <= 1e-12

    m = mirror(tawn)
    mm = mirror(m)
    assert np.max(np.abs(mm(t) - tawn(t))) <= 1e-12
    assert np.max(np.abs(m(t) - tawn(1.0 - t))) <= 1e-12


def test_mirror_tabulated_model(center_model):
    model, _, _ = center_model
    m = mirror(model)
    t = np.linspace(0, 1, 257)
    assert np.max(np.abs(m(t) - model(1.0 - t))) <= 1e-12
    back = mirror(m)
    assert np.max(np.abs(back(t) - model(t))) <= 1e-12


def test_validate_pickands_diagnostics():
    good = validate_pickands(PolyPickands())
    assert good.passed(1e-10)

    const = lambda t: np.full_like(np.asarray(t, dtype=float), 0.4)
    bad = validate_pickands(const)
    assert bad.max_lower_violation > 0.09

    def concave(t):
        t = np.asarray(t, dtype=float)
        return t - t * t + 1.0

    conc = validate_pickands(concave)
    assert conc.max_convexity_violation > 1.0
    assert conc.max_upper_violation > 0.2


def test_only_square_power_is_exchangeable():
    t = np.linspace(0, 1, 501)
    a2 = rotate(w_uniform_power(2.0))
    assert np.max(np.abs(a2(t) - a2(1.0 - t))) <= 1e-6
    for theta in (0.5, 1.0, 4.0):
        a = rotate(w_uniform_power(theta))
        assert np.max(np.abs(a(t) - a(1.0 - t))) > 1e-3


def test_center_model_measures(center_model):
    # the affine center approximates the quadratic exchangeable model:
    # A(1/2) near 3/4 and a dependence index near 2/3
    model, dens, _ = center_model
    assert abs(float(model(0.5)) - 0.75) <= 0.01
    assert abs(gini_from_pickands(model) - 2.0 / 3.0) <= 0.02
    assert abs(gini_from_density(dens) - 2.0 / 3.0) <= 0.02


def test_tabulated_derivative_consistency(center_model):
    model, _, _ = center_model
    t = model.t[5:-5]
    h = 1e-6
    fd = (model(t + h) - model(t - h)) / (2 * h)
    assert np.max(np.abs(model.deriv(t) - fd)) <= 1e-3
