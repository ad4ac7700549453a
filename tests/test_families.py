import warnings

import numpy as np
import pytest

from evcop.errors import InputError
from evcop.families import (
    ParametricPickands,
    cfg_estimator,
    greatest_convex_minorant,
    pickands_estimator,
)
from evcop.pickands import h_density, validate_pickands

GUMBEL_GRID = [1.1, 1.5, 2.0, 3.0, 4.0]
GALAMBOS_GRID = [0.5, 0.75, 1.0, 1.5, 3.0]
HR_GRID = [0.5, 1.0, 2.0]


def test_family_values():
    assert np.max(np.abs(ParametricPickands("gumbel", 1.0)(
        np.linspace(0, 1, 101)) - 1.0)) <= 1e-12
    assert abs(ParametricPickands("gumbel", 2.0)(0.5) - 2.0 ** -0.5) <= 1e-14
    assert abs(ParametricPickands("galambos", 1.0)(0.5) - 0.75) <= 1e-14
    a = ParametricPickands("husler-reiss", 1.0)
    assert abs(a(0.0) - 1.0) <= 1e-12
    assert abs(a(1.0) - 1.0) <= 1e-12


def test_family_theta_ranges():
    with pytest.raises(InputError):
        ParametricPickands("gumbel", 0.5)
    with pytest.raises(InputError):
        ParametricPickands("galambos", 0.0)
    with pytest.raises(InputError):
        ParametricPickands("husler-reiss", -1.0)
    with pytest.raises(InputError):
        ParametricPickands("clayton", 1.0)


@pytest.mark.parametrize("family,grid", [("gumbel", GUMBEL_GRID),
                                         ("galambos", GALAMBOS_GRID),
                                         ("husler-reiss", HR_GRID)])
def test_family_derivatives_match_fd(family, grid):
    t = np.linspace(0.03, 0.97, 50)
    h = 1e-6
    for theta in grid:
        a = ParametricPickands(family, theta)
        fd1 = (a(t + h) - a(t - h)) / (2 * h)
        scale1 = max(1e-2, np.max(np.abs(fd1)))
        assert np.max(np.abs(a.deriv(t) - fd1)) / scale1 <= 1e-5
        fd2 = (a(t + h) - 2 * a(t) + a(t - h)) / h ** 2
        scale2 = max(1e-2, np.max(np.abs(fd2)))
        assert np.max(np.abs(a.deriv2(t) - fd2)) / scale2 <= 1e-3


@pytest.mark.parametrize("family,grid", [("gumbel", GUMBEL_GRID),
                                         ("galambos", GALAMBOS_GRID),
                                         ("husler-reiss", HR_GRID)])
def test_family_constraints(family, grid):
    for theta in grid:
        assert validate_pickands(ParametricPickands(family, theta)).passed(1e-8)


@pytest.mark.parametrize("family", ["gumbel", "galambos"])
@pytest.mark.parametrize("ab", [(0.5, 1.0), (1.0, 0.5)])
def test_tawn_and_joe_constraints(family, ab):
    for theta in (1.5, 3.0) if family == "gumbel" else (0.75, 1.5):
        p = ParametricPickands(family, theta, khoudraji=ab)
        assert validate_pickands(p).passed(1e-8)


def test_pickands_estimator_single_pair():
    e = np.exp(-1.0)
    assert abs(pickands_estimator(np.array([[e, e]]), 0.5) - 0.5) <= 1e-14


def test_pickands_estimator_endpoints():
    rng = np.random.default_rng(0)
    uv = rng.uniform(0.05, 0.95, size=(50, 2))
    x = -np.log(uv[:, 0])
    y = -np.log(uv[:, 1])
    assert abs(pickands_estimator(uv, 0.0) - 1.0 / x.mean()) <= 1e-12
    assert abs(pickands_estimator(uv, 1.0) - 1.0 / y.mean()) <= 1e-12
    with pytest.raises(InputError):
        pickands_estimator(np.empty((0, 2)), 0.5)


def test_pickands_estimator_independence_with_gcm():
    rng = np.random.default_rng(1)
    uv = rng.random((2000, 2))
    t = np.linspace(0.0, 1.0, 101)
    raw = pickands_estimator(uv, t)
    hull = greatest_convex_minorant(t, raw)
    assert np.max(np.abs(hull - 1.0)) <= 0.05


def test_gcm_convex_input_unchanged():
    x = np.linspace(0, 1, 21)
    y = (x - 0.4) ** 2
    assert np.max(np.abs(greatest_convex_minorant(x, y) - y)) <= 1e-14


def test_gcm_bump_replaced_by_chord():
    x = np.array([0.0, 0.25, 0.5, 1.0])
    y = np.array([1.0, 1.0, 0.9, 1.0])
    hull = greatest_convex_minorant(x, y)
    assert abs(hull[1] - 0.95) <= 1e-14


def test_gcm_output_convex():
    rng = np.random.default_rng(2)
    x = np.linspace(0, 1, 60)
    y = rng.random(60)
    hull = greatest_convex_minorant(x, y)
    d2 = np.diff(hull, 2)
    assert np.min(d2) >= -1e-12
    assert np.all(hull <= y + 1e-14)


def test_cfg_near_uniform_angles():
    # pseudo-angles placed at regular positions make the empirical CDF as
    # close to the identity as it can get; the estimate then stays near 1
    z = np.linspace(1, 4096, 4096) / 4097.0
    t = np.linspace(0.0, 1.0, 51)
    vals = cfg_estimator(z, t)
    assert np.max(np.abs(vals - 1.0)) <= 0.01


def test_cfg_starts_at_one():
    rng = np.random.default_rng(3)
    uv = rng.random((100, 2))
    assert cfg_estimator(uv, 0.0) == 1.0


def test_cfg_consistency_gumbel(gumbel2):
    sample = gumbel2.simulate(5000, seed=21)
    t = np.linspace(0.0, 1.0, 101)
    est = cfg_estimator(sample, t)
    truth = gumbel2.pickands(t)
    assert np.max(np.abs(est - truth)) <= 0.03


def test_cfg_finite_and_validates_input():
    rng = np.random.default_rng(4)
    uv = rng.random((37, 2))
    vals = cfg_estimator(uv, np.linspace(0, 1, 11))
    assert np.all(np.isfinite(vals))
    with pytest.raises(InputError):
        cfg_estimator(uv, np.array([1.5]))
    with pytest.raises(InputError):
        cfg_estimator(np.empty(0), np.array([0.5]))


def test_cfg_reads_the_sample_kind_from_its_shape():
    # a 1-d sample is pseudo-angles, an (n, 2) one a copula sample
    uv = np.random.default_rng(5).random((200, 2))
    lu, lv = np.log(uv[:, 0]), np.log(uv[:, 1])
    t = np.linspace(0.0, 1.0, 11)
    assert np.array_equal(cfg_estimator(uv, t), cfg_estimator(lu / (lu + lv), t))
    for bad in (np.ones((20, 3)), np.ones((4, 5, 2)), np.float64(0.5)):
        with pytest.raises(InputError, match="pseudo-angles or an"):
            cfg_estimator(bad, t)


GALAMBOS_T = np.array([0.0, 1e-8, 1e-6, 0.5, 1.0 - 1e-6, 1.0])


def _galambos_powers(theta, t):
    """A' in the powers of ``s = t^-theta + (1 - t)^-theta``, and A'' from
    ``s (t^-theta-2 + (1-t)^-theta-2) - (A' terms)^2 = (t (1 - t))^(-theta-2)``,
    the difference that the powers form of A'' takes between two terms of
    size 1/t; both overflow at the ends for large theta."""
    c = np.clip(t, 1e-8, 1.0 - 1e-8)
    with np.errstate(all="ignore"):
        s = c ** -theta + (1.0 - c) ** -theta
        d1 = s ** (-1.0 / theta - 1.0) * ((1.0 - c) ** (-theta - 1.0)
                                          - c ** (-theta - 1.0))
        d2 = (theta + 1.0) * s ** (-1.0 / theta - 2.0) \
            * (c * (1.0 - c)) ** (-theta - 2.0)
    return d1, d2


@pytest.mark.parametrize("theta", [38.0, 39.0, 60.0, 0.5, 1.0, 5.0])
def test_galambos_jet_finite_for_large_theta(theta):
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        a, a1, a2 = ParametricPickands("galambos", theta).jet(GALAMBOS_T)
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(a1)) \
        and np.all(np.isfinite(a2))
    assert np.all(a2 >= 0.0)
    if theta >= 38.0:
        assert abs(a1[0] + 1.0) <= 1e-12 and abs(a1[-1] - 1.0) <= 1e-12
    ref1, ref2 = _galambos_powers(theta, GALAMBOS_T)
    for got, ref in ((a1, ref1), (a2, ref2)):
        ok = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
        assert np.all(np.abs(got[ok] - ref[ok]) <= 1e-12 * np.abs(ref[ok])), ok
    assert ok[3]  # t = 1/2 is compared at every theta


@pytest.mark.parametrize("khoudraji", [None, (0.5, 0.8)])
def test_galambos_h_density_raises_no_warning_at_theta_40(khoudraji):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        h = h_density(ParametricPickands("galambos", 40.0, khoudraji))
        z = np.concatenate([[0.0, 1e-9], np.linspace(0.01, 0.99, 99),
                            [1.0 - 1e-9, 1.0]])
        assert np.all(np.isfinite(h(z)))


@pytest.mark.parametrize("family,theta,khoudraji", [
    ("galambos", 40.0, None),
    ("galambos", 40.0, (1.0, 0.9)),
    ("gumbel", 20.0, None),
    # strong dependence is small theta in this parameterization
    ("husler-reiss", 0.05, None),
])
def test_h_density_is_never_negative(family, theta, khoudraji):
    # near the ends h vanishes, and h_formula's round-off gave values such
    # as -1.7e-16 on this grid before h_density clamped them
    h = h_density(ParametricPickands(family, theta, khoudraji))
    assert np.min(h(np.linspace(0.0, 1.0, 101))) >= 0.0
