import numpy as np
import pytest

from evcop.errors import InputError
from evcop.families import (
    ParametricPickands,
    cfg_estimator,
    greatest_convex_minorant,
    pickands_estimator,
)
from evcop.pickands import validate_pickands

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
    vals = cfg_estimator(z, t, from_z=True)
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
        cfg_estimator(np.empty(0), np.array([0.5]), from_z=True)
