import numpy as np
import pytest

from evcop._quad import gauss_legendre
from evcop._rootfind import vector_bisect
from evcop.copula import (
    EvCopula,
    _angle_terms,
    _tvd_nodes,
    supnorm_bound_check,
    tvd_copulas,
)
from evcop.errors import InputError
from evcop.families import ParametricPickands
from evcop.fit import FitConfig, optimize, random_pickands, z_transform
from evcop.pickands import (
    PickandsModel,
    h_density,
    khoudraji,
    mirror,
    rotate,
    rotate_inverse,
    symmetrize,
)


class FlatPickands:
    def __call__(self, t):
        return np.ones_like(np.asarray(t, dtype=float))

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        return np.ones_like(t), np.zeros_like(t), np.zeros_like(t)


class PerfectDep:
    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return np.maximum(t, 1.0 - t)


def test_cdf_independence_and_perfect_dependence():
    u = np.linspace(0.05, 0.95, 15)
    uu, vv = np.meshgrid(u, u)
    ci = EvCopula(FlatPickands())
    assert np.max(np.abs(ci.cdf(uu, vv) - uu * vv)) <= 1e-12
    cm = EvCopula(PerfectDep())
    assert np.max(np.abs(cm.cdf(uu, vv) - np.minimum(uu, vv))) <= 1e-12


def test_cdf_quadratic_value():
    class Poly:
        def __call__(self, t):
            t = np.asarray(t, dtype=float)
            return t * t - t + 1.0

    c = EvCopula(Poly())
    assert abs(c.cdf(0.5, 0.5) - 0.25 ** 0.75) <= 1e-14


def test_cdf_boundaries(gumbel2):
    u = np.linspace(0.0, 1.0, 21)
    assert np.max(np.abs(gumbel2.cdf(u, np.ones_like(u)) - u)) <= 1e-9
    assert np.max(np.abs(gumbel2.cdf(np.ones_like(u), u) - u)) <= 1e-9
    assert np.max(np.abs(gumbel2.cdf(u, np.zeros_like(u)))) == 0.0
    assert gumbel2.cdf(0.0, 0.7) == 0.0


def test_max_stability(gumbel2):
    u = np.linspace(1 / 21, 20 / 21, 20)
    uu, vv = np.meshgrid(u, u)
    base = gumbel2.cdf(uu, vv)
    for n in (2, 5, 10):
        scaled = gumbel2.cdf(uu ** (1.0 / n), vv ** (1.0 / n)) ** n
        assert np.max(np.abs(scaled - base)) <= 1e-9


def test_partials_independence_and_range(gumbel2):
    ci = EvCopula(FlatPickands())
    assert abs(ci.partial_u(0.3, 0.6) - 0.6) <= 1e-15
    assert abs(ci.partial_v(0.3, 0.6) - 0.3) <= 1e-15
    rng = np.random.default_rng(0)
    u, v = rng.uniform(0.02, 0.98, size=(2, 300))
    pu = gumbel2.partial_u(u, v)
    pv = gumbel2.partial_v(u, v)
    assert np.all((pu >= 0.0) & (pu <= 1.0))
    assert np.all((pv >= 0.0) & (pv <= 1.0))


def test_partials_match_finite_differences(gumbel2):
    rng = np.random.default_rng(1)
    u, v = rng.uniform(0.1, 0.9, size=(2, 100))
    h = 1e-6
    fdu = (gumbel2.cdf(u + h, v) - gumbel2.cdf(u - h, v)) / (2 * h)
    fdv = (gumbel2.cdf(u, v + h) - gumbel2.cdf(u, v - h)) / (2 * h)
    assert np.max(np.abs(gumbel2.partial_u(u, v) - fdu) / np.abs(fdu)) <= 1e-5
    assert np.max(np.abs(gumbel2.partial_v(u, v) - fdv) / np.abs(fdv)) <= 1e-5


def test_pdf_independence_and_fd(gumbel2):
    ci = EvCopula(FlatPickands())
    assert abs(ci.pdf(0.4, 0.8) - 1.0) <= 1e-15
    rng = np.random.default_rng(2)
    u, v = rng.uniform(0.1, 0.9, size=(2, 100))
    h = 1e-5
    fd = (gumbel2.cdf(u + h, v + h) - gumbel2.cdf(u - h, v + h)
          - gumbel2.cdf(u + h, v - h) + gumbel2.cdf(u - h, v - h)) / (4 * h * h)
    assert np.max(np.abs(gumbel2.pdf(u, v) - fd) / np.abs(fd)) <= 1e-4


def test_pdf_integrates_to_one():
    c = EvCopula(ParametricPickands("galambos", 1.0))
    xg, wg = np.polynomial.legendre.leggauss(128)
    eps = 1e-6
    nodes = 0.5 * (1 - 2 * eps) * (xg + 1) + eps
    uu, vv = np.meshgrid(nodes, nodes, indexing="ij")
    w2 = np.outer(wg, wg) * (0.5 * (1 - 2 * eps)) ** 2
    assert abs(np.sum(w2 * c.pdf(uu, vv)) - 1.0) <= 1e-3


def test_two_increasing(gumbel2):
    rng = np.random.default_rng(3)
    a = rng.uniform(0.0, 1.0, size=(500, 2))
    b = rng.uniform(0.0, 1.0, size=(500, 2))
    u1, u2 = np.minimum(a[:, 0], b[:, 0]), np.maximum(a[:, 0], b[:, 0])
    v1, v2 = np.minimum(a[:, 1], b[:, 1]), np.maximum(a[:, 1], b[:, 1])
    mass = (gumbel2.cdf(u2, v2) - gumbel2.cdf(u1, v2)
            - gumbel2.cdf(u2, v1) + gumbel2.cdf(u1, v1))
    assert np.min(mass) >= -1e-10


def test_simulate_independence_exact():
    ci = EvCopula(FlatPickands())
    sample = ci.simulate(2000, seed=42)
    rng = np.random.default_rng(42)
    u = rng.random(2000)
    p = rng.random(2000)
    assert np.array_equal(sample[:, 0], u)
    assert np.array_equal(sample[:, 1], p)


def test_simulate_conditionals_uniform_for_independence():
    # V given U is uniform: Kolmogorov-Smirnov statistic per u-bin stays small
    ci = EvCopula(FlatPickands())
    sample = ci.simulate(10000, seed=17)
    for lo in np.arange(0.0, 1.0, 0.2):
        sel = (sample[:, 0] >= lo) & (sample[:, 0] < lo + 0.2)
        v = np.sort(sample[sel, 1])
        n = v.size
        ks = np.max(np.abs(v - (np.arange(1, n + 1) - 0.5) / n))
        assert ks <= 0.05


def test_simulate_reproducible(gumbel2):
    s1 = gumbel2.simulate(500, seed=9)
    s2 = gumbel2.simulate(500, seed=9)
    assert np.array_equal(s1, s2)
    with pytest.raises(InputError):
        gumbel2.simulate(0)


def test_simulate_rejects_invalid_dependence():
    from evcop.errors import NumericalError

    class Below:
        def __call__(self, t):
            return np.full_like(np.asarray(t, dtype=float), 0.4)

        def jet(self, t):
            t = np.asarray(t, dtype=float)
            return np.full_like(t, 0.4), np.zeros_like(t), np.zeros_like(t)

    with pytest.raises(NumericalError):
        EvCopula(Below()).simulate(200, seed=0)


def _bisection_solve(cop, u, p):
    """Reference: the sampler's solve before its table-bracketed Newton.

    50 bisection steps on [1e-15, 1 - 1e-15], then two Newton polishes that
    are kept only when they do not raise the residual.
    """
    def resid(v):
        return cop.partial_u(u, v) - p

    n = u.size
    v = vector_bisect(resid, np.full(n, 1e-15), np.full(n, 1.0 - 1e-15),
                      iters=50)
    r = resid(v)
    for _ in range(2):
        dens = cop.pdf(u, v)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(np.isfinite(dens) & (dens > 1e-12), r / dens, 0.0)
        v_new = np.clip(v - step, 1e-15, 1.0 - 1e-15)
        r_new = resid(v_new)
        better = np.abs(r_new) <= np.abs(r)
        v = np.where(better, v_new, v)
        r = np.where(better, r_new, r)
    return v, r


def _bisection_simulate(cop, n, seed):
    rng = np.random.default_rng(seed)
    u = rng.random(n)
    p = rng.random(n)
    return np.column_stack([u, _bisection_solve(cop, u, p)[0]])


def _sampler_truths():
    spline5 = random_pickands(1e-4, 5.0, 3, seed=5)
    spline15 = random_pickands(1e-4, 15.0, 3, seed=15)
    truths = [EvCopula(m) for m in (*spline5, *spline15)]
    truths += [EvCopula(ParametricPickands("gumbel", th)) for th in (1.2, 20.0, 50.0)]
    truths.append(EvCopula(ParametricPickands("gumbel", 3.0, khoudraji=(0.4, 0.9))))
    truths.append(EvCopula(ParametricPickands("gumbel", 2.0), survival=True))
    truths.append(EvCopula(spline5[0], survival=True))
    return truths


def test_simulate_matches_bisection_reference():
    for i, cop in enumerate(_sampler_truths()):
        sample = cop.simulate(1000, seed=100 + i)
        ref = _bisection_simulate(cop, 1000, 100 + i)
        assert np.array_equal(sample[:, 0], ref[:, 0])
        assert np.max(np.abs(sample[:, 1] - ref[:, 1])) <= 1e-12


def test_simulate_converges_near_the_edges():
    # u within 1e-6 of 1, p near 0 or 1: the root sits in a corner of the
    # square, and the solve must get as close to it as the reference does
    u = 1.0 - np.array([1e-6, 3e-7, 1e-7])
    p = np.array([1e-9, 1e-6, 1e-3, 1.0 - 1e-3, 1.0 - 1e-6, 1.0 - 1e-9])
    u, p = (a.ravel() for a in np.meshgrid(u, p))
    spline = random_pickands(1e-4, 5.0, 1, seed=7)[0]
    for cop in (EvCopula(spline), EvCopula(ParametricPickands("gumbel", 2.0)),
                EvCopula(ParametricPickands("gumbel", 50.0))):
        for uu, pp in ((u, p), (1.0 - u, 1.0 - p)):
            v, r = cop._invert_base(uu, pp)
            assert np.all((v >= 1e-15) & (v <= 1.0 - 1e-15))
            assert np.max(np.abs(r)) <= 1e-6
            resid = np.abs(cop.partial_u(uu, v) - pp)
            ref = np.abs(_bisection_solve(cop, uu, pp)[1])
            assert np.all(resid <= np.maximum(ref, 1e-10))


def test_simulate_evaluation_budget(monkeypatch):
    points = [0]
    for name in ("__call__", "deriv", "deriv2", "jet"):
        method = getattr(PickandsModel, name)

        def counted(self, t, method=method):
            points[0] += np.size(t)
            return method(self, t)

        monkeypatch.setattr(PickandsModel, name, counted)
    for model in random_pickands(1e-4, 5.0, 3, seed=9):
        points[0] = 0
        EvCopula(model).simulate(1000, seed=4)
        assert points[0] <= 20 * 1000


def test_simulate_blomqvist(gumbel2):
    sample = gumbel2.simulate(5000, seed=7)
    beta_hat = 4.0 * np.mean((sample[:, 0] <= 0.5) & (sample[:, 1] <= 0.5)) - 1.0
    beta_true = 4.0 ** (1.0 - 2.0 ** -0.5) - 1.0
    assert abs(beta_hat - beta_true) <= 0.05


def test_simulated_empirical_copula(gumbel2):
    sample = gumbel2.simulate(20000, seed=13)
    grid = np.arange(1, 11) / 11.0
    worst = 0.0
    for gu in grid:
        for gv in grid:
            emp = np.mean((sample[:, 0] <= gu) & (sample[:, 1] <= gv))
            worst = max(worst, abs(emp - gumbel2.cdf(gu, gv)))
    assert worst <= 0.02


def test_survival_involution_and_boundaries(gumbel2):
    surv = gumbel2.survival_copula()
    back = surv.survival_copula()
    u = np.linspace(0.05, 0.95, 12)
    uu, vv = np.meshgrid(u, u)
    assert np.max(np.abs(back.cdf(uu, vv) - gumbel2.cdf(uu, vv))) <= 1e-12
    assert np.max(np.abs(surv.cdf(u, np.ones_like(u)) - u)) <= 1e-9
    assert np.max(np.abs(surv.cdf(u, np.zeros_like(u)))) <= 1e-12
    # survival density is the reflected density
    assert abs(surv.pdf(0.2, 0.3) - gumbel2.pdf(0.8, 0.7)) <= 1e-14


def test_survival_partials_and_simulation(gumbel2):
    surv = gumbel2.survival_copula()
    rng = np.random.default_rng(4)
    u, v = rng.uniform(0.1, 0.9, size=(2, 50))
    h = 1e-6
    fdu = (surv.cdf(u + h, v) - surv.cdf(u - h, v)) / (2 * h)
    assert np.max(np.abs(surv.partial_u(u, v) - fdu)) <= 1e-6
    fdv = (surv.cdf(u, v + h) - surv.cdf(u, v - h)) / (2 * h)
    assert np.max(np.abs(surv.partial_v(u, v) - fdv)) <= 1e-6
    fdc = (surv.partial_u(u, v + h) - surv.partial_u(u, v - h)) / (2 * h)
    assert np.max(np.abs(surv.pdf(u, v) - fdc)) <= 1e-6
    sample = surv.simulate(2000, seed=3)
    resid = surv.partial_u(sample[:, 0], sample[:, 1])
    assert np.all((resid > 0) & (resid < 1))


class _ThreeReads:
    """A Pickands object whose ``jet`` is three separate reads of ``base``."""

    def __init__(self, base):
        self.base = base

    def __call__(self, t):
        return self.base(t)

    def jet(self, t):
        return self.base(t), self.base.deriv(t), self.base.deriv2(t)


def test_located_read_matches_three_reads():
    # a tabulated model's jet is one piece search; the partials and the
    # density it gives equal those of three separate reads bit for bit
    g = np.linspace(0.01, 0.99, 41)
    uu, vv = np.meshgrid(g, g, indexing="ij")
    for a in random_pickands(1e-4, 5.0, 2, seed=3):
        for survival in (False, True):
            located = EvCopula(a, survival)
            three = EvCopula(_ThreeReads(a), survival)
            for name in ("partial_u", "partial_v", "pdf"):
                x = getattr(located, name)(uu, vv)
                y = getattr(three, name)(uu, vv)
                assert x.shape == y.shape and x.tobytes() == y.tobytes()


class _HalfQuadratic:
    """A(t) = 1 - t(1 - t)/2, with only ``__call__`` and ``jet``."""

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 - 0.5 * t * (1.0 - t)

    def jet(self, t):
        t = np.asarray(t, dtype=float)
        return self(t), t - 0.5, np.ones_like(t)


def _fd_jet(f, t, h=1e-5):
    """Central differences of ``f``: its first and second derivative."""
    fp, f0, fm = (np.asarray(f(t + d), dtype=float) for d in (h, 0.0, -h))
    return (fp - fm) / (2 * h), (fp - 2 * f0 + fm) / h ** 2


def test_custom_object_with_call_and_jet_runs_everywhere():
    a = _HalfQuadratic()
    cop = EvCopula(a)
    rng = np.random.default_rng(11)
    u, v = rng.uniform(0.05, 0.95, size=(2, 60))
    h = 1e-6
    fdu = (cop.cdf(u + h, v) - cop.cdf(u - h, v)) / (2 * h)
    assert np.max(np.abs(cop.partial_u(u, v) - fdu)) <= 1e-6
    fdv = (cop.cdf(u, v + h) - cop.cdf(u, v - h)) / (2 * h)
    assert np.max(np.abs(cop.partial_v(u, v) - fdv)) <= 1e-6
    fdc = (cop.partial_u(u, v + h) - cop.partial_u(u, v - h)) / (2 * h)
    assert np.max(np.abs(cop.pdf(u, v) - fdc)) <= 1e-5
    # the draw solves dC/du(U, v) = P for the uniforms (U, P) of its seed
    sample = cop.simulate(2000, seed=5)
    ref = np.random.default_rng(5)
    u_ref, p_ref = ref.random(2000), ref.random(2000)
    assert np.array_equal(sample[:, 0], u_ref)
    assert np.max(np.abs(cop.partial_u(sample[:, 0], sample[:, 1]) - p_ref)) <= 1e-6

    # h is the derivative of the pseudo-angle CDF H(z) = z + z(1 - z) A'/A,
    # with the one-sided limits 1 + A'(0)/A(0) = 1/2 = 1 - A'(1)/A(1)
    z = np.linspace(0.01, 0.99, 99)
    hz = h_density(a)
    big_h = lambda x: x + x * (1.0 - x) * (x - 0.5) / a(x)  # noqa: E731
    assert np.max(np.abs(hz(z) - _fd_jet(big_h, z)[0])) <= 1e-8
    assert hz(0.0) == 0.5 and hz(1.0) == 0.5

    t = np.linspace(0.02, 0.98, 49)
    for wrapped in (khoudraji(a, 0.6, 0.9), mirror(a),
                    symmetrize(khoudraji(a, 0.6, 0.9))):
        f, f1, f2 = wrapped.jet(t)
        assert np.array_equal(f, wrapped(t))
        d1, d2 = _fd_jet(wrapped, t)
        assert np.max(np.abs(f1 - d1)) <= 1e-8
        assert np.max(np.abs(f2 - d2)) <= 1e-4
    back = rotate(rotate_inverse(a))
    f, f1, f2 = back.jet(t)
    assert np.max(np.abs(f - a(t))) <= 1e-8
    assert np.max(np.abs(f1 - (t - 0.5))) <= 1e-6
    assert np.max(np.abs(f2 - 1.0)) <= 1e-3


def test_tvd_copulas_properties(tvd_pairs):
    for c1, c2 in tvd_pairs:
        assert tvd_copulas(c1, c1) == 0.0
        assert tvd_copulas(c2, c2) == 0.0
        d = tvd_copulas(c1, c2)
        assert 0.0 < d < 1.0
        assert abs(d - tvd_copulas(c2, c1)) <= 1e-9


def test_supnorm_bound(gumbel2):
    same = supnorm_bound_check(gumbel2.pickands, gumbel2.pickands)
    assert same.gamma == 0.0 and same.measured == 0.0 and same.bound == 0.0
    other = ParametricPickands("gumbel", 3.0)
    res = supnorm_bound_check(gumbel2.pickands, other)
    assert res.measured <= res.bound + 1e-9


def test_supnorm_bound_random_spline_pairs(basis13):
    rng = np.random.default_rng(5)
    from evcop.fit import pipeline_pickands

    for _ in range(10):
        a1, _, _ = pipeline_pickands(basis13, 0.5 * rng.standard_normal(13),
                                     True, False)
        a2, _, _ = pipeline_pickands(basis13, 0.5 * rng.standard_normal(13),
                                     True, False)
        res = supnorm_bound_check(a1, a2)
        assert res.measured <= res.bound + 1e-9


def _brute_tvd(c1, c2):
    """TVD by a tensor Gauss rule in (z, r) on the densities themselves:
    ``u = e^{-rz}``, ``v = e^{-r(1-z)}``, Jacobian ``r u v``, fine fixed
    panels in both coordinates and no root finding."""
    tail = np.geomspace(1e-10, 0.01, 30)
    z_edges = np.concatenate([[0.0], tail, np.linspace(0.01, 0.99, 385)[1:-1],
                              1.0 - tail[::-1], [1.0]])
    z, wz = gauss_legendre(z_edges, 8)
    x, wx = gauss_legendre(np.append(0.0, np.geomspace(1e-6, 60.0, 300)), 4)
    total = 0.0
    for lo in range(0, z.size, 128):
        zs = z[lo:lo + 128, None]
        # r = x / m keeps every node inside the decay scale of both densities
        m = np.minimum(c1.pickands(zs), c2.pickands(zs))
        r = x / m
        u, v = np.exp(-r * zs), np.exp(-r * (1.0 - zs))
        diff = np.abs(c1.pdf(u, v) - c2.pdf(u, v)) * r * u * v
        total += wz[lo:lo + 128] @ ((diff * wx) / m).sum(axis=1)
    return 0.5 * total


@pytest.fixture(scope="module")
def tvd_pairs():
    gumbel = [EvCopula(ParametricPickands("gumbel", th)) for th in (3.0, 20.0, 50.0)]
    # a fit whose first Pickands piece is not convex (A'' < 0 near t = 0)
    truth = EvCopula(random_pickands(1e-4, 5.0, 4, seed=7)[0])
    fitted = optimize(z_transform(truth.simulate(1000, seed=1)), FitConfig())
    t = np.linspace(0.0, fitted.pickands.t[1], 50)
    assert np.min(fitted.pickands.jet(t)[2]) < 0.0
    spline = random_pickands(1e-4, 5.0, 2, seed=3)
    return [(gumbel[1], gumbel[2]),
            (EvCopula(fitted.pickands), truth),
            (EvCopula(FlatPickands()), EvCopula(ParametricPickands("gumbel", 2.0))),
            (EvCopula(ParametricPickands("gumbel", 3.0, khoudraji=(0.4, 0.9))),
             gumbel[0]),
            (EvCopula(spline[0]), EvCopula(spline[1]))]


def test_tvd_matches_a_brute_force_rule(tvd_pairs):
    for c1, c2 in tvd_pairs:
        assert abs(tvd_copulas(c1, c2) - _brute_tvd(c1, c2)) <= 2e-4


def test_tvd_rule_masses():
    models = [ParametricPickands("gumbel", th) for th in (2.0, 8.0, 20.0, 50.0)]
    models += [ParametricPickands("galambos", 1.0),
               ParametricPickands("gumbel", 3.0, khoudraji=(0.4, 0.9)),
               *random_pickands(1e-4, 5.0, 20, seed=3)]
    # each model on its own panels and on those merged with the next model's
    for a, b in zip(models, models[1:] + models[:1]):
        for pair in ((a, a), (a, b)):
            z, w = _tvd_nodes(*pair)
            f, p, q = _angle_terms(a, z)
            assert abs(w @ ((p / f + q) / f) - 1.0) <= 1e-4


def test_tvd_of_survival_copulas(tvd_pairs):
    for c1, c2 in tvd_pairs[1:3]:
        assert tvd_copulas(c1.survival_copula(), c2.survival_copula()) \
            == tvd_copulas(c1, c2)
        with pytest.raises(InputError, match="survival"):
            tvd_copulas(c1.survival_copula(), c2)
