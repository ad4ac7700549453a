import importlib.util
import sys

import numpy as np
import pytest

import evcop.williamson

from evcop.bayes import tvd
from evcop.errors import InputError, NumericalError
from evcop.fit import empirical_w_grid, z_transform
from evcop.pickands import fixed_point, rotate
from evcop.williamson import (
    _MASS_TOL,
    WilliamsonKernel,
    default_kernel,
    default_w_nodes,
    normalize_w,
    w_power_complement,
    w_uniform_power,
    williamson_from_density,
)

from conftest import random_spline_density


def sqrt_density(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        return 0.5 / np.sqrt(x)


def test_square_root_density_grid():
    g = williamson_from_density(sqrt_density, np.linspace(0.0, 1.0, 200))
    truth = g.x - 2.0 * np.sqrt(g.x) + 1.0
    assert np.max(np.abs(g.w - truth)) <= 2e-3


def test_uniform_density_midpoint():
    g = williamson_from_density(
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        np.linspace(0.0, 1.0, 200))
    expected = 1.0 - 0.5 + 0.5 * np.log(0.5)
    assert abs(g(0.5) - expected) <= 2e-3


def test_grid_two_monotone_and_survival_identity(basis13):
    dens = random_spline_density(basis13, np.random.default_rng(0))
    g = williamson_from_density(dens, default_w_nodes())
    # the recurrence preserves 2-monotonicity; the pinned left endpoint joins
    # in once the quadrature mass is normalized out
    assert np.all(np.diff(g.w[1:]) <= 1e-15)
    assert g.w[1] <= g.w0_estimate + 1e-15
    assert np.all(np.diff(g.wp[1:]) >= -1e-15)
    assert np.all(g.wpp[1:] >= 0.0)
    gn = normalize_w(g)
    assert np.all(np.diff(gn.w) <= 1e-15)
    # survival identity W = Fbar + x W' holds exactly at interior nodes
    resid = g.w[1:] - (g.tail_mass[1:] + g.x[1:] * g.wp[1:])
    assert np.max(np.abs(resid)) <= 1e-6


def test_rejects_bad_grid():
    with pytest.raises(InputError):
        williamson_from_density(sqrt_density, np.array([0.0, 0.2]))
    with pytest.raises(InputError):
        williamson_from_density(sqrt_density, np.array([0.1, 0.5, 1.0]))


def test_spiky_density_detected():
    def spike(x):
        x = np.asarray(x, dtype=float)
        return np.exp(-0.5 * ((x - 0.5) / 1e-4) ** 2) / (1e-4 * np.sqrt(2 * np.pi))

    with pytest.raises(NumericalError):
        williamson_from_density(spike, np.array([0.0, 0.25, 0.5, 0.75, 1.0]))


def test_kernel_transpose_is_the_adjoint():
    # <K f, g> = <f, K' g> for the outputs (w, wp, wpp, c)
    rng = np.random.default_rng(3)
    for x in (default_w_nodes(), np.concatenate([[0.0], np.sort(
            rng.uniform(0.0, 1.0, 40)), [1.0]])):
        kernel = WilliamsonKernel(x)
        fv = rng.random(kernel.nodes.shape)
        w, wp, wpp, _, c = kernel(fv)
        g = [rng.standard_normal(w.size) for _ in range(3)]
        gc = rng.standard_normal()
        lhs = g[0] @ w + g[1] @ wp + g[2] @ wpp + gc * c
        gfv = kernel.transpose(*g, gc)
        assert gfv.shape == fv.shape
        scale = sum(np.abs(gi) @ np.abs(v) for gi, v in zip(g, (w, wp, wpp)))
        assert abs(lhs - np.sum(gfv * fv)) <= 1e-13 * (scale + abs(gc * c))


def test_normalize_w_roundtrip(basis13):
    dens = random_spline_density(basis13, np.random.default_rng(1))
    g = normalize_w(williamson_from_density(dens, default_w_nodes()))
    # an already-normalized grid is a fixed point
    again = normalize_w(g)
    assert np.max(np.abs(again.w - g.w)) <= 1e-12
    # scaling the grid by 1.02, within the mass tolerance, is undone exactly
    from dataclasses import replace

    scaled = replace(g, w=np.concatenate([[1.0], 1.02 * g.w[1:]]),
                     wp=1.02 * g.wp, wpp=1.02 * g.wpp,
                     w0_estimate=1.02, tail_mass=1.02 * g.tail_mass,
                     normalized=False)
    restored = normalize_w(scaled)
    assert np.max(np.abs(restored.w[1:] - g.w[1:])) <= 1e-10
    assert np.max(np.abs(restored.wp[1:] - g.wp[1:])) <= 1e-10


def test_normalize_w_rejects_distant_estimates(basis13):
    dens = random_spline_density(basis13, np.random.default_rng(2))
    g = williamson_from_density(dens, default_w_nodes())
    from dataclasses import replace

    bad = replace(g, w0_estimate=3.0)
    with pytest.raises(NumericalError):
        normalize_w(bad)


def test_normalize_w_mass_tolerance_edges(basis13):
    dens = random_spline_density(basis13, np.random.default_rng(2))
    g = williamson_from_density(dens, default_w_nodes())
    from dataclasses import replace

    for c in (1.0 - 2.0 * _MASS_TOL, 1.0 + 2.0 * _MASS_TOL):
        with pytest.raises(NumericalError):
            normalize_w(replace(g, w0_estimate=c))
    for c in (1.0 - 0.5 * _MASS_TOL, 1.0 + 0.5 * _MASS_TOL):
        assert normalize_w(replace(g, w0_estimate=c)).w0_estimate == c


def test_normalized_grid_gives_admissible_pickands(basis13):
    rng = np.random.default_rng(3)
    for _ in range(5):
        dens = random_spline_density(basis13, rng, scale=0.8)
        g = normalize_w(williamson_from_density(dens, default_w_nodes()))
        # convexity of the node sequence keeps W below the unit chord
        assert np.all(g.w <= 1.0 - g.x + 1e-12)
        a = rotate(g)
        t = np.linspace(0, 1, 1000)
        assert np.max(a(t)) <= 1.0 + 1e-6


def test_power_complement_family():
    w1 = w_power_complement(1.0)
    x = np.linspace(0, 1, 101)
    assert np.max(np.abs(w1(x) - (1.0 - x))) == 0.0
    a = rotate(w1)
    assert np.max(np.abs(a(np.linspace(0, 1, 500)) - 1.0)) <= 1e-12
    # theta = 2 has inner density 2x (Beta(2, 1))
    w2 = w_power_complement(2.0)
    xi = np.linspace(0.05, 0.95, 50)
    assert np.max(np.abs(xi * w2.deriv2(xi) - 2.0 * xi)) <= 1e-12
    # theta = 0 is degenerate and rejected by the rotation preconditions
    with pytest.raises(InputError):
        rotate(w_power_complement(0.0))


def test_uniform_power_family():
    w2 = w_uniform_power(2.0)
    x = np.linspace(0, 1, 201)
    assert np.max(np.abs(w2(x) - (x - 2.0 * np.sqrt(x) + 1.0))) <= 1e-12
    w1 = w_uniform_power(1.0)
    assert abs(w1(0.5) - (1.0 - 0.5 + 0.5 * np.log(0.5))) <= 1e-10
    for theta in (0.5, 1.0, 2.0, 4.0):
        w = w_uniform_power(theta)
        assert abs(w(0.0) - 1.0) <= 1e-12
        assert abs(w(1.0)) <= 1e-12
    with pytest.raises(InputError):
        w_uniform_power(0.0)


def test_fixed_points():
    assert abs(fixed_point(w_uniform_power(2.0)) - 0.25) <= 1e-10
    assert abs(fixed_point(w_power_complement(1.0)) - 0.5) <= 1e-10
    beta = np.sqrt(2.0) - 1.0
    assert abs(0.5 * (1.0 - np.log2(1.0 + beta)) - 0.25) <= 1e-12
    with pytest.raises(NumericalError):
        fixed_point(lambda x: np.ones_like(np.asarray(x, dtype=float)))


def test_transform_distance_bounded_by_tvd(basis13):
    # |W_f - W_g| <= 2 tvd(f, g) uniformly, and the derivative version on [x0, 1]
    rng = np.random.default_rng(4)
    nodes = default_w_nodes()
    probes = np.linspace(0.0, 1.0, 400)
    x0 = 0.05
    probes_d = np.linspace(x0, 1.0, 300)
    for _ in range(10):
        f = random_spline_density(basis13, rng)
        g = random_spline_density(basis13, rng)
        wf = williamson_from_density(f, nodes)
        wg = williamson_from_density(g, nodes)
        d = tvd(f, g)
        assert np.max(np.abs(wf(probes) - wg(probes))) <= 2.0 * d + 1e-9
        gap = np.max(np.abs(wf.deriv(probes_d) - wg.deriv(probes_d)))
        assert gap <= (2.0 / x0) * d + 1e-9


def _kernel_reads(kernel, seed):
    """Forward and transpose of ``kernel`` on random values, as bytes."""
    rng = np.random.default_rng(seed)
    m = kernel.x_in.size
    out = kernel(np.exp(rng.standard_normal(kernel.nodes.shape)))
    back = kernel.transpose(*rng.standard_normal((3, m)), 0.7)
    return [np.asarray(v).tobytes() for v in out] + [back.tobytes()]


def _fallback_williamson(monkeypatch):
    """A fresh copy of the module, loaded where numpy has no ``c_einsum``."""
    import numpy._core.multiarray as multiarray
    monkeypatch.delattr(multiarray, "c_einsum")
    spec = importlib.util.spec_from_file_location(
        "evcop._williamson_fallback", evcop.williamson.__file__)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_kernel_sums_are_np_einsums(gumbel2_sample, monkeypatch):
    # the kernel calls numpy's C einsum; the public np.einsum runs the same
    # sums, and a numpy without the private entry point gets np.einsum
    pilot = empirical_w_grid(z_transform(gumbel2_sample), 78)
    kernels = [default_kernel(), WilliamsonKernel(pilot)]
    fast = [_kernel_reads(k, seed) for seed, k in enumerate(kernels)]
    fallback = _fallback_williamson(monkeypatch)
    assert fallback._einsum is np.einsum
    assert [_kernel_reads(fallback.WilliamsonKernel(k.x), seed)
            for seed, k in enumerate(kernels)] == fast
    monkeypatch.setattr(evcop.williamson, "_einsum", np.einsum)
    assert [_kernel_reads(k, seed) for seed, k in enumerate(kernels)] == fast
