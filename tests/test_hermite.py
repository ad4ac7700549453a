"""The closed-form Bernstein interpolator against a per-node reference."""

from dataclasses import replace
from math import perm

import numpy as np
import pytest
from scipy.interpolate import BPoly

import evcop._hermite
from evcop._hermite import hermite_interpolator
from evcop.fit import pipeline_pickands, random_pickands
from evcop.pickands import PickandsModel

EPS = np.finfo(float).eps


def reference_interpolator(x, values, d1, d2) -> BPoly:
    """One ``from_derivatives`` row per node; non-finite constraints dropped."""
    yi = []
    for i in range(len(x)):
        row = [values[i]]
        if np.isfinite(d1[i]):
            row.append(d1[i])
            if np.isfinite(d2[i]):
                row.append(d2[i])
        yi.append(row)
    return BPoly.from_derivatives(x, yi)


@pytest.fixture(scope="module")
def grids(basis13):
    """W and A tables ``(x, y, y', y'')`` of random models with |theta| <= 3."""
    rng = np.random.default_rng(20)
    out = []
    for k in range(6):
        theta = rng.standard_normal(13)
        theta *= rng.uniform(0.0, 3.0) / np.linalg.norm(theta)
        model, _, grid = pipeline_pickands(basis13, theta, True, bool(k % 2))
        out.append(("W", (grid.x, grid.w, grid.wp, grid.wpp)))
        out.append(("A", (model.t, model.a, model.ap, model.app)))
    return out


def _probes(x):
    mid = 0.5 * (x[:-1] + x[1:])
    return np.concatenate([x, mid, np.linspace(0.0, 1.0, 2001)])


def _rounding_floor(ip, order):
    """Per-piece rounding floor of the ``order``-th derivative: eps max|c| / h^order."""
    h = np.diff(ip.x)
    return EPS * np.max(np.abs(ip.c), axis=0) / h ** order


def test_values_and_integral_match_reference(grids):
    for _, args in grids:
        new, ref = hermite_interpolator(*args), reference_interpolator(*args)
        p = _probes(args[0])
        assert np.max(np.abs(new(p) - ref(p))) <= 1e-14
        assert abs(new.integrate() - ref.integrate(0.0, 1.0)) <= 1e-14


def test_first_derivative_matches_reference(grids):
    for _, args in grids:
        new, ref = hermite_interpolator(*args), reference_interpolator(*args)
        p = _probes(args[0])
        d_new, d_ref = new(p, 1), ref.derivative()(p)
        assert np.all(np.abs(d_new - d_ref) <= 1e-9 * np.maximum(np.abs(d_ref), 1.0))


def test_pickands_curvature_matches_reference(grids):
    t = np.linspace(0.0, 1.0, 4001)
    for kind, args in grids:
        if kind != "A":
            continue
        new, ref = hermite_interpolator(*args), reference_interpolator(*args)
        d_new, d_ref = new(t, 2), ref.derivative(2)(t)
        assert np.all(np.abs(d_new - d_ref) <= 1e-6 * np.maximum(np.abs(d_ref), 1.0))


def test_one_interpolator_per_table(basis13, monkeypatch):
    # values, both derivatives and the integral of a table come from the one
    # interpolator its object builds
    model, _, grid = pipeline_pickands(basis13, np.zeros(13), True, False)
    built = []
    init = evcop._hermite.PiecewiseBernstein.__init__

    def counted(self, c, x):
        built.append(1)
        init(self, c, x)

    monkeypatch.setattr(evcop._hermite.PiecewiseBernstein, "__init__", counted)
    t = np.linspace(0.0, 1.0, 101)
    a = PickandsModel(model.t, model.a, model.ap, model.app)
    a(t), a.deriv(t), a.deriv2(t), a.integrate()
    assert len(built) == 1
    w = replace(grid)
    w(t), w.deriv(t), w.deriv2(t)
    assert len(built) == 2


def test_edge_inputs_match_reference(grids):
    # shapes, NaN, the nodes and both ends exactly, and extrapolation of the
    # end pieces a hundredth of their width outside [0, 1]
    for _, args in grids:
        x = args[0]
        probes = [np.empty(0), np.float64(0.3), 0.3, np.nan, x,
                  np.array([0.0, 1.0, np.nan]),
                  np.array([-1e-2 * x[1], 1.0 + 1e-2 * (1.0 - x[-2])]),
                  np.linspace(0.0, 1.0, 12).reshape(3, 4)]
        new, ref = hermite_interpolator(*args), reference_interpolator(*args)
        for order, tol in ((0, 1e-14), (1, 1e-9), (2, 1e-6)):
            g = ref.derivative(order) if order else ref
            for p in probes:
                value, expected = new(p, order), g(p)
                assert np.shape(value) == np.shape(expected)
                np.testing.assert_allclose(value, expected, rtol=tol, atol=tol)
        # node values are reproduced exactly, except at the right end
        assert np.array_equal(new(x[:-1]), args[1][:-1])


def test_interior_nodes_reproduce_inputs_and_are_c2(grids):
    for _, (x, y, d1, d2) in grids:
        ip = hermite_interpolator(x, y, d1, d2)
        for order, target in ((0, y), (1, d1), (2, d2)):
            # the order-th derivative is 5!/(5-order)! times an order-th
            # difference of coefficients: up to that many times 2**order floors
            floor = perm(5, order) * 2 ** order * _rounding_floor(ip, order)
            tol = np.maximum(floor[:-1], floor[1:])
            # the Bernstein coefficients of the order-th derivative
            c = perm(5, order) * np.diff(ip.c, order, axis=0) / np.diff(x) ** order
            # a Bernstein piece's end coefficients are its values at its ends
            left, right = c[-1, :-1], c[0, 1:]
            assert np.all(np.abs(ip(x[1:-1], order) - target[1:-1]) <= tol), order
            assert np.all(np.abs(left - target[1:-1]) <= tol), order
            assert np.all(np.abs(left - right) <= tol), order


def test_sentinel_pieces_match_reference_coefficients(grids):
    for _, args in grids:
        _, _, d1, d2 = args
        finite = np.isfinite(d1) & np.isfinite(d2)
        pieces = np.flatnonzero(~finite[:-1] | ~finite[1:])
        assert pieces.size >= 1
        new, ref = hermite_interpolator(*args), reference_interpolator(*args)
        assert np.max(np.abs(new.c[:, pieces] - ref.c[:, pieces])) <= 1e-15


def test_any_sentinel_pattern_matches_reference():
    x = np.linspace(0.0, 1.0, 9) ** 1.5
    y = np.cos(x)
    d1 = -np.sin(x)
    d2 = -np.cos(x)
    d1[[0, 4]] = [-np.inf, np.nan]
    d2[[2, 4, 8]] = [np.inf, 3.0, np.nan]
    new, ref = hermite_interpolator(x, y, d1, d2), reference_interpolator(x, y, d1, d2)
    assert new.c.shape == (6, 8)
    # lower-degree pieces are raised to degree five
    assert np.max(np.abs(new.c - ref.c)) <= 1e-15
    p = np.linspace(0.0, 1.0, 301)
    assert np.max(np.abs(new(p) - ref(p))) <= 1e-15


def test_only_sentinel_pieces_are_built_one_by_one(grids, monkeypatch):
    calls = []
    build = evcop._hermite._sentinel_piece

    def counted(x, ya, yb):
        calls.append(len(x))
        return build(x, ya, yb)

    monkeypatch.setattr(evcop._hermite, "_sentinel_piece", counted)
    for _, args in grids:
        calls.clear()
        hermite_interpolator(*args)
        finite = np.isfinite(args[2]) & np.isfinite(args[3])
        assert calls == [2] * int(np.sum(~finite[:-1] | ~finite[1:]))
        assert len(calls) <= 2


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and x.dtype == y.dtype and x.tobytes() == y.tobytes()


def test_jet_is_the_three_reads_bit_for_bit():
    # random_pickands mirrors every second model: unflipped and flipped
    # tables, read inside and outside [0, 1], at NaN and on every shape
    probes = [np.linspace(-0.1, 1.1, 1201), np.array([np.nan, 0.0, 0.5, 1.0]),
              np.float64(0.3), 0.7, np.nan, np.empty(0),
              np.linspace(0.0, 1.0, 12).reshape(3, 4)]
    for a in random_pickands(1e-4, 5, 4, seed=3):
        for t in probes:
            jet = a.jet(t)
            assert len(jet) == 3
            for got, want in zip(jet, (a(t), a.deriv(t), a.deriv2(t))):
                assert _same_bits(got, want)
