"""Quadrature, difference stencils, interpolation, and root bracketing."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hardstars.numerics import (
    cumulative_simpson_uniform,
    derivative_uniform,
    lagrange_uniform,
    scan_sign_changes,
    simpson_uniform,
    simpson_weights,
)


def test_cumulative_simpson_exact_on_quadratics():
    x = np.linspace(0.0, 2.0, 41)
    dx = x[1] - x[0]
    y = 3.0 * x**2 - 2.0 * x + 0.5
    exact = x**3 - x**2 + 0.5 * x
    got = cumulative_simpson_uniform(y, dx)
    assert np.max(np.abs(got - exact)) <= 1e-13


def test_cumulative_simpson_smooth_defect():
    # the cubic defect drifts with one sign instead of oscillating, so
    # second differences of the output stay at the much smaller h^4 scale
    x = np.linspace(0.0, 2.0, 41)
    dx = x[1] - x[0]
    y = 3.0 * x**3 - 2.0 * x**2 + x - 0.5
    exact = 0.75 * x**4 - (2.0 / 3.0) * x**3 + 0.5 * x**2 - 0.5 * x
    err = cumulative_simpson_uniform(y, dx) - exact
    wobble = np.abs(np.diff(err[2:], n=2)).max()
    assert wobble <= 1e-3 * np.abs(err).max()


def test_cumulative_simpson_third_order():
    sup_errs = []
    for n in (33, 65):
        x = np.linspace(0.0, 1.0, n)
        got = cumulative_simpson_uniform(np.sin(x), x[1] - x[0])
        sup_errs.append(np.max(np.abs(got - (1.0 - np.cos(x)))))
    assert 6.0 <= sup_errs[0] / sup_errs[1] <= 10.0


def test_simpson_matches_cumulative_endpoint():
    x = np.linspace(0.0, 3.0, 61)
    y = np.exp(-x) * np.cos(2.0 * x)
    dx = x[1] - x[0]
    assert simpson_uniform(y, dx) == cumulative_simpson_uniform(y, dx)[-1]


def test_simpson_weights_match_cumulative_endpoint():
    assert np.allclose(simpson_weights(3, 0.3), np.array([1.0, 4.0, 1.0]) * 0.1, rtol=1e-15, atol=0)
    assert np.array_equal(simpson_weights(2, 0.3), [0.15, 0.15])
    rng = np.random.default_rng(5)
    for n in [*range(2, 10), 4001]:
        y = rng.standard_normal(n)
        dx = 1.0 / (n - 1)
        w = simpson_weights(n, dx)
        # both sums carry at most n roundings of terms bounded by |w| |y|
        bound = 4 * n * np.finfo(float).eps * (np.abs(w) @ np.abs(y))
        assert abs(w @ y - cumulative_simpson_uniform(y, dx)[-1]) <= bound, n


def test_derivative_stencil_orders():
    for order, poly_deg in ((2, 2), (4, 4)):
        x = np.linspace(-1.0, 1.0, 31)
        y = x**poly_deg
        got = derivative_uniform(y, x[1] - x[0], order=order)
        exact = poly_deg * x ** (poly_deg - 1)
        assert np.max(np.abs(got - exact)) <= 1e-12


def test_second_order_slope_is_numpy_gradient():
    # the explicit stencil keeps np.gradient's arithmetic, so every slope
    # the package takes (audit, eigenfunctions, wave samples) keeps its bits
    rng = np.random.default_rng(41)
    for n in (3, 4, 5, 17, 2000):
        for _ in range(20):
            y = rng.standard_normal(n) * 10.0 ** rng.uniform(-20, 20)
            dx = float(10.0 ** rng.uniform(-6, 2))
            ref = np.gradient(y, dx, edge_order=2)
            assert derivative_uniform(y, dx).tobytes() == ref.tobytes()


def test_derivative_convergence_rates():
    for order, lo, hi in ((2, 3.5, 4.5), (4, 13.0, 20.0)):
        errs = []
        for n in (41, 81):
            x = np.linspace(0.0, 1.0, n)
            got = derivative_uniform(np.sin(3.0 * x), x[1] - x[0], order=order)
            errs.append(np.max(np.abs(got - 3.0 * np.cos(3.0 * x))))
        assert lo <= errs[0] / errs[1] <= hi


def test_scan_sign_changes_finds_cosine_zeros():
    grid = np.linspace(0.0, 10.0, 200)
    brackets = scan_sign_changes(math.cos, grid)
    assert len(brackets) == 3
    for (lo, hi), zero in zip(brackets, (0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi)):
        assert lo < zero < hi


def test_lagrange_uniform_exact_on_cubics():
    # every stencil, the one-sided ones at both ends included, reproduces a
    # cubic; each column is read with the same weights
    x = np.linspace(0.0, 2.0, 21)
    dx = 2.0 / 20
    at = np.array([0.0, 1e-9, 0.03, dx, 0.15, 1.0, 1.93, 1.99, 2.0 - 1e-12, 2.0])
    cubic = lambda t: 2.0 * t**3 - t**2 + 0.5 * t - 3.0  # noqa: E731
    got, line = lagrange_uniform(at, dx, cubic(x), 4.0 * x)
    assert np.max(np.abs(got - cubic(at))) <= 1e-13
    assert np.max(np.abs(line - 4.0 * at)) <= 1e-14
    # at the samples themselves only the rounding of x / dx is left
    y = cubic(x)
    at_knots = lagrange_uniform(x, dx, y)[0]
    assert np.max(np.abs(at_knots - y)) <= 4.0 * np.finfo(float).eps * np.max(np.abs(y))


def test_lagrange_uniform_fourth_order():
    # the sup error of sin(3x) between the samples falls 16x per halving of
    # dx, one-sided end intervals included
    errs = []
    for n in (41, 81, 161):
        x = np.linspace(0.0, 1.0, n)
        at = np.linspace(0.0, 1.0, 4 * n - 3)[1::2]
        got = lagrange_uniform(at, 1.0 / (n - 1), np.sin(3.0 * x))[0]
        errs.append(np.max(np.abs(got - np.sin(3.0 * at))))
    for coarse, fine in zip(errs, errs[1:]):
        assert 13.0 <= coarse / fine <= 19.0


def test_lagrange_uniform_needs_four_samples():
    with pytest.raises(ValueError, match="at least 4 samples"):
        lagrange_uniform(np.array([0.5]), 1.0, np.zeros(3))
