"""Small numerical helpers used across the package.

Only utilities with package-specific conventions live here (cumulative
Simpson rule on uniform grids and its whole-grid weights, finite
differences with one-sided closures, four-point Lagrange reads of a
uniform grid, sign-change scanning, and the
Chebyshev-Gauss-Lobatto nodes in s = (r/R)^2 with their derivative
matrices and series that the background and the modes collocate on).
Anything generic beyond that is taken straight from numpy/scipy.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def cumulative_simpson_uniform(y: np.ndarray, dx: float) -> np.ndarray:
    """Cumulative integral of samples ``y`` on a uniform grid.

    Each sub-interval is integrated with the quadratic through the three
    nearest samples; the per-interval defect is O(dx^4) with a fixed sign,
    so the cumulative error is O(dx^3) and varies smoothly from node to
    node (no parity wobble to pollute later differencing).  The first
    entry is 0.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if n < 2:
        return np.zeros_like(y)
    out = np.empty_like(y)
    out[0] = 0.0
    if n == 2:
        out[1] = 0.5 * dx * (y[0] + y[1])
        return out
    # Parabola through (j-1, j, j+1): left half-panel and right half-panel.
    left = dx * (5.0 * y[:-2] + 8.0 * y[1:-1] - y[2:]) / 12.0
    right = dx * (-y[:-2] + 8.0 * y[1:-1] + 5.0 * y[2:]) / 12.0
    inc = np.empty(n - 1)
    inc[0] = left[0]
    inc[1:] = right
    np.cumsum(inc, out=out[1:])
    return out


def simpson_uniform(y: np.ndarray, dx: float) -> float:
    """Definite integral over the whole uniform grid (Simpson accuracy)."""
    return float(cumulative_simpson_uniform(y, dx)[-1])


def simpson_weights(n: int, dx: float) -> np.ndarray:
    """Weights w with ``w @ y == cumulative_simpson_uniform(y, dx)[-1]`` up to roundoff.

    The same half-panel stencils summed per sample: the first half-panel
    (5, 8, -1) and every right half-panel (-1, 8, 5), over 12/dx.  For n = 3
    that is Simpson's (1, 4, 1) dx/3, for n = 2 the trapezoid.
    """
    w = np.zeros(n)
    if n == 2:
        w[:] = 0.5 * dx
    elif n >= 3:
        w[:3] += (5.0, 8.0, -1.0)
        w[:-2] -= 1.0
        w[1:-1] += 8.0
        w[2:] += 5.0
        w *= dx / 12.0
    return w


def derivative_uniform(y: np.ndarray, dx: float, order: int = 2) -> np.ndarray:
    """First derivative on a uniform grid.

    order=2: centred stencil with second-order one-sided closures.
    order=4: five-point centred stencil, fourth-order one-sided closures.
    """
    y = np.asarray(y, dtype=float)
    n = y.size
    if order == 2:
        # the arithmetic of np.gradient(y, dx, edge_order=2), without its per-call cost
        d = np.empty_like(y)
        d[1:-1] = (y[2:] - y[:-2]) / (2.0 * dx)
        d[0] = (-1.5 / dx) * y[0] + (2.0 / dx) * y[1] + (-0.5 / dx) * y[2]
        d[-1] = (0.5 / dx) * y[-3] + (-2.0 / dx) * y[-2] + (1.5 / dx) * y[-1]
        return d
    if order != 4:
        raise ValueError("order must be 2 or 4")
    if n < 6:
        raise ValueError("need at least 6 samples for the fourth-order stencil")
    d = np.empty_like(y)
    d[2:-2] = (y[:-4] - 8.0 * y[1:-3] + 8.0 * y[3:-1] - y[4:]) / (12.0 * dx)
    edge = np.array([-25.0, 48.0, -36.0, 16.0, -3.0]) / (12.0 * dx)
    near = np.array([-3.0, -10.0, 18.0, -6.0, 1.0]) / (12.0 * dx)
    d[0] = np.dot(edge, y[:5])
    d[1] = np.dot(near, y[:5])
    d[-1] = -np.dot(edge, y[-1:-6:-1])
    d[-2] = -np.dot(near, y[-1:-6:-1])
    return d


def lagrange_uniform(x: np.ndarray, dx: float, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each column, sampled on the uniform grid 0, dx, 2 dx, ..., read at x
    by the cubic through four neighbouring samples.

    The stencil is the two samples on either side of x's interval, shifted
    inward at the first and the last interval, so it is one-sided at both
    ends of the grid.  The error is O(dx^4) like a cubic spline's, but each
    value costs four samples instead of a solve over every knot.
    """
    n = len(columns[0])
    if n < 4:
        raise ValueError(f"need at least 4 samples for a four-point stencil, got {n}")
    t = np.asarray(x, dtype=float) / dx
    i = np.clip(np.floor(t).astype(np.intp) - 1, 0, n - 4)
    t = t - i                      # stencil samples at t = 0, 1, 2, 3
    t1, t2, t3 = t - 1.0, t - 2.0, t - 3.0
    w0, w1, w2, w3 = t1 * t2 * t3 / -6.0, t * t2 * t3 / 2.0, t * t1 * t3 / -2.0, t * t1 * t2 / 6.0
    return tuple(w0 * y[i] + w1 * y[i + 1] + w2 * y[i + 2] + w3 * y[i + 3] for y in columns)


def scan_sign_changes(f: Callable[[float], float], grid: np.ndarray) -> list[tuple[float, float]]:
    """Evaluate ``f`` on ``grid`` and return the bracketing pairs where it changes sign."""
    vals = np.array([f(float(x)) for x in grid])
    brackets = []
    for i in range(len(grid) - 1):
        a, b = vals[i], vals[i + 1]
        if np.isfinite(a) and np.isfinite(b) and a * b < 0.0:
            brackets.append((float(grid[i]), float(grid[i + 1])))
    return brackets


def chebyshev_nodes(N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """y = r/R at the N + 1 Chebyshev-Gauss-Lobatto nodes in s = y^2, the
    surface first (s_j = cos^2(j pi / 2N)), and the first and second
    derivative matrices in s.

    Node differences come from x_i - x_j = 2 sin((i+j) pi/2N) sin((j-i) pi/2N)
    for x = 2 s - 1, the second derivative from the first by the recursion
    of Weideman and Reddy (ACM TOMS 26, 465, 2000), and each diagonal from
    the row sum, which keeps the rounding of nearby cosines and of
    D1 @ D1 out of the matrices.
    """
    j = np.arange(N + 1)
    half = math.pi / (2 * N)
    y = np.sin((N - j) * half)
    c = np.where((j == 0) | (j == N), 2.0, 1.0) * (-1.0) ** j
    dx = 2.0 * np.sin(np.add.outer(j, j) * half) * np.sin(np.subtract.outer(j, j) * -half)
    np.fill_diagonal(dx, 1.0)
    d1 = np.outer(c, 1.0 / c) / dx
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(axis=1))
    d2 = 2.0 * d1 * (np.diag(d1)[:, None] - 1.0 / dx)
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(axis=1))
    return y, 2.0 * d1, 4.0 * d2


def chebyshev_series(g: np.ndarray) -> np.ndarray:
    """Coefficients a_k of the interpolant g(s) = sum a_k T_k(2 s - 1) of the
    node values g (surface first): a DCT-I, as the FFT of the even
    extension."""
    N = len(g) - 1
    a = np.fft.rfft(np.concatenate([g, g[-2:0:-1]])).real / N
    a[[0, N]] /= 2.0
    return a
