"""Tests of the benchmark's oracles, each against a closed form or a loop.

    python3 -m pytest perfbench/test_oracles.py
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import oracles


def test_hydrostatic_star_small_radius_closed_form():
    # rho_c - 1 = (2 pi/3) R^2 + O(R^4) and M = (4 pi/3) R^3 + (16 pi^2/45) R^5
    # + O(R^7): halving R must shrink the remainders by 2^4 and 2^7
    rest = []
    for R in (0.02, 0.01):
        rho_c, M = oracles.shoot_star(R)
        rest.append((rho_c - 1.0 - (2.0 * math.pi / 3.0) * R * R,
                     M - (4.0 * math.pi / 3.0) * R**3 - (16.0 * math.pi**2 / 45.0) * R**5))
    assert rest[0][0] / rest[1][0] == pytest.approx(2.0**4, rel=0.02)
    assert rest[0][1] / rest[1][1] == pytest.approx(2.0**7, rel=0.02)


def test_shoot_star_meets_surface_condition_and_orders_family():
    previous = (1.0, 0.0)
    for R in (0.05, 0.12, 0.2):
        rho_c, M = oracles.shoot_star(R)
        assert abs(oracles.hydrostatic_star(rho_c, R)[1] - 1.0) <= 1e-12
        assert rho_c > previous[0] and M > previous[1]
        assert 3.0 * M < R  # outside the photon sphere
        previous = (rho_c, M)


def _chain(n: int, seed: int):
    # u'' = A u with A = -W^{-1} K, K a weighted Dirichlet chain Laplacian
    rng = np.random.default_rng(seed)
    springs = rng.uniform(0.5, 2.0, n + 1)
    weights = rng.uniform(0.5, 2.0, n)
    K = np.diag(springs[:-1] + springs[1:]) - np.diag(springs[1:-1], 1) - np.diag(springs[1:-1], -1)
    return -K / weights[:, None], weights


def test_verlet_propagator_matches_the_loop():
    A, weights = _chain(40, seed=3)
    mu_max = float(np.max(np.abs(np.linalg.eigvals(A))))
    dt = 1.5 / math.sqrt(mu_max)  # dt^2 mu_max = 2.25 < 4
    rng = np.random.default_rng(4)
    u0, v0 = rng.standard_normal(40), rng.standard_normal(40)
    u, v = u0.copy(), v0.copy()
    a = A @ u
    for _ in range(700):
        v += 0.5 * dt * a
        u += dt * v
        a = A @ u
        v += 0.5 * dt * a
    u_ref, v_ref = oracles.verlet_propagator(A, weights, dt, 700, u0, v0)
    assert np.max(np.abs(u - u_ref)) <= 1e-10 * np.max(np.abs(u))
    assert np.max(np.abs(v - v_ref)) <= 1e-10 * np.max(np.abs(v))


def test_verlet_propagator_rejects_unstable_step():
    A, weights = _chain(10, seed=5)
    mu_max = float(np.max(np.abs(np.linalg.eigvals(A))))
    with pytest.raises(ValueError):
        oracles.verlet_propagator(A, weights, 2.01 / math.sqrt(mu_max), 10, np.ones(10), np.zeros(10))


def test_operator_matrix_probes_columns():
    M = np.arange(25.0).reshape(5, 5)
    assert np.array_equal(oracles.operator_matrix(lambda u: M @ u, 5), M[1:, 1:])


def test_limit_root_is_first_root():
    x = oracles.limit_root()
    assert oracles.limit_function(x) * oracles.limit_function(math.nextafter(x, 3.0)) <= 0.0 \
        or oracles.limit_function(math.nextafter(x, 0.0)) * oracles.limit_function(x) <= 0.0
    grid = np.linspace(1e-3, x - 1e-9, 20001)
    assert all(oracles.limit_function(t) > 0.0 for t in grid)
    # the order-1 spherical Bessel function j1 peaks at the same point:
    # x^2 j1'(x) = x^2 j0 - 2 x j1 vanishes there
    j0 = math.sin(x) / x
    j1 = math.sin(x) / x**2 - math.cos(x) / x
    assert abs(x * x * j0 - 2.0 * x * j1) <= 1e-14


def test_rayleigh_x_exact_on_eigenvector_and_second_order_off_it():
    A, weights = _chain(30, seed=7)
    s = np.sqrt(weights)
    mu, vecs = np.linalg.eigh(-(s[:, None] * A) / s[None, :])
    R = 0.3
    u = vecs[:, 0] / s
    assert oracles.rayleigh_x(lambda w: A @ w, u, weights, R) == pytest.approx(math.sqrt(mu[0]) * R, rel=1e-12)
    errs = []
    for eps in (1e-3, 5e-4):
        w = u + eps * vecs[:, 1] / s
        errs.append(oracles.rayleigh_x(lambda z: A @ z, w, weights, R) - math.sqrt(mu[0]) * R)
    assert 3.5 <= errs[0] / errs[1] <= 4.5
