"""Reference computations the benchmark checks the program against.

Nothing here imports ``hardstars``: each oracle is written from the
equations alone, so a fault in the program cannot hide in its own check.

* ``hydrostatic_star`` integrates the static stiff-fluid system
  (p = rho - 1) outward from a given central density, and
  ``shoot_star`` finds the central density whose surface density is 1.
* ``verlet_propagator`` advances u'' = A u by velocity Verlet in closed
  form, one normal mode of A at a time: each mode turns by theta per step
  with cos(theta) = 1 - dt^2 mu / 2.
* ``limit_root`` bisects for the smallest positive root of
  sin x (x^2 - 2) + 2 x cos x.
* ``rayleigh_x`` is x = sqrt(lambda) R for the Rayleigh quotient of a grid
  vector under an operator, in a weighted inner product.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh
from scipy.optimize import brentq

_FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------- statics


def _hydrostatic_rhs(r: float, y: np.ndarray) -> list[float]:
    m, rho = y
    dm = _FOUR_PI * r * r * rho
    drho = -(2.0 * rho - 1.0) * (_FOUR_PI * r**3 * (rho - 1.0) + m) / (r * (r - 2.0 * m))
    return [dm, drho]


def hydrostatic_star(rho_c: float, R: float) -> tuple[float, float]:
    """Mass and density at areal radius R of the star with central density rho_c.

    Starts from the regular series m = (4 pi/3) rho_c r^3,
    rho = rho_c - (2 pi/3)(2 rho_c - 1)(4 rho_c - 3) r^2 at r = 1e-7 R and
    integrates with an adaptive eighth-order Runge-Kutta rule.
    """
    r0 = 1e-7 * R
    m0 = (_FOUR_PI / 3.0) * rho_c * r0**3
    rho0 = rho_c - (2.0 * math.pi / 3.0) * (2.0 * rho_c - 1.0) * (4.0 * rho_c - 3.0) * r0**2
    sol = solve_ivp(_hydrostatic_rhs, (r0, R), [m0, rho0], method="DOP853",
                    rtol=1e-13, atol=1e-16)
    if not sol.success:
        raise RuntimeError(f"hydrostatic integration failed: {sol.message}")
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def shoot_star(R: float) -> tuple[float, float]:
    """(rho_central, M) of the star whose surface density at R is exactly 1."""
    hi = 1.0 + (16.0 * math.pi / 3.0) * R * R
    rho_c = brentq(lambda c: hydrostatic_star(c, R)[1] - 1.0, 1.0, hi,
                   xtol=1e-15, rtol=4.0 * np.finfo(float).eps)
    return rho_c, hydrostatic_star(rho_c, R)[0]


# ----------------------------------------------------------------- dynamics


def operator_matrix(apply: Callable[[np.ndarray], np.ndarray], n: int, first: int = 1) -> np.ndarray:
    """Dense matrix of the linear map ``apply`` restricted to nodes first..n-1."""
    cols = []
    for j in range(first, n):
        e = np.zeros(n)
        e[j] = 1.0
        cols.append(apply(e)[first:])
    return np.column_stack(cols)


def verlet_propagator(A: np.ndarray, weights: np.ndarray, dt: float, n_steps: int,
                      u0: np.ndarray, v0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """State after ``n_steps`` velocity-Verlet steps of u'' = A u, in closed form.

    A must be self-adjoint in the inner product with positive ``weights``
    and have spectrum -mu <= 0 with dt^2 mu < 4.  In the normal modes one
    Verlet step is the 2x2 map
        [[1 - h^2 mu/2, h], [-h mu (1 - h^2 mu/4), 1 - h^2 mu/2]]
    of determinant 1 and trace 2 cos(theta); its n-th power is
    (sin(n theta) M - sin((n-1) theta) I) / sin(theta).
    """
    s = np.sqrt(weights)
    sym = (s[:, None] * A) / s[None, :]
    mu_neg, vecs = eigh(0.5 * (sym + sym.T))
    mu = -mu_neg
    if np.any(dt * dt * mu >= 4.0) or np.any(mu <= 0.0):
        raise ValueError("operator spectrum outside the stable Verlet range")
    q = vecs.T @ (s * u0)
    p = vecs.T @ (s * v0)
    h2mu = dt * dt * mu
    c = 1.0 - 0.5 * h2mu
    theta = np.arccos(c)
    sin_t = np.sin(theta)
    a_n = np.sin(n_steps * theta) / sin_t
    b_n = np.sin((n_steps - 1) * theta) / sin_t
    m12 = dt
    m21 = -dt * mu * (1.0 - 0.25 * h2mu)
    qn = a_n * (c * q + m12 * p) - b_n * q
    pn = a_n * (m21 * q + c * p) - b_n * p
    return (vecs @ qn) / s, (vecs @ pn) / s


# -------------------------------------------------------------------- modes


def limit_function(x: float) -> float:
    return math.sin(x) * (x * x - 2.0) + 2.0 * x * math.cos(x)


def limit_root(lo: float = 1.0, hi: float = 2.5) -> float:
    """Smallest positive root of sin x (x^2 - 2) + 2x cos x, by plain bisection.

    The function is x^3/3 + O(x^5) > 0 near 0 and has no root below the
    bracket; bisection runs until the interval stops shrinking.
    """
    f_lo = limit_function(lo)
    if f_lo <= 0.0 or limit_function(hi) >= 0.0:
        raise ValueError("bracket does not isolate the first root")
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if limit_function(mid) > 0.0:
            lo = mid
        else:
            hi = mid


def rayleigh_x(apply: Callable[[np.ndarray], np.ndarray], u: np.ndarray,
               weights: np.ndarray, R: float) -> float:
    """x = sqrt(lambda) R with lambda = -<u, apply(u)>_w / <u, u>_w."""
    lam = -float(np.sum(weights * u * apply(u))) / float(np.sum(weights * u * u))
    return math.sqrt(lam) * R
