"""Reference stars for the background's collocation solver, from two routes
that share no code with it.

* ``ivp_shooting`` shoots on the central density: every trial is stepped
  by ``solve_ivp``'s DOP853 (rtol 2.5e-14, atol 1e-20) outward from a series
  start, ``brentq`` finds the central density at which the surface density
  is 1, and the profile is a run at the root read on the grid through
  ``t_eval``.
* ``mpmath_star`` gives (rho_c, M) to about 25 digits: the same shooting
  with ``mpmath.odefun``'s Taylor method at 30 digits and a secant iteration
  on the central density.  It takes a few seconds, so ``MPMATH_STARS`` pins
  its values at the radii the tests use.

Both carry their own copy of the right-hand side of the hydrostatic system.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

FOUR_PI = 4.0 * math.pi


def _hydrostatic_rhs(r, y):
    m, rho = y
    return [FOUR_PI * r * r * rho,
            -((2.0 * rho - 1.0) / (r - 2.0 * m)) * (FOUR_PI * r * r * (rho - 1.0) + m / r)]


def _integrate_outward(rho_c: float, R: float, r_eval: np.ndarray | None = None):
    r_start = 1e-6 * R
    m0 = (FOUR_PI / 3.0) * rho_c * r_start ** 3
    rho0 = rho_c - (2.0 * rho_c - 1.0) * 2.0 * math.pi * ((rho_c - 1.0) + rho_c / 3.0) * r_start ** 2
    sol = solve_ivp(_hydrostatic_rhs, (r_start, R), [m0, rho0], method="DOP853",
                    rtol=2.5e-14, atol=1e-20, t_eval=r_eval)
    assert sol.success, sol.message
    return sol


def ivp_shooting(R: float, grid_n: int,
                 rho_c_max: float | None = None) -> tuple[float, np.ndarray, np.ndarray]:
    """(rho_c, m, rho) on the uniform grid of ``grid_n`` nodes over [0, R],
    for the central density in [1, rho_c_max] (by default
    1 + (16 pi/3) R^2, which holds the one star of each R <= 0.1925)."""

    def surface_mismatch(rho_c: float) -> float:
        return float(_integrate_outward(rho_c, R).y[1][-1]) - 1.0

    hi = 1.0 + (16.0 * math.pi / 3.0) * R * R if rho_c_max is None else rho_c_max
    rho_c = brentq(surface_mismatch, 1.0, hi, xtol=1e-15, rtol=8.9e-16)
    assert abs(surface_mismatch(rho_c)) <= 1e-12
    r = np.linspace(0.0, R, grid_n)
    sol = _integrate_outward(rho_c, R, r_eval=r[1:])
    m = np.concatenate([[0.0], sol.y[0]])
    rho = np.concatenate([[rho_c], sol.y[1]])
    return rho_c, m, rho


def mpmath_star(R: float, rho_c: float, dps: int = 30, tol: str = "1e-26",
                max_steps: int = 8) -> tuple[str, str]:
    """(rho_c, M) of the star of radius R whose central density is near
    ``rho_c``, as 20-digit strings.

    Each trial integrates from the series start rho = rho_c + rho_2 r^2,
    m = 4 pi r^3 (rho_c/3 + rho_2 r^2/5), rho_2 = -(2 pi/3)(2 rho_c - 1)
    (4 rho_c - 3), at r = 1e-8, whose neglected terms are O(r^4) = 1e-32 of
    the kept ones, with ``mpmath.odefun`` at ``dps`` digits and Taylor
    tolerance ``tol``; the secant iteration on the
    surface density starts from rho_c and rho_c + 1e-12 and stops at the
    first trial whose next step is below 1e-24.
    """
    with mpmath.workdps(dps):
        R_mp, r0, four_pi = mpmath.mpf(R), mpmath.mpf("1e-8"), 4 * mpmath.pi

        def rhs(r, y):
            m, rho = y
            return [four_pi * r * r * rho,
                    -((2 * rho - 1) / (r - 2 * m)) * (four_pi * r * r * (rho - 1) + m / r)]

        def surface(c):
            rho_2 = -(2 * mpmath.pi / 3) * (2 * c - 1) * (4 * c - 3)
            start = [four_pi * r0 ** 3 * (c / 3 + rho_2 * r0 ** 2 / 5), c + rho_2 * r0 ** 2]
            return mpmath.odefun(rhs, r0, start, tol=mpmath.mpf(tol))(R_mp)

        c0, c1 = mpmath.mpf(rho_c), mpmath.mpf(rho_c) + mpmath.mpf("1e-12")
        f0 = surface(c0)[1] - 1
        for _ in range(max_steps):
            m, rho = surface(c1)
            step = (rho - 1) * (c1 - c0) / (rho - 1 - f0)
            if abs(step) < mpmath.mpf("1e-24"):
                return mpmath.nstr(c1, 20), mpmath.nstr(m, 20)
            c0, c1, f0 = c1, c1 - step, rho - 1
        raise AssertionError(f"secant on rho_c did not converge at R = {R}")


#: ``mpmath_star`` at its defaults: R -> (rho_c, M).  At 40 digits and
#: Taylor tolerance 1e-34 the R = 0.247 star comes out the same to all 20.
MPMATH_STARS = {
    0.02: ("1.0008414251613775292", "0.000033521596953429643974"),
    0.1: ("1.0235377133676434919", "0.004227904458642060666"),
    0.19: ("1.1295860623094294241", "0.030150958237499786859"),
    0.235: ("1.3734613301374664995", "0.061438971164641155335"),
    0.247: ("1.8130229513788466411", "0.078662262149549599624"),
}
