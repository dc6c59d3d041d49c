"""The background shooting route ``solve_tov_shooting`` took before it ran on
the compiled DOP853 runner, kept as a test oracle.

Every trial central density is stepped by ``solve_ivp``'s Python DOP853 at
the same tolerances (rtol 1e-13, atol 1e-14) from the same series start;
``brentq`` calls it afresh for every value it asks for, the root is
integrated once more for the mismatch check, and the profile is a third
run at the root read on the grid through ``t_eval``.  It shares the
right-hand side's formula (``_tov_rhs_raw``) with the program, which gets
numpy scalars here and Python floats in the compiled runner.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from hardstars.background import FOUR_PI, _tov_rhs_raw


def _integrate_outward(rho_c: float, R: float, r_eval: np.ndarray | None = None):
    r_start = 1e-6 * R
    m0 = (FOUR_PI / 3.0) * rho_c * r_start ** 3
    rho0 = rho_c - (2.0 * rho_c - 1.0) * 2.0 * math.pi * ((rho_c - 1.0) + rho_c / 3.0) * r_start ** 2
    sol = solve_ivp(_tov_rhs_raw, (r_start, R), [m0, rho0], method="DOP853",
                    rtol=1e-13, atol=1e-14, t_eval=r_eval)
    assert sol.success, sol.message
    return sol


def ivp_shooting(R: float, grid_n: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(rho_c, m, rho) on the uniform grid of ``grid_n`` nodes over [0, R]."""

    def surface_mismatch(rho_c: float) -> float:
        return float(_integrate_outward(rho_c, R).y[1][-1]) - 1.0

    rho_c = brentq(surface_mismatch, 1.0, 1.0 + (16.0 * math.pi / 3.0) * R * R,
                   xtol=1e-15, rtol=8.9e-16)
    assert abs(surface_mismatch(rho_c)) <= 1e-12
    r = np.linspace(0.0, R, grid_n)
    sol = _integrate_outward(rho_c, R, r_eval=r[1:])
    m = np.concatenate([[0.0], sol.y[0]])
    rho = np.concatenate([[rho_c], sol.y[1]])
    return rho_c, m, rho
