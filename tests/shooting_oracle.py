"""Reference shooting on scipy's Python-stepped RK45 and DOP853, and the
exact-formula right-hand side they integrate.

``hardstars.modes`` steps the radial problem with the compiled
Dormand-Prince 8(5,3) pair on a right-hand side read from one table of
cubic pieces.  This oracle integrates ``NdarrayRowRhs`` instead, from the
same series start with ``solve_ivp``'s RK45, a different pair with
different step control, so the two agree only as far as the table, and
both integrations, are accurate.

``dop853_ivp_eigenfunction`` is the path ``modes.eigenfunction`` once took:
the same pair and tolerances stepped by ``solve_ivp`` and read on the grid
from its dense output.  Its steps differ from the compiled runner's, so it
too agrees only to the integration accuracy.

``NdarrayRowRhs`` evaluates the radial coefficients by their formulas
(``_radial_coefficients``) at every call, from a spline of the background
fields (rho, m/r^3), one ndarray row converted by ``tolist`` per call.
The table ``_RadialOperator`` reads interpolates the same coefficients
between the profile knots, so the two right-hand sides agree to the
interpolation error, not bit for bit.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from hardstars.modes import SHOOTING_RTOL, _radial_coefficients, _series_start


class NdarrayRowRhs:
    """The shooting right-hand side from the coefficient formulas."""

    def __init__(self, profile):
        spline = CubicSpline(profile.r, np.column_stack([profile.rho, profile.m_over_r3]))
        pieces = spline.c.transpose(1, 2, 0).reshape(-1, 8)
        self._pieces = np.column_stack([profile.r[:-1], pieces])
        self._inv_dr = 1.0 / profile.dr
        self._last = len(pieces) - 1

    def coefficients_at(self, r: float) -> tuple[float, float, float]:
        i = min(int(r * self._inv_dr), self._last)
        x0, a3, a2, a1, a0, b3, b2, b1, b0 = self._pieces[i].tolist()
        t = r - x0
        rho = ((a3 * t + a2) * t + a1) * t + a0
        mor3 = ((b3 * t + b2) * t + b1) * t + b0
        return _radial_coefficients(r, rho, mor3)

    def __call__(self, r, y, lam):
        h, hp = y.tolist()
        alpha1, alpha2, U = self.coefficients_at(float(r))
        return [hp, (-alpha1 * hp + (U - lam) * h) / alpha2]


def rk45_solution(profile, lam, rtol, t_eval=None):
    """RK45 run of the exact-formula regular solution at ``lam`` from
    1e-4 R to R, with absolute tolerance ``rtol`` * R."""
    R = profile.R
    r_s = 1e-4 * R
    sol = solve_ivp(NdarrayRowRhs(profile), (r_s, R), _series_start(lam, r_s), args=(lam,),
                    method="RK45", rtol=rtol, atol=rtol * R, t_eval=t_eval)
    assert sol.success, sol.message
    return sol


def rk45_defect(profile, op, lam, rtol=1e-12):
    """h'(R) - kappa h(R) from an RK45 run, with ``op``'s kappa."""
    sol = rk45_solution(profile, lam, rtol)
    return float(sol.y[1][-1] - op.kappa * sol.y[0][-1])


def rk45_eigenfunction(profile, lam, rtol=1e-10):
    """RK45 dense output on the profile grid, normalised to unit central
    slope by the fit h = a r + b r^3 over the innermost nodes."""
    sol = rk45_solution(profile, lam, rtol, t_eval=profile.r[1:])
    return _unit_slope(profile, sol.y[0])


def dop853_ivp_eigenfunction(profile, lam):
    """``solve_ivp`` DOP853 dense output of the exact-formula solution on the
    profile grid at the shooting tolerances, normalised like
    ``rk45_eigenfunction``."""
    R = profile.R
    r_s = 1e-4 * R
    sol = solve_ivp(NdarrayRowRhs(profile), (r_s, R), _series_start(lam, r_s), args=(lam,),
                    method="DOP853", t_eval=profile.r[1:], rtol=SHOOTING_RTOL,
                    atol=SHOOTING_RTOL * R)
    assert sol.success, sol.message
    return _unit_slope(profile, sol.y[0])


def _unit_slope(profile, h_inner):
    h = np.concatenate([[0.0], h_inner])
    pts = slice(1, 9)
    basis = np.column_stack([profile.r[pts], profile.r[pts] ** 3])
    coef, *_ = np.linalg.lstsq(basis, h[pts], rcond=None)
    return h / coef[0]
