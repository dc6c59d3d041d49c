"""Reference shooting on scipy's Python-stepped RK45.

``hardstars.modes`` steps the radial problem with the compiled
Dormand-Prince 8(5,3) pair.  This oracle integrates the same right-hand side
from the same series start with ``solve_ivp``'s RK45, a different pair with
different step control, so the two agree only as far as both are accurate.
"""

from __future__ import annotations

import numpy as np
from scipy.integrate import solve_ivp

from hardstars.modes import _series_start


def rk45_solution(profile, op, lam, rtol, t_eval=None):
    """RK45 run of the regular solution at ``lam`` from 1e-4 R to R, with
    absolute tolerance ``rtol`` * R."""
    R = profile.R
    r_s = 1e-4 * R
    sol = solve_ivp(op.rhs, (r_s, R), _series_start(lam, r_s), args=(lam,), method="RK45",
                    rtol=rtol, atol=rtol * R, t_eval=t_eval)
    assert sol.success, sol.message
    return sol


def rk45_defect(profile, op, lam, rtol=1e-12):
    """h'(R) - kappa h(R) from an RK45 run."""
    sol = rk45_solution(profile, op, lam, rtol)
    return float(sol.y[1][-1] - op.kappa * sol.y[0][-1])


def rk45_eigenfunction(profile, op, lam, rtol=1e-10):
    """RK45 dense output on the profile grid, normalised to unit central
    slope by the fit h = a r + b r^3 over the innermost nodes."""
    sol = rk45_solution(profile, op, lam, rtol, t_eval=profile.r[1:])
    h = np.concatenate([[0.0], sol.y[0]])
    pts = slice(1, 9)
    basis = np.column_stack([profile.r[pts], profile.r[pts] ** 3])
    coef, *_ = np.linalg.lstsq(basis, h[pts], rcond=None)
    return h / coef[0]
