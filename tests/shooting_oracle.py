"""Reference shooting of the radial problem on scipy's Python-stepped RK45
and DOP853, on the exact-formula right-hand side.

``hardstars.modes`` solves the radial problem by Chebyshev collocation in
s = (r/R)^2, on coefficients read from one cubic spline.  This oracle
integrates ``NdarrayRowRhs`` outward with ``solve_ivp`` instead, so the two
agree only as far as the spline, the collocation and the integration are
accurate.

The start is the star's own Frobenius series h = r + c3 r^3 at 1e-4 R, with
c3 = -(lam W(0) + E(0)/R^2)/10 from the centre values W(0) = 2 rho_c - 1
and E(0)/R^2 = 12 pi rho_c - m/r^3|_0.  That is the centre row of the
problem in s, 10 g_s + E(0) g = -x^2 W(0) g, solved for g = 1 + c3 R^2 s.
The neglected r^5 term is below 1e-14 of h there for x up to 10, so the
solution has unit central slope to rounding, and no fit is needed.

``NdarrayRowRhs`` evaluates the radial coefficients at every call by the
formulas the package used before the modes read the quadratic form of the
second variation (``radial_coefficients``, built on the assembly oracle's
``potential_bracket``), from a spline of the background fields
(rho, m/r^3), one ndarray row converted by ``tolist`` per call.

``apply_H`` applies the same operator to grid data by finite differences,
and ``apply_H0``/``apply_H1`` split it into its flat Bessel part and the
stellar correction, which shrinks like R^2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from hardstars.background import FOUR_PI
from hardstars.numerics import derivative_uniform
from assembly_oracle import potential_bracket


def radial_coefficients(r, rho, mor3):
    """(alpha1, alpha2, U) of alpha2 h'' + alpha1 h' + (lambda - U) h = 0."""
    bracket, n2, D, q = potential_bracket(r, rho, mor3)
    alpha2 = D / n2
    alpha1 = alpha2 * (2.0 / r - q + (FOUR_PI * r * rho - mor3 * r) / D)
    return alpha1, alpha2, -bracket / n2


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
        return radial_coefficients(r, rho, mor3)

    def __call__(self, r, y, lam):
        h, hp = y.tolist()
        alpha1, alpha2, U = self.coefficients_at(float(r))
        return [hp, (-alpha1 * hp + (U - lam) * h) / alpha2]


def frobenius_start(profile, lam, r_s):
    """(h, h') of h = r + c3 r^3 at r_s."""
    rho_c, mor3_c = float(profile.rho[0]), float(profile.m_over_r3[0])
    c3 = -(lam * (2.0 * rho_c - 1.0) + 12.0 * math.pi * rho_c - mor3_c) / 10.0
    return r_s + c3 * r_s**3, 1.0 + 3.0 * c3 * r_s**2


def ivp_solution(profile, lam, rtol, t_eval=None, method="RK45"):
    """``solve_ivp`` run of the exact-formula regular solution at ``lam``
    from 1e-4 R to R, with absolute tolerance ``rtol`` * R."""
    R = profile.R
    r_s = 1e-4 * R
    sol = solve_ivp(NdarrayRowRhs(profile), (r_s, R), frobenius_start(profile, lam, r_s),
                    args=(lam,), method=method, rtol=rtol, atol=rtol * R, t_eval=t_eval)
    assert sol.success, sol.message
    return sol


def rk45_defect(profile, op, lam, rtol=1e-12):
    """h'(R) - kappa h(R) from an RK45 run, with ``op``'s kappa."""
    sol = ivp_solution(profile, lam, rtol)
    return float(sol.y[1][-1] - op.kappa * sol.y[0][-1])


def ivp_eigenfunction(profile, lam, rtol=1e-12, method="RK45"):
    """The regular solution on the profile grid from the run's dense output,
    with unit central slope from the start."""
    sol = ivp_solution(profile, lam, rtol, t_eval=profile.r[1:], method=method)
    return np.concatenate([[0.0], sol.y[0]])


# ------------------------------------------------------- operator splitting


def second_derivative_uniform(y, dx):
    """Second derivative, centred second order with one-sided ends."""
    y = np.asarray(y, dtype=float)
    d = np.empty_like(y)
    d[1:-1] = (y[:-2] - 2.0 * y[1:-1] + y[2:]) / (dx * dx)
    d[0] = (2.0 * y[0] - 5.0 * y[1] + 4.0 * y[2] - y[3]) / (dx * dx)
    d[-1] = (2.0 * y[-1] - 5.0 * y[-2] + 4.0 * y[-3] - y[-4]) / (dx * dx)
    return d


def apply_H(profile, h):
    """Full radial operator -alpha2 h'' - alpha1 h' + U h by differencing.

    Node 0 is reported as 0; accuracy degrades at the first few nodes where
    the 2/r terms amplify stencil error.
    """
    h = np.asarray(h, dtype=float)
    hp = derivative_uniform(h, profile.dr, order=2)
    hpp = second_derivative_uniform(h, profile.dr)
    alpha1, alpha2, U = radial_coefficients(profile.r[1:], profile.rho[1:],
                                            profile.m_over_r3[1:])
    out = np.zeros_like(h)
    out[1:] = U * h[1:] - alpha1 * hp[1:] - alpha2 * hpp[1:]
    return out


def apply_H0(profile, h):
    """Flat-limit part -h'' - 2h'/r + 2h/r^2 (the l=1 Bessel operator)."""
    h = np.asarray(h, dtype=float)
    hp = derivative_uniform(h, profile.dr, order=2)
    hpp = second_derivative_uniform(h, profile.dr)
    r = profile.r
    out = np.zeros_like(h)
    out[1:] = -hpp[1:] - 2.0 * hp[1:] / r[1:] + 2.0 * h[1:] / r[1:] ** 2
    return out


def apply_H1(profile, h):
    """Stellar correction H - H0.

    On data of fixed shape h = R g(r/R) the flat part grows like 1/R while
    this correction shrinks like R, so the correction-to-flat ratio falls
    off quadratically in R.
    """
    return apply_H(profile, h) - apply_H0(profile, h)
