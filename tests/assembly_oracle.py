"""Coefficient assembly as it was written before it shared one spline: chi
and the fields (rho, m/r^3, F) each get their own spline, and the nodes and
the half nodes are inverted in two passes.  ``hardstars.evolution`` must
reproduce it bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from hardstars.background import FOUR_PI, _chi_jacobians, metric_terms
from hardstars.evolution import WaveCoefficients, _invert_chi, potential_bracket
from hardstars.numerics import cumulative_simpson_uniform


def assemble_coefficients(profile, n_chi):
    B, R, n = profile.N_total, profile.R, n_chi
    dchi = B / (n - 1)
    chi = np.linspace(0.0, B, n)

    r_bg, rho_bg, mor3_bg = profile.r, profile.rho, profile.m_over_r3
    D_bg = metric_terms(r_bg, rho_bg, mor3_bg)[1]
    F_bg = cumulative_simpson_uniform(r_bg * (8.0 * math.pi * rho_bg - 2.0 * mor3_bg) / D_bg,
                                      profile.dr)
    chi_sp = CubicSpline(r_bg, profile.chi)
    fields_sp = CubicSpline(r_bg, np.column_stack([rho_bg, mor3_bg, F_bg]))

    r0 = _invert_chi(chi_sp, chi, R)
    r0[-1] = R
    r0_half = _invert_chi(chi_sp, chi[:-1] + 0.5 * dchi, R)

    rho0, mor3, F = fields_sp(r0).T
    with np.errstate(divide="ignore", invalid="ignore"):
        bracket, n2, D, q = potential_bracket(r0, rho0, mor3)
    eF = np.exp(F)
    V = eF * bracket
    V[0] = 0.0
    w, drdchi = _chi_jacobians(r0, n2, D)
    rho_h, mor3_h, F_h = fields_sp(r0_half).T
    n2_h = metric_terms(r0_half, rho_h, mor3_h)[0]
    return WaveCoefficients(
        profile=profile, n_chi=n, dchi=dchi, chi=chi, r0=r0, rho0=rho0, n2=n2, q=q, w=w,
        drdchi=drdchi, r0_half=r0_half, F=F, mass=eF * n2, V=V,
        flux_half=16.0 * math.pi**2 * r0_half**4 * n2_h * np.exp(F_h),
        flux_surface=float(16.0 * math.pi**2 * R**4 * n2[-1] * eF[-1]),
        alpha=float(q[-1] - 2.0 / R),
        cmax=FOUR_PI * R * R,
    )
