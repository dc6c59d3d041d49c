"""Coefficient assembly as it was written before it read the quadratic form
of the second variation, and before it shared one spline.

chi and the fields (rho, m/r^3, F) each get their own spline, and the nodes
and the half nodes are inverted in two passes.  The mass and flux weights
carry e^F, with F the regular radial integral of r (8 pi rho - 2 m/r^3) /
(1 - 2m/r), and V = e^F times ``potential_bracket``.  ``hardstars.evolution``
must reproduce the radii, the background fields and alpha bit for bit, and
the mass, flux and V to the gap between the Simpson errors of F and of the
integrating factor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from hardstars.background import FOUR_PI, _chi_jacobian, metric_terms
from hardstars.evolution import WaveCoefficients, _invert_chi
from hardstars.numerics import cumulative_simpson_uniform


def potential_bracket(r0, rho, mor3):
    """The wave potential stripped of its e^F weight, with the ``metric_terms``
    (n^2, D, q) it is built from:
    2 q^2 D + 2 m/r^3 + 4 pi r n^2 (2/r - q) - D (2/r^2 + q'), D = 1 - 2m/r."""
    n2, D, q = metric_terms(r0, rho, mor3)
    N = mor3 * r0 + FOUR_PI * r0 * (rho - 1.0)
    rho_eq_slope = -n2 * q
    N_prime = FOUR_PI * rho - 2.0 * mor3 + FOUR_PI * (rho - 1.0) + FOUR_PI * r0 * rho_eq_slope
    D_prime = -8.0 * math.pi * r0 * rho + 2.0 * mor3 * r0
    q_prime = (N_prime * D - N * D_prime) / (D * D)
    bracket = (
        2.0 * q * q * D
        + 2.0 * mor3
        + 8.0 * math.pi * n2
        - FOUR_PI * r0 * n2 * q
        - 2.0 * D / (r0 * r0)
        - D * q_prime
    )
    return bracket, n2, D, q


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
    w = _chi_jacobian(r0, n2, D)
    rho_h, mor3_h, F_h = fields_sp(r0_half).T
    n2_h = metric_terms(r0_half, rho_h, mor3_h)[0]
    return WaveCoefficients(
        profile=profile, n_chi=n, dchi=dchi, chi=chi, r0=r0, rho0=rho0, n2=n2, q=q, w=w,
        r0_half=r0_half, mass=eF * n2, V=V,
        flux_half=16.0 * math.pi**2 * r0_half**4 * n2_h * np.exp(F_h),
        flux_surface=float(16.0 * math.pi**2 * R**4 * n2[-1] * eF[-1]),
        alpha=float(q[-1] - 2.0 / R),
        cmax=FOUR_PI * R * R,
    )
