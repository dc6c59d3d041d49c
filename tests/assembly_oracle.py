"""Coefficient assembly as it was written before it read the quadratic form
of the second variation, and before it read the profile locally.

chi and the fields (rho, m/r^3, F) each get a ``CubicSpline`` over every
profile knot, and the nodes and the half nodes are inverted on the chi
spline in two passes (``invert_chi``, safeguarded Newton on the spline).
The mass and flux weights carry e^F, with F the regular radial integral of
r (8 pi rho - 2 m/r^3) / (1 - 2m/r), and V = e^F times
``potential_bracket``.  ``hardstars.evolution`` reads the profile through
the cubic of its four nearest samples instead, so it must reproduce the
radii, the background fields and alpha to the gap between that cubic and
the spline, and the mass, flux and V also to the gap between the Simpson
errors of F and of the integrating factor.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline, PPoly

from hardstars.background import FOUR_PI, _chi_jacobian, metric_terms
from hardstars.evolution import WaveCoefficients
from hardstars.numerics import cumulative_simpson_uniform


def invert_chi(chi_spline: PPoly, targets: np.ndarray, R: float) -> np.ndarray:
    """Radii r in [0, R] with chi(r) = target, for all targets at once.

    Newton on the spline, safeguarded by bisection inside a bracket that
    starts as the knot interval holding the target.  Targets at or below 0
    map to 0, targets at or above chi(R) to R.
    """
    knots = chi_spline.x
    values = chi_spline(knots)
    out = np.where(targets <= 0.0, 0.0, R)
    inside = (targets > 0.0) & (targets < values[-1])
    t = targets[inside]
    k = np.clip(np.searchsorted(values, t, side="right") - 1, 0, len(knots) - 2)
    lo, hi = knots[k], knots[k + 1]
    r = lo + (hi - lo) * (t - values[k]) / (values[k + 1] - values[k])
    chi_prime = chi_spline.derivative()
    for _ in range(60):
        f = chi_spline(r) - t
        below = f < 0.0
        lo = np.where(below, r, lo)
        hi = np.where(below, hi, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = r - f / chi_prime(r)
        # closed bracket: a converged Newton step rounds onto r itself,
        # which may be a bracket end
        ok = (newton >= lo) & (newton <= hi)
        r_next = np.where(f == 0.0, r, np.where(ok, newton, 0.5 * (lo + hi)))
        done = np.all(np.abs(r_next - r) <= 4.0 * np.finfo(float).eps * r)
        r = r_next
        if done:
            break
    out[inside] = r
    return out


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

    r0 = invert_chi(chi_sp, chi, R)
    r0[-1] = R
    r0_half = invert_chi(chi_sp, chi[:-1] + 0.5 * dchi, R)

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
