"""The per-sample diagnostics of the wave layer as they were written before
they were folded into per-run vectors: each call rebuilds the star's factors
(r0^4, r0^10, the centre ratios, the reconstructed fields) and integrates
with the trapezoid rule.  Tests compare ``hardstars.evolution`` against them.
"""

from __future__ import annotations

import numpy as np

from hardstars.background import FOUR_PI
from hardstars.evolution import RESIDUAL_INTERIOR, acceleration
from hardstars.numerics import derivative_uniform


def energy_norms(coeffs, u, v):
    dchi = coeffs.dchi
    r0 = coeffs.r0

    def ratio_sq(f):
        out = np.empty_like(f)
        out[1:] = (f[1:] / r0[1:]) ** 2
        out[0] = (f[1] / r0[1]) ** 2
        return out

    du = derivative_uniform(u, dchi, order=2)
    dv = derivative_uniform(v, dchi, order=2)
    d2u = derivative_uniform(du, dchi, order=2)
    r4 = r0**4
    norm = np.trapezoid(ratio_sq(u) + v * v + r4 * du * du, dx=dchi)
    first = np.trapezoid(ratio_sq(u) + ratio_sq(v) + r4 * du * du, dx=dchi)
    lu = acceleration(coeffs, u)
    second = np.trapezoid(ratio_sq(lu) + r4 * dv * dv + r0**10 * d2u * d2u, dx=dchi)
    return {"norm": float(norm), "first": float(first), "second": float(second)}


def constraint_residual(coeffs, u):
    """d m1/dchi (fourth order) minus the constraint flux of the
    reconstructed rho1; returns (residual, d m1/dchi)."""
    u = np.asarray(u, dtype=float)
    r0 = coeffs.r0
    du = derivative_uniform(u, coeffs.dchi, order=2)
    du_dr0 = du * coeffs.w
    psi1 = np.empty_like(u)
    psi1[1:] = (2.0 / r0[1:] - coeffs.q[1:]) * u[1:] + du_dr0[1:]
    psi1[0] = 3.0 * u[1] / r0[1]
    m1 = -FOUR_PI * r0 * r0 * (coeffs.rho0 - 1.0) * u
    rho1 = -coeffs.n2 * psi1
    lhs = derivative_uniform(m1, coeffs.dchi, order=4)
    with np.errstate(divide="ignore", invalid="ignore"):
        # dr0/dchi = 1/w, +inf at the centre
        rhs = FOUR_PI * (
            (2.0 * r0 * coeffs.rho0 * u + r0 * r0 * rho1) / coeffs.w
            + r0 * r0 * coeffs.rho0 * du
        )
    out = lhs - rhs
    out[0] = 0.0
    return out, lhs


def interior(coeffs, values):
    return values[coeffs.chi >= RESIDUAL_INTERIOR * coeffs.B]
