"""Independent check of the mass variations by direct family construction.

Given a background star and a displacement shape delta_r(chi), build the
deformed configuration r_lam = r0 + lam * delta_r at fixed particle measure
and integrate the Hamiltonian constraint for its mass function in the
background radial coordinate:

    dm_lam/dr0 = 4 pi r_lam^2 rho_lam (1 + A),
    A          = lam * (d delta_r/d chi) * (d chi/d r0),
    n_lam^2    = n0^2 (r0/r_lam)^4 (1 - 2 m_lam/r_lam)
                 / ((1 - 2 m0/r0) (1 + A)^2),
    rho_lam    = (1 + n_lam^2)/2.

M(lam) = m_lam at the background surface radius.  Difference stencils in lam
then give reference values for dM/dlam and d2M/dlam2 that share no code with
the closed-form variation integrals.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

FOUR_PI = 4.0 * math.pi


class DeformedFamily:
    """Callable family M(lam) for one background profile and shape pair."""

    def __init__(self, profile, delta_r, ddelta_dchi):
        self.profile = profile
        self.delta_r = delta_r
        self.ddelta_dchi = ddelta_dchi
        r0 = profile.r
        self._chi = CubicSpline(r0, profile.chi)
        self._rho = CubicSpline(r0, profile.rho)
        self._m = CubicSpline(r0, profile.m)

    def _rhs(self, r0: float, m_lam: float, lam: float) -> float:
        if r0 <= 0.0:
            return 0.0
        chi = float(self._chi(r0))
        rho0 = float(self._rho(r0))
        m0 = float(self._m(r0))
        n0_sq = 2.0 * rho0 - 1.0
        root0_sq = 1.0 - 2.0 * m0 / r0
        w = FOUR_PI * r0 * r0 * math.sqrt(n0_sq) / math.sqrt(root0_sq)
        r_lam = r0 + lam * self.delta_r(chi)
        A = lam * self.ddelta_dchi(chi) * w
        n_lam_sq = (
            n0_sq
            * (r0 / r_lam) ** 4
            * (1.0 - 2.0 * m_lam / r_lam)
            / (root0_sq * (1.0 + A) ** 2)
        )
        rho_lam = 0.5 * (1.0 + n_lam_sq)
        return FOUR_PI * r_lam * r_lam * rho_lam * (1.0 + A)

    def mass_profile(self, lam: float) -> np.ndarray:
        """RK4 integration of m_lam on the background grid."""
        r0 = self.profile.r
        h = self.profile.dr
        m = np.empty_like(r0)
        m[0] = 0.0
        for i in range(len(r0) - 1):
            x = r0[i]
            y = m[i]
            k1 = self._rhs(x, y, lam)
            k2 = self._rhs(x + 0.5 * h, y + 0.5 * h * k1, lam)
            k3 = self._rhs(x + 0.5 * h, y + 0.5 * h * k2, lam)
            k4 = self._rhs(x + h, y + h * k3, lam)
            m[i + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        return m

    def total_mass(self, lam: float) -> float:
        return float(self.mass_profile(lam)[-1])

    def first_derivative(self, eps: float = 1e-3) -> float:
        return (self.total_mass(eps) - self.total_mass(-eps)) / (2.0 * eps)

    def second_derivative(self, eps: float = 5e-3) -> float:
        return (
            self.total_mass(eps) - 2.0 * self.total_mass(0.0) + self.total_mass(-eps)
        ) / (eps * eps)

    def _fields(self, lam: float) -> dict[str, np.ndarray]:
        """Metric and matter fields of the deformed star, per shell."""
        r0 = self.profile.r
        chi = self.profile.chi
        m_lam = self.mass_profile(lam)
        dr = np.array([self.delta_r(float(c)) for c in chi])
        ddr = np.array([self.ddelta_dchi(float(c)) for c in chi])
        out = {name: np.zeros_like(r0) for name in ("psi", "omega", "m", "rho")}
        n0_sq = 2.0 * self.profile.rho[1:] - 1.0
        root0_sq = 1.0 - 2.0 * self.profile.m[1:] / r0[1:]
        w = FOUR_PI * r0[1:] ** 2 * np.sqrt(n0_sq) / np.sqrt(root0_sq)
        r_lam = r0[1:] + lam * dr[1:]
        A = lam * ddr[1:] * w
        n_lam_sq = (
            n0_sq
            * (r0[1:] / r_lam) ** 4
            * (1.0 - 2.0 * m_lam[1:] / r_lam)
            / (root0_sq * (1.0 + A) ** 2)
        )
        out["psi"][1:] = -0.5 * np.log(n_lam_sq)
        out["omega"][1:] = -np.log(FOUR_PI * r_lam**2 * np.sqrt(n_lam_sq))
        out["m"][1:] = m_lam[1:]
        out["rho"][1:] = 0.5 * (1.0 + n_lam_sq)
        return out

    def field_rates(self, eps: float = 1e-4) -> dict[str, np.ndarray]:
        """d/dlam at lam=0 of each field at fixed shell.

        Central differences at eps and 3*eps combined by Richardson
        extrapolation; near the surface the lam-curvature of the deformed
        fields is large and the plain stencil would need a much smaller
        step than roundoff allows.
        """

        def central(e: float) -> dict[str, np.ndarray]:
            plus = self._fields(e)
            minus = self._fields(-e)
            return {k: (plus[k] - minus[k]) / (2.0 * e) for k in plus}

        fine = central(eps)
        coarse = central(3.0 * eps)
        return {k: (9.0 * fine[k] - coarse[k]) / 8.0 for k in fine}

    def aspect_rate_fd(self, exponent: float, eps: float = 1e-3) -> np.ndarray:
        """d/dlam of m_lam / r_lam^(1+exponent) at fixed shell, by stencil."""
        r0 = self.profile.r
        chi = self.profile.chi
        dr = np.array([self.delta_r(float(c)) for c in chi])
        out = np.zeros_like(r0)
        m_plus = self.mass_profile(eps)
        m_minus = self.mass_profile(-eps)
        rp = r0[1:] + eps * dr[1:]
        rm = r0[1:] - eps * dr[1:]
        a_plus = m_plus[1:] / rp ** (1.0 + exponent)
        a_minus = m_minus[1:] / rm ** (1.0 + exponent)
        out[1:] = (a_plus - a_minus) / (2.0 * eps)
        return out
