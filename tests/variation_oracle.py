"""Reference variation integrals through the cumulative Simpson rule.

``hardstars.variation`` folds the Simpson weights and the star's factors
into per-star vectors and takes dot products.  ``SimpsonVariations``
integrates each draw's full integrand with ``simpson_uniform`` instead, the
way the package did before that fold, so the two agree only to roundoff.
``equivalence_ratio`` is the coercivity ratio the acceptance gates read.
"""

from __future__ import annotations

import math

import numpy as np

from hardstars.background import FOUR_PI, metric_terms
from hardstars.numerics import derivative_uniform, simpson_uniform
from hardstars.variation import (
    integrating_factor,
    quadratic_form,
    second_variation,
    tov_defect,
    variation_energy,
)


def equivalence_ratio(profile, rdot, dphi_rdot=None) -> float:
    """second_variation / variation_energy; bounded windows certify coercivity."""
    return second_variation(profile, rdot, dphi_rdot) / variation_energy(profile, rdot, dphi_rdot)


class SimpsonVariations:
    """First and second variation and energy, one Simpson integral per draw."""

    def __init__(self, profile) -> None:
        p = self.profile = profile
        self.dr = p.dr
        I = integrating_factor(p)
        self.exp_I, self.exp_minus_IR = np.exp(I), math.exp(-I[-1])
        self.tov = tov_defect(p)
        self.surface = FOUR_PI * p.R**2 * (p.rho[-1] - 1.0)
        self.quadratic = quadratic_form(p.r, p.rho, p.m_over_r3)[:4]
        r = p.r
        n2, D, _ = metric_terms(r, p.rho, p.m_over_r3)
        n, root = np.sqrt(n2), np.sqrt(D)
        self.energy_weights = (FOUR_PI * n / root, r * r * root / (FOUR_PI * n),
                               FOUR_PI * r * r * n / root)

    def slope(self, rdot):
        return derivative_uniform(rdot, self.dr, order=2)

    def first(self, rdot) -> float:
        bulk = simpson_uniform(self.tov * rdot * self.exp_I, self.dr)
        return float(self.exp_minus_IR * bulk - self.surface * rdot[-1])

    def first_scale(self, rdot) -> float:
        """Simpson sum of |integrand| of the bulk term: the scale of its roundoff."""
        return self.exp_minus_IR * simpson_uniform(np.abs(self.tov * rdot * self.exp_I), self.dr)

    def second(self, rdot, rdot_prime, dphi_rdot) -> float:
        A, B, C, D = self.quadratic
        integrand = A * rdot * rdot + B * rdot * rdot_prime + C * rdot_prime * rdot_prime
        if dphi_rdot is not None:
            integrand = integrand + D * dphi_rdot * dphi_rdot
        return float(self.exp_minus_IR * simpson_uniform(integrand * self.exp_I, self.dr))

    def energy(self, rdot, rdot_prime, dphi_rdot) -> float:
        w_amp, w_slope, w_angle = self.energy_weights
        integrand = w_amp * rdot * rdot + w_slope * rdot_prime * rdot_prime
        if dphi_rdot is not None:
            integrand = integrand + w_angle * dphi_rdot * dphi_rdot
        return float(simpson_uniform(integrand, self.dr))
