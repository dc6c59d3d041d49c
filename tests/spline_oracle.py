"""The mode layer's retired spline reads, kept as test oracles.

Before the operator read rho and m/r^3 from four neighbouring profile
samples, it built one ``CubicSpline`` over every profile knot and read the
coefficients through it; ``mode_to_initial_data`` splined ``Mode.h`` over
the profile grid and sampled that spline at the wave grid's radii.  Both
are kept here as they were, so the local reads can be checked against them.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline

from hardstars.background import FOUR_PI, metric_terms
from hardstars.modes import _discrete_eigen_shape, _node_count, _on_grid, _RadialOperator
from hardstars.variation import quadratic_form


class SplineOperator(_RadialOperator):
    """``_RadialOperator`` reading its coefficients through one cubic spline of
    the profile's rho and m/r^3."""

    def __init__(self, profile):
        super().__init__(profile)
        self._spline = CubicSpline(profile.r, np.column_stack([profile.rho, profile.m_over_r3]))

    def coefficients(self, r):
        rho, mor3 = self._spline(r).T
        n2, D, q = metric_terms(r, rho, mor3)
        K = quadratic_form(r, rho, mor3)[4]
        return 2.0 - 2.0 * r * q + FOUR_PI * r * r * n2 / D, K / (FOUR_PI * n2), n2 / D


def spline_modes(profile, n_modes: int) -> list[tuple[float, np.ndarray]]:
    """(x_j, h_j) of the lowest ``n_modes`` modes, found as ``find_modes``
    finds them but on ``SplineOperator``."""
    op = SplineOperator(profile)
    out = []
    for x2 in op.eigenvalues(_node_count(math.pi * n_modes))[:n_modes].real.tolist():
        a, _ = op.regular(x2 / profile.R**2)
        out.append((math.sqrt(x2), _on_grid(profile, a)))
    return out


def spline_initial_data(coeffs, mode, amplitude: float = 1e-6, refine: bool = True) -> np.ndarray:
    """u0 of ``mode_to_initial_data`` sampled from a cubic spline of
    ``Mode.h`` over the profile grid."""
    u0 = amplitude * CubicSpline(coeffs.profile.r, mode.h)(coeffs.r0)
    u0[0] = 0.0
    if refine:
        u0 = _discrete_eigen_shape(coeffs, mode.eigenvalue, u0)
    return u0
