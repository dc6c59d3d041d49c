"""Frozen reference constants for the verification suite.

Every number here was measured on converged runs and then widened to a
stable margin; the verify command and the release checks compare fresh
runs against these.  Tightening a constant requires re-measuring, not
editing in place.
"""

from __future__ import annotations

import math

from .errors import DomainError

# Dual-route background agreement (the fixed-point reference vs the
# Chebyshev collocation that builds every star), sup over nodes of both m
# and rho, radius 0.1, grid 2001.
BACKGROUND_CROSS_CHECK_TOL = 1e-10

# Ceiling on sup|rho - two-term closed form| / R^6 (approximate_profile
# with order=2), measured 274, 282, 313, 334 at radius 0.02, 0.05, 0.1,
# 0.12 (grid 4001).  The R^6 coefficient rises with the radius, and the
# ceiling covers every radius up to `verify`'s dual-route limit (R <= 0.1221).
CLOSED_FORM_R6_MAX = 400.0

# Largest radius of any static star.  Integrating the hydrostatic system
# outward from the central density rho_c (DOP853, rtol 1e-13, atol 1e-14,
# terminal event at rho = 1) and maximising the event radius over rho_c
# gives R = 0.24721839842 at rho_c = 1.92346; rounded up here, so no star
# is refused.  For R in (0.1925, R_MAX) a star denser than rho_c = 1.92346
# shares each radius with a less dense one.
R_MAX = 0.2472184

# Central density of the radius-0.1 star; both solvers reproduce it.
RHO_CENTRAL_R01 = 1.0235377133674
RHO_CENTRAL_TOL = 1e-9

# Seed of the audit perturbation draws (variation.audit_perturbations);
# every ceiling and window of the audit below was measured on its draws.
DEFAULT_AUDIT_SEED = 20260823

# Criticality audit on a solved star: largest |first variation| over the
# seeded perturbation set (measured ceiling 2e-10 at radius 0.1).
SOLVED_FIRST_VARIATION_MAX = 1e-5


# Floor on min|M_dot| of the same audit after detuning the density and
# mass by 1 percent: half the surface factor, 0.5 * 4 pi R^2 * 0.01.  At
# radius 0.1 the surface term alone contributes 1.26e-3 (measured
# min|M_dot| 1.11e-3).  The floor does not follow the radius dependence
# of the detuned star: over the default audit draws (50, shooting solve,
# grid 4001) min|M_dot| / floor is 1.99 at radius 0.02, 1.77 at 0.1,
# 1.01 at 0.185, 0.99 at 0.186, 0.24 at 0.22 and 0.07 at 0.24.  The floor
# holds for R <= DETUNED_FLOOR_MAX_R, which covers `verify`'s dual-route
# limit (R <= 0.1221), and is refused above it.
DETUNED_FLOOR_MAX_R = 0.185


def detuned_floor(R: float) -> float:
    if not R <= DETUNED_FLOOR_MAX_R:
        raise DomainError(
            f"the detuned floor holds only for R <= {DETUNED_FLOOR_MAX_R}, got R = {R!r}: over "
            f"the default audit draws min|M_dot| / floor is 1.01 at R = 0.185 and 0.99 at 0.186"
        )
    return 0.5 * (4.0 * math.pi) * R * R * 0.01


# Window for (second variation)/(variation energy) over the audit set.
# The ratio is set mostly by the mode content of the draws, but its
# minimum falls with the radius: over the default audit draws (50,
# shooting solve, grid 4001) the ratios span [8.12, 83.1] at radius
# 0.02, [7.62, 82.9] at 0.1, [5.03, 79.1] at 0.217, [4.99, 79.0] at
# 0.218, [4.90, 78.8] at 0.22 and [3.66, 74.2] at 0.24.  The window holds
# for R <= 0.217, which covers `verify`'s dual-route limit (R <= 0.1221).
EQUIVALENCE_RATIO_WINDOW = (5.0, 120.0)

# Ceilings for the scale-invariant squared mass-aspect ratio per decay
# exponent (measured maxima 0.143, 0.397, 1.016 at radius 0.1).  The
# ratio scales like R^(1/2 - exponent), so the ceilings also cover
# every smaller radius.
MASS_ASPECT_RATIO_MAX = {0.0: 0.25, 0.25: 0.6, 0.5: 1.4}

# Ceilings for the plain (unsquared) mass-aspect ratio on the
# unit-surface-displacement audit family at radius 0.1 (measured maxima
# 0.338, 0.422, 0.506 over 50 draws).
MASS_ASPECT_PLAIN_MAX = {0.0: 0.6, 0.25: 0.8, 0.5: 1.0}

# Relative drift ceiling of the discrete wave energy over five light
# crossings at cfl 0.4 on 501 shells (measured 1.8e-5 at radius 0.05).
ENERGY_DRIFT_MAX = 1e-4

# Growth ceilings for the weighted field norms along an evolution,
# relative to their initial values, per initial-data preset.  The
# gradient weight of the norm is not adapted to the pulse profile, so
# the gaussian preset trades a large constant (measured peak 91).
NORM_GROWTH_MAX = {"gaussian": 150.0, "mode": 8.0}

# Fundamental boundary-condition roots x1 = sqrt(lambda) R by radius
# (shooting on grid 2001) and the allowed reproduction slack.
X1_BY_RADIUS = {0.02: 2.0846437052850, 0.05: 2.0997258306221, 0.1: 2.1398099863982}
X1_REPRODUCTION_TOL = 1e-6

# Exponent band for the squared-frequency excess x1(R)^2 - x1(0)^2,
# fitted over radius pairs (measured 1.70 and 1.94).
GAP_EXPONENT_BAND = (1.6, 2.4)

# Fundamental-mode period recovered from an evolution on 501 shells
# versus 2 pi / sqrt(lambda) (measured 1.1e-3 at radius 0.05).
PERIOD_MATCH_RTOL = 1e-2

# Sup distance between the unit-slope fundamental eigenfunction and its
# flat-space Bessel shape, relative to the eigenfunction sup, by radius
# (measured 0.0170 at 0.05; the bound scales like the squared radius).
FLAT_SHAPE_DISTANCE_MAX = {0.05: 0.03, 0.1: 0.12}
