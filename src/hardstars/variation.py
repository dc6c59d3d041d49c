"""Variations of the total mass along fixed-particle-number deformations.

A deformation moves each fluid shell, labelled by its interior particle
count chi, from the background radius r0(chi) to r0 + lambda rdot(chi).
``first_variation`` and ``second_variation`` evaluate dM/dlambda and
d^2M/dlambda^2 at lambda = 0 in closed form, as weighted radial integrals of
the background profile.  A solved star is a critical point (dM/dlambda = 0
for every rdot), and the second variation is positive there; comparing it
against the quadratic deformation norm ``variation_energy`` quantifies how
coercive that minimum is.

All integrals are written in the background areal radius r with regular
integrands; the chi-line-element factors are absorbed analytically so no
quantity in this module is singular at the centre.  Each is a Simpson sum
over the radial grid, evaluated as dot products of the deformation fields
against per-star vectors that already carry the Simpson weights and the
star's factors, so only those dot products depend on the deformation.
``quadratic_form`` holds the pointwise coefficients of the second variation;
the wave and mode layers read their operator from it as well.

``audit_perturbations`` draws a reproducible randomized family of deformation
shapes, normalised to unit surface displacement so that surface-weighted
criticality defects are comparable across draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .background import FOUR_PI, BackgroundProfile, _readonly, derive_metric_fields, metric_terms
from .calibration import DEFAULT_AUDIT_SEED
from .errors import ConvergenceError, DomainError
from .numerics import cumulative_simpson_uniform, derivative_uniform, simpson_weights

DEFAULT_AUDIT_MODES = 8


def integrating_factor(profile: BackgroundProfile) -> np.ndarray:
    """I(r) = integral_0^r 4 pi s n^2 / (1 - 2m/s) ds; regular, ~ 2 pi r^2."""
    r = profile.r
    n2, D, _ = metric_terms(r, profile.rho, profile.m_over_r3)
    return cumulative_simpson_uniform(FOUR_PI * r * n2 / D, profile.dr)


def tov_defect(profile: BackgroundProfile) -> np.ndarray:
    """Pointwise hydrostatic defect 4 pi r^2 (rho' - rho'_eq).

    rho' is the finite-difference slope of the stored density and
    rho'_eq = -n^2 q the equilibrium slope implied by (m, rho) at the same
    point.  Vanishes to truncation error exactly when the profile solves the
    static system.
    """
    r = profile.r
    n2, _, q = metric_terms(r, profile.rho, profile.m_over_r3)
    rho_data_slope = np.gradient(profile.rho, profile.dr, edge_order=2)
    return FOUR_PI * r * r * (rho_data_slope + n2 * q)


def first_variation(profile: BackgroundProfile, rdot: np.ndarray) -> float:
    """dM/dlambda for the shell displacement rdot (given on the radial grid).

    Vanishes (to truncation error) on a solved star for every rdot; for
    off-equilibrium data the surface term -4 pi R^2 (rho(R) - 1) rdot(R)
    and the bulk hydrostatic defect both contribute.
    """
    return _ProfileFactors(profile).first(np.asarray(rdot, dtype=float))


def quadratic_form(r, rho, m_over_r3):
    """The coefficients (A, B, C, D) of the second variation at r, and the
    bulk potential K of its Euler-Lagrange operator.

    With e = exp(I - I(R)) from ``integrating_factor``, the second variation
    integrates e (A rdot^2 + B rdot rdot' + C rdot'^2 + D (d_phi rdot)^2) dr.
    Integrating B rdot rdot' by parts leaves e (K rdot^2 + C rdot'^2) and the
    surface term B(R) rdot(R)^2 / 2, with

        K = A - B'/2 - 2 pi r n^2 B / (1 - 2m/r),

    since e'/e = 4 pi r n^2 / (1 - 2m/r).  B' is written out with the
    equilibrium slope rho' = -n^2 q and q' by the quotient rule, so every
    coefficient is a pointwise function of (r, rho, m/r^3), regular at the
    centre.  The wave operator (``evolution.assemble_coefficients``) and the
    radial modes (``modes._RadialOperator``) are this same operator, so all
    three layers read their coefficients here.  Plain arithmetic, like
    ``metric_terms``.
    """
    n2, one_minus_2m_over_r, q = metric_terms(r, rho, m_over_r3)
    # q = (m/r^2 + 4 pi r (rho - 1)) / (1 - 2m/r), differentiated by the quotient rule
    numerator_prime = (FOUR_PI * rho - 2.0 * m_over_r3 + FOUR_PI * (rho - 1.0)
                       - FOUR_PI * r * n2 * q)
    denominator_prime = -8.0 * math.pi * r * rho + 2.0 * m_over_r3 * r
    q_prime = (numerator_prime - q * denominator_prime) / one_minus_2m_over_r
    A = 8.0 * math.pi * rho + 8.0 * math.pi * n2 - 24.0 * math.pi * r * n2 * q
    B = 16.0 * math.pi * r * rho - 8.0 * math.pi * r * r * n2 * q
    C = FOUR_PI * r * r * n2
    D = FOUR_PI * r * r * n2 * n2 / one_minus_2m_over_r
    B_prime = (16.0 * math.pi * rho - 32.0 * math.pi * r * n2 * q
               + 16.0 * math.pi * r * r * n2 * q * q - 8.0 * math.pi * r * r * n2 * q_prime)
    K = A - 0.5 * B_prime - 2.0 * math.pi * r * n2 * B / one_minus_2m_over_r
    return A, B, C, D, K


class _ProfileFactors:
    """Everything the variation integrals need that depends on the star alone.

    Every integral is a Simpson sum that is linear in each product of
    deformation fields, so the star's factors are folded with the Simpson
    weights (and, for the mass, with exp(I) and exp(-I(R))) into one vector
    per product.  An audit over many deformations then builds the
    integrating factor, the hydrostatic defect and the quadratic and energy
    weights once per star, and each draw costs one slope and a few dot
    products.  Each group is computed on first use and kept, so a one-draw
    call computes no more than its own formula needs.
    """

    def __init__(self, profile: BackgroundProfile) -> None:
        self.profile = profile
        self.dr = profile.dr

    @cached_property
    def simpson(self) -> np.ndarray:
        """The Simpson weights of the radial grid."""
        return simpson_weights(self.profile.r.size, self.dr)

    @cached_property
    def mass_weights(self) -> np.ndarray:
        """exp(-I(R)) w exp(I): the weights of the mass integrals."""
        I = integrating_factor(self.profile)
        return math.exp(-I[-1]) * self.simpson * np.exp(I)

    @cached_property
    def first_weights(self) -> tuple[np.ndarray, float]:
        """The weighted hydrostatic defect and the surface factor 4 pi R^2 (rho(R) - 1)."""
        p = self.profile
        return self.mass_weights * tov_defect(p), FOUR_PI * p.R**2 * (p.rho[-1] - 1.0)

    @cached_property
    def quadratic(self) -> tuple[np.ndarray, ...]:
        """The weighted coefficients of rdot^2, rdot rdot', rdot'^2 and (d_phi rdot)^2."""
        p = self.profile
        return tuple(self.mass_weights * c for c in quadratic_form(p.r, p.rho, p.m_over_r3)[:4])

    @cached_property
    def energy_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The weighted coefficients of rdot^2, rdot'^2 and (d_phi rdot)^2 in the energy."""
        p = self.profile
        r, w = p.r, self.simpson
        n2, D, _ = metric_terms(r, p.rho, p.m_over_r3)
        n, root = np.sqrt(n2), np.sqrt(D)
        return (w * (FOUR_PI * n / root), w * (r * r * root / (FOUR_PI * n)),
                w * (FOUR_PI * r * r * n / root))

    def slope(self, rdot: np.ndarray) -> np.ndarray:
        return derivative_uniform(rdot, self.dr, order=2)

    def first(self, rdot: np.ndarray) -> float:
        tov, surface = self.first_weights
        return float(tov @ rdot - surface * rdot[-1])

    def second(self, rdot: np.ndarray, rdot_prime: np.ndarray,
               dphi_rdot: np.ndarray | None) -> float:
        A, B, C, D = self.quadratic
        total = (A * rdot) @ rdot + (B * rdot) @ rdot_prime + (C * rdot_prime) @ rdot_prime
        if dphi_rdot is not None:
            dphi = np.asarray(dphi_rdot, dtype=float)
            total += (D * dphi) @ dphi
        return float(total)

    def energy(self, rdot: np.ndarray, rdot_prime: np.ndarray,
               dphi_rdot: np.ndarray | None) -> float:
        w_amp, w_slope, w_angle = self.energy_weights
        total = (w_amp * rdot) @ rdot + (w_slope * rdot_prime) @ rdot_prime
        if dphi_rdot is not None:
            dphi = np.asarray(dphi_rdot, dtype=float)
            total += (w_angle * dphi) @ dphi
        return float(total)


def second_variation(
    profile: BackgroundProfile,
    rdot: np.ndarray,
    dphi_rdot: np.ndarray | None = None,
) -> float:
    """d^2M/dlambda^2 at a solved star, as a quadratic form in the deformation.

    ``dphi_rdot`` carries the angular derivative of the displacement for
    non-spherical deformations; omit it for spherical ones.
    """
    factors = _ProfileFactors(profile)
    rdot = np.asarray(rdot, dtype=float)
    return factors.second(rdot, factors.slope(rdot), dphi_rdot)


def variation_energy(
    profile: BackgroundProfile,
    rdot: np.ndarray,
    dphi_rdot: np.ndarray | None = None,
) -> float:
    """Quadratic deformation norm: shells weighted by vol., slope and angle terms.

    This is the integral of (rdot/r)^2 + (d_phi rdot)^2 + r^4 (d_chi rdot)^2
    against the particle measure dchi, rewritten in r with regular weights.
    """
    factors = _ProfileFactors(profile)
    rdot = np.asarray(rdot, dtype=float)
    return factors.energy(rdot, factors.slope(rdot), dphi_rdot)


# ------------------------------------------------------------- mass aspect


def mass_aspect_rate(profile: BackgroundProfile, rdot: np.ndarray, exponent: float) -> np.ndarray:
    """d/dlambda of m/r^(1+e) at fixed shell, for e = ``exponent`` in [0, 1/2].

    Uses the linearized constraint mdot = -4 pi r^2 (rho - 1) rdot.  The rate
    vanishes at the centre like r^(1-e).
    """
    if not (0.0 <= exponent <= 0.5):
        raise DomainError(f"mass-aspect exponent must lie in [0, 1/2], got {exponent}")
    rdot = np.asarray(rdot, dtype=float)
    r = profile.r
    rate = np.zeros_like(r)
    rpow = r[1:] ** (1.0 - exponent)
    rate[1:] = (
        -rpow
        * (FOUR_PI * (profile.rho[1:] - 1.0) + (1.0 + exponent) * profile.m_over_r3[1:])
        * rdot[1:]
    )
    return rate


def mass_aspect_bound_ratio(
    profile: BackgroundProfile,
    rdot: np.ndarray,
    exponent: float,
    dphi_rdot: np.ndarray | None = None,
    squared: bool = False,
) -> float:
    """Peak weighted mass-aspect rate over the second variation.

    Plain form:    sup_r r^(e - 1/2) |rate|   / d2M
    Squared form:  sup_r r^(e - 1/2) rate^2   / d2M

    Only the squared form is invariant under rescaling the deformation; the
    plain form is kept because its peak value is a useful fixed diagnostic
    for the unit-surface-displacement audit family.
    """
    return mass_aspect_bound_ratios(profile, rdot, (exponent,), dphi_rdot, squared)[0]


def mass_aspect_bound_ratios(
    profile: BackgroundProfile,
    rdot: np.ndarray,
    exponents: Sequence[float],
    dphi_rdot: np.ndarray | None = None,
    squared: bool = False,
) -> list[float]:
    """``mass_aspect_bound_ratio`` at each of ``exponents``, with the second
    variation of the deformation evaluated once for all of them."""
    rates = [mass_aspect_rate(profile, rdot, exponent) for exponent in exponents]
    r = profile.r[1:]
    peaks = [
        np.max(r ** (exponent - 0.5) * (rate[1:] ** 2 if squared else np.abs(rate[1:])))
        for exponent, rate in zip(exponents, rates)
    ]
    d2m = second_variation(profile, rdot, dphi_rdot)
    if d2m <= 0.0:
        raise ConvergenceError("second variation not positive; mass-aspect bound undefined")
    return [float(peak / d2m) for peak in peaks]


# ------------------------------------------------------------------ controls


def detuned_profile(profile: BackgroundProfile, factor: float = 1.01) -> BackgroundProfile:
    """Scale density and mass function by ``factor``; chi and the totals are read afresh.

    Scaling both keeps the integral mass-density relation intact (it is
    linear), so the result is admissible initial data, but it is not a solved
    star: criticality diagnostics must flag it.  Serves as the negative
    control.
    """
    if factor < 1.0:
        raise DomainError("detuning factor below 1 would cross the stiff floor")
    return derive_metric_fields(replace(
        profile,
        rho=_readonly(factor * profile.rho),
        m_over_r3=_readonly(factor * profile.m_over_r3),
        provenance={**profile.provenance, "detuned": factor},
    ))


# -------------------------------------------------------------------- audit


@dataclass(frozen=True)
class AuditPerturbation:
    """One randomized deformation; rdot is normalised to rdot(surface) = 1."""

    rdot: np.ndarray
    dphi_rdot: np.ndarray
    seed: int


def _sine_shape(basis: list[np.ndarray], coeffs: np.ndarray) -> np.ndarray:
    out = np.zeros_like(basis[0])
    for a, b in zip(coeffs, basis):
        out += a * b
    return out


def audit_perturbations(
    profile: BackgroundProfile,
    count: int = 50,
    seed: int = DEFAULT_AUDIT_SEED,
) -> list[AuditPerturbation]:
    """Reproducible random deformations built from the first
    ``DEFAULT_AUDIT_MODES`` quarter-wave sines of chi.

    Coefficients fall off like 1/k^2 so the shapes stay slope-dominated
    rather than oscillation-dominated; each rdot is rescaled to unit surface
    displacement (draws whose surface value is accidentally tiny are
    redrawn).  The angular-derivative field is an independent draw in the
    same basis.
    """
    modes = DEFAULT_AUDIT_MODES
    xi = profile.chi / profile.N_total
    basis = [np.sin((k - 0.5) * math.pi * xi) for k in range(1, modes + 1)]
    rng = np.random.default_rng(seed)
    signs = np.array([(-1.0) ** (k - 1) for k in range(1, modes + 1)])
    decay = 1.0 / np.arange(1, modes + 1) ** 2
    out: list[AuditPerturbation] = []
    for i in range(count):
        while True:
            coeffs = rng.standard_normal(modes) * decay
            surface = float(coeffs @ signs)
            if abs(surface) >= 1e-3:
                break
        coeffs = coeffs / surface
        dphi_coeffs = rng.standard_normal(modes) * decay
        out.append(
            AuditPerturbation(
                rdot=_readonly(_sine_shape(basis, coeffs)),
                dphi_rdot=_readonly(_sine_shape(basis, dphi_coeffs)),
                seed=seed + i,
            )
        )
    return out


@dataclass(frozen=True)
class AuditReport:
    """Summary of criticality and coercivity over a deformation family."""

    first_variations: np.ndarray
    second_variations: np.ndarray
    energies: np.ndarray
    ratios: np.ndarray

    @property
    def max_abs_first(self) -> float:
        return float(np.max(np.abs(self.first_variations)))

    @property
    def ratio_window(self) -> tuple[float, float]:
        return float(np.min(self.ratios)), float(np.max(self.ratios))


def criticality_audit(
    profile: BackgroundProfile,
    perturbations: Sequence[AuditPerturbation] | None = None,
) -> AuditReport:
    """Evaluate first/second variation and energy over the audit family."""
    if perturbations is None:
        perturbations = audit_perturbations(profile)
    factors = _ProfileFactors(profile)
    firsts, seconds, energies = [], [], []
    for pert in perturbations:
        rdot = np.asarray(pert.rdot, dtype=float)
        rdot_prime = factors.slope(rdot)
        firsts.append(factors.first(rdot))
        seconds.append(factors.second(rdot, rdot_prime, pert.dphi_rdot))
        energies.append(factors.energy(rdot, rdot_prime, pert.dphi_rdot))
    firsts = np.array(firsts)
    seconds = np.array(seconds)
    energies = np.array(energies)
    return AuditReport(
        first_variations=_readonly(firsts),
        second_variations=_readonly(seconds),
        energies=_readonly(energies),
        ratios=_readonly(seconds / energies),
    )
