"""Mass-variation formulas checked against the deformed-family oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest

from hardstars import DomainError, StarParameters, build_star, calibration, variation
from hardstars.variation import (
    DEFAULT_AUDIT_MODES,
    DEFAULT_AUDIT_SEED,
    AuditPerturbation,
    audit_perturbations,
    criticality_audit,
    detuned_profile,
    first_variation,
    integrating_factor,
    mass_aspect_bound_ratio,
    mass_aspect_rate,
    second_variation,
    tov_defect,
    variation_energy,
)

from family_oracle import DeformedFamily
from variation_oracle import SimpsonVariations, equivalence_ratio

FOUR_PI = 4.0 * math.pi


def _quarter_wave(profile, k: int):
    c = (k - 0.5) * math.pi / profile.N_total
    shape = lambda chi: math.sin(c * chi)  # noqa: E731
    slope = lambda chi: c * math.cos(c * chi)  # noqa: E731
    rdot = np.sin(c * profile.chi)
    return shape, slope, rdot


@pytest.fixture(scope="module")
def detuned_r01(star_r01):
    return detuned_profile(star_r01, 1.01)


# ---------------------------------------------------------- solved-star side


def test_integrating_factor_shape(star_r01):
    I = integrating_factor(star_r01)
    assert I[0] == 0.0
    assert np.all(np.diff(I) > 0.0)
    lead = 2.0 * math.pi * star_r01.R**2
    assert 1.0 < I[-1] / lead < 1.2


def test_tov_defect_vanishes_on_solved_star(star_r01):
    assert np.max(np.abs(tov_defect(star_r01))) < 1e-6


def test_first_variation_vanishes_on_solved_star(star_r01):
    for k in (1, 2, 3):
        _, _, rdot = _quarter_wave(star_r01, k)
        assert abs(first_variation(star_r01, rdot)) < 1e-9
    linear = star_r01.chi / star_r01.N_total
    assert abs(first_variation(star_r01, linear)) < 1e-9


def test_second_variation_matches_family(star_r01):
    shape, slope, rdot = _quarter_wave(star_r01, 1)
    fam = DeformedFamily(star_r01, shape, slope)
    coarse = fam.second_derivative(5e-3)
    fine = fam.second_derivative(2.5e-3)
    richardson = (4.0 * fine - coarse) / 3.0
    formula = second_variation(star_r01, rdot)
    assert formula == pytest.approx(richardson, rel=1e-4)
    assert formula > 0.0


def test_second_variation_quadratic_scaling(star_r01):
    _, _, rdot = _quarter_wave(star_r01, 2)
    dphi = np.cos(math.pi * star_r01.chi / star_r01.N_total) - 1.0
    base = second_variation(star_r01, rdot, dphi)
    scaled = second_variation(star_r01, 3.0 * rdot, 3.0 * dphi)
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_variation_energy_is_a_quadratic_norm(star_r01):
    _, _, rdot = _quarter_wave(star_r01, 1)
    dphi = np.sin(math.pi * star_r01.chi / star_r01.N_total)
    e = variation_energy(star_r01, rdot, dphi)
    assert e > 0.0
    assert variation_energy(star_r01, 2.0 * rdot, 2.0 * dphi) == pytest.approx(4.0 * e, rel=1e-12)
    # angular term only adds energy
    assert variation_energy(star_r01, rdot, dphi) > variation_energy(star_r01, rdot)


# -------------------------------------------------------------- detuned side


def test_detuned_profile_keeps_mass_density_relation(star_r01, detuned_r01):
    det = detuned_r01
    slope = np.gradient(det.m, det.dr, edge_order=2)
    target = FOUR_PI * det.r**2 * det.rho
    assert np.max(np.abs(slope - target)) < 1e-6 * np.max(target)
    assert det.rho[-1] == pytest.approx(1.01, abs=1e-12)
    with pytest.raises(DomainError):
        detuned_profile(star_r01, 0.99)


def test_first_variation_matches_family_on_detuned(detuned_r01):
    shape, slope, rdot = _quarter_wave(detuned_r01, 1)
    fam = DeformedFamily(detuned_r01, shape, slope)
    coarse = fam.first_derivative(5e-4)
    fine = fam.first_derivative(2.5e-4)
    richardson = (4.0 * fine - coarse) / 3.0
    formula = first_variation(detuned_r01, rdot)
    assert formula == pytest.approx(richardson, rel=1e-5)
    assert abs(formula) > 1e-3


def test_first_variation_is_linear(detuned_r01):
    _, _, a = _quarter_wave(detuned_r01, 1)
    _, _, b = _quarter_wave(detuned_r01, 2)
    lhs = first_variation(detuned_r01, 2.0 * a - 0.5 * b)
    rhs = 2.0 * first_variation(detuned_r01, a) - 0.5 * first_variation(detuned_r01, b)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --------------------------------------------------------------- mass aspect


@pytest.mark.parametrize("exponent", [0.0, 0.25, 0.5])
def test_mass_aspect_rate_matches_family(star_r01, exponent):
    shape, slope, rdot = _quarter_wave(star_r01, 1)
    fam = DeformedFamily(star_r01, shape, slope)
    coarse = fam.aspect_rate_fd(exponent, 1e-3)
    fine = fam.aspect_rate_fd(exponent, 5e-4)
    richardson = (4.0 * fine - coarse) / 3.0
    rate = mass_aspect_rate(star_r01, rdot, exponent)
    probes = [100, 500, 1000, 1500, 2000]
    assert np.max(np.abs(rate[probes] / richardson[probes] - 1.0)) < 1e-5
    assert rate[0] == 0.0


def test_mass_aspect_rate_rejects_bad_exponent(star_r01):
    _, _, rdot = _quarter_wave(star_r01, 1)
    with pytest.raises(DomainError):
        mass_aspect_rate(star_r01, rdot, 0.75)


def test_mass_aspect_squared_ratio_is_scale_invariant(star_r01):
    _, _, rdot = _quarter_wave(star_r01, 1)
    base = mass_aspect_bound_ratio(star_r01, rdot, 0.25, squared=True)
    scaled = mass_aspect_bound_ratio(star_r01, 3.0 * rdot, 0.25, squared=True)
    assert scaled == pytest.approx(base, rel=1e-12)
    # the unsquared variant is not scale invariant: it shrinks with amplitude
    plain = mass_aspect_bound_ratio(star_r01, rdot, 0.25, squared=False)
    plain_scaled = mass_aspect_bound_ratio(star_r01, 3.0 * rdot, 0.25, squared=False)
    assert plain_scaled == pytest.approx(plain / 3.0, rel=1e-12)


# -------------------------------------------------------------------- audit


def test_audit_perturbations_reproducible(star_r01):
    a = audit_perturbations(star_r01, count=5, seed=7)
    b = audit_perturbations(star_r01, count=5, seed=7)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.rdot, pb.rdot)
        assert np.array_equal(pa.dphi_rdot, pb.dphi_rdot)
    c = audit_perturbations(star_r01, count=5, seed=8)
    assert not np.array_equal(a[0].rdot, c[0].rdot)
    for pert in a:
        assert pert.rdot[-1] == pytest.approx(1.0, rel=1e-12)


def test_criticality_audit_separates_solved_from_detuned(star_r01, detuned_r01):
    perts = audit_perturbations(star_r01, count=12)
    solved = criticality_audit(star_r01, perts)
    assert solved.max_abs_first < 1e-6
    assert np.all(solved.second_variations > 0.0)
    assert np.all(solved.ratios > 0.0)

    det_perts = audit_perturbations(detuned_r01, count=12)
    det = criticality_audit(detuned_r01, det_perts)
    assert np.min(np.abs(det.first_variations)) > 1e-3


@pytest.mark.parametrize("R, holds", [(0.185, True), (0.186, False)])
def test_detuned_floor_refused_where_it_fails(R, holds):
    # over the default audit draws of a shooting star (grid 4001) the 1%
    # detuned control clears the floor up to DETUNED_FLOOR_MAX_R and no
    # further (min|M_dot| / floor measured 1.0067 at 0.185, 0.9911 at
    # 0.186); above the limit the floor is refused, not returned
    star = build_star(StarParameters(R=R, grid_n=4001), solver="shooting")
    det = criticality_audit(detuned_profile(star), audit_perturbations(star, count=50))
    ratio = float(np.min(np.abs(det.first_variations))) / (0.5 * FOUR_PI * R * R * 0.01)
    assert (ratio >= 1.0) == holds
    assert (R <= calibration.DETUNED_FLOOR_MAX_R) == holds
    if holds:
        assert calibration.detuned_floor(R) * ratio == pytest.approx(
            float(np.min(np.abs(det.first_variations))), rel=1e-14)
    else:
        with pytest.raises(DomainError, match=r"R <= 0\.185, got R = 0\.186: .* 1\.01 at "
                                              r"R = 0\.185 and 0\.99 at 0\.186"):
            calibration.detuned_floor(R)


@pytest.fixture(scope="module")
def shooting_r019():
    return build_star(StarParameters(R=0.19, grid_n=2001), solver="shooting")


@pytest.mark.parametrize("name", ["picard", "shooting", "detuned"])
def test_criticality_audit_matches_per_draw_functions(star_r01, shooting_r019, detuned_r01, name):
    # the audit shares the profile factors and each draw's slope; the bits
    # must be those of the public one-draw functions
    profile = {"picard": star_r01, "shooting": shooting_r019, "detuned": detuned_r01}[name]
    perts = audit_perturbations(profile, count=20)
    report = criticality_audit(profile, perts)
    firsts = [first_variation(profile, p.rdot) for p in perts]
    seconds = [second_variation(profile, p.rdot, p.dphi_rdot) for p in perts]
    energies = [variation_energy(profile, p.rdot, p.dphi_rdot) for p in perts]
    assert np.array_equal(report.first_variations, firsts)
    assert np.array_equal(report.second_variations, seconds)
    assert np.array_equal(report.energies, energies)
    assert np.array_equal(report.ratios, np.array(seconds) / np.array(energies))


def _reference_perturbations(profile, count, seed, modes=DEFAULT_AUDIT_MODES):
    """The audit draws with every sine evaluated inside its own draw."""
    xi = profile.chi / profile.N_total
    rng = np.random.default_rng(seed)
    signs = np.array([(-1.0) ** (k - 1) for k in range(1, modes + 1)])
    decay = 1.0 / np.arange(1, modes + 1) ** 2

    def shape(coeffs):
        out = np.zeros_like(xi)
        for k, a in enumerate(coeffs, start=1):
            out += a * np.sin((k - 0.5) * math.pi * xi)
        return out

    draws = []
    for _ in range(count):
        while True:
            coeffs = rng.standard_normal(modes) * decay
            surface = float(coeffs @ signs)
            if abs(surface) >= 1e-3:
                break
        dphi_coeffs = rng.standard_normal(modes) * decay
        draws.append((shape(coeffs / surface), shape(dphi_coeffs)))
    return draws


@pytest.mark.parametrize("seed", [DEFAULT_AUDIT_SEED, 7])
def test_audit_perturbations_match_per_draw_sines(star_r01, seed):
    perts = audit_perturbations(star_r01, count=30, seed=seed)
    reference = _reference_perturbations(star_r01, 30, seed)
    for pert, (rdot, dphi_rdot) in zip(perts, reference, strict=True):
        assert np.array_equal(pert.rdot, rdot)
        assert np.array_equal(pert.dphi_rdot, dphi_rdot)


def test_equivalence_ratio_consistency(star_r01):
    # a ratio of two quadratic forms: free of the deformation's scale, and
    # the same through the per-draw Simpson integrals
    _, _, rdot = _quarter_wave(star_r01, 1)
    r = equivalence_ratio(star_r01, rdot)
    assert equivalence_ratio(star_r01, 3.0 * rdot) == pytest.approx(r, rel=1e-14)
    oracle = SimpsonVariations(star_r01)
    slope = oracle.slope(rdot)
    assert r == pytest.approx(
        oracle.second(rdot, slope, None) / oracle.energy(rdot, slope, None), rel=1e-13
    )


@pytest.mark.parametrize("name", ["picard", "shooting", "detuned"])
def test_criticality_audit_matches_simpson_oracle(star_r01, shooting_r019, detuned_r01, name):
    # the folded weight vectors sum in another order than the cumulative
    # Simpson rule: relative roundoff, except on a solved star's M_dot,
    # which cancels to truncation error and is bounded by its bulk scale.
    # The oracle's sequential cumulative sum alone is off by up to 1.7e-15
    # of that scale against math.fsum of the same terms, the dot product by
    # 4e-16, so the bound is 1e-14 (45 eps).
    profile = {"picard": star_r01, "shooting": shooting_r019, "detuned": detuned_r01}[name]
    perts = audit_perturbations(profile, count=50)
    report = criticality_audit(profile, perts)
    oracle = SimpsonVariations(profile)
    firsts, scales, seconds, energies = [], [], [], []
    for p in perts:
        slope = oracle.slope(p.rdot)
        firsts.append(oracle.first(p.rdot))
        scales.append(oracle.first_scale(p.rdot))
        seconds.append(oracle.second(p.rdot, slope, p.dphi_rdot))
        energies.append(oracle.energy(p.rdot, slope, p.dphi_rdot))
    seconds, energies = np.array(seconds), np.array(energies)
    rel = 1e-13
    assert np.all(np.abs(report.second_variations - seconds) <= rel * np.abs(seconds))
    assert np.all(np.abs(report.energies - energies) <= rel * energies)
    ratios = seconds / energies
    assert np.all(np.abs(report.ratios - ratios) <= rel * np.abs(ratios))
    gap = np.abs(report.first_variations - firsts)
    if name == "detuned":
        assert np.all(gap <= rel * np.abs(firsts))
    else:
        assert np.all(gap <= 1e-14 * np.array(scales))


def test_audit_builds_star_factors_once_per_star(star_r01, monkeypatch):
    # a star-only factor moved back into the per-draw loop makes the counts
    # grow with the number of draws
    counts = dict.fromkeys(("integrating_factor", "metric_terms"), 0)
    for name in counts:
        real = getattr(variation, name)

        def counted(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(variation, name, counted)
    perts = audit_perturbations(star_r01, count=50)
    seen = []
    for count in (10, 50):
        counts.update(dict.fromkeys(counts, 0))
        criticality_audit(star_r01, perts[:count])
        seen.append(dict(counts))
    assert seen[0] == seen[1]
    assert seen[0]["integrating_factor"] == 1


def test_audit_perturbation_arrays_frozen(star_r01):
    pert = audit_perturbations(star_r01, count=1)[0]
    assert isinstance(pert, AuditPerturbation)
    with pytest.raises(ValueError):
        pert.rdot[0] = 5.0
