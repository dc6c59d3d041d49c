"""Release gates for the workbench, one test per certified behavior.

Each test computes its quantities from fresh solves, prints a single
pass/fail line, and asserts with the same detail.  Tolerances are pinned;
loosening one requires re-measuring the underlying quantity, not editing
the number.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest
from scipy.special import spherical_jn

from hardstars import calibration
from hardstars.background import (
    StarParameters,
    approximate_profile,
    build_star,
    derive_metric_fields,
    solve_tov_picard,
)
from hardstars.evolution import (
    assemble_coefficients,
    evolve,
    gaussian_pulse,
    reconstruct,
    residual_norm,
)
from hardstars.modes import X1_LIMIT, find_modes, mode_to_initial_data
from hardstars.numerics import cumulative_simpson_uniform, derivative_uniform
from hardstars.variation import (
    audit_perturbations,
    detuned_profile,
    first_variation,
    mass_aspect_bound_ratio,
    second_variation,
)

from family_oracle import DeformedFamily
from variation_oracle import equivalence_ratio

FOUR_PI = 4.0 * math.pi

# one frozen constant bounds rho - 1 and the mass aspect for every radius
FAMILY_BOUND_C = 3.0


def certify(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    sys.stdout.flush()
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def star_bank(star_r01, star_r005, star_r002):
    bank = {0.02: star_r002, 0.05: star_r005, 0.1: star_r01}
    for R in (0.01, 0.04, 0.08):
        bank[R] = build_star(StarParameters(R=R, grid_n=2001))
    return bank


@pytest.fixture(scope="module")
def audit_r01(star_r01):
    return audit_perturbations(star_r01, count=50)


@pytest.fixture(scope="module")
def fundamental_by_radius(star_bank):
    return {R: find_modes(star_bank[R], n_modes=1)[0] for R in (0.02, 0.05, 0.1)}


def test_static_family_bounds(star_bank):
    worst = 0.0
    for R in (0.01, 0.05, 0.1):
        st = star_bank[R]
        dev_rho = st.rho - 1.0
        aspect = (3.0 / FOUR_PI) * st.m_over_r3 - 1.0
        assert np.min(dev_rho) >= -1e-14 and np.min(aspect) >= -1e-14
        worst = max(worst, np.max(dev_rho) / R**2, np.max(aspect) / R**2)
        assert np.all(np.diff(st.rho) <= 1e-15)
        assert np.all(np.diff(st.m) >= 0.0)
        assert abs(st.rho[-1] - 1.0) <= 1e-10
    certify(
        "static-family-bounds",
        worst <= FAMILY_BOUND_C,
        f"max (rho-1)/R^2 and aspect/R^2 = {worst:.4f} <= {FAMILY_BOUND_C}",
    )


def test_dual_solver_agreement():
    params = StarParameters(R=0.05, grid_n=4096)
    a = derive_metric_fields(solve_tov_picard(params))
    b = build_star(params)
    gap = max(
        float(np.max(np.abs(a.m - b.m))), float(np.max(np.abs(a.rho - b.rho)))
    )
    certify("dual-solver-agreement", gap <= 1e-8, f"sup gap {gap:.3e} <= 1e-8")


def test_closed_form_profile_order(star_bank):
    radii = (0.02, 0.04, 0.08)
    errs = []
    for R in radii:
        st = star_bank[R]
        rho_a, _ = approximate_profile(R, st.r)
        errs.append(float(np.max(np.abs(st.rho - rho_a))))
    exponent = float(np.polyfit(np.log(radii), np.log(errs), 1)[0])
    certify(
        "closed-form-profile-order",
        3.7 <= exponent <= 4.3,
        f"fitted error exponent {exponent:.3f} in [3.7, 4.3]",
    )


def test_photon_sphere_margin(star_bank):
    margins = {R: R - 3.0 * st.M_total for R, st in star_bank.items()}
    worst = min(margins.values())
    certify(
        "photon-sphere-margin",
        worst > 0.0,
        f"min over radii of R - 3M = {worst:.4e} > 0",
    )


def test_criticality_with_detuned_control(star_r01, audit_r01):
    solved = max(
        abs(first_variation(star_r01, p.rdot))
        / (1e-6 * (1.0 + np.max(np.abs(p.rdot))))
        for p in audit_r01
    )
    det = detuned_profile(star_r01)
    control = min(abs(first_variation(det, p.rdot)) for p in audit_r01)
    certify(
        "criticality-with-control",
        solved <= 1.0 and control >= 1e-3,
        f"solved margin {solved:.2e} <= 1, detuned min |M_dot| {control:.4e} >= 1e-3",
    )


def test_positivity_and_quadratic_scaling(star_r01, audit_r01):
    seconds = [second_variation(star_r01, p.rdot) for p in audit_r01]
    s = 3.7
    quad = max(
        abs(second_variation(star_r01, s * p.rdot) / (s * s * d2) - 1.0)
        for p, d2 in zip(audit_r01[:8], seconds[:8])
    )
    certify(
        "second-variation-positivity",
        min(seconds) > 0.0 and quad <= 1e-12,
        f"min {min(seconds):.4f} > 0, quadratic-scaling defect {quad:.2e} <= 1e-12",
    )


def test_energy_equivalence_window(star_r01, audit_r01):
    lo, hi = calibration.EQUIVALENCE_RATIO_WINDOW
    ratios = [equivalence_ratio(star_r01, p.rdot) for p in audit_r01]
    certify(
        "energy-equivalence-window",
        lo <= min(ratios) and max(ratios) <= hi and hi / lo <= 100.0,
        f"ratios [{min(ratios):.2f}, {max(ratios):.2f}] in [{lo:g}, {hi:g}], "
        f"window span {hi / lo:.0f} <= 100",
    )


def test_mass_aspect_estimate(star_r01, audit_r01):
    details = []
    ok = True
    for expo, ceiling in calibration.MASS_ASPECT_PLAIN_MAX.items():
        vals = [
            mass_aspect_bound_ratio(star_r01, p.rdot, expo) for p in audit_r01
        ]
        ok = ok and all(np.isfinite(vals)) and max(vals) <= ceiling
        details.append(f"e={expo:g}: {max(vals):.3f}<={ceiling:g}")
    certify("mass-aspect-estimate", ok, ", ".join(details))


def test_shell_mass_rate_refinement(star_r01):
    c = 0.5 * math.pi / star_r01.N_total
    fam = DeformedFamily(
        star_r01,
        lambda chi: math.sin(c * chi),
        lambda chi: c * math.cos(c * chi),
    )
    rdot = np.sin(c * star_r01.chi)
    formula = -FOUR_PI * star_r01.r**2 * (star_r01.rho - 1.0) * rdot
    scale = np.max(np.abs(formula))
    errs = []
    for eps in (1e-3, 1e-4):
        fd = (fam.mass_profile(eps) - fam.mass_profile(-eps)) / (2.0 * eps)
        errs.append(float(np.max(np.abs(fd - formula))))
    certify(
        "shell-mass-rate-refinement",
        errs[1] <= 0.15 * errs[0] and errs[1] / scale <= 2e-3,
        f"sup errors {errs[0]:.3e} -> {errs[1]:.3e} "
        f"(ratio {errs[1] / errs[0]:.3f} <= 0.15), final rel {errs[1] / scale:.2e}",
    )


def test_long_run_energy_band(star_r005):
    bands = {}
    for n_chi in (1000, 2000):
        co = assemble_coefficients(star_r005, n_chi=n_chi)
        u0, v0 = gaussian_pulse(co)
        res = evolve(co, u0, v0, T=50.0 * 0.05, cfl=0.4, samples=100)
        ratios = res.energies / res.initial_energy
        assert 0.98 <= np.min(ratios) and np.max(ratios) <= 1.02
        bands[n_chi] = res.max_energy_drift
    order = math.log2(bands[1000] / bands[2000])
    certify(
        "long-run-energy-band",
        bands[2000] <= 0.02 and order >= 1.8,
        f"band {bands[2000]:.3e} within 2e-2, refinement order {order:.2f} >= 1.8",
    )


def test_reconstruction_residual_orders(star_r005):
    pointwise, integrated = [], []
    for n_chi in (201, 401, 801):
        co = assemble_coefficients(star_r005, n_chi=n_chi)
        u0, v0 = gaussian_pulse(co)
        res = evolve(co, u0, v0, T=0.05, cfl=0.3, samples=4)
        u = np.asarray(res.u)
        pointwise.append(residual_norm(co, u))
        f = reconstruct(co, u)
        du = derivative_uniform(u, co.dchi, order=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            # dr0/dchi = 1/w, +inf at the centre
            flux = FOUR_PI * (
                (2.0 * co.r0 * co.rho0 * u + co.r0**2 * f.rho1) / co.w
                + co.r0**2 * co.rho0 * du
            )
        # the first quarter of the range carries grid-scale content from
        # the degenerate centre; anchor the mass integral beyond it
        a = int(round(0.25 * (n_chi - 1)))
        m_int = f.m1[a] + cumulative_simpson_uniform(flux[a:], co.dchi)
        dev = np.abs(f.m1[a:] - m_int) / np.max(np.abs(f.m1))
        integrated.append(float(np.max(dev)))
    orders = [
        math.log2(seq[0] / seq[1])
        for seq in (pointwise, integrated)
    ] + [
        math.log2(seq[1] / seq[2])
        for seq in (pointwise, integrated)
    ]
    certify(
        "reconstruction-residual-orders",
        min(orders) >= 1.8,
        "pointwise {:.2e}->{:.2e}->{:.2e}, integrated {:.2e}->{:.2e}->{:.2e}, "
        "min order {:.2f} >= 1.8".format(*pointwise, *integrated, min(orders)),
    )


def test_dispersion_ladder(fundamental_by_radius):
    # independent bisection on the limiting root equation
    g = lambda x: math.sin(x) * (x * x - 2.0) + 2.0 * x * math.cos(x)  # noqa: E731
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    xs = np.array([fundamental_by_radius[R].x for R in (0.02, 0.05, 0.1)])
    spread = float(np.max(np.abs(xs / xs.mean() - 1.0)))
    certify(
        "dispersion-ladder",
        abs(root - 2.0816) <= 1e-3
        and abs(root - X1_LIMIT) <= 1e-10
        and spread <= 0.02,
        f"limit root {root:.10f} = 2.0816 +- 1e-3, "
        f"sqrt(lambda) R deviation from its mean {spread:.4%} <= 2%",
    )


def test_spectral_perturbation_scaling(star_bank, fundamental_by_radius):
    radii = np.array([0.02, 0.05, 0.1])
    lo, hi = calibration.GAP_EXPONENT_BAND
    gaps, dists = [], []
    for R in radii:
        mode = fundamental_by_radius[R]
        gaps.append(mode.x**2 - X1_LIMIT**2)
        st = star_bank[R]
        flat = (3.0 * R / mode.x) * spherical_jn(1, mode.x * st.r / R)
        dists.append(float(np.max(np.abs(mode.h - flat)) / np.max(np.abs(mode.h))))
    e_gap = float(np.polyfit(np.log(radii), np.log(gaps), 1)[0])
    e_shape = float(np.polyfit(np.log(radii), np.log(dists), 1)[0])
    certify(
        "spectral-perturbation-scaling",
        lo <= e_gap <= hi and lo <= e_shape <= hi,
        f"eigenvalue-excess exponent {e_gap:.2f}, shape-distance exponent "
        f"{e_shape:.2f}, both in [{lo:g}, {hi:g}]",
    )


def test_periodicity_round_trip(star_r005):
    mode = find_modes(star_r005, n_modes=1)[0]
    errs, drifts = {}, {}
    for n_chi in (1000, 2000):
        co = assemble_coefficients(star_r005, n_chi=n_chi)
        u0, v0 = mode_to_initial_data(co, mode)
        res = evolve(co, u0, v0, T=mode.period, cfl=0.4, samples=4)
        amp = np.max(np.abs(u0))
        u_err = np.max(np.abs(np.asarray(res.u) - u0)) / amp
        v_err = np.max(np.abs(np.asarray(res.v) - v0)) / (amp * mode.frequency)
        errs[n_chi] = max(u_err, v_err)
        drifts[n_chi] = res.max_energy_drift
    certify(
        "periodicity-round-trip",
        errs[2000] <= 5e-3 and errs[2000] < errs[1000] and drifts[2000] <= 5e-3,
        f"return error {errs[2000]:.3e} <= 5e-3 (coarser grid {errs[1000]:.3e}), "
        f"energy drift {drifts[2000]:.1e} <= 5e-3",
    )
