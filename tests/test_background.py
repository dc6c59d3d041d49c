"""Static-star solvers: point oracles, dual-route agreement, metric identities."""

from __future__ import annotations

import dataclasses
import math

import mpmath
import numpy as np
import pytest

from hardstars import (
    DomainError,
    StarParameters,
    approximate_profile,
    build_star,
    calibration,
    derive_metric_fields,
    family_scan,
    solve_tov_picard,
    solve_tov_shooting,
    tov_rhs,
)
from hardstars import background as bg
from hardstars.background import (
    MAX_CONTRACTION_RADIUS,
    BackgroundProfile,
    chi_weight,
    metric_terms,
)
from hardstars.numerics import chebyshev_nodes, cumulative_simpson_uniform
from hardstars.variation import detuned_profile
from tov_oracle import MPMATH_STARS, ivp_shooting, mpmath_star

FOUR_PI = 4.0 * math.pi


# ---------------------------------------------------------------- point values


def test_tov_rhs_against_high_precision_rearrangement():
    # Same physics, independent algebraic arrangement, 50-digit arithmetic:
    # drho/dr = -n^2 (4 pi r (rho-1) + m/r^2) / (1 - 2m/r) with n^2 = 2 rho - 1.
    with mpmath.workdps(50):
        r, m, rho = 0.05, (FOUR_PI / 3.0) * 0.05**3 * 1.01, 1.005
        dm, drho = tov_rhs(r, m, rho)
        rr, mm, dd = mpmath.mpf(r), mpmath.mpf(m), mpmath.mpf(rho)
        dm_ref = 4 * mpmath.pi * rr**2 * dd
        n2 = 2 * dd - 1
        drho_ref = -n2 * (4 * mpmath.pi * rr * (dd - 1) + mm / rr**2) / (1 - 2 * mm / rr)
        assert abs(dm / float(dm_ref) - 1.0) < 1e-14
        assert abs(drho / float(drho_ref) - 1.0) < 1e-13


def test_tov_rhs_centre_and_domain_guards():
    assert tov_rhs(0.0, 0.0, 1.2) == (0.0, 0.0)
    with pytest.raises(DomainError):
        tov_rhs(0.0, 1e-8, 1.2)
    with pytest.raises(DomainError):
        tov_rhs(0.05, 0.03, 1.2)  # r <= 2m
    with pytest.raises(DomainError):
        tov_rhs(0.05, 1e-5, 0.9)  # below the stiff floor


def test_parameter_validation():
    with pytest.raises(DomainError):
        StarParameters(R=calibration.R_MAX * (1 + 1e-9))
    assert StarParameters(R=calibration.R_MAX).R == calibration.R_MAX
    with pytest.raises(DomainError):
        StarParameters(R=-0.1)
    with pytest.raises(DomainError):
        StarParameters(R=0.1, grid_n=4)
    with pytest.raises(DomainError):
        StarParameters(R=0.1, picard_tol=0.0)


# --------------------------------------------------------- dual-route solvers


def test_picard_and_shooting_agree(star_r01):
    params = StarParameters(R=0.1, grid_n=2001)
    sho = solve_tov_shooting(params)
    assert np.max(np.abs(star_r01.rho - sho.rho)) < 1e-11
    assert np.max(np.abs(star_r01.m - sho.m)) < 1e-12
    assert abs(star_r01.rho_central - sho.rho_central) < 1e-11


def test_central_density_pinned_value(star_r01):
    # Cross-checked by two independent solvers in this suite.
    assert abs(star_r01.rho_central - 1.0235377133674) < 5e-11


def test_picard_invariant_bounds(star_r01):
    rhot = star_r01.rho - 1.0
    cap = (16.0 * math.pi / 3.0) * star_r01.R**2
    assert np.all(rhot >= -1e-15)
    assert np.all(rhot <= cap + 1e-15)
    assert star_r01.rho[-1] == 1.0
    assert np.all(np.diff(star_r01.rho) < 0.0)
    # mean interior density sits between surface and centre values; the upper
    # bound is an equality at r = 0, so allow quadrature-level slack there
    assert np.all(star_r01.m_over_r3 >= (FOUR_PI / 3.0) * (1.0 - 1e-12))
    assert np.all(star_r01.m_over_r3 <= (FOUR_PI / 3.0) * star_r01.rho_central * (1.0 + 1e-6))
    assert abs(star_r01.m_over_r3[1] / star_r01.m_over_r3[0] - 1.0) < 1e-5


def test_largest_star_radius_is_calibrated():
    # outward integration from the central density to the rho = 1 surface;
    # the surface radius peaks at calibration.R_MAX, rounded up
    from scipy.integrate import solve_ivp
    from scipy.optimize import minimize_scalar

    def surface_radius(rho_c):
        def surface(r, y):
            return y[1] - 1.0

        surface.terminal = True
        r0 = 1e-6
        sol = solve_ivp(lambda r, y: tov_rhs(r, y[0], max(y[1], 1.0)), (r0, 1.0),
                        [(FOUR_PI / 3.0) * rho_c * r0**3, rho_c], method="DOP853",
                        rtol=1e-13, atol=1e-14, events=surface)
        return float(sol.t_events[0][0])

    peak = minimize_scalar(lambda rho_c: -surface_radius(rho_c), bracket=(1.5, 1.9, 2.5),
                           tol=1e-10)
    assert peak.x == pytest.approx(1.92346, abs=1e-4)
    assert calibration.R_MAX - 1e-8 < -peak.fun <= calibration.R_MAX
    assert StarParameters(R=calibration.R_MAX).R == calibration.R_MAX
    with pytest.raises(DomainError, match="no static star is larger"):
        StarParameters(R=math.nextafter(calibration.R_MAX, 1.0))


def test_picard_requires_contraction_regime():
    with pytest.raises(DomainError):
        solve_tov_picard(StarParameters(R=MAX_CONTRACTION_RADIUS * 1.05))


def test_shooting_covers_larger_radii():
    prof = derive_metric_fields(solve_tov_shooting(StarParameters(R=0.2, grid_n=801)))
    assert prof.rho_central > 1.0
    assert 3.0 * prof.M_total / prof.R < 1.0


def test_collocation_jacobian_matches_finite_differences():
    # the analytic Jacobian of the collocated system against central
    # differences of its residual, at a state off the solution
    y, d1, _ = chebyshev_nodes(8)
    s = y * y
    x = np.concatenate([1.3 - 0.2 * s + 0.01 * np.cos(3.0 * y), (FOUR_PI / 3.0) * (1.25 - 0.1 * s)])
    J = bg._hydrostatic_system(0.04, s, d1, *np.split(x, 2))[1]
    h = 1e-5
    fd = np.empty_like(J)
    for k, e in enumerate(h * np.eye(len(x))):
        up, down = (bg._hydrostatic_system(0.04, s, d1, *np.split(x + sign * e, 2))[0]
                    for sign in (1.0, -1.0))
        fd[:, k] = (up - down) / (2.0 * h)
    assert np.max(np.abs(fd - J)) <= 1e-7


def test_shooting_doubles_nodes_while_unresolved(monkeypatch):
    # N starts at 16 and doubles only while the Chebyshev tail of rho or mu
    # is above TAIL_TOL: R <= 0.235 stays on 16 intervals, R = 0.2471 needs 32
    tries = []
    real = bg._newton

    def newton(R, N, rho, mu):
        tries.append(N)
        return real(R, N, rho, mu)

    monkeypatch.setattr(bg, "_newton", newton)
    for R, want in ((0.02, [16]), (0.235, [16]), (0.2471, [16, 32])):
        tries.clear()
        prof = solve_tov_shooting(StarParameters(R=R, grid_n=201))
        assert tries == want, R
        assert prof.provenance["residual"] <= 1e-11, R


@pytest.mark.parametrize("grid_n", [801, 4001])
@pytest.mark.parametrize("R", [0.02, 0.1, 0.19, 0.235, 0.247])
def test_shooting_matches_solve_ivp_oracle(R, grid_n):
    # rho_c and M against the 20-digit mpmath stars, the profile against
    # the solve_ivp DOP853 shooting (rtol 2.5e-14).  Measured worst gaps over
    # these ten cases, all at R = 0.247: rho_c 2.2e-14, M 3.2e-16,
    # sup|rho| 1.2e-13, sup|m| 2.7e-15; the profile gaps are the oracle's
    # own, whose rho_c the mpmath star puts 1.4e-13 high there.
    prof = solve_tov_shooting(StarParameters(R=R, grid_n=grid_n))
    rho_c, M = map(float, MPMATH_STARS[R])
    assert abs(prof.rho_central - rho_c) <= 1e-13
    assert abs(prof.m[-1] - M) <= 2e-15
    _, m, rho = ivp_shooting(R, grid_n)
    assert np.max(np.abs(prof.rho - rho)) <= 1e-12
    assert np.max(np.abs(prof.m - m)) <= 2e-14
    assert abs(prof.rho[-1] - 1.0) <= 1e-12


def test_mpmath_star_reproduces_pinned_radius():
    # MPMATH_STARS holds mpmath_star's output; recompute R = 0.1 from a
    # central density 1e-14 off the pinned one
    rho_c, M = mpmath_star(0.1, 1.02353771336765)
    want_rho_c, want_M = MPMATH_STARS[0.1]
    assert abs(mpmath.mpf(rho_c) - mpmath.mpf(want_rho_c)) <= 1e-19
    assert abs(mpmath.mpf(M) - mpmath.mpf(want_M)) <= 1e-22


# ------------------------------------------------------------- approximation


def _compression(prof):
    """4 pi r^2 dr/dchi = sqrt(1 - 2m/r)/n from the pointwise metric terms."""
    n2, D, _ = metric_terms(prof.r, prof.rho, prof.m_over_r3)
    return np.sqrt(D) / np.sqrt(n2)


def test_small_star_closed_form_scales_like_r4(star_r01, star_r005):
    errs = {}
    comp_errs = {}
    for prof in (star_r01, star_r005):
        rho_app, comp_app = approximate_profile(prof.R, prof.r)
        errs[prof.R] = np.max(np.abs(prof.rho - rho_app))
        comp = _compression(prof)[1:]
        comp_errs[prof.R] = np.max(np.abs(comp - comp_app[1:]))
    assert 13.0 < errs[0.1] / errs[0.05] < 19.0
    assert 13.0 < comp_errs[0.1] / comp_errs[0.05] < 19.0
    assert errs[0.1] < 3e-3
    assert comp_errs[0.1] < 3e-3


def test_two_term_closed_form_scales_like_r6(star_r002, star_r005, star_r01):
    radii, errs, comp_errs = [], [], []
    for prof in (star_r002, star_r005, star_r01):
        rho_app, comp_app = approximate_profile(prof.R, prof.r, order=2)
        comp = _compression(prof)[1:]
        radii.append(prof.R)
        errs.append(np.max(np.abs(prof.rho - rho_app)))
        comp_errs.append(np.max(np.abs(comp - comp_app[1:])))
    for e in (errs, comp_errs):
        exponent = np.polyfit(np.log(radii), np.log(e), 1)[0]
        assert 5.7 < exponent < 6.3
    assert errs[-1] <= calibration.CLOSED_FORM_R6_MAX * 0.1**6
    with pytest.raises(ValueError):
        approximate_profile(0.1, star_r01.r, order=3)


def test_closed_form_centre_value():
    rho, comp = approximate_profile(0.1, np.array([0.0]))
    assert abs(rho[0] - 1.0209439510239) < 1e-12
    assert abs(comp[0] - (1.0 - (2.0 * math.pi / 3.0) * 0.01)) < 1e-15


# ------------------------------------------------------------ metric fields


def test_wave_speed_identity(star_r01):
    # exp(psi - omega) collapses to 4 pi r^2 for this fluid, with
    # psi = -ln n and omega = -ln(4 pi r^2 n)
    r = star_r01.r[1:]
    n = np.sqrt(metric_terms(r, star_r01.rho[1:], star_r01.m_over_r3[1:])[0])
    psi, omega = -np.log(n), -np.log(FOUR_PI * r * r * n)
    lhs = np.exp(psi - omega)
    assert np.max(np.abs(lhs / (FOUR_PI * r * r) - 1.0)) < 1e-13


def test_jacobian_inverts_chi_weight(star_r01):
    w = chi_weight(star_r01)
    drdchi = _compression(star_r01)[1:] / (FOUR_PI * star_r01.r[1:] ** 2)
    assert np.allclose(w[1:] * drdchi, 1.0, rtol=1e-13, atol=0.0)
    assert w[0] == 0.0


def test_chi_profile_differentiates_back(star_r01):
    d_chi = np.gradient(star_r01.chi, star_r01.dr, edge_order=2)
    assert np.max(np.abs(d_chi - chi_weight(star_r01))) < 1e-7


def test_psi_gradient_matches_finite_difference(star_r01):
    n2, _, q = metric_terms(star_r01.r, star_r01.rho, star_r01.m_over_r3)
    psi = -np.log(np.sqrt(n2))
    d_psi = np.gradient(psi, star_r01.dr, edge_order=2)
    assert np.max(np.abs(d_psi - q)) < 1e-7


def test_metric_terms_on_floats_and_arrays(star_r01):
    r, rho, mor3 = star_r01.r, star_r01.rho, star_r01.m_over_r3
    n2, D, q = metric_terms(r, rho, mor3)
    assert q[0] == 0.0  # dpsi/dr vanishes at the regular centre
    assert np.allclose(np.sqrt(n2) ** 2, 2.0 * rho - 1.0, rtol=1e-14, atol=0.0)
    assert np.array_equal(FOUR_PI * r * r * np.sqrt(n2) / np.sqrt(D), chi_weight(star_r01))
    # the shooting right-hand side calls it on plain floats
    for i in (0, 700, star_r01.grid_n - 1):
        point = metric_terms(float(r[i]), float(rho[i]), float(mor3[i]))
        assert all(type(x) is float for x in point)
        assert point == (n2[i], D[i], q[i])


def test_totals_and_photon_sphere_margin(star_r01):
    assert star_r01.M_total == star_r01.m[-1]
    assert star_r01.N_total == star_r01.chi[-1]
    assert star_r01.N_total > star_r01.M_total  # positive binding
    assert 3.0 * star_r01.M_total / star_r01.R < 1.0


# the rung centres of the benchmark's static radius ladder
STATIC_RUNGS = (0.02, 0.04, 0.06, 0.09, 0.115, 0.15, 0.19, 0.235)


def test_profile_holds_three_arrays(star_r01):
    names = [f.name for f in dataclasses.fields(BackgroundProfile)]
    assert names == ["r", "rho", "m_over_r3", "provenance"]
    assert np.array_equal(star_r01.m, star_r01.m_over_r3 * star_r01.r ** 3)


@pytest.mark.parametrize("grid_n", [16, 401, 4096])
def test_radius_grid_and_totals_read_off_the_arrays(grid_n):
    # np.linspace returns its endpoint exactly, so R = r[-1] and the grid
    # size are the requested ones bit for bit, on both solvers
    for R in STATIC_RUNGS:
        params = StarParameters(R=R, grid_n=grid_n)
        solvers = [solve_tov_shooting]
        if R <= MAX_CONTRACTION_RADIUS:
            solvers.append(solve_tov_picard)
        for solve in solvers:
            prof = solve(params)
            where = (R, grid_n, solve.__name__)
            assert prof.R == params.R and prof.grid_n == params.grid_n, where
            assert prof.dr == params.R / (params.grid_n - 1), where
            assert prof.M_total == prof.m[-1] and prof.N_total == prof.chi[-1], where


def test_replaced_arrays_re_integrate_chi(star_r01):
    # chi is read off rho and m/r^3 on first use, so a profile with new
    # arrays (the detuned control) carries its own chi, not the source's
    factor = 1.01
    det = dataclasses.replace(star_r01, rho=factor * star_r01.rho,
                              m_over_r3=factor * star_r01.m_over_r3)
    chi = cumulative_simpson_uniform(chi_weight(det), det.dr)
    assert np.array_equal(det.chi, chi)
    assert det.N_total == chi[-1] != star_r01.N_total
    assert np.array_equal(detuned_profile(star_r01, factor).chi, chi)


# ------------------------------------------------------------------- family


def test_family_scan_masses_grow_with_radius():
    rows = family_scan([0.02, 0.05, 0.1], grid_n=513)
    assert all(row.error is None for row in rows)
    masses = [row.M_total for row in rows]
    centres = [row.rho_central for row in rows]
    assert masses == sorted(masses)
    assert centres == sorted(centres)
    assert all(row.compactness < 1.0 for row in rows)


def test_family_scan_captures_failures():
    rows = family_scan([0.05, 0.4], grid_n=257)
    assert rows[0].error is None
    assert rows[1].error is not None and "DomainError" in rows[1].error


def test_build_star_solver_choice():
    a = build_star(StarParameters(R=0.05, grid_n=257), solver="picard")
    b = build_star(StarParameters(R=0.05, grid_n=257), solver="shooting")
    assert np.max(np.abs(a.rho - b.rho)) < 1e-11
    with pytest.raises(ValueError):
        build_star(StarParameters(R=0.05, grid_n=257), solver="magic")


def test_arrays_are_frozen(star_r01):
    with pytest.raises(ValueError):
        star_r01.rho[0] = 2.0
    for name in ("r", "m_over_r3", "m", "chi"):
        with pytest.raises(ValueError):
            getattr(star_r01, name)[0] = 2.0
