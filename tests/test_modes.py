"""Radial eigenmodes, the small-radius dispersion model, and the
operator splitting that connects them."""

from __future__ import annotations

import gc
import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.integrate
from scipy.optimize import brentq
from scipy.special import spherical_jn

from hardstars import StarParameters, build_star, modes
from hardstars.background import FOUR_PI, metric_terms
from hardstars.errors import ConvergenceError, DomainError
from hardstars.evolution import assemble_coefficients, evolve
from hardstars.modes import (
    X1_LIMIT,
    _node_count,
    _RadialOperator,
    dispersion_function,
    dispersion_roots,
    eigenfunction,
    estimate_period,
    find_modes,
    mode_to_initial_data,
    shooting_defect,
)
from hardstars.numerics import chebyshev_nodes, scan_sign_changes
from hardstars.variation import detuned_profile
from shooting_oracle import (
    NdarrayRowRhs,
    apply_H,
    apply_H0,
    apply_H1,
    ivp_eigenfunction,
    rk45_defect,
    second_derivative_uniform,
)
from spline_oracle import SplineOperator, spline_initial_data, spline_modes

FLAT_ROOTS = (
    2.0815759778181,
    5.940369990572712,
    9.205840142936665,
    12.404445021901974,
)


@pytest.fixture(scope="module")
def modes_r005(star_r005):
    return find_modes(star_r005, n_modes=3)


def _window_scan_x(profile, n_modes, scan_step=0.02, window=0.45):
    """Reference mode locator by dispersion-window scans of the RK45
    oracle's defect, independent of the collocation behind ``find_modes``.

    Each small-star dispersion root seeds a window of half-width ``window``
    in x; the defect is sign-scanned there at rtol 1e-9 (a sign away from a
    zero does not need more) and the crossing closest to the seed is refined
    by ``brentq`` on the defect at rtol 1e-12.  An empty window, or spacings
    off the organ-pipe spacing pi by more than half, triggers a quarter-step
    rescan.
    """
    op = _RadialOperator(profile)   # for kappa only
    R = profile.R
    seeds = dispersion_roots(n_modes, R)

    def defect_at_x(x, rtol=1e-12):
        return rk45_defect(profile, op, (x / R) ** 2, rtol)

    def refine(lo, hi):
        return brentq(defect_at_x, lo, hi, xtol=1e-12, rtol=8.9e-16)

    def collect(lo, hi, step):
        return scan_sign_changes(lambda x: defect_at_x(x, 1e-9), np.arange(lo, hi, step))

    roots_x = []
    for seed in seeds:
        cands = [refine(lo, hi) for lo, hi in collect(seed - window, seed + window, scan_step)]
        cands = [c for c in cands if all(abs(c - r) > 1e-8 for r in roots_x)]
        if cands:
            roots_x.append(min(cands, key=lambda c: abs(c - seed)))
    spacings = np.diff(roots_x)
    if len(roots_x) < n_modes or np.any(np.abs(spacings - math.pi) > 0.5 * math.pi):
        brackets = collect(0.5 * seeds[0], seeds[-1] + 0.6 * math.pi, scan_step / 4.0)
        roots_x = [refine(lo, hi) for lo, hi in brackets]
    assert len(roots_x) >= n_modes
    return roots_x[:n_modes]


@pytest.fixture(scope="module")
def star_r019_shooting():
    return build_star(StarParameters(R=0.19, grid_n=2001), solver="shooting")


@pytest.fixture(scope="module")
def modes_r019(star_r019_shooting):
    return find_modes(star_r019_shooting, n_modes=3)


@pytest.fixture(scope="module")
def star_r0247_shooting():
    # the most compact star the shooting solver reaches, where W = n^2/D
    # peaks at 2.75
    return build_star(StarParameters(R=0.247, grid_n=801), solver="shooting")


# ----------------------------------------------------------- special function


def test_j1_recurrence_identity():
    # x j1' + 2 j1 = sin x, the identity behind the boundary reduction
    x = np.linspace(0.3, 12.0, 120)
    j1p = spherical_jn(1, x, derivative=True)
    gap = x * j1p + 2.0 * spherical_jn(1, x) - np.sin(x)
    assert np.max(np.abs(gap)) <= 1e-13


# -------------------------------------------------------------- flat problem


def test_limit_roots_pinned():
    roots = dispersion_roots(4, R=0.0)
    for got, want in zip(roots, FLAT_ROOTS):
        assert got == pytest.approx(want, abs=1e-10)


def test_limit_root_is_bessel_peak():
    # at the limit root the boundary condition reduces to j1'(x) = 0
    assert spherical_jn(1, X1_LIMIT, derivative=True) == pytest.approx(0.0, abs=1e-12)


def test_limit_root_closed_form():
    # independent arrangement of the same condition
    x = X1_LIMIT
    assert math.sin(x) * (x * x - 2.0) + 2.0 * x * math.cos(x) == pytest.approx(
        0.0, abs=1e-10
    )


def test_model_root_moves_up_with_radius():
    x0 = dispersion_roots(1, R=0.0)[0]
    x1 = dispersion_roots(1, R=0.1)[0]
    assert x1 > x0
    assert dispersion_function(x0, R=0.1) != 0.0


# --------------------------------------------------------------- collocation


def test_find_modes_pinned(modes_r005):
    got = [m.x for m in modes_r005]
    want = (2.0997258306221, 5.9026687206812, 9.1433020097446)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=5e-8)
    assert all(abs(m.defect) <= 1e-12 for m in modes_r005)
    gaps = np.diff(got)
    assert np.all(np.abs(gaps - math.pi) < 0.5 * math.pi)


def test_mode_frequency_period_consistency(modes_r005):
    m = modes_r005[0]
    assert m.frequency == pytest.approx(math.sqrt(m.eigenvalue), rel=1e-14)
    assert m.period * m.frequency == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert m.x == pytest.approx(m.frequency * 0.05, rel=1e-12)


def test_fundamental_approaches_limit(star_r002, star_r005, star_r01):
    x1 = {}
    for star in (star_r002, star_r005, star_r01):
        x1[star.R] = find_modes(star, n_modes=1)[0].x
    assert x1[0.02] == pytest.approx(2.0846437052850, abs=1e-7)
    assert x1[0.05] == pytest.approx(2.0997258306221, abs=1e-7)
    assert x1[0.1] == pytest.approx(2.1398099863982, abs=1e-7)
    dev = {R: (x - X1_LIMIT) / X1_LIMIT for R, x in x1.items()}
    assert dev[0.02] < dev[0.05] < dev[0.1]
    assert dev[0.02] <= 0.005
    # the squared-frequency excess falls off about quadratically in R
    gap = {R: x * x - X1_LIMIT**2 for R, x in x1.items()}
    p1 = math.log(gap[0.05] / gap[0.02]) / math.log(0.05 / 0.02)
    p2 = math.log(gap[0.1] / gap[0.05]) / math.log(0.1 / 0.05)
    assert 1.6 <= p1 <= 2.4
    assert 1.6 <= p2 <= 2.4


def test_eigenfunction_near_flat_shape(star_r005, modes_r005):
    m = modes_r005[0]
    flat = 3.0 * star_r005.R / m.x * spherical_jn(1, m.x * star_r005.r / star_r005.R)
    rel = np.max(np.abs(m.h - flat)) / np.max(np.abs(m.h))
    assert rel <= 0.03


def test_eigenfunction_center_normalisation(star_r005, modes_r005):
    m = modes_r005[0]
    assert m.h[0] == 0.0
    assert m.h[1] / star_r005.r[1] == pytest.approx(1.0, abs=1e-6)


def test_eigenfunction_on_nodes_inside_the_series_start():
    # at grid_n 20001 the first node r = 5e-5 R lies inside 1e-4 R, where a
    # shooting series start would begin; the collocation has no start and
    # sums g's Chebyshev series at every node alike
    star = build_star(StarParameters(R=0.05, grid_n=20001))
    assert star.r[1] < 1e-4 * star.R
    m = find_modes(star, n_modes=1)[0]
    assert m.h[1] / star.r[1] == pytest.approx(1.0, abs=1e-6)
    flat = 3.0 * star.R / m.x * spherical_jn(1, m.x * star.r / star.R)
    assert np.max(np.abs(m.h - flat)) / np.max(np.abs(m.h)) <= 0.03


def test_eigen_residual_interior(star_r005, modes_r005):
    m = modes_r005[0]
    resid = apply_H(star_r005, m.h) - m.eigenvalue * m.h
    sl = slice(8, -2)
    rel = np.max(np.abs(resid[sl])) / np.max(np.abs(m.eigenvalue * m.h[sl]))
    assert rel <= 1e-4


def test_defect_sign_change_brackets_mode(star_r005, modes_r005):
    lam = modes_r005[0].eigenvalue
    lo = shooting_defect(star_r005, 0.98 * lam)
    hi = shooting_defect(star_r005, 1.02 * lam)
    assert lo * hi < 0.0


def test_find_modes_matches_window_scan(star_r005, modes_r005):
    want = _window_scan_x(star_r005, 3)
    for m, w in zip(modes_r005, want):
        assert m.x == pytest.approx(w, abs=1e-10)


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_shooting_matches_rk45_oracle(which, request):
    # RK45 at rtol 1e-12 is good to about 1e-12 in the defect.  Measured
    # worst gaps over modes 1-3 of both stars: defect 1.1e-12, and 2.7e-12
    # between the peak-normalised eigenfunctions.  The oracle integrates the
    # exact-formula right-hand side from its own Frobenius start, not the
    # spline the collocation reads.
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    found = request.getfixturevalue(f"modes_{which}")
    op = _RadialOperator(star)
    R = star.R

    def shape(h):
        return h / np.max(np.abs(h))

    for m in found:
        for lam in (m.eigenvalue, 0.98 * m.eigenvalue, 1.02 * m.eigenvalue):
            assert shooting_defect(star, lam, op) == pytest.approx(
                rk45_defect(star, op, lam), abs=5e-11)
        dx = 1e-6
        slope = (shooting_defect(star, ((m.x + dx) / R) ** 2, op)
                 - shooting_defect(star, ((m.x - dx) / R) ** 2, op)) / (2.0 * dx)
        # one Newton step on the oracle's defect from the located x
        assert abs(rk45_defect(star, op, m.eigenvalue) / slope) <= 1e-10
        h_rk45 = ivp_eigenfunction(star, m.eigenvalue)
        assert np.max(np.abs(shape(m.h) - shape(h_rk45))) <= 1e-9


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_eigenfunction_is_the_located_run(which, request):
    # find_modes reads Mode.h from the regular solve at each eigenvalue; a
    # standalone eigenfunction repeats that solve operation for operation
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    op = _RadialOperator(star)
    for m in request.getfixturevalue(f"modes_{which}"):
        assert np.array_equal(eigenfunction(star, m.eigenvalue, op), m.h)
        assert np.array_equal(eigenfunction(star, m.eigenvalue), m.h)


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_dense_output_matches_solve_ivp_oracle(which, request):
    # the Chebyshev series summed on the grid against solve_ivp's DOP853
    # dense output of the exact-formula solution at rtol 1e-12, on and off
    # the eigenvalues; both have unit central slope (measured worst gap
    # 3.9e-12 of the peak over both stars)
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    op = _RadialOperator(star)
    for m in request.getfixturevalue(f"modes_{which}"):
        for lam in (m.eigenvalue, 0.97 * m.eigenvalue):
            h = eigenfunction(star, lam, op)
            h_ivp = ivp_eigenfunction(star, lam, method="DOP853")
            assert np.max(np.abs(h - h_ivp)) <= 1e-9 * np.max(np.abs(h_ivp))


def test_shooting_defect_retains_no_memory_per_call(star_r005):
    # an operator builds its matrices once for each number of intervals and
    # keeps nothing else from a call, for the defect and the eigenfunction
    # alike
    op = _RadialOperator(star_r005)
    lam = 1.0
    calls = 200
    for solve in (shooting_defect, eigenfunction):
        solve(star_r005, lam, op)
        # only what is allocated after start() is traced, so no collection
        # is needed before it
        tracemalloc.start()
        try:
            for _ in range(calls):
                solve(star_r005, lam, op)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / calls < 512, solve.__name__


def test_shooting_defect_is_thread_safe(star_r005, star_r01):
    # each star's fresh operator is shared by the threads of its two
    # eigenvalues, which build and read its matrices concurrently
    ops = {star.R: _RadialOperator(star) for star in (star_r005, star_r01)}
    cases = [(star, ops[star.R], lam)
             for star, lams in ((star_r005, (1.0e3, 1.4e4)), (star_r01, (500.0, 3.5e3)))
             for lam in lams]
    want = [shooting_defect(star, lam, _RadialOperator(star)) for star, _, lam in cases]

    def repeat(star, op, lam):
        return [shooting_defect(star, lam, op) for _ in range(5)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            futures = [pool.submit(repeat, *case) for case in cases]
            got = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert got == [[w] * 5 for w in want]


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_rhs_matches_exact_formula_oracle(which, request):
    # the collocation reads r P, r^2 Q and W from the quadratic form of the
    # second variation; the oracle evaluates alpha1, alpha2 and U by the
    # retired formulas, each on a cubic spline of (rho, m/r^3).  The radial right-hand side -P h' + (Q - lam W) h built from
    # each is compared, relative to the sum of the magnitudes of its terms.
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    op = _RadialOperator(star)
    oracle = NdarrayRowRhs(star)
    R, r = star.R, star.r
    rng = np.random.default_rng(31)

    def gaps(radii):
        radii = np.asarray(radii)
        rP, r2Q, W = op.coefficients(radii)
        out = []
        for k, (rad, p, q, w) in enumerate(zip(radii.tolist(), rP.tolist(), r2Q.tolist(),
                                               W.tolist())):
            lam = (2.0 + k % 9) ** 2 / R**2
            h, hp = rng.uniform(-1.0, 1.0) * rad, rng.uniform(-2.0, 2.0)
            alpha1, alpha2, U = oracle.coefficients_at(rad)
            got = (q * h / rad - p * hp) / rad - lam * w * h
            want = oracle(rad, np.array([h, hp]), lam)[1]
            out.append(abs(got - want) * alpha2 / (abs(alpha1 * hp) + abs(U * h) + abs(lam * h)))
        return np.array(out)

    between = [
        *(R * np.exp(rng.uniform(math.log(1e-4), 0.0, 48))).tolist(),  # dense near the centre
        *rng.uniform(1e-4 * R, R, 48).tolist(),
        float(0.5 * r[1]),                    # interval 0, [0, r_1]
        float(0.5 * (r[-2] + r[-1])),         # the last interval
        float(np.nextafter(r[-2], 0.0)),      # just below it
    ]
    assert np.max(gaps(between)) <= 1e-13
    assert np.max(gaps(r[1:])) <= 1e-15       # every knot, the surface last


def test_centre_potential_closed_form(star_r005, star_r019_shooting):
    # E = (rP - r^2 Q)/s is 0/0 at the centre.  Its regular form, with q/r
    # and q' written out, gives the centre value the operator uses, and away
    # from the centre it equals the quotient of the operator's coefficients
    for star in (star_r005, star_r019_shooting):
        op = _RadialOperator(star)
        R, r, rho, mor3 = star.R, star.r, star.rho, star.m_over_r3
        n2, D, q = metric_terms(r, rho, mor3)
        q_over_r = (mor3 + FOUR_PI * (rho - 1.0)) / D
        # q' by the quotient rule on q = N/D, with rho' = -n^2 q
        N = mor3 * r + FOUR_PI * r * (rho - 1.0)
        N_prime = FOUR_PI * rho - 2.0 * mor3 + FOUR_PI * (rho - 1.0) - FOUR_PI * r * n2 * q
        D_prime = -2.0 * FOUR_PI * r * rho + 2.0 * mor3 * r
        q_prime = (N_prime * D - N * D_prime) / (D * D)
        E = R * R * (-q_over_r + (FOUR_PI * rho - mor3) / D + 2.0 * q * q
                     + (2.0 * mor3 + 2.0 * FOUR_PI * n2) / D - FOUR_PI * r * n2 * q / D - q_prime)
        assert E[0] == pytest.approx(op.E_centre, rel=1e-14)
        s = (r / R) ** 2
        far = s >= 1e-3
        rP, r2Q, _ = op.coefficients(r[far])
        # the quotient loses digits like 1/s: measured worst 9.1e-12 (R = 0.05)
        assert np.max(np.abs((rP - r2Q) / s[far] - E[far]) / np.abs(E[far])) <= 2e-11


@pytest.mark.parametrize("which", ["star_r002", "star_r01", "star_r019_shooting",
                                   "star_r0247_shooting"])
def test_node_count_resolves_the_requested_modes(which, request):
    # the x_j find_modes takes for count modes move by at most 1e-11 when
    # the eigenvalue solve runs on half as many intervals again, and each
    # regular solve, on the intervals its own sqrt(lambda max W) R asks
    # for, has its zero that close to x_j (slope about 0.5: the defect
    # stays below 1e-11; measured worst 8.1e-13 over 12 modes, and 1.7e-10
    # for mode 12 at R = 0.247 when N was taken from sqrt(lambda) R alone)
    star = request.getfixturevalue(which)
    op = _RadialOperator(star)
    for count in range(1, 13):
        N = _node_count(math.pi * count)
        x = np.sqrt(op.eigenvalues(N)[:count].real)
        x_fine = np.sqrt(op.eigenvalues(3 * N // 2)[:count].real)
        assert np.max(np.abs(x - x_fine)) <= 1e-11, count
    assert max(abs(m.defect) for m in find_modes(star, 12)) <= 1e-11


def test_find_modes_refuses_an_unresolved_solution(star_r005, monkeypatch):
    # on 8 intervals the eigenvalue solve still returns real x^2, but the
    # regular solve's Chebyshev tail shows mode 2 is unresolved (3.4e-5 of
    # the largest coefficient; 14 intervals resolve modes 1-3)
    monkeypatch.setattr(modes, "_node_count", lambda x: 8)
    with pytest.raises(ConvergenceError,
                       match=r"mode 2: regular solution .* unresolved on 8 Chebyshev intervals"):
        find_modes(star_r005, n_modes=3)


def _fail_solves(monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)


def test_failed_defect_is_nan(star_r005, monkeypatch):
    lam = 1.5e3
    assert math.isfinite(shooting_defect(star_r005, lam))
    for bad in (math.nan, math.inf):
        assert math.isnan(shooting_defect(star_r005, bad))
    _fail_solves(monkeypatch)
    assert math.isnan(shooting_defect(star_r005, lam))


def test_failed_eigenfunction_integration_raises(star_r005, monkeypatch):
    lam = 1.5e3
    assert np.all(np.isfinite(eigenfunction(star_r005, lam)))
    _fail_solves(monkeypatch)
    with pytest.raises(ConvergenceError, match="regular solution at lam = 1500.0: Singular"):
        eigenfunction(star_r005, lam)


def test_find_modes_integrates_once_per_trial(star_r005, modes_r005, monkeypatch):
    # the collocation eigenvalues are the only trials, and no ODE solver
    # runs at all: each Mode.h comes from its own eigenvalue's regular solve
    def refuse(*args, **kwargs):
        raise AssertionError("an ODE solver ran")

    assert not hasattr(modes, "solve_ivp")
    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    monkeypatch.setattr(scipy.integrate, "odeint", refuse)
    got = find_modes(star_r005, n_modes=3)
    for m, want in zip(got, modes_r005):
        assert np.array_equal(m.h, want.h)
        assert np.array_equal(m.h, eigenfunction(star_r005, m.eigenvalue))


def test_find_modes_evaluates_each_defect_once(star_r005, modes_r005, monkeypatch):
    # one regular solve per mode, at its eigenvalue; Mode.defect is that
    # solve's, the value shooting_defect gives
    lams = []
    real = _RadialOperator.regular

    def counted(self, lam):
        lams.append(lam)
        return real(self, lam)

    monkeypatch.setattr(_RadialOperator, "regular", counted)
    got = find_modes(star_r005, n_modes=3)
    assert lams == [m.eigenvalue for m in got]
    for m, want in zip(got, modes_r005):
        assert (m.x, m.eigenvalue, m.defect) == (want.x, want.eigenvalue, want.defect)
        assert m.defect == shooting_defect(star_r005, m.eigenvalue)


def _no_regular_solve(monkeypatch):
    def refuse(*args):
        raise AssertionError("solved at a trial eigenvalue")

    monkeypatch.setattr(_RadialOperator, "regular", refuse)


def test_find_modes_refuses_negative_discrete_eigenvalue(monkeypatch):
    # the lowest eigenvalue of this detuned star is negative
    # (lambda_1 = -38.1), so x = sqrt(lambda) R does not exist: this must
    # raise before any regular solve
    star = detuned_profile(build_star(StarParameters(R=0.2, grid_n=801), solver="shooting"), 2.0)
    _no_regular_solve(monkeypatch)
    with pytest.raises(ConvergenceError,
                       match=r"mode 1: eigenvalue lambda = -38\.\d+ .* not positive"):
        find_modes(star, 1)


@pytest.mark.parametrize("x2, message", [
    (0.0, "not positive and finite"),
    (math.inf, "not positive and finite"),
    (math.nan, "not positive and finite"),
    (complex(4.4, 1e-6), "complex beyond rounding"),
], ids=["0.0", "inf", "nan", "complex"])
def test_find_modes_refuses_degenerate_eigenvalue(star_r005, monkeypatch, x2, message):
    # a degenerate eigenvalue is refused before any regular solve
    monkeypatch.setattr(_RadialOperator, "eigenvalues",
                        lambda self, N: np.array([x2, 35.0], dtype=complex))
    _no_regular_solve(monkeypatch)
    with pytest.raises(ConvergenceError, match=f"mode 1: eigenvalue .* {message}"):
        find_modes(star_r005, n_modes=1)


def test_shooting_star_modes_pinned(star_r019_shooting):
    # R=0.19 lies beyond the picard regime; values from the window scan
    got = find_modes(star_r019_shooting, n_modes=3)
    want = (2.1023465029875608, 5.213018177293235, 8.041635421167658)
    for j, (m, w) in enumerate(zip(got, want)):
        assert m.x == pytest.approx(w, abs=1e-9)
        assert abs(m.defect) <= 1e-10
        # Sturm ordering: mode j has j - 1 interior nodes
        h = m.h[1:]
        assert int(np.sum(h[:-1] * h[1:] < 0.0)) == j


def test_defect_extreme_argument_is_finite(star_r005):
    val = shooting_defect(star_r005, 1e9)
    assert math.isfinite(val)
    assert abs(val) <= 1e30


def test_second_derivative_convergence():
    errs = []
    for n in (41, 81):
        x = np.linspace(0.0, 1.0, n)
        got = second_derivative_uniform(np.sin(3.0 * x), x[1] - x[0])
        errs.append(np.max(np.abs(got + 9.0 * np.sin(3.0 * x))))
    assert 3.0 <= errs[0] / errs[1] <= 5.5


# -------------------------------------------- local reads against the spline


@pytest.fixture(scope="module")
def star_r024_shooting():
    return build_star(StarParameters(R=0.24, grid_n=2001), solver="shooting")


@pytest.fixture(scope="module")
def star_r0247_grid2001():
    return build_star(StarParameters(R=0.247, grid_n=2001), solver="shooting")


ORACLE_STARS = ["star_r002", "star_r005", "star_r01", "star_r019_shooting",
                "star_r024_shooting", "star_r0247_grid2001"]


def test_modes_import_no_interpolator():
    assert not any(getattr(v, "__module__", "").startswith("scipy.interpolate")
                   for v in vars(modes).values())


@pytest.mark.parametrize("which", ORACLE_STARS)
def test_operator_matches_spline_oracle(which, request):
    # the operator reads rho and m/r^3 from four profile samples; the
    # retired operator read them from one cubic spline over every knot.
    # Measured worst over the six stars (grid 2001): coefficients 3.9e-14
    # of their largest value at the nodes, 4.0e-14 relative next to the
    # centre and the surface (R = 0.247, where rho falls steepest), x_j
    # 5.7e-14 relative and Mode.h 1.1e-13 of its peak (modes 1-5)
    star = request.getfixturevalue(which)
    op, oracle = _RadialOperator(star), SplineOperator(star)
    R, dr = star.R, star.dr
    for N in (24, 40, 64):
        r = R * chebyshev_nodes(N)[0]
        for got, want in zip(op.coefficients(r), oracle.coefficients(r)):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), N
    edges = np.array([1e-3 * dr, 0.5 * dr, 1.5 * dr, 2.5 * dr,
                      R - 2.5 * dr, R - 1.5 * dr, R - 0.5 * dr, np.nextafter(R, 0.0)])
    for got, want in zip(op.coefficients(edges), oracle.coefficients(edges)):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13
    for m, (x, h) in zip(find_modes(star, 5), spline_modes(star, 5)):
        assert abs(m.x - x) <= 1.5e-13 * x
        assert np.max(np.abs(m.h - h)) <= 3e-13 * np.max(np.abs(h))


def test_operator_splitting_relative_size(star_r005, star_r01):
    # fixed-shape data: the stellar correction loses two powers of R
    # against the flat operator
    svals = {}
    for star in (star_r005, star_r01):
        y = star.r / star.R
        h = star.R * y * (1.0 - y**2) ** 2
        sl = slice(8, -2)
        svals[star.R] = np.max(np.abs(apply_H1(star, h)[sl])) / np.max(
            np.abs(apply_H0(star, h)[sl])
        )
    assert svals[0.05] <= 0.05
    ratio = svals[0.1] / svals[0.05]
    assert 3.0 <= ratio <= 5.5


# ----------------------------------------------------------- evolution bridge


def test_mode_initial_data_layout(star_r005, modes_r005):
    co = assemble_coefficients(star_r005, n_chi=301)
    u0, v0 = mode_to_initial_data(co, modes_r005[0], amplitude=1e-5)
    assert u0.shape == (301,)
    assert u0[0] == 0.0
    assert np.all(v0 == 0.0)
    scale = np.max(np.abs(u0)) / np.max(np.abs(modes_r005[0].h))
    assert scale == pytest.approx(1e-5, rel=1e-3)


def test_initial_data_refinement_matches_discrete_operator(star_r005, modes_r005):
    from hardstars.evolution import acceleration

    co = assemble_coefficients(star_r005, n_chi=301)
    mode = modes_r005[0]
    u_raw, _ = mode_to_initial_data(co, mode, refine=False)
    u_ref, _ = mode_to_initial_data(co, mode)
    lam = mode.eigenvalue
    amp = np.max(np.abs(u_raw))

    def defect(u):
        return np.max(np.abs(-acceleration(co, u) - lam * u)[1:]) / (lam * amp)

    raw, ref = defect(u_raw), defect(u_ref)
    # pointwise sampling leaves an O(1) stencil defect at the first node
    assert raw > 0.5
    assert ref < 0.02
    assert ref < raw / 100.0
    # projection only reshapes the centre; bulk and amplitude survive
    shift = np.abs(u_ref - u_raw) / amp
    assert np.argmax(shift) <= 3
    assert np.max(shift[co.chi >= 0.05 * co.B]) < 0.02
    assert u_ref[0] == 0.0
    assert np.max(np.abs(u_ref)) == pytest.approx(amp, rel=1e-10)


def test_estimate_period_synthetic():
    t = np.linspace(0.0, 10.0, 4001)
    y = np.sin(2.0 * math.pi * t / 1.7 + 0.3)
    assert estimate_period(t, y) == pytest.approx(1.7, rel=1e-6)
    with pytest.raises(ConvergenceError, match="two upward zero crossings"):
        estimate_period(t, t + 1.0)


def test_period_from_evolution_matches_eigenvalue(star_r005, modes_r005):
    m = modes_r005[0]
    co = assemble_coefficients(star_r005, n_chi=501)
    u0, v0 = mode_to_initial_data(co, m, amplitude=1e-6)
    res = evolve(co, u0, v0, T=3.0 * m.period, cfl=0.3, samples=150)
    measured = estimate_period(res.times, res.surface)
    assert measured == pytest.approx(m.period, rel=5e-3)


def test_period_discretisation_first_order(star_r005, modes_r005):
    # the centre closure shifts the discrete frequency at first order in
    # the shell spacing; the shift must halve when the grid doubles
    m = modes_r005[0]
    periods = []
    for n in (251, 501, 1001):
        co = assemble_coefficients(star_r005, n_chi=n)
        u0, v0 = mode_to_initial_data(co, m, amplitude=1e-6)
        res = evolve(co, u0, v0, T=3.0 * m.period, cfl=0.3, samples=150)
        periods.append(estimate_period(res.times, res.surface))
    d1 = abs(periods[0] - periods[1])
    d2 = abs(periods[1] - periods[2])
    assert 1.5 <= d1 / d2 <= 2.7
    errs = [abs(p - m.period) / m.period for p in periods]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] <= 1e-3


@pytest.mark.parametrize("which", ORACLE_STARS)
def test_initial_data_matches_spline_oracle(which, request):
    # mode_to_initial_data sums the mode's series at r0; the retired path
    # sampled a cubic spline of Mode.h.  The gap is the spline's own error
    # (modes 1-3, n_chi 500 and 2000; measured worst 3.4e-12 sampled and
    # 5.3e-12 refined, of the peak)
    star = request.getfixturevalue(which)
    found = find_modes(star, 3)
    for n_chi in (500, 2000):
        co = assemble_coefficients(star, n_chi=n_chi)
        for m in found:
            for refine, bound in ((False, 1e-11), (True, 1.5e-11)):
                got = mode_to_initial_data(co, m, refine=refine)[0]
                want = spline_initial_data(co, m, refine=refine)
                assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), (n_chi, refine)


def test_spline_oracle_gap_is_its_interpolation_error():
    # the spline of Mode.h errs at fourth order in the profile spacing while
    # the series is exact at any radius: the gap of mode 3 falls 29x from
    # grid 1001 to 2001 (measured)
    gaps = []
    for grid_n in (1001, 2001):
        star = build_star(StarParameters(R=0.05, grid_n=grid_n))
        m = find_modes(star, 3)[2]
        co = assemble_coefficients(star, n_chi=500)
        got = mode_to_initial_data(co, m, refine=False)[0]
        want = spline_initial_data(co, m, refine=False)
        gaps.append(np.max(np.abs(got - want)) / np.max(np.abs(want)))
    assert gaps[0] / gaps[1] >= 10.0


def test_initial_data_refuses_another_stars_mode(star_r005, star_r01, modes_r005):
    # a mode seeds wave data only of its own star; an R = 0.05 mode sampled
    # on R = 0.1 coefficients would give finite, wrong data
    with pytest.raises(DomainError, match=r"R = 0\.05 star .* R = 0\.1 star"):
        mode_to_initial_data(assemble_coefficients(star_r01, n_chi=301), modes_r005[0])
    # the same star on another profile grid is the same star: the series is
    # summed at its radii (measured gap 2.4e-12 of the peak against the
    # coarse star's own mode)
    coarse = build_star(StarParameters(R=0.05, grid_n=801))
    co = assemble_coefficients(coarse, n_chi=301)
    got = mode_to_initial_data(co, modes_r005[0], amplitude=1e-5)[0]
    own = mode_to_initial_data(co, find_modes(coarse, 1)[0], amplitude=1e-5)[0]
    assert np.max(np.abs(got - own)) <= 1e-10 * np.max(np.abs(own))


def test_operator_and_initial_data_peak_memory():
    # neither the operator nor the initial data builds anything over every
    # profile knot.  Traced peaks at grid 4001, n_chi 2000: 189 KB for the
    # operator with its 24-interval matrices and 145 KB for refined initial
    # data, against 976 KB and 537 KB when both splined the profile grid
    # (the reads that tests/spline_oracle.py keeps)
    star = build_star(StarParameters(R=0.05, grid_n=4001))
    mode = find_modes(star, 1)[0]
    co = assemble_coefficients(star, n_chi=2000)
    cases = (("operator", lambda: _RadialOperator(star).collocation(24), 400),
             ("initial data", lambda: mode_to_initial_data(co, mode), 300))
    for name, build, bound_kb in cases:
        build()
        gc.collect()
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound_kb * 1024, name
