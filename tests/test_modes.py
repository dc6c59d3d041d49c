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
from hardstars.errors import ConvergenceError
from hardstars.evolution import assemble_coefficients, evolve
from hardstars.modes import (
    X1_LIMIT,
    _RadialOperator,
    apply_H,
    apply_H0,
    apply_H1,
    dispersion_function,
    dispersion_roots,
    eigenfunction,
    estimate_period,
    find_modes,
    mode_to_initial_data,
    shooting_defect,
    spherical_j1,
)
from hardstars.numerics import scan_sign_changes
from hardstars.variation import detuned_profile
from shooting_oracle import (
    NdarrayRowRhs,
    dop853_ivp_eigenfunction,
    rk45_defect,
    rk45_eigenfunction,
)

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
    """Reference mode locator by dispersion-window scans, independent of the
    discrete spectrum that seeds ``find_modes``.

    Each small-star dispersion root seeds a window of half-width ``window``
    in x; the shooting defect is sign-scanned there and the crossing closest
    to the seed is refined.  An empty window, or spacings off the organ-pipe
    spacing pi by more than half, triggers a quarter-step rescan.
    """
    op = _RadialOperator(profile)
    R = profile.R
    seeds = dispersion_roots(n_modes, R)

    def defect_at_x(x):
        return shooting_defect(profile, (x / R) ** 2, op)

    def refine(lo, hi):
        return brentq(defect_at_x, lo, hi, xtol=1e-12, rtol=8.9e-16)

    def collect(lo, hi, step):
        return scan_sign_changes(defect_at_x, np.arange(lo, hi, step))

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


# ----------------------------------------------------------- special function


def test_j1_matches_reference():
    x = np.concatenate(
        [
            np.linspace(1e-8, 0.499, 40),
            np.linspace(0.5, 20.0, 200),
        ]
    )
    ref = spherical_jn(1, x)
    mine = spherical_j1(x)
    assert np.max(np.abs(mine - ref)) <= 1e-15


def test_j1_series_branch_continuity():
    # values just below and above the series switchover agree to roundoff
    lo = spherical_j1(0.5 - 1e-12)
    hi = spherical_j1(0.5 + 1e-12)
    assert abs(lo - hi) <= 1e-12


def test_j1_recurrence_identity():
    # x j1' + 2 j1 = sin x, the identity behind the boundary reduction
    x = np.linspace(0.3, 12.0, 120)
    j1p = spherical_jn(1, x, derivative=True)
    gap = x * j1p + 2.0 * spherical_j1(x) - np.sin(x)
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


# ------------------------------------------------------------------ shooting


def test_find_modes_pinned(modes_r005):
    got = [m.x for m in modes_r005]
    want = (2.0997258306221, 5.9026687206812, 9.1433020097446)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=5e-8)
    assert all(abs(m.defect) <= 1e-12 for m in modes_r005)
    assert not any(m.rescanned for m in modes_r005)
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
    flat = 3.0 * star_r005.R / m.x * spherical_j1(m.x * star_r005.r / star_r005.R)
    rel = np.max(np.abs(m.h - flat)) / np.max(np.abs(m.h))
    assert rel <= 0.03


def test_eigenfunction_center_normalisation(star_r005, modes_r005):
    m = modes_r005[0]
    assert m.h[0] == 0.0
    assert m.h[1] / star_r005.r[1] == pytest.approx(1.0, abs=1e-6)


def test_eigenfunction_on_nodes_inside_the_series_start():
    # at grid_n 20001 the first node r = 5e-5 R lies inside the series start
    # 1e-4 R; it is read from the first step's dense output (solve_ivp's
    # t_eval refused such nodes with a ValueError)
    star = build_star(StarParameters(R=0.05, grid_n=20001))
    assert star.r[1] < 1e-4 * star.R
    m = find_modes(star, n_modes=1)[0]
    assert m.h[1] / star.r[1] == pytest.approx(1.0, abs=1e-6)
    flat = 3.0 * star.R / m.x * spherical_j1(m.x * star.r / star.R)
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
    # RK45 at rtol 1e-12 is good to about 1e-12 in the defect (it moves by
    # 1e-12 against rtol 1e-13).  Measured worst gaps over modes 1-3 of both
    # stars: defect 1.8e-11, located x 4.7e-11, eigenfunction 2.8e-10 of its
    # peak against the RK45 rtol 1e-10 dense output the modes used before.
    # The oracle integrates the exact-formula right-hand side, not the table.
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    found = request.getfixturevalue(f"modes_{which}")
    op = _RadialOperator(star)
    R = star.R
    for m in found:
        for lam in (m.eigenvalue, 0.98 * m.eigenvalue, 1.02 * m.eigenvalue):
            assert shooting_defect(star, lam, op) == pytest.approx(
                rk45_defect(star, op, lam), abs=5e-11)
        dx = 1e-6
        slope = (shooting_defect(star, ((m.x + dx) / R) ** 2, op)
                 - shooting_defect(star, ((m.x - dx) / R) ** 2, op)) / (2.0 * dx)
        # one Newton step on the oracle's defect from the located x
        assert abs(rk45_defect(star, op, m.eigenvalue) / slope) <= 1e-10
        h_rk45 = rk45_eigenfunction(star, m.eigenvalue)
        assert np.max(np.abs(m.h - h_rk45)) <= 1e-9 * np.max(np.abs(m.h))


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_eigenfunction_is_the_located_run(which, request):
    # find_modes reads Mode.h from the root's own integration; a standalone
    # eigenfunction repeats that integration step for step
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    op = _RadialOperator(star)
    for m in request.getfixturevalue(f"modes_{which}"):
        assert np.array_equal(eigenfunction(star, m.eigenvalue, op), m.h)
        assert np.array_equal(eigenfunction(star, m.eigenvalue), m.h)


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_dense_output_matches_solve_ivp_oracle(which, request):
    # the compiled run's dense output against solve_ivp's DOP853 dense
    # output at the same tolerances, the path eigenfunction took before;
    # the two step sequences differ, so they agree only as far as both are
    # accurate (measured worst gap 3.9e-10 of the peak over both stars)
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    op = _RadialOperator(star)
    for m in request.getfixturevalue(f"modes_{which}"):
        for lam in (m.eigenvalue, 0.97 * m.eigenvalue):
            h = eigenfunction(star, lam, op)
            h_ivp = dop853_ivp_eigenfunction(star, lam)
            assert np.max(np.abs(h - h_ivp)) <= 1e-9 * np.max(np.abs(h_ivp))


def test_shooting_defect_retains_no_memory_per_call(star_r005):
    # scipy's dop853 runner keeps references on every integration; the
    # shared integrator and the cut forwarders (right-hand side and step
    # recorder) keep that from growing with the number of calls (a fresh
    # integrator per call retains about 1.1 KB), for the defect and for the
    # eigenfunction alike.  A small lam keeps the traced integrations short.
    op = _RadialOperator(star_r005)
    lam = 1.0
    calls = 200
    for integrate in (shooting_defect, eigenfunction):
        integrate(star_r005, lam, op)
        # only what is allocated after start() is traced, so no collection
        # is needed before it (and one there triples the traced run time)
        tracemalloc.start()
        try:
            for _ in range(calls):
                integrate(star_r005, lam, op)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained / calls < 512, integrate.__name__


def test_shooting_defect_is_thread_safe(star_r005, star_r01):
    # the cached integrators and the forwarder they call are shared by every
    # thread; two radii give two integrators, two eigenvalues share each
    cases = [(star, _RadialOperator(star), lam)
             for star, lams in ((star_r005, (1.0e3, 1.4e4)), (star_r01, (500.0, 3.5e3)))
             for lam in lams]
    want = [shooting_defect(star, lam, op) for star, op, lam in cases]

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


def test_rhs_reads_the_vectorised_table(star_r005):
    # each right-hand-side call reads one row of the table in Python floats;
    # the dense output and apply_H read the same rows on arrays.  The three
    # probes give -P, Q and Q - 1e30 W (W dominates by over 1e18).
    op = _RadialOperator(star_r005)
    R = star_r005.R
    rng = np.random.default_rng(29)
    radii = np.concatenate([
        R * np.exp(rng.uniform(math.log(1e-4), 0.0, 50)),  # dense near the centre
        rng.uniform(1e-4 * R, R, 48),
        [star_r005.r[1000], R],                             # a knot and the surface
    ])
    rP, r2Q, W = op.coefficients(radii)
    P, Q = rP / radii, r2Q / radii**2
    for (h, hp), lam in (((0.0, 1.0), 0.0), ((1.0, 0.0), 0.0), ((1.0, 0.0), 1e30)):
        want = -P * hp + (Q - lam * W) * h
        got = np.array([op.rhs(r, np.array([h, hp]), lam)[1] for r in radii.tolist()])
        assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want)), (h, hp, lam)


@pytest.mark.parametrize("which", ["r005", "r019"])
def test_rhs_matches_exact_formula_oracle(which, request):
    # the table interpolates r P, r^2 Q and W between the profile knots; the
    # oracle evaluates alpha1, alpha2 and U by their formulas at every call.
    # Gaps are relative to the sum of the magnitudes of the terms.  Measured
    # worst: 3.9e-14 over 400 radii between the knots of each star, and
    # 4.1e-16 at the knots, where the table holds the formulas' values (a
    # table read one interval off misses them by 1.5e-15 at R = 0.05 and
    # 2.1e-13 at R = 0.19).
    star = request.getfixturevalue({"r005": "star_r005", "r019": "star_r019_shooting"}[which])
    op = _RadialOperator(star)
    oracle = NdarrayRowRhs(star)
    R, r = star.R, star.r
    rng = np.random.default_rng(31)

    def gap(k, rad):
        lam = (2.0 + k % 9) ** 2 / R**2
        h, hp = rng.uniform(-1.0, 1.0) * rad, rng.uniform(-2.0, 2.0)
        y = np.array([h, hp])
        alpha1, alpha2, U = oracle.coefficients_at(rad)
        got, want = op.rhs(rad, y, lam), oracle(rad, y, lam)
        assert got[0] == want[0]
        return abs(got[1] - want[1]) * alpha2 / (abs(alpha1 * hp) + abs(U * h) + abs(lam * h))

    between = [
        *(R * np.exp(rng.uniform(math.log(1e-4), 0.0, 48))).tolist(),  # dense near the centre
        *rng.uniform(1e-4 * R, R, 48).tolist(),
        float(0.5 * r[1]),                    # interval 0, [0, r_1]
        float(0.5 * (r[-2] + r[-1])),         # the last interval
        float(np.nextafter(r[-2], 0.0)),      # just below it
    ]
    for k, rad in enumerate(between):
        assert gap(k, rad) <= 1e-13, rad
    for k, rad in enumerate(r[1:].tolist()):  # every knot, the surface last
        assert gap(k, rad) <= 1e-15, rad


class _FailsWhere:
    """Stand-in for a cached ``dop853`` integrator that runs the real one but
    reports failure for the trial eigenvalues ``fails(lam)`` selects.  It
    reads lam from the right-hand side the integrator is about to call,
    where ``modes`` binds it, and logs each integration's lam."""

    def __init__(self, solver, fails, log):
        self.solver = solver
        self.fails = fails
        self.log = log
        self.lam = None

    def set_initial_value(self, y, t):
        self.solver.set_initial_value(y, t)
        return self

    def integrate(self, t):
        self.lam = modes._DEFECT_RHS.fn.keywords["lam"]
        self.log.append(self.lam)
        return self.solver.integrate(t)

    def successful(self):
        return self.solver.successful() and not self.fails(self.lam)


def _fail_defects(monkeypatch, fails):
    """Make the compiled integrations at the lam ``fails`` selects report
    failure; returns the list of every integration's lam."""
    real = modes._dop853
    log = []
    monkeypatch.setattr(modes, "_dop853", lambda atol: _FailsWhere(real(atol), fails, log))
    return log


def test_find_modes_rejects_sentinel_bracket(star_r005, monkeypatch):
    # integration "fails" above x = 5.6, between modes 1 and 2, where the
    # defect just below is negative: the jump from there to NaN is not a
    # sign change, so mode 2 has no bracket
    R = star_r005.R
    lam_fail = (5.6 / R) ** 2
    assert shooting_defect(star_r005, 0.999 * lam_fail) < 0.0
    _fail_defects(monkeypatch, lambda lam: lam > lam_fail)
    with pytest.raises(ConvergenceError, match="mode 2: no sign change"):
        find_modes(star_r005, n_modes=2)


def test_failed_defect_is_nan(star_r005, monkeypatch):
    lam = 1.5e3
    assert math.isfinite(shooting_defect(star_r005, lam))
    _fail_defects(monkeypatch, lambda trial: True)
    assert math.isnan(shooting_defect(star_r005, lam))


def test_failed_eigenfunction_integration_raises(star_r005, monkeypatch):
    lam = 1.5e3
    assert np.all(np.isfinite(eigenfunction(star_r005, lam)))
    log = _fail_defects(monkeypatch, lambda trial: trial == lam)
    with pytest.raises(ConvergenceError, match="eigenfunction integration failed"):
        eigenfunction(star_r005, lam)
    assert log == [lam]


def test_nan_inside_bracket_raises(star_r005, modes_r005, monkeypatch):
    # the bracket ends are fine, but the defect fails within 1e-6 of the
    # root, where brentq must evaluate it
    x1 = modes_r005[0].x
    R = star_r005.R
    lo, hi = ((x1 - 1e-6) / R) ** 2, ((x1 + 1e-6) / R) ** 2
    _fail_defects(monkeypatch, lambda lam: lo < lam < hi)
    with pytest.raises(ConvergenceError, match="mode 1: .*NaN"):
        find_modes(star_r005, n_modes=1)


def test_find_modes_widens_a_missed_bracket(star_r005, modes_r005, monkeypatch):
    # an estimate 0.05 off with a tiny grid shift: the first bracket holds
    # no sign change, and doubling its half-width must still reach the root
    monkeypatch.setattr(modes, "_discrete_x", lambda profile, count: ([2.15, 5.95], [1e-4, 1e-4]))
    got = find_modes(star_r005, n_modes=1)[0]
    assert got.rescanned
    assert got.x == pytest.approx(modes_r005[0].x, abs=1e-10)


def test_find_modes_evaluates_each_defect_once(star_r005, modes_r005, monkeypatch):
    # brentq starts from the two bracket ends _sign_bracket just shot, and
    # Mode.defect is brentq's converged value: none of them is shot again
    lams = []
    real = modes.shooting_defect

    def counted(profile, lam, operator=None):
        lams.append(lam)
        return real(profile, lam, operator)

    monkeypatch.setattr(modes, "shooting_defect", counted)
    got = find_modes(star_r005, n_modes=3)
    assert len(lams) == 20
    assert len(set(lams)) == len(lams)
    for m, want in zip(got, modes_r005):
        assert (m.x, m.eigenvalue, m.defect) == (want.x, want.eigenvalue, want.defect)
        assert m.defect == real(star_r005, m.eigenvalue)


def test_find_modes_integrates_once_per_trial(star_r005, modes_r005, monkeypatch):
    # the 20 defects are the only ODE solves: each Mode.h comes from the
    # dense output of its root's own integration
    def refuse(*args, **kwargs):
        raise AssertionError("a second ODE solver ran")

    assert not hasattr(modes, "solve_ivp")
    monkeypatch.setattr(scipy.integrate, "solve_ivp", refuse)
    monkeypatch.setattr(scipy.integrate, "odeint", refuse)
    log = _fail_defects(monkeypatch, lambda lam: False)
    got = find_modes(star_r005, n_modes=3)
    assert len(log) == 20
    assert len(set(log)) == 20
    assert all(m.eigenvalue in log for m in got)
    for m, want in zip(got, modes_r005):
        assert np.array_equal(m.h, want.h)


def _no_shooting(monkeypatch):
    def refuse(*args):
        raise AssertionError("shot a trial eigenvalue")

    monkeypatch.setattr(modes, "shooting_defect", refuse)


def test_find_modes_refuses_negative_discrete_eigenvalue(monkeypatch):
    # the lowest discrete eigenvalue of this detuned star is negative
    # (mu_1 = -47.6), so x = sqrt(mu) R is NaN, and a NaN bracket never
    # closes: this must raise before any shooting
    star = detuned_profile(build_star(StarParameters(R=0.2, grid_n=801), solver="shooting"), 2.0)
    _no_shooting(monkeypatch)
    with pytest.raises(ConvergenceError,
                       match=r"mode 1: discrete eigenvalue mu = -47\.\d+ .* not positive"):
        find_modes(star, 1)


@pytest.mark.parametrize("shift", [0.0, math.inf, math.nan])
def test_find_modes_refuses_degenerate_half_width(star_r005, monkeypatch, shift):
    monkeypatch.setattr(modes, "_discrete_x", lambda profile, count: ([2.1, 5.9], [shift, 1e-4]))
    _no_shooting(monkeypatch)
    with pytest.raises(ConvergenceError, match="mode 1: bracket half-width .* not positive"):
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
