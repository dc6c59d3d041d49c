"""Wave-equation assembly, energy behaviour, and linearized reconstruction."""

from __future__ import annotations

import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.linalg import eigh

from hardstars.background import (
    BackgroundProfile,
    StarParameters,
    _readonly,
    build_star,
    derive_metric_fields,
)
from hardstars import evolution
from hardstars.cli import EXIT_OK, main
from hardstars.errors import CflViolationError, ConvergenceError, DomainError, InstabilityError
from hardstars.evolution import (
    INSTABILITY_FACTOR,
    STRIDE,
    _chebyshev_band,
    _invert_chi,
    _sample_steps,
    _SampleForms,
    _WaveRun,
    acceleration,
    assemble_coefficients,
    cfl_timestep,
    constraint_residual,
    discrete_energy,
    energy_norms,
    evolve,
    gaussian_pulse,
    operator_eigenvalues,
    reconstruct,
    residual_norm,
)
from hardstars.modes import find_modes, mode_to_initial_data
from hardstars.numerics import lagrange_uniform
from hardstars.variation import second_variation
import assembly_oracle
import band_oracle
import diagnostics_oracle
from family_oracle import DeformedFamily

FOUR_PI = 4.0 * math.pi


def _flux_form_acceleration(coeffs, u):
    # the operator written out in flux form, independent of coeffs.bands
    dchi = coeffs.dchi
    D = coeffs.flux_half * np.diff(u) / dchi
    acc = np.empty_like(u)
    acc[0] = 0.0
    acc[1:-1] = (D[1:] - D[:-1]) / (dchi * coeffs.mass[1:-1]) + (
        coeffs.V[1:-1] / coeffs.mass[1:-1]
    ) * u[1:-1]
    acc[-1] = (2.0 / (dchi * coeffs.mass[-1])) * (
        coeffs.flux_surface * coeffs.alpha * u[-1] - D[-1]
    ) + (coeffs.V[-1] / coeffs.mass[-1]) * u[-1]
    return acc


def _reference_evolve(coeffs, u0, v0, T, cfl=0.4, samples=200):
    """Velocity Verlet as a plain per-step loop on the flux-form operator;
    the oracle for ``evolve``.  Returns (u, v, surface, energies, n_steps)."""
    dt_cfl = cfl_timestep(coeffs, cfl)
    n_steps = max(1, math.ceil(T / dt_cfl))
    dt = T / n_steps
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    u[0] = 0.0
    v[0] = 0.0
    stride = max(1, n_steps // max(1, samples))
    energies = [discrete_energy(coeffs, u, v)]
    surface = [u[-1]]
    a = _flux_form_acceleration(coeffs, u)
    for step in range(1, n_steps + 1):
        v += 0.5 * dt * a
        u += dt * v
        u[0] = 0.0
        a = _flux_form_acceleration(coeffs, u)
        v += 0.5 * dt * a
        v[0] = 0.0
        if step % stride == 0 or step == n_steps:
            energies.append(discrete_energy(coeffs, u, v))
            surface.append(u[-1])
    return u, v, np.array(surface), np.array(energies), n_steps


def _kick_drift_evolve(coeffs, u0, v0, T, cfl=0.4, samples=200):
    """Kick-drift Verlet one fused step at a time on the dt^2-scaled bands,
    as ``evolve`` ran before its Chebyshev strides; the oracle for them.
    Raises ``InstabilityError`` at the same samples as ``evolve``.
    Returns (u, v, surface, energies)."""
    dt_cfl = cfl_timestep(coeffs, cfl)
    n_steps = max(1, math.ceil(T / dt_cfl))
    dt = T / n_steps
    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    u[0] = 0.0
    v[0] = 0.0
    e0 = discrete_energy(coeffs, u, v)
    energies = [e0]
    surface = [u[-1]]
    dt2 = dt * dt
    scaled = dt2 * coeffs.bands
    up, diag, low = scaled[0, 1:], scaled[1], scaled[2, :-1]
    kick = np.empty_like(u)
    part = np.empty(len(u) - 1)
    w = dt * v + 0.5 * dt2 * acceleration(coeffs, u)
    every = max(1, n_steps // max(1, samples))
    for step in range(1, n_steps + 1):
        np.add(u, w, out=u)
        np.multiply(diag, u, out=kick)
        np.multiply(low, u[:-1], out=part)
        np.add(kick[1:], part, out=kick[1:])
        np.multiply(up, u[1:], out=part)
        np.add(kick[:-1], part, out=kick[:-1])
        np.add(w, kick, out=w)
        if step % every == 0 or step == n_steps:
            v = (w - 0.5 * kick) / dt
            e = discrete_energy(coeffs, u, v)
            energies.append(e)
            surface.append(u[-1])
            if e0 > 0.0 and (not math.isfinite(e) or e > INSTABILITY_FACTOR * e0):
                raise InstabilityError("energy grew", step=step, energy_ratio=e / e0)
    return u, v, np.array(surface), np.array(energies)


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


@pytest.fixture(scope="module")
def co(star_r005):
    return assemble_coefficients(star_r005, n_chi=501)


@pytest.fixture(scope="module")
def flat_coeffs():
    # uniform-density configuration: every coefficient has a closed form
    R = 0.05
    gn = 1201
    r = np.linspace(0.0, R, gn)
    prof = BackgroundProfile(
        r=_readonly(r),
        rho=_readonly(np.ones(gn)),
        m_over_r3=_readonly(np.full(gn, FOUR_PI / 3.0)),
        provenance={"source": "uniform-density synthetic"},
    )
    return assemble_coefficients(derive_metric_fields(prof), n_chi=301)


# --------------------------------------------------------------- coefficients


def test_chi_map_inversion(star_r005, co):
    chi_sp = CubicSpline(star_r005.r, star_r005.chi)
    assert np.max(np.abs(chi_sp(co.r0) - co.chi)) <= 1e-12


def test_surface_and_grid_layout(star_r005, co):
    assert co.r0[0] == 0.0
    assert co.r0[-1] == star_r005.R
    assert np.all(np.diff(co.r0) > 0.0)
    assert co.B == pytest.approx(star_r005.N_total, rel=1e-14)
    assert co.cmax == pytest.approx(FOUR_PI * star_r005.R**2, rel=1e-14)
    assert co.alpha < 0.0


def test_surface_wave_speed_identity(star_r005, co):
    # flux/mass at the surface is the square of the top signal speed
    R = star_r005.R
    assert co.flux_surface / co.mass[-1] == pytest.approx(
        (FOUR_PI * R * R) ** 2, rel=1e-12
    )


def test_center_potential_scaling(co):
    # V ~ -2 mass / (n^2 r0^2) at the innermost shells
    vals = co.V[1:6] * co.r0[1:6] ** 2 * co.n2[1:6] / co.mass[1:6]
    assert np.all(np.abs(vals + 2.0) <= 60.0 * co.r0[1:6] ** 2)
    assert co.V[0] == 0.0


@pytest.mark.parametrize("R, positive", [(0.19, 0), (0.235, 224)])
def test_potential_sign_range(R, positive):
    # V < 0 on every node up to R about 0.208; beyond, an outer shell with
    # V > 0 that reaches the surface (at R = 0.235 it starts at r0 = 0.83 R)
    co = assemble_coefficients(build_star(StarParameters(R=R, grid_n=2001), solver="shooting"),
                               n_chi=500)
    V = co.V[1:]
    assert int(np.sum(V > 0.0)) == positive
    assert np.all(V[: V.size - positive] < 0.0)
    if positive:
        assert float(V.max()) == pytest.approx(22.7, abs=0.05)


def test_mass_weight_at_least_one(co):
    # the mass weight gamma n^3 e / sqrt(1 - 2m/r) is at least 1 inside the star
    assert np.all(co.mass >= 1.0)
    assert np.all(co.flux_half > 0.0)


def test_uniform_density_closed_forms(flat_coeffs):
    # rho = 1 is not a solved star, so gamma n e / sqrt(1 - 2m/r) is not
    # e^F = 1 / (1 - beta r^2) here: with I = -(3/4) ln(1 - beta r^2) and
    # gamma = (1 - beta R^2)^(-1/2), mass = (1 - beta R^2)^(1/4) (1 - beta r^2)^(-5/4)
    c = flat_coeffs
    beta = 8.0 * math.pi / 3.0
    R = c.profile.R

    def log_weight(r):
        return 0.25 * np.log(1.0 - beta * R * R) - 1.25 * np.log(1.0 - beta * r**2)

    assert np.max(np.abs(np.log(c.mass / c.n2) - log_weight(c.r0))) <= 1e-11
    flux_exact = 16.0 * math.pi**2 * c.r0_half**4 * np.exp(log_weight(c.r0_half))
    assert np.max(np.abs(c.flux_half / flux_exact - 1.0)) <= 1e-11


def test_uniform_density_potential_limit(flat_coeffs):
    # V n^2 / mass + 2/r0^2 approaches 44 pi / 3 quadratically at the centre
    c = flat_coeffs
    sel = (c.r0 > 0.0) & (c.r0 <= c.profile.R / 4.0)
    val = c.V[sel] * c.n2[sel] / c.mass[sel] + 2.0 / c.r0[sel] ** 2
    err = np.abs(val - 44.0 * math.pi / 3.0)
    assert np.all(err <= 60.0 * c.r0[sel] ** 2 + 1e-8)


def test_chi_inversion_at_small_radius(star_r002):
    # chi(R) from the spline rounds just below B here; the surface node
    # must still land on R and every other node on its root
    c = assemble_coefficients(star_r002, n_chi=1000)
    chi_sp = CubicSpline(star_r002.r, star_r002.chi)
    assert c.r0[-1] == star_r002.R
    assert np.all(np.diff(c.r0) > 0.0)
    assert np.max(np.abs(chi_sp(c.r0[:-1]) - c.chi[:-1])) <= 1e-12
    assert np.max(np.abs(chi_sp(c.r0_half) - (c.chi[:-1] + 0.5 * c.dchi))) <= 1e-12


@pytest.mark.parametrize("star", ["star_r002", "star_r005", "star_r01"])
def test_chi_inversion_stops_once_newton_converges(star, request, monkeypatch):
    # from the linear start every target converges in 3 Newton steps, and 2
    # are not enough; the roots are those of the cubic lagrange_uniform reads
    prof = request.getfixturevalue(star)
    targets = np.linspace(0.0, prof.N_total, 2000)
    monkeypatch.setattr(evolution, "CHI_NEWTON_MAX_STEPS", 3)
    r = _invert_chi(prof, targets)
    assert r[0] == 0.0 and r[-1] == prof.R
    local = lagrange_uniform(r[1:-1], prof.dr, prof.chi)[0]
    assert np.max(np.abs(local - targets[1:-1])) <= 1e-12
    monkeypatch.setattr(evolution, "CHI_NEWTON_MAX_STEPS", 2)
    with pytest.raises(ConvergenceError, match="chi inversion did not converge"):
        _invert_chi(prof, targets)


# the mass, flux and V of the quadratic form against the retired e^F
# formulas: e^F = gamma n e / sqrt(1 - 2m/r) on a solved star, up to the
# Simpson error of F against that of I, which is one factor over the whole
# star (measured worst 1.2e-12 at R = 0.1, grid 2001; the bands, ratios of
# those coefficients, 6.3e-13)
FORM_ORACLE_RTOL = 2e-12
# the radii and the fields read at them, against the oracle's spline reads:
# the four-point cubic and the spline differ by their O(dr^4) interpolation
# errors (measured worst, grid 2001 and R <= 0.1: radii 9.8e-15 R, rho0
# 4.4e-16, n2 8.9e-16, q 7.6e-15 and w 2.3e-15 of their largest value)
RADIUS_ORACLE_RTOL = 2e-14
FIELD_ORACLE_RTOL = 2e-14


@pytest.mark.parametrize("n_chi", [16, 501, 2000])
@pytest.mark.parametrize("star", ["star_r002", "star_r005", "star_r01"])
def test_assembly_matches_two_spline_oracle(star, n_chi, request):
    # one inversion pass over the nodes and the half nodes on the local cubic
    # of chi, and four-point reads of (rho, m/r^3, I - I(R)), reproduce the
    # two-spline assembly's radii and fields to the gap between the cubic and
    # the spline, its e^F coefficients to the Simpson gap, and the rest
    # (alpha, read at R itself, included) bit for bit
    prof = request.getfixturevalue(star)
    got = assemble_coefficients(prof, n_chi=n_chi)
    want = assembly_oracle.assemble_coefficients(prof, n_chi)
    formed = ("mass", "V", "flux_half", "flux_surface", "bands")
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name in formed:
            a, b = np.asarray(a), np.asarray(b)
            gap = np.abs(a - b)
            assert np.all(gap <= FORM_ORACLE_RTOL * np.abs(b)), f.name
        elif f.name in ("r0", "r0_half"):
            assert np.max(np.abs(a - b)) <= RADIUS_ORACLE_RTOL * prof.R, f.name
        elif f.name in ("rho0", "n2", "q", "w"):
            assert np.max(np.abs(a - b)) <= FIELD_ORACLE_RTOL * np.max(np.abs(b)), f.name
        elif isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


def test_evolve_cli_at_small_radius(tmp_path):
    assert main(["evolve", "--R", "0.02", "--T", "1", "--output-dir", str(tmp_path)]) == EXIT_OK


def test_coefficient_grid_too_small(star_r005):
    with pytest.raises(DomainError):
        assemble_coefficients(star_r005, n_chi=8)


def test_coefficient_grid_too_large_is_refused_before_allocating(star_r005):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="n_chi"):
            assemble_coefficients(star_r005, n_chi=evolution.MAX_N_CHI + 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_wave_and_mode_layers_load_no_interpolator():
    # neither layer builds a spline, so neither loads scipy.interpolate
    src = str(Path(evolution.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    script = ("import sys, hardstars.evolution, hardstars.modes; "
              "print(sorted(m for m in sys.modules if m.startswith('scipy.interpolate')))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ------------------------------------------------------------------- energy


@pytest.mark.parametrize("R, solver", [(0.02, "picard"), (0.1, "picard"), (0.2, "shooting")])
def test_wave_energy_is_gamma_times_second_variation(R, solver):
    # the wave operator is gamma = 1/sqrt(1 - 2M/R) times the Euler-Lagrange
    # operator of the second variation, so twice the static wave energy is
    # gamma times the second variation of the same displacement.  These
    # draws vanish at the surface, where alpha plays no part.  Measured gap
    # of 2P / (gamma M_ddot) - 1: 7.8e-7 to 8.0e-7 (k = 1), 3.6e-6 to 3.9e-6
    # (k = 2) and 8.5e-6 to 9.1e-6 (k = 3), the chi grid's O(k^2 dchi^2).
    # Quarter-wave draws sin((k - 1/2) pi chi / B) give -0.61, -0.54 and
    # -0.24 at k = 1 instead of 0: the surface coefficient alpha = q(R) - 2/R
    # is per unit r, applied per unit chi.
    star = build_star(StarParameters(R=R, grid_n=4001), solver=solver)
    c = assemble_coefficients(star, n_chi=2000)
    gamma = 1.0 / math.sqrt(1.0 - 2.0 * star.M_total / R)
    B = star.N_total
    for k in (1, 2, 3):
        u = np.sin(k * math.pi * c.chi / B)
        energy = discrete_energy(c, u, np.zeros_like(u))
        mass_hessian = second_variation(star, np.sin(k * math.pi * star.chi / B))
        assert abs(2.0 * energy / (gamma * mass_hessian) - 1.0) <= 1.25e-6 * k * k, k


def test_semi_discrete_energy_identity(co):
    # d/dt of the discrete energy vanishes identically for the spatial
    # operator, including the surface closure; checked on random states
    rng = np.random.default_rng(11)
    dchi = co.dchi
    wgt = np.full(co.n_chi, dchi)
    wgt[0] = 0.0
    wgt[-1] = 0.5 * dchi
    for _ in range(5):
        u = rng.standard_normal(co.n_chi)
        v = rng.standard_normal(co.n_chi)
        u[0] = 0.0
        v[0] = 0.0
        acc = acceleration(co, u)
        t1 = float(np.sum(co.mass * wgt * v * acc))
        t2 = float(np.sum(co.flux_half * np.diff(u) * np.diff(v))) / dchi
        t3 = -float(np.sum(co.V * wgt * u * v))
        t4 = -co.flux_surface * co.alpha * u[-1] * v[-1]
        scale = abs(t1) + abs(t2) + abs(t3) + abs(t4)
        assert abs(t1 + t2 + t3 + t4) <= 1e-13 * scale


_PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=40)


def _random_coefficients(base, rng):
    # positive mass and fluxes, V < 0 and alpha < 0 spread over 2.6 decades
    n = base.n_chi

    def spread(size=None):
        return np.exp(rng.uniform(-3.0, 3.0, size))

    V = -spread(n)
    V[0] = 0.0
    return dataclasses.replace(
        base,
        dchi=float(spread()),
        mass=_readonly(spread(n)),
        V=_readonly(V),
        flux_half=_readonly(spread(n - 1)),
        flux_surface=float(spread()),
        alpha=-float(spread()),
    )


@_PROPERTY
@given(n_chi=st.integers(16, 96), seed=st.integers(0, 2**32 - 1))
def test_energy_rate_is_the_energy_bilinear_form(star_r005, n_chi, seed):
    # sum(mass w v A u) = -B(u, v), B the bilinear form of the gradient,
    # potential and surface terms of discrete_energy (its v = 0 part),
    # taken by polarization; for any positive weights, V and alpha < 0
    rng = np.random.default_rng(seed)
    c = _random_coefficients(assemble_coefficients(star_r005, n_chi=n_chi), rng)
    u = rng.standard_normal(n_chi)
    v = rng.standard_normal(n_chi)
    u[0] = 0.0
    v[0] = 0.0
    wgt = np.full(n_chi, c.dchi)
    wgt[0] = 0.0
    wgt[-1] = 0.5 * c.dchi
    rate = float(np.sum(c.mass * wgt * v * acceleration(c, u)))
    zero = np.zeros(n_chi)
    plus, minus = discrete_energy(c, u + v, zero), discrete_energy(c, u - v, zero)
    # roundoff scale: the rate's terms before cancellation, and the two energies
    ab, au = np.abs(c.bands), np.abs(u)
    size = ab[1] * au
    size[1:] += ab[2, :-1] * au[:-1]
    size[:-1] += ab[0, 1:] * au[1:]
    scale = float(np.sum(c.mass * wgt * np.abs(v) * size)) + 0.5 * (plus + minus)
    assert abs(rate + 0.5 * (plus - minus)) <= 1e-14 * scale


@st.composite
def _drawn_reversal(draw):
    """A grid size and a step count: below the stride threshold, or several
    strides plus a remainder."""
    n_chi = draw(st.integers(16, 160))
    if draw(st.booleans()):
        n_steps = draw(st.integers(1, 2 * STRIDE - 1))
    else:
        n_steps = STRIDE * draw(st.integers(3, 8)) + draw(st.integers(0, STRIDE - 1))
    return n_chi, n_steps, draw(st.integers(-3, 3)), draw(st.integers(0, 2**32 - 1))


@settings(_PROPERTY, max_examples=60)
@given(run=_drawn_reversal())
def test_evolve_reverses_on_random_grids_and_data(star_r005, run):
    n_chi, n_steps, v_exponent, seed = run
    c = assemble_coefficients(star_r005, n_chi=n_chi)
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n_chi)
    v0 = 10.0**v_exponent * rng.standard_normal(n_chi)
    u0[0] = 0.0
    v0[0] = 0.0
    T = (n_steps - 0.5) * cfl_timestep(c, 0.4)
    fwd = evolve(c, u0, v0, T=T, samples=int(rng.integers(1, 20)))
    back = evolve(c, fwd.u, -fwd.v, T=T, samples=3)
    assert fwd.n_steps == n_steps
    strided = n_steps >= 2 * STRIDE and n_chi > 2 * STRIDE
    assert (fwd.provenance["strides"] > 0) == strided
    uscale = max(np.max(np.abs(u0)), np.max(np.abs(fwd.u)))
    vscale = max(np.max(np.abs(v0)), np.max(np.abs(fwd.v)))
    assert np.max(np.abs(back.u - u0)) <= 1e-12 * uscale
    assert np.max(np.abs(back.v + v0)) <= 1e-12 * vscale


@settings(_PROPERTY)
@given(run=_drawn_reversal(), samples=st.tuples(st.integers(1, 400), st.integers(1, 400)))
def test_final_state_does_not_depend_on_samples(star_r005, run, samples):
    # the run stops at every sample step and goes on from there; stopping
    # more or less often leaves every step bit for bit as it was
    n_chi, n_steps, v_exponent, seed = run
    c = assemble_coefficients(star_r005, n_chi=n_chi)
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n_chi)
    v0 = 10.0**v_exponent * rng.standard_normal(n_chi)
    T = (n_steps - 0.5) * cfl_timestep(c, 0.4)
    a, b = (evolve(c, u0, v0, T=T, samples=s) for s in samples)
    assert a.n_steps == n_steps
    for name in ("u", "v"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    # and so is the surface at every sample time the two schedules share
    _, ia, ib = np.intersect1d(a.times, b.times, assume_unique=True, return_indices=True)
    assert len(ia) >= 2  # the initial state and the last step
    assert a.surface[ia].tobytes() == b.surface[ib].tobytes()


@pytest.mark.parametrize("which", ["co", "flat_coeffs"])
def test_bands_match_flux_form(which, request):
    c = request.getfixturevalue(which)
    rng = np.random.default_rng(17)
    for _ in range(5):
        u = rng.standard_normal(c.n_chi)
        ref = _flux_form_acceleration(c, u)
        got = acceleration(c, u)
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
        # the surface Robin row on its own scale
        assert abs(got[-1] - ref[-1]) <= 1e-14 * abs(ref[-1])
        assert got[0] == 0.0


def test_stability_margin_matches_dense_spectrum(star_r005):
    c = assemble_coefficients(star_r005, n_chi=41)
    n = c.n_chi
    # probe the flux-form operator column by column on the free nodes
    A = np.column_stack([_flux_form_acceleration(c, e)[1:] for e in np.eye(n)[1:]])
    W = c.mass[1:] * c.dchi
    W[-1] *= 0.5  # the surface node owns half a cell
    K = -W[:, None] * A
    mu = eigh(0.5 * (K + K.T), np.diag(W), eigvals_only=True)
    u0, v0 = gaussian_pulse(c)
    res = evolve(c, u0, v0, T=0.01, cfl=0.4, samples=2)
    assert res.provenance["max_dt2_mu"] == pytest.approx(res.dt**2 * mu[-1], rel=1e-10)
    assert 0.0 < res.provenance["max_dt2_mu"] < 4.0
    # the bottom of the same spectrum, which seeds the mode brackets
    assert operator_eigenvalues(c, 0, 2) == pytest.approx(mu[:3], rel=1e-10)


def test_evolve_matches_reference_loop(star_r005, co):
    u0, v0 = gaussian_pulse(co)
    T = 10.0 * star_r005.R
    res = evolve(co, u0, v0, T=T, cfl=0.4, samples=40)
    u, v, surface, energies, n_steps = _reference_evolve(co, u0, v0, T, cfl=0.4, samples=40)
    assert res.n_steps == n_steps
    assert len(res.energies) == len(energies)

    def rel(a, b):
        return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))

    assert rel(res.u, u) <= 1e-9
    assert rel(res.v, v) <= 1e-9
    assert rel(res.surface, surface) <= 1e-9
    assert rel(res.energies, energies) <= 1e-9


def test_strides_match_kick_drift_oracle(star_r005):
    # 10 R at n_chi 2000 is 4644 strides; measured against the one-step
    # loop: u 3.5e-12, v 4.9e-11, surface 1.3e-12, energies 1.3e-13
    c = assemble_coefficients(star_r005, n_chi=2000)
    u0, v0 = gaussian_pulse(c)
    T = 10.0 * star_r005.R
    res = evolve(c, u0, v0, T=T)
    u, v, surface, energies = _kick_drift_evolve(c, u0, v0, T)
    assert res.provenance["strides"] > 4000
    assert len(res.energies) == len(energies)
    assert _rel(res.u, u) <= 1e-10
    assert _rel(res.v, v) <= 1e-9
    assert _rel(res.surface, surface) <= 1e-10
    assert _rel(res.energies, energies) <= 1e-11


@pytest.mark.parametrize("n_steps", [1, 63, 64, 65, 95, 96, 127, 1585])
def test_stride_provenance_accounts_for_every_step(co, n_steps):
    u0, v0 = gaussian_pulse(co)
    T = (n_steps - 0.5) * cfl_timestep(co, 0.4)
    res = evolve(co, u0, v0, T=T, samples=7)
    assert res.n_steps == n_steps
    prov = res.provenance
    k = prov["stride"]
    assert k == STRIDE
    assert k * prov["strides"] + prov["plain_steps"] == res.n_steps
    if res.n_steps < 2 * k:
        assert prov["strides"] == 0
    else:
        assert prov["strides"] == res.n_steps // k - 1
        assert k <= prov["plain_steps"] < 2 * k
    u, v, surface, _ = _kick_drift_evolve(co, u0, v0, T, samples=7)
    assert _rel(res.u, u) <= 1e-12
    assert _rel(res.surface, surface) <= 1e-12


def _scaled_bands(c, cfl=0.4):
    dt = cfl_timestep(c, cfl)
    return dt * dt * c.bands


@settings(_PROPERTY, max_examples=25)
@given(n_chi=st.integers(70, 600), R=st.floats(0.02, 0.2))
@example(n_chi=257, R=0.05)  # one row in the last squaring block
@example(n_chi=270, R=0.05)  # the last block ends inside the halo
@example(n_chi=512, R=0.2)   # whole blocks only
def test_chebyshev_band_matches_recurrence_oracle(n_chi, R):
    # one squaring of T_16 against the full recurrence to T_32, both in the
    # build type: each entry within 2^-52 of its row's largest (measured:
    # the two differ by at most 1 ulp of an entry)
    c = assemble_coefficients(build_star(StarParameters(R=R, grid_n=801), solver="shooting"),
                              n_chi=n_chi)
    scaled = _scaled_bands(c)
    band = _chebyshev_band(scaled, STRIDE)
    ref = band_oracle.chebyshev_band(scaled, STRIDE)
    assert band.shape == ref.shape and band.flags.f_contiguous
    assert np.all(np.abs(band - ref) <= 2.0**-52 * np.max(np.abs(ref), axis=0))


def _rounding_draws(co, draws=8):
    """co, then co with each mass weight moved by up to 2 ulp at random: the
    spread of a check over these is its sensitivity to co's last bits."""
    rng = np.random.default_rng(0)
    yield co
    for _ in range(draws):
        yield dataclasses.replace(co, mass=co.mass * (1.0 + 2.2e-16 * rng.integers(-2, 3, co.n_chi)))


def test_chebyshev_band_within_build_error_model(co):
    # rows at both ends of the matrix and around the squaring blocks (256
    # rows) against 40-digit rows of T_32(C).  Error model of the build: the
    # recurrence to T_16 and the squaring lose at most k^2 units of the build
    # type's roundoff u of the row's largest entry, and rounding to double
    # adds 2^-53 of the entry.  Measured over co and its rounding draws:
    # at most 224 u (long double) and 737 u (built in float64), R = 0.02-0.1
    u = float(np.finfo(evolution._BUILD_DTYPE).eps) / 2.0
    rows = (1, 2, 3, 16, 17, 31, 32, 33, 100, 255, 256, 257, 272, 300, 468, 484, 499, 500)
    for c in _rounding_draws(co):
        scaled = _scaled_bands(c)
        band = _chebyshev_band(scaled, STRIDE)
        for j in rows:
            exact_row = band_oracle.exact_row(scaled, STRIDE, j)
            row_max = max(abs(float(x)) for x in exact_row.values())
            for col, exact in exact_row.items():
                bound = 2.0**-53 * abs(float(exact)) + STRIDE**2 * u * row_max
                assert abs(band[col - j + STRIDE, j] - exact) <= bound, (j, col)


def test_chebyshev_band_peak_memory(star_r005):
    # streamed in blocks, the build holds no whole T_16 in the build type:
    # traced peak 1.66 MB at n_chi 2000, 1.92 MB for the full recurrence
    scaled = _scaled_bands(assemble_coefficients(star_r005, n_chi=2000))
    _chebyshev_band(scaled, STRIDE)  # warm up numpy
    tracemalloc.start()
    try:
        _chebyshev_band(scaled, STRIDE)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.92e6


@pytest.mark.parametrize("samples", [7, 13, 40, 97, 200])
def test_samples_from_the_nearer_boundary(co, samples):
    # a sample in the back half of its stride window steps backward from the
    # next boundary, one in the front half or the last window forward from
    # the one below; both land on the one-step loop's states
    k, n_steps = STRIDE, 3001
    u0, v0 = gaussian_pulse(co)
    T = (n_steps - 0.5) * cfl_timestep(co, 0.4)
    res = evolve(co, u0, v0, T=T, samples=samples)
    assert res.n_steps == n_steps
    assert res.provenance["strides"] == n_steps // k - 1
    last = k * (n_steps // k)  # the last stride boundary
    schedule = _sample_steps(n_steps, samples)
    offsets = [s % k for s in schedule if k < s < last]
    assert min(offsets) <= k // 2 < max(offsets)
    assert 0 < res.provenance["side_steps"] <= samples * k // 2 + k
    u, v, surface, energies = _kick_drift_evolve(co, u0, v0, T, samples=samples)
    assert _rel(res.u, u) <= 1e-10
    assert _rel(res.v, v) <= 1e-9
    assert _rel(res.surface, surface) <= 1e-10
    assert _rel(res.energies, energies) <= 1e-11
    # at most k/2 side steps per sample, k - 1 in the last window, and no
    # stride past the last boundary
    wave = _WaveRun(co, u0, v0, res.dt, n_steps)
    for step in schedule:
        before = wave.side_steps
        wave.advance(step)
        assert wave.side_steps - before <= (k - 1 if step >= last else k // 2)
        assert wave._at <= last
    assert wave.side_steps == res.provenance["side_steps"]


def test_band_built_in_double(co, monkeypatch):
    # where np.longdouble is double (MSVC, arm64 macOS) the band is built
    # and rounded in float64; measured reversal errors there, over co and its
    # rounding draws: u 1.6e-12 to 7.4e-12 (1.4e-14 to 9.3e-14 in long
    # double).  w = dt v takes the same strides as u, so its error is bounded
    # like u's: dt times the v error measured 0.14 to 0.69 of the u error
    monkeypatch.setattr(evolution, "_BUILD_DTYPE", np.float64)
    for c in _rounding_draws(co):
        u0, v0 = gaussian_pulse(c, amplitude=1.0)
        fwd = evolve(c, u0, v0, T=0.05, cfl=0.4, samples=5)
        back = evolve(c, fwd.u, -fwd.v, T=0.05, cfl=0.4, samples=5)
        assert np.max(np.abs(back.u - u0)) <= 2e-11
        assert np.max(np.abs(back.v + v0)) * fwd.dt <= 2e-11


def test_energy_pieces_nonnegative(co):
    rng = np.random.default_rng(3)
    u = rng.standard_normal(co.n_chi)
    u[0] = 0.0
    v = rng.standard_normal(co.n_chi)
    dchi = co.dchi
    wgt = np.full(co.n_chi, dchi)
    wgt[0] = 0.0
    wgt[-1] = 0.5 * dchi
    assert float(np.sum(co.mass * wgt * v * v)) >= 0.0
    assert float(np.sum(co.flux_half * np.diff(u) ** 2)) >= 0.0
    assert -float(np.sum(co.V * wgt * u * u)) >= 0.0
    assert -co.flux_surface * co.alpha * u[-1] ** 2 >= 0.0
    assert discrete_energy(co, u, v) > 0.0


def test_energy_drift_band_and_time_order(star_r005, co):
    u0, v0 = gaussian_pulse(co)
    T = 5.0 * star_r005.R
    res4 = evolve(co, u0, v0, T=T, cfl=0.4, samples=50)
    res2 = evolve(co, u0, v0, T=T, cfl=0.2, samples=50)
    assert res4.max_energy_drift <= 1e-4
    ratio = res4.max_energy_drift / res2.max_energy_drift
    assert 3.0 <= ratio <= 6.5


def test_time_reversibility(co):
    u0, v0 = gaussian_pulse(co, amplitude=1.0)
    fwd = evolve(co, u0, v0, T=0.05, cfl=0.4, samples=5)
    back = evolve(co, fwd.u, -fwd.v, T=0.05, cfl=0.4, samples=5)
    assert np.max(np.abs(back.u - u0)) <= 1e-12
    # velocities swing up to the pulse frequency, so allow the larger scale
    vscale = max(1.0, float(np.max(np.abs(fwd.v))))
    assert np.max(np.abs(back.v + v0)) <= 1e-12 * vscale


def test_solution_differences_shrink(star_r005):
    sols = {}
    for n in (251, 501, 1001):
        c = assemble_coefficients(star_r005, n_chi=n)
        u0, v0 = gaussian_pulse(c)
        sols[n] = evolve(c, u0, v0, T=0.1, cfl=0.4, samples=5).u
    e1 = np.max(np.abs(sols[251] - sols[501][::2]))
    e2 = np.max(np.abs(sols[501] - sols[1001][::2]))
    assert e2 < 0.8 * e1


def test_cfl_guard(co):
    for bad in (0.0, -0.1, 0.6, 1.5):
        with pytest.raises(CflViolationError):
            cfl_timestep(co, bad)
    dt = cfl_timestep(co, 0.5)
    assert dt == pytest.approx(0.5 * co.dchi / co.cmax, rel=1e-14)


def test_evolve_argument_guards(co):
    u0, v0 = gaussian_pulse(co)
    with pytest.raises(DomainError):
        evolve(co, u0, v0, T=0.0)
    with pytest.raises(DomainError):
        evolve(co, u0[:-1], v0[:-1], T=0.1)


def test_instability_detection(co):
    # positive potential of this size drives rapid growth from velocity data
    tampered = dataclasses.replace(co, V=_readonly(300.0 * np.abs(co.V)))
    u0 = np.zeros(co.n_chi)
    _, v0 = gaussian_pulse(co)
    v0 = 1e-6 * np.exp(-(((co.chi / co.B - 0.5) / 0.1) ** 2))
    v0[0] = 0.0
    with pytest.raises(InstabilityError) as info:
        evolve(tampered, u0, v0, T=0.05, cfl=0.4, samples=100)
    assert info.value.energy_ratio > 100.0 or not math.isfinite(info.value.energy_ratio)
    assert info.value.step > 0
    with pytest.raises(InstabilityError) as oracle:
        _kick_drift_evolve(tampered, u0, v0, T=0.05, cfl=0.4, samples=100)
    assert info.value.step == oracle.value.step


def test_sampling_layout(co):
    u0, v0 = gaussian_pulse(co)
    res = evolve(co, u0, v0, T=0.02, cfl=0.4, samples=20)
    assert res.times[0] == 0.0
    assert res.times[-1] == pytest.approx(0.02, rel=1e-12)
    assert np.all(np.diff(res.times) > 0.0)
    assert len(res.surface) == len(res.times)
    assert res.surface[0] == u0[-1]
    assert res.surface[-1] == res.u[-1]
    assert res.energies[0] == pytest.approx(res.initial_energy, rel=1e-14)
    assert res.dt * res.n_steps == pytest.approx(0.02, rel=1e-12)
    assert set(res.norm_series) == {"norm", "first", "second"}
    for series in res.norm_series.values():
        assert len(series) == len(res.times)
        assert np.all(np.isfinite(series))
        assert np.all(np.asarray(series) > 0.0)
    assert len(res.residuals) == len(res.times)
    assert np.all(np.isfinite(res.residuals))


def test_evolve_memory_does_not_grow_with_steps(co):
    # samples hold the diagnostics; nothing else may scale with n_steps
    u0, v0 = gaussian_pulse(co)
    evolve(co, u0, v0, T=0.01, samples=10)  # warm up numpy and scipy
    peaks = []
    for n_steps in (4_000, 40_000):
        T = (n_steps - 0.5) * cfl_timestep(co, 0.4)
        tracemalloc.start()
        try:
            assert evolve(co, u0, v0, T=T, samples=10).n_steps == n_steps
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 0.1e6


def test_gaussian_pulse_shape(co):
    u0, v0 = gaussian_pulse(co, amplitude=1e-4, center=0.5, width=0.1)
    assert u0[0] == 0.0
    assert np.all(v0 == 0.0)
    assert np.max(u0) == pytest.approx(1e-4, rel=1e-6)
    peak = co.chi[np.argmax(u0)] / co.B
    assert abs(peak - 0.5) <= 0.01


def test_energy_norm_center_regularity(co):
    u0, _ = gaussian_pulse(co, amplitude=1.0, center=0.2, width=0.3)
    norms = energy_norms(co, u0, np.zeros_like(u0))
    for key in ("norm", "first", "second"):
        assert math.isfinite(norms[key])
        assert norms[key] > 0.0


# ------------------------------------------------------------ reconstruction


def test_reconstruct_pointwise_identities(co):
    rng = np.random.default_rng(5)
    u = rng.standard_normal(co.n_chi)
    u[0] = 0.0
    fields = reconstruct(co, u)
    # omega1 differs from psi1 by the isotropic stretch term alone
    gap = fields.omega1[1:] - fields.psi1[1:] + 2.0 * u[1:] / co.r0[1:]
    assert np.max(np.abs(gap)) <= 1e-12 * np.max(np.abs(fields.psi1))
    assert fields.psi1[0] == pytest.approx(3.0 * u[1] / co.r0[1], rel=1e-14)
    assert fields.omega1[0] == pytest.approx(u[1] / co.r0[1], rel=1e-14)
    assert np.max(np.abs(fields.rho1 + (2.0 * co.rho0 - 1.0) * fields.psi1)) == 0.0
    # the star keeps unit boundary density, so the mass stays frozen there
    assert abs(fields.m1[-1]) <= 1e-13 * np.max(np.abs(u))


def test_reconstruct_matches_deformation_family(star_r005):
    B = star_r005.N_total
    fam = DeformedFamily(
        star_r005,
        lambda c: math.sin(0.5 * math.pi * c / B),
        lambda c: (0.5 * math.pi / B) * math.cos(0.5 * math.pi * c / B),
    )
    rates = fam.field_rates()
    c = assemble_coefficients(star_r005, n_chi=801)
    u = np.sin(0.5 * math.pi * c.chi / c.B)
    rec = reconstruct(c, u)
    probes = [600, 1000, 1400, 1800]
    for name, arr in (
        ("psi", rec.psi1),
        ("omega", rec.omega1),
        ("m", rec.m1),
        ("rho", rec.rho1),
    ):
        mine = CubicSpline(c.r0, arr)(star_r005.r[probes])
        ref = rates[name][probes]
        scale = np.max(np.abs(rates[name][1:]))
        rel = np.abs(mine - ref) / (np.abs(ref) + 0.01 * scale)
        assert rel.max() <= 1e-4, f"{name} deviates from the family oracle"


def test_constraint_residual_center_and_interior(co):
    u = np.sin(0.5 * math.pi * co.chi / co.B) * 1e-6
    res = constraint_residual(co, u)
    assert res[0] == 0.0
    assert np.all(np.isfinite(res))


def test_constraint_residual_second_order(star_r005):
    norms = []
    for n in (201, 401, 801):
        c = assemble_coefficients(star_r005, n_chi=n)
        u = np.sin(0.5 * math.pi * c.chi / c.B) * 1e-6
        norms.append(residual_norm(c, u))
    p1 = math.log2(norms[0] / norms[1])
    p2 = math.log2(norms[1] / norms[2])
    assert 1.8 <= p1 <= 2.2
    assert 1.8 <= p2 <= 2.2


# ------------------------------------------------ folded sample diagnostics

# gaps to ``diagnostics_oracle``, measured over both stars, n_chi 501 and
# 2000 and the data below, and over 150 random runs like the drawn ones:
# - norms 8.9e-16 relative;
# - the residual 8.0e-13 of max |d m1/dchi| (the oracle's expanded
#   constraint flux cancels terms about 1/R^2 larger than the folded one's);
# - in a run, the "second" norm 3.1e-14 relative.  Its L u is the stepper's
#   kick, which rounds A u its own way; smooth data magnify that by
#   |A| |u| / |A u|: 2.2e-12 for a gaussian pulse at n_chi 2000, 5.3e-11 for
#   mode 1 of R = 0.1 at n_chi 2000.
NORM_GAP = 2e-15
SECOND_IN_RUN_GAP = 1e-12
RESIDUAL_GAP = 5e-12


def _oracle_gaps(c, u, v, norms=None, sup=None):
    """(relative gap of each norm, residual gap over max |d m1/dchi|,
    interior sup gap on the same scale) of the given or public diagnostics."""
    ref = diagnostics_oracle.energy_norms(c, u, v)
    norms = energy_norms(c, u, v) if norms is None else norms
    norm_gaps = {key: abs(norms[key] / ref[key] - 1.0) for key in ref}
    res, dm1 = diagnostics_oracle.constraint_residual(c, u)
    scale = float(np.max(np.abs(dm1[1:])))
    sup = residual_norm(c, u) if sup is None else sup
    sup_ref = float(np.max(np.abs(diagnostics_oracle.interior(c, res))))
    res_gap = float(np.max(np.abs(constraint_residual(c, u) - res))) / scale
    return norm_gaps, res_gap, abs(sup - sup_ref) / scale


@pytest.fixture(scope="module")
def oracle_stars(star_r005):
    # the shooting star at 0.235 has V > 0 in its outer shell
    stars = {"picard 0.05": star_r005,
             "shooting 0.235": build_star(StarParameters(R=0.235, grid_n=2001), solver="shooting")}
    return {name: (star, find_modes(star, 1)[0]) for name, star in stars.items()}


@pytest.mark.parametrize("n_chi", [501, 2000])
@pytest.mark.parametrize("name", ["picard 0.05", "shooting 0.235"])
def test_folded_diagnostics_match_oracle(oracle_stars, name, n_chi):
    star, mode = oracle_stars[name]
    c = assemble_coefficients(star, n_chi=n_chi)
    rng = np.random.default_rng(23)
    states = [gaussian_pulse(c), (rng.standard_normal(n_chi), rng.standard_normal(n_chi)),
              mode_to_initial_data(c, mode)]
    for u, v in states:
        u[0] = v[0] = 0.0
        norm_gaps, res_gap, sup_gap = _oracle_gaps(c, u, v)
        assert max(norm_gaps.values()) <= NORM_GAP
        assert res_gap <= RESIDUAL_GAP
        assert sup_gap <= RESIDUAL_GAP


def test_oracle_catches_a_dropped_centre_weight(co, monkeypatch):
    # the mutant integrates u^2/r0^2 without the centre's half cell
    build = _SampleForms.__init__

    def dropped(self, coeffs, dt=1.0):
        build(self, coeffs, dt)
        self.inv_r2[1] -= self.trap[0] / coeffs.r0[1] ** 2

    u, v = gaussian_pulse(co, center=0.2, width=0.3)
    monkeypatch.setattr(_SampleForms, "__init__", dropped)
    norm_gaps = _oracle_gaps(co, u, v)[0]
    assert norm_gaps["norm"] > 1e6 * NORM_GAP
    assert norm_gaps["first"] > 1e6 * NORM_GAP


@settings(_PROPERTY, max_examples=25)
@given(run=_drawn_reversal(), data=st.data())
def test_run_samples_are_the_public_diagnostics(star_r005, run, data):
    # at every state a run returns, on a drawn schedule: the energy and the
    # surface bit for bit, the norms and the residual within the oracle's gaps
    n_chi, n_steps, v_exponent, seed = run
    schedule = sorted(data.draw(st.sets(st.integers(1, n_steps), min_size=1, max_size=40)))
    c = assemble_coefficients(star_r005, n_chi=n_chi)
    rng = np.random.default_rng(seed)
    u0 = rng.standard_normal(n_chi)
    v0 = 10.0**v_exponent * rng.standard_normal(n_chi)
    u0[0] = v0[0] = 0.0
    wave = _WaveRun(c, u0, v0, cfl_timestep(c, 0.4), n_steps)
    states = [(u0, v0)]
    for step in schedule:
        u, v = wave.advance(step)
        states.append((u.copy(), v))  # u is the run's buffer
    assert len(wave.energies) == len(states)
    for j, (u, v) in enumerate(states):
        assert wave.energies[j] == discrete_energy(c, u, v)
        assert wave.surface[j] == u[-1]
        norms = {key: series[j] for key, series in wave.norm_series.items()}
        norm_gaps, _, sup_gap = _oracle_gaps(c, u, v, norms, wave.residuals[j])
        assert max(norm_gaps["norm"], norm_gaps["first"]) <= NORM_GAP
        assert norm_gaps["second"] <= SECOND_IN_RUN_GAP
        assert sup_gap <= RESIDUAL_GAP
