"""Radial oscillation modes of a static star, by shooting in the radius.

The time-periodic ansatz u = h(chi) cos(sqrt(lambda) t) turns the wave
equation into a Sturm-Liouville problem.  In the areal radius it reads

    alpha2 h'' + alpha1 h' + (lambda - U) h = 0,
    alpha2 = (1 - 2m/r)/n^2,
    alpha1 = alpha2 [ 2/r + rho'/n^2 + (4 pi r rho - m/r^2)/(1 - 2m/r) ],
    U      = -bracket/n^2,

with h ~ r at the centre and the Robin surface condition
h'(R) = kappa h(R), kappa = w(R) (q(R) - 2/R).  For a vanishingly small star
the problem collapses to the l=1 spherical Bessel equation, so h -> j1 and
the admissible x = sqrt(lambda) R approach the roots of

    sin x (x^2 - 2) + 2 x cos x = 0            (x1 = 2.0815759778181...)

``find_modes`` scans the shooting defect in x and refines each sign change;
every sign change is an eigenvalue (the defect is analytic in lambda).
``apply_H0``/``apply_H1`` split the radial operator into its flat Bessel part
and the stellar correction, which shrinks like R^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .background import BackgroundProfile, _readonly
from .errors import ConvergenceError, DomainError
from .evolution import WaveCoefficients, potential_bracket
from .numerics import derivative_uniform, scan_sign_changes, second_derivative_uniform

FOUR_PI = 4.0 * math.pi

#: First admissible x = sqrt(lambda) R in the zero-size limit.
X1_LIMIT = 2.0815759778181


def spherical_j1(x):
    """Order-1 spherical Bessel function (series near 0, closed form beyond)."""
    x = np.asarray(x, dtype=float)
    scalar = x.ndim == 0
    x = np.atleast_1d(x)
    out = np.empty_like(x)
    small = np.abs(x) < 0.5
    xs = x[small]
    term = xs / 3.0
    total = term.copy()
    for k in range(6):
        term = term * (-xs * xs) / ((2.0 * k + 2.0) * (2.0 * k + 5.0))
        total += term
    out[small] = total
    xl = x[~small]
    out[~small] = np.sin(xl) / (xl * xl) - np.cos(xl) / xl
    return float(out[0]) if scalar else out


def dispersion_function(x, R: float = 0.0):
    """Surface-condition defect of the small-star model: its zeros seed the
    shooting windows.  At R = 0 it reduces to sin x (x^2-2) + 2x cos x
    (up to a factor x^2)."""
    x = np.asarray(x, dtype=float)
    return (2.0 - 8.0 * math.pi * R * R) * (-spherical_j1(x)) + np.sin(x)


def dispersion_roots(n_roots: int, R: float = 0.0) -> list[float]:
    """First ``n_roots`` positive zeros of the small-star dispersion model."""
    grid = np.arange(0.4, (n_roots + 2) * math.pi, 0.02)
    roots = []
    for lo, hi in scan_sign_changes(lambda t: float(dispersion_function(t, R)), grid):
        roots.append(brentq(lambda t: float(dispersion_function(t, R)), lo, hi, xtol=1e-14))
        if len(roots) == n_roots:
            break
    if len(roots) < n_roots:
        raise ConvergenceError(f"found only {len(roots)} dispersion roots of {n_roots}")
    return roots


# ------------------------------------------------------------ shooting solver


class _RadialOperator:
    """Coefficient evaluator alpha1, alpha2, U from background splines."""

    def __init__(self, profile: BackgroundProfile):
        profile.require_metric()
        self.profile = profile
        self._rho = CubicSpline(profile.r, profile.rho)
        self._mor3 = CubicSpline(profile.r, profile.m_over_r3)
        R = profile.R
        M = profile.M_total
        n_R = math.sqrt(2.0 * profile.rho[-1] - 1.0)
        root = math.sqrt(1.0 - 2.0 * M / R)
        w_R = FOUR_PI * R * R * n_R / root
        q_R = float((profile.m_over_r3[-1] * R + FOUR_PI * R * (profile.rho[-1] - 1.0))
                    / (1.0 - 2.0 * M / R))
        self.kappa = w_R * (q_R - 2.0 / R)

    def coefficients(self, r):
        rho = self._rho(r)
        mor3 = self._mor3(r)
        n2 = 2.0 * rho - 1.0
        D = 1.0 - 2.0 * mor3 * r * r
        bracket, _ = potential_bracket(np.asarray(r, dtype=float), rho, mor3)
        U = -bracket / n2
        alpha2 = D / n2
        rho_eq_slope = -n2 * (FOUR_PI * r * (rho - 1.0) + mor3 * r) / D
        alpha1 = alpha2 * (2.0 / r + rho_eq_slope / n2 + (FOUR_PI * r * rho - mor3 * r) / D)
        return alpha1, alpha2, U

    def rhs(self, r, y, lam):
        h, hp = y
        alpha1, alpha2, U = self.coefficients(r)
        return [hp, (-alpha1 * hp + (U - lam) * h) / alpha2]


def _series_start(lam: float, r_s: float) -> tuple[float, float]:
    # flat-limit Frobenius start; star corrections enter at O(R^2 r_s^2)
    h = r_s - lam * r_s**3 / 10.0 + lam * lam * r_s**5 / 280.0
    hp = 1.0 - 3.0 * lam * r_s**2 / 10.0 + lam * lam * r_s**4 / 56.0
    return h, hp


def shooting_defect(profile: BackgroundProfile, lam: float,
                    operator: _RadialOperator | None = None) -> float:
    """h'(R) - kappa h(R) for the regular solution at trial eigenvalue lam.

    Analytic in lam, so its sign changes are exactly the eigenvalues.
    Returns a clipped sentinel if the integration fails.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    R = profile.R
    r_s = 1e-4 * R
    y0 = _series_start(lam, r_s)
    try:
        sol = solve_ivp(op.rhs, (r_s, R), y0, args=(lam,), method="RK45",
                        rtol=1e-10, atol=1e-10 * R, dense_output=False)
        if not sol.success:
            return 1e30
        h, hp = sol.y[0][-1], sol.y[1][-1]
        return float(np.clip(hp - op.kappa * h, -1e30, 1e30))
    except (ValueError, FloatingPointError):
        return 1e30


@dataclass(frozen=True)
class Mode:
    """One radial eigenmode on the background grid (slope 1 at the centre)."""

    eigenvalue: float
    x: float                  # sqrt(lambda) R
    h: np.ndarray             # eigenfunction on profile.r
    defect: float             # shooting defect at the converged eigenvalue
    rescanned: bool = False

    @property
    def frequency(self) -> float:
        return math.sqrt(self.eigenvalue)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.frequency


def eigenfunction(profile: BackgroundProfile, lam: float,
                  operator: _RadialOperator | None = None) -> np.ndarray:
    """Regular solution h on the profile grid, normalised to unit central slope.

    The slope is fitted as h = a r + b r^3 over the innermost grid nodes;
    dividing by a removes the O(r^2) bias a single-node ratio would keep.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    R = profile.R
    r_s = 1e-4 * R
    y0 = _series_start(lam, r_s)
    r_eval = profile.r[1:]
    sol = solve_ivp(op.rhs, (r_s, R), y0, args=(lam,), method="RK45",
                    rtol=1e-10, atol=1e-10 * R, t_eval=r_eval)
    if not sol.success:
        raise ConvergenceError(f"eigenfunction integration failed at lam={lam}")
    h = np.empty(profile.grid_n)
    h[0] = 0.0
    h[1:] = sol.y[0]
    pts = slice(1, 9)
    basis = np.column_stack([profile.r[pts], profile.r[pts] ** 3])
    coef, *_ = np.linalg.lstsq(basis, h[pts], rcond=None)
    return _readonly(h / coef[0])


def find_modes(profile: BackgroundProfile, n_modes: int = 3,
               scan_step: float = 0.02, window: float = 0.45) -> list[Mode]:
    """Locate the lowest ``n_modes`` eigenvalues by scanning the defect in x.

    Each dispersion root seeds a window of half-width ``window`` in
    x = sqrt(lambda) R; the defect is sign-scanned there and the crossing
    closest to the seed is refined.  If a window comes up empty, or the
    resulting roots are spaced anomalously (off the organ-pipe spacing pi by
    more than half), the whole range is rescanned at quarter step.
    """
    op = _RadialOperator(profile)
    R = profile.R
    seeds = dispersion_roots(n_modes, R)

    def defect_at_x(x: float) -> float:
        return shooting_defect(profile, (x / R) ** 2, op)

    def refine(lo, hi):
        return brentq(defect_at_x, lo, hi, xtol=1e-12, rtol=8.9e-16)

    def collect(lo, hi, step):
        grid = np.arange(lo, hi, step)
        return scan_sign_changes(defect_at_x, grid)

    roots_x: list[float] = []
    rescanned = False
    for seed in seeds:
        cands = [refine(lo, hi) for lo, hi in collect(seed - window, seed + window, scan_step)]
        cands = [c for c in cands if all(abs(c - r) > 1e-8 for r in roots_x)]
        if cands:
            roots_x.append(min(cands, key=lambda c: abs(c - seed)))
    spacings = np.diff(roots_x)
    if len(roots_x) < n_modes or (len(spacings) and np.any(np.abs(spacings - math.pi) > 0.5 * math.pi)):
        rescanned = True
        x_lo = 0.5 * seeds[0]
        x_hi = seeds[-1] + 0.6 * math.pi
        brackets = collect(x_lo, x_hi, scan_step / 4.0)
        roots_x = [refine(lo, hi) for lo, hi in brackets]
    if len(roots_x) < n_modes:
        raise ConvergenceError(f"found only {len(roots_x)} modes of {n_modes}")
    modes = []
    for x in roots_x[:n_modes]:
        lam = (x / R) ** 2
        modes.append(
            Mode(
                eigenvalue=lam,
                x=x,
                h=eigenfunction(profile, lam, op),
                defect=shooting_defect(profile, lam, op),
                rescanned=rescanned,
            )
        )
    return modes


# ------------------------------------------------------- operator splitting


def apply_H(profile: BackgroundProfile, h: np.ndarray) -> np.ndarray:
    """Full radial operator -alpha2 h'' - alpha1 h' + U h by differencing.

    Node 0 is reported as 0; accuracy degrades at the first few nodes where
    the 2/r terms amplify stencil error.
    """
    op = _RadialOperator(profile)
    return _apply_operator(profile, h, op)


def _apply_operator(profile, h, op):
    h = np.asarray(h, dtype=float)
    dr = profile.dr
    hp = derivative_uniform(h, dr, order=2)
    hpp = second_derivative_uniform(h, dr)
    r = profile.r
    out = np.zeros_like(h)
    alpha1, alpha2, U = op.coefficients(r[1:])
    out[1:] = -alpha2 * hpp[1:] - alpha1 * hp[1:] + U * h[1:]
    return out


def apply_H0(profile: BackgroundProfile, h: np.ndarray) -> np.ndarray:
    """Flat-limit part -h'' - 2h'/r + 2h/r^2 (the l=1 Bessel operator)."""
    h = np.asarray(h, dtype=float)
    dr = profile.dr
    hp = derivative_uniform(h, dr, order=2)
    hpp = second_derivative_uniform(h, dr)
    r = profile.r
    out = np.zeros_like(h)
    out[1:] = -hpp[1:] - 2.0 * hp[1:] / r[1:] + 2.0 * h[1:] / r[1:] ** 2
    return out


def apply_H1(profile: BackgroundProfile, h: np.ndarray) -> np.ndarray:
    """Stellar correction H - H0.

    On data of fixed shape h = R g(r/R) the flat part grows like 1/R while
    this correction shrinks like R, so the correction-to-flat ratio falls
    off quadratically in R.
    """
    return apply_H(profile, h) - apply_H0(profile, h)


# ----------------------------------------------------------- evolution bridge


def _discrete_eigen_shape(coeffs: WaveCoefficients, lam: float,
                          seed: np.ndarray, sweeps: int = 2) -> np.ndarray:
    """Eigenvector of the discrete wave operator nearest ``lam``.

    Two inverse-iteration solves of the shifted tridiagonal system
    -A - lam on the nodes 1..n-1 (node 0 is pinned), whose banded form is
    a column slice of ``coeffs.bands``; the result keeps the seed's value
    at the seed's peak so amplitude conventions survive.
    """
    n = coeffs.n_chi
    ab = -coeffs.bands[:, 1:]
    ab[1] -= lam
    w = np.asarray(seed[1:], dtype=float).copy()
    for _ in range(sweeps):
        w = solve_banded((1, 1), ab, w)
        w /= np.max(np.abs(w))
    peak = 1 + int(np.argmax(np.abs(seed[1:])))
    out = np.zeros(n)
    out[1:] = w * (seed[peak] / w[peak - 1])
    return out


def mode_to_initial_data(coeffs: WaveCoefficients, mode: Mode, amplitude: float = 1e-6,
                         refine: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """Sample a mode on the wave grid as static initial data (v = 0).

    Pointwise sampling is not discretely consistent near the centre, where
    the shell coordinate degenerates like chi^(1/3) and the node-1 stencil
    error is inflated; ``refine`` projects the sample onto the discrete
    operator's own eigenvector so evolution reproduces the mode cleanly.
    """
    spline = CubicSpline(coeffs.profile.r, mode.h)
    u0 = amplitude * spline(coeffs.r0)
    u0[0] = 0.0
    if refine:
        u0 = _discrete_eigen_shape(coeffs, mode.eigenvalue, u0)
    return u0, np.zeros_like(u0)


def estimate_period(times: np.ndarray, values: np.ndarray) -> float:
    """Oscillation period from mean spacing of same-direction zero crossings."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    sign = np.sign(y)
    ups = np.where((sign[:-1] < 0) & (sign[1:] >= 0))[0]
    if len(ups) < 2:
        raise DomainError("need at least two upward zero crossings to estimate a period")
    crossings = t[ups] - y[ups] * (t[ups + 1] - t[ups]) / (y[ups + 1] - y[ups])
    return float(np.mean(np.diff(crossings)))
