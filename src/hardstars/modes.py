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

``shooting_defect`` integrates the regular solution outward and returns
h'(R) - kappa h(R); it is analytic in lambda, so its sign changes are exactly
the eigenvalues.  The right-hand side is evaluated in plain floats from the
background spline and stepped by the Dormand-Prince 8(5,3) pair (Hairer,
Norsett and Wanner, *Solving ODEs I*, II.10) compiled in scipy's ``ode``
interface, so no Python runs between right-hand-side calls;
``eigenfunction`` samples the same solution with the same pair and
tolerances through ``solve_ivp``'s dense output.

``find_modes`` brackets the eigenvalues from the discrete spectrum of the
wave operator on the chi grid (``evolution``), whose j-th eigenvalue belongs
to the j-th mode by Sturm ordering: the lowest eigenvalues on two grids,
extrapolated in the grid spacing, centre one bracket per mode, and
``brentq`` on the shooting defect refines it.
``apply_H0``/``apply_H1`` split the radial operator into its flat Bessel part
and the stellar correction, which shrinks like R^2.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np
from scipy.integrate import ode, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from .background import FOUR_PI, BackgroundProfile, _readonly, chi_weight, metric_terms
from .errors import ConvergenceError, DomainError
from .evolution import (
    WaveCoefficients,
    assemble_coefficients,
    operator_eigenvalues,
    potential_bracket,
)
from .numerics import derivative_uniform, scan_sign_changes, second_derivative_uniform

#: First admissible x = sqrt(lambda) R in the zero-size limit.
X1_LIMIT = 2.0815759778181

#: Relative tolerance of the shooting integrations; the absolute one is
#: this times R.
SHOOTING_RTOL = 1e-10

#: Step budget of one ``shooting_defect`` integration.  lam = 1e9 at
#: R = 0.05 (about 500 oscillations) takes 4.6e3 steps; scipy's default of
#: 500 fails there.
MAX_STEPS = 100_000

#: Shells of the coarser of the two chi grids whose discrete spectra seed
#: the brackets of ``find_modes`` (the finer grid has twice as many); past
#: 24 modes the grids grow to keep ten shells per eigenvalue.
SEED_N_CHI = 250


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
    """Surface-condition defect of the small-star model, whose zeros give the
    flat-operator eigenvalues.  At R = 0 it reduces to sin x (x^2-2) + 2x cos x
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
    """Coefficients alpha1, alpha2, U of the radial problem.

    Both background fields come from one two-column spline of (rho, m/r^3) on
    the uniform profile grid.  ``coefficients`` evaluates it on arrays;
    ``coefficients_at`` evaluates one radius in plain floats by reading the
    spline's cubic pieces at the interval int(r/dr) directly, which is what
    the shooting right-hand side needs.  Both hand the fields to
    ``potential_bracket``, which also returns the ``metric_terms``
    (n^2, D, q); q supplies the equilibrium slope (rho'/n^2 = -q).
    """

    def __init__(self, profile: BackgroundProfile):
        profile.require_metric()
        self._spline = CubicSpline(profile.r, np.column_stack([profile.rho, profile.m_over_r3]))
        # one row per interval: left knot, then the cubic pieces of rho and
        # m/r^3, highest power first
        pieces = self._spline.c.transpose(1, 2, 0).reshape(-1, 8)
        self._pieces = np.column_stack([profile.r[:-1], pieces])
        self._inv_dr = 1.0 / profile.dr
        self._last = len(pieces) - 1
        R = profile.R
        q_R = metric_terms(R, float(profile.rho[-1]), float(profile.m_over_r3[-1]))[2]
        self.kappa = float(chi_weight(profile)[-1]) * (q_R - 2.0 / R)

    def coefficients(self, r):
        r = np.asarray(r, dtype=float)
        fields = self._spline(r)
        return _radial_coefficients(r, fields[..., 0], fields[..., 1])

    def coefficients_at(self, r: float) -> tuple[float, float, float]:
        i = min(int(r * self._inv_dr), self._last)
        x0, a3, a2, a1, a0, b3, b2, b1, b0 = self._pieces[i].tolist()
        t = r - x0
        rho = ((a3 * t + a2) * t + a1) * t + a0
        mor3 = ((b3 * t + b2) * t + b1) * t + b0
        return _radial_coefficients(r, rho, mor3)

    def rhs(self, r, y, lam):
        h, hp = y.tolist()
        alpha1, alpha2, U = self.coefficients_at(float(r))
        return [hp, (-alpha1 * hp + (U - lam) * h) / alpha2]


def _radial_coefficients(r, rho, mor3):
    bracket, n2, D, q = potential_bracket(r, rho, mor3)
    alpha2 = D / n2
    alpha1 = alpha2 * (2.0 / r - q + (FOUR_PI * r * rho - mor3 * r) / D)
    return alpha1, alpha2, -bracket / n2


def _series_start(lam: float, r_s: float) -> tuple[float, float]:
    # flat-limit Frobenius start; star corrections enter at O(R^2 r_s^2)
    h = r_s - lam * r_s**3 / 10.0 + lam * lam * r_s**5 / 280.0
    hp = 1.0 - 3.0 * lam * r_s**2 / 10.0 + lam * lam * r_s**4 / 56.0
    return h, hp


class _Severable:
    """Forwarder to ``fn`` that is cut when its ``with`` block ends.

    ``solve_ivp`` and ``brentq`` keep the callable they are given in objects
    that refer to themselves (scipy's solver object stores a closure over
    itself; brentq's NaN guard is a closure over itself), so it lingers in
    cyclic garbage until a full collection.  Scipy's compiled ``dop853``
    runner keeps one reference to its right-hand side per integration and
    never drops it.  Handing them a forwarder that is cut afterwards keeps
    that garbage from holding the operator's tables and the background
    profile meanwhile.
    """

    __slots__ = ("fn",)

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, *args):
        return self.fn(*args)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fn = None


#: The right-hand side every cached ``dop853`` integrator calls; pointed at
#: one operator's ``rhs`` for the length of one ``shooting_defect``.
_DEFECT_RHS = _Severable(None)
#: Guards ``_DEFECT_RHS`` and the cached integrators, which are shared.
_DEFECT_LOCK = threading.Lock()


@functools.lru_cache(maxsize=16)
def _dop853(atol: float) -> ode:
    """One ``dop853`` integrator per absolute tolerance, reused by every
    defect: a fresh one per call would leave its per-call references (to the
    right-hand side and to its own ``_solout``) behind, about 1.1 KB each."""
    return ode(_DEFECT_RHS).set_integrator("dop853", rtol=SHOOTING_RTOL, atol=atol,
                                           nsteps=MAX_STEPS)


def shooting_defect(profile: BackgroundProfile, lam: float,
                    operator: _RadialOperator | None = None) -> float:
    """h'(R) - kappa h(R) for the regular solution at trial eigenvalue lam,
    integrated from the series start at 1e-4 R out to R.

    Analytic in lam, so its sign changes are exactly the eigenvalues.
    Returns NaN if the integration fails or ends non-finite.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    R = profile.R
    r_s = 1e-4 * R
    solver = _dop853(SHOOTING_RTOL * R)
    with _DEFECT_LOCK:
        _DEFECT_RHS.fn = op.rhs
        try:
            solver.set_initial_value(_series_start(lam, r_s), r_s).set_f_params(lam)
            h, hp = solver.integrate(R).tolist()
            if not solver.successful():
                return math.nan
        except ValueError:
            # how the compiled runner reports an exception raised in the
            # right-hand side
            return math.nan
        finally:
            _DEFECT_RHS.fn = None
    defect = hp - op.kappa * h
    return defect if math.isfinite(defect) else math.nan


@dataclass(frozen=True)
class Mode:
    """One radial eigenmode on the background grid (slope 1 at the centre)."""

    eigenvalue: float
    x: float                  # sqrt(lambda) R
    h: np.ndarray             # eigenfunction on profile.r
    defect: float             # shooting defect at the converged eigenvalue
    # True when the first bracket of find_modes held no sign change of the
    # defect and had to be widened
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

    The integration is ``shooting_defect``'s (same start, pair and
    tolerances); ``solve_ivp`` reads it on the grid from the pair's dense
    output.

    The slope is fitted as h = a r + b r^3 over the innermost grid nodes;
    dividing by a removes the O(r^2) bias a single-node ratio would keep.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    R = profile.R
    r_s = 1e-4 * R
    with _Severable(op.rhs) as rhs:
        sol = solve_ivp(rhs, (r_s, R), _series_start(lam, r_s), args=(lam,), method="DOP853",
                        t_eval=profile.r[1:], rtol=SHOOTING_RTOL, atol=SHOOTING_RTOL * R)
    if not sol.success:
        raise ConvergenceError(f"eigenfunction integration failed at lam={lam}")
    h = np.empty(profile.grid_n)
    h[0] = 0.0
    h[1:] = sol.y[0]
    pts = slice(1, 9)
    basis = np.column_stack([profile.r[pts], profile.r[pts] ** 3])
    coef, *_ = np.linalg.lstsq(basis, h[pts], rcond=None)
    return _readonly(h / coef[0])


def _discrete_x(profile: BackgroundProfile, count: int) -> tuple[list[float], list[float]]:
    """x = sqrt(mu) R of the lowest ``count`` eigenvalues of the discrete wave
    operator, Richardson-extrapolated from two chi grids, and the shift
    |x_2n - x_n| between the grids.

    The discrete error is first order in dchi (the shell coordinate
    degenerates at the centre), so the extrapolation uses the exact dchi
    ratio of the two grids.
    """
    n = max(SEED_N_CHI, 10 * count)
    xs, dchis = [], []
    for n_chi in (n, 2 * n):
        coeffs = assemble_coefficients(profile, n_chi=n_chi)
        xs.append(np.sqrt(operator_eigenvalues(coeffs, 0, count - 1)) * profile.R)
        dchis.append(coeffs.dchi)
    shift = xs[1] - xs[0]
    return (xs[1] + shift / (dchis[0] / dchis[1] - 1.0)).tolist(), np.abs(shift).tolist()


def find_modes(profile: BackgroundProfile, n_modes: int = 3) -> list[Mode]:
    """Locate the lowest ``n_modes`` eigenvalues: bracket each from the
    discrete spectrum, then refine it by shooting.

    The wave operator on the chi grid is a Sturm-Liouville discretisation of
    the same problem, so its j-th eigenvalue belongs to the j-th mode.  Its
    lowest eigenvalues on two grids (``SEED_N_CHI`` shells and twice that),
    extrapolated in dchi, give an estimate x_j and an error scale
    d_j = |x_2n - x_n|.  Mode j is bracketed at x_j +- 4 d_j; while the
    shooting defect does not change sign between two finite end values, the
    half-width doubles (``Mode.rescanned`` records that it did).  A bracket
    that reaches a neighbouring estimate x_(j-1) or x_(j+1) (or 0) raises
    ``ConvergenceError``.  ``brentq`` then refines the sign change; a failed
    defect evaluation (NaN) inside the bracket raises ``ConvergenceError``.
    """
    op = _RadialOperator(profile)
    R = profile.R
    x_est, shift = _discrete_x(profile, n_modes + 1)

    def defect_at_x(x: float) -> float:
        return shooting_defect(profile, (x / R) ** 2, op)

    modes = []
    with _Severable(defect_at_x) as defect:
        for j in range(n_modes):
            lo, hi, widened = _sign_bracket(defect, j, x_est, shift[j])
            try:
                x = brentq(defect, lo, hi, xtol=1e-12, rtol=8.9e-16)
            except ValueError as exc:  # brentq's guard against a NaN value
                raise ConvergenceError(f"mode {j + 1}: {exc}") from exc
            lam = (x / R) ** 2
            modes.append(
                Mode(
                    eigenvalue=lam,
                    x=x,
                    h=eigenfunction(profile, lam, op),
                    defect=shooting_defect(profile, lam, op),
                    rescanned=widened,
                )
            )
    return modes


def _sign_bracket(defect, j: int, x_est: list[float], shift: float) -> tuple[float, float, bool]:
    """Bracket [lo, hi] of mode j about x_est[j] with finite defect values of
    opposite sign, starting at half-width 4 * shift and doubling; the flag
    says whether it had to widen."""
    floor = x_est[j - 1] if j else 0.0
    ceiling = x_est[j + 1]
    half = 4.0 * shift
    widened = False
    while True:
        lo, hi = x_est[j] - half, x_est[j] + half
        if lo <= floor or hi >= ceiling:
            raise ConvergenceError(
                f"mode {j + 1}: no sign change of the shooting defect between finite "
                f"values in x = {x_est[j]:.6g} +- {half:.3g} short of the "
                f"neighbouring discrete eigenvalues"
            )
        f_lo, f_hi = defect(lo), defect(hi)
        finite = math.isfinite(f_lo) and math.isfinite(f_hi)
        if finite and (f_lo < 0.0) != (f_hi < 0.0):
            return lo, hi, widened
        half *= 2.0
        widened = True


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
