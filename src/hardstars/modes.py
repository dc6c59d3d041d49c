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
the eigenvalues.  Each right-hand-side call reads three cubic pieces from one
table per star (``_RadialOperator``) and is stepped by the runner the
background's shooting solver uses too (``_shooting.run``): the
Dormand-Prince 8(5,3) pair (Hairer, Norsett and Wanner, *Solving ODEs I*,
II.5) compiled in scipy's ``ode`` interface, with no Python between calls
except a one-line record of each accepted step.  ``eigenfunction`` reads h
on the profile grid from those steps through the pair's own 7th-order dense
output (``_shooting.dense_output``; *Solving ODEs I*, II.6), evaluated for
all steps at once in numpy, so the shape costs no second integration.

``find_modes`` brackets the eigenvalues from the discrete spectrum of the
wave operator on the chi grid (``evolution``), whose j-th eigenvalue belongs
to the j-th mode by Sturm ordering: the lowest eigenvalues on two grids,
extrapolated in the grid spacing, centre one bracket per mode, and
``brentq`` on the shooting defect refines it.  Each trial x is shot once per
``find_modes`` call: the bracket ends and the converged root are reused, and
the root's recorded steps give ``Mode.h``.
``apply_H0``/``apply_H1`` split the radial operator into its flat Bessel part
and the stellar correction, which shrinks like R^2.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded
from scipy.optimize import brentq

from ._shooting import _Severable, dense_output, run
from .background import FOUR_PI, BackgroundProfile, _readonly, chi_weight, metric_terms
from .errors import ConvergenceError
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


#: One row of the radial table: the knot its pieces start from, then the
#: cubic pieces of r P, r^2 Q and W, highest power first.
_ROW = struct.Struct("13d")


class _RadialOperator:
    """The radial problem as h'' = -P h' + (Q - lam W) h, read from one table.

    P = alpha1/alpha2, Q = U/alpha2 and W = 1/alpha2 come from one
    ``_radial_coefficients`` call on the profile knots r > 0.  P and Q are
    singular at the centre (like 2/r and 2/r^2), so the table holds the
    regular r P, r^2 Q and W: one cubic spline of the three, one ``_ROW`` per
    interval of the profile grid.  Interval 0, [0, r_1], continues the first
    piece and a row past R the last, so row int(r/dr) exists for every r in
    [0, R]; ``rhs`` unpacks it into floats, ``coefficients`` reads arrays.
    """

    def __init__(self, profile: BackgroundProfile):
        profile.require_metric()
        r = profile.r[1:]
        alpha1, alpha2, U = _radial_coefficients(r, profile.rho[1:], profile.m_over_r3[1:])
        spline = CubicSpline(r, np.column_stack([r * alpha1 / alpha2, r * r * U / alpha2,
                                                 1.0 / alpha2]))
        rows = np.column_stack([r[:-1], spline.c.transpose(1, 2, 0).reshape(-1, 12)])
        # bytes: 104 per row, where a list of 13 Python floats takes about
        # 480, and unpacking a row costs about as much as indexing one
        self._table = np.vstack([rows[:1], rows, rows[-1:]]).tobytes()
        self._inv_dr = 1.0 / profile.dr
        R = self.R = profile.R
        q_R = metric_terms(R, float(profile.rho[-1]), float(profile.m_over_r3[-1]))[2]
        self.kappa = float(chi_weight(profile)[-1]) * (q_R - 2.0 / R)
        # accepted steps (rows r, h, h') of the latest shooting_defect on
        # this operator, None if it failed; find_modes reads them back, so
        # an operator is not shared between threads that need them
        self.last_steps: np.ndarray | None = None

    def coefficients(self, r):
        """r P, r^2 Q and W at an array of radii, from the rows ``rhs`` reads."""
        row = np.frombuffer(self._table).reshape(-1, 13)[(r * self._inv_dr).astype(int)]
        t = r - row[..., 0]
        return tuple(((row[..., k] * t + row[..., k + 1]) * t + row[..., k + 2]) * t
                     + row[..., k + 3] for k in (1, 5, 9))

    def rhs(self, r, y, lam):
        h, hp = y.tolist()
        x0, p3, p2, p1, p0, q3, q2, q1, q0, w3, w2, w1, w0 = _ROW.unpack_from(
            self._table, int(r * self._inv_dr) * _ROW.size)
        t = r - x0
        rP = ((p3 * t + p2) * t + p1) * t + p0
        r2Q = ((q3 * t + q2) * t + q1) * t + q0
        W = ((w3 * t + w2) * t + w1) * t + w0
        return [hp, (r2Q * h / r - rP * hp) / r - lam * W * h]

    def stages(self, nodes, lam):
        """The right-hand side at every stage node of a dense output at once:
        the table is read once for all ``nodes``, and ``f(s, y)`` gives
        (h', h'') at stage row s for stage values y = (h, h')."""
        rP, r2Q, W = self.coefficients(nodes)

        def f(s, y):
            h, hp = y
            r = nodes[s]
            return hp, (r2Q[s] * h / r - rP[s] * hp) / r - lam * W[s] * h

        return f


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


def _shoot(op: _RadialOperator, lam: float) -> np.ndarray | None:
    """Accepted steps, rows (r, h, h'), of the regular solution at trial
    eigenvalue lam, from the series start at 1e-4 R (the first row) out to
    R (the last), or None if the compiled run fails."""
    R = op.R
    r_s = 1e-4 * R
    try:
        return run(functools.partial(op.rhs, lam=lam), r_s, _series_start(lam, r_s), R,
                   SHOOTING_RTOL, SHOOTING_RTOL * R)
    except ConvergenceError:
        return None


def shooting_defect(profile: BackgroundProfile, lam: float,
                    operator: _RadialOperator | None = None) -> float:
    """h'(R) - kappa h(R) for the regular solution at trial eigenvalue lam,
    integrated from the series start at 1e-4 R out to R.

    Analytic in lam, so its sign changes are exactly the eigenvalues.
    Returns NaN if the integration fails or ends non-finite.  The accepted
    steps are left on the operator as ``last_steps``.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    steps = op.last_steps = _shoot(op, lam)
    if steps is None:
        return math.nan
    _, h, hp = steps[-1].tolist()
    defect = hp - op.kappa * h
    return defect if math.isfinite(defect) else math.nan


@dataclass(frozen=True)
class Mode:
    """One radial eigenmode on the background grid (slope 1 at the centre)."""

    eigenvalue: float
    x: float                  # sqrt(lambda) R
    h: np.ndarray             # eigenfunction on profile.r, read from the
                              # dense output of the run that gave defect
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

    One compiled integration, ``shooting_defect``'s (same start, pair and
    tolerances), read on the grid from the pair's dense output over its
    accepted steps (``_dense_profile``).  A failed integration raises
    ``ConvergenceError``.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    steps = _shoot(op, lam)
    if steps is None:
        raise ConvergenceError(f"eigenfunction integration failed at lam={lam}")
    return _dense_profile(profile, op, lam, steps)


def _dense_profile(profile: BackgroundProfile, op: _RadialOperator, lam: float,
                   steps: np.ndarray) -> np.ndarray:
    """h on ``profile.r`` from the accepted ``steps`` of one compiled run,
    normalised to unit central slope.

    The run's dense output (``_shooting.dense_output``) takes every stage's
    table values from one ``op.coefficients`` call (``op.stages``).  The
    slope is fitted as h = a r + b r^3 over the innermost grid nodes;
    dividing by a removes the O(r^2) bias a single-node ratio would keep.
    """
    h = np.empty(profile.grid_n)
    h[0] = 0.0
    h[1:] = dense_output(steps, profile.r[1:], functools.partial(op.stages, lam=lam))[0]
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
    ratio of the two grids.  An eigenvalue that is not positive has no x and
    raises ``ConvergenceError``.
    """
    n = max(SEED_N_CHI, 10 * count)
    xs, dchis = [], []
    for n_chi in (n, 2 * n):
        coeffs = assemble_coefficients(profile, n_chi=n_chi)
        mu = operator_eigenvalues(coeffs, 0, count - 1)
        for j, mu_j in enumerate(mu.tolist()):
            if not mu_j > 0.0:
                raise ConvergenceError(
                    f"mode {j + 1}: discrete eigenvalue mu = {mu_j:.6g} on {n_chi} shells "
                    f"is not positive, so x = sqrt(mu) R does not exist"
                )
        xs.append(np.sqrt(mu) * profile.R)
        dchis.append(coeffs.dchi)
    shift = xs[1] - xs[0]
    return (xs[1] + shift / (dchis[0] / dchis[1] - 1.0)).tolist(), np.abs(shift).tolist()


def find_modes(profile: BackgroundProfile, n_modes: int = 3) -> list[Mode]:
    """Locate the lowest ``n_modes`` eigenvalues: bracket each from the
    discrete spectrum, then refine it by shooting, each trial x shot once per
    call.

    The wave operator on the chi grid is a Sturm-Liouville discretisation of
    the same problem, so its j-th eigenvalue belongs to the j-th mode.  Its
    lowest eigenvalues on two grids (``SEED_N_CHI`` shells and twice that),
    extrapolated in dchi, give an estimate x_j and an error scale
    d_j = |x_2n - x_n|.  Mode j is bracketed at x_j +- 4 d_j; while the
    shooting defect does not change sign between two finite end values, the
    half-width doubles (``Mode.rescanned`` records that it did).  A bracket
    that reaches a neighbouring estimate x_(j-1) or x_(j+1) (or 0) raises
    ``ConvergenceError``, and so does a non-positive discrete eigenvalue
    (before any shooting).  ``brentq`` then refines the sign change; a failed
    defect evaluation (NaN) inside the bracket raises ``ConvergenceError``.

    Each call keeps its defects by x, with the accepted steps of each
    integration, so ``brentq`` starts from the two bracket ends already
    shot, and ``Mode.defect`` is the value at brentq's root and ``Mode.h``
    the dense output of that same integration, not a fresh one.
    """
    op = _RadialOperator(profile)
    R = profile.R
    x_est, shift = _discrete_x(profile, n_modes + 1)
    shot: dict[float, tuple[float, np.ndarray | None]] = {}

    def defect_at_x(x: float) -> float:
        if x not in shot:
            shot[x] = (shooting_defect(profile, (x / R) ** 2, op), op.last_steps)
        return shot[x][0]

    modes = []
    with _Severable(defect_at_x) as defect:
        for j in range(n_modes):
            lo, hi, widened = _sign_bracket(defect, j, x_est, shift[j])
            try:
                x = brentq(defect, lo, hi, xtol=1e-12, rtol=8.9e-16)
            except ValueError as exc:  # brentq's guard against a NaN value
                raise ConvergenceError(f"mode {j + 1}: {exc}") from exc
            lam = (x / R) ** 2
            root_defect, steps = shot[x]
            modes.append(
                Mode(
                    eigenvalue=lam,
                    x=x,
                    h=_dense_profile(profile, op, lam, steps),
                    defect=root_defect,
                    rescanned=widened,
                )
            )
    return modes


def _sign_bracket(defect, j: int, x_est: list[float], shift: float) -> tuple[float, float, bool]:
    """Bracket [lo, hi] of mode j about x_est[j] with finite defect values of
    opposite sign, starting at half-width 4 * shift and doubling; the flag
    says whether it had to widen.  A half-width that is zero or not finite
    could never widen, so it raises before any shooting."""
    floor = x_est[j - 1] if j else 0.0
    ceiling = x_est[j + 1]
    half = 4.0 * shift
    if not 0.0 < half < math.inf:
        raise ConvergenceError(
            f"mode {j + 1}: bracket half-width {half!r} about x = {x_est[j]:.6g} "
            f"is not positive and finite"
        )
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
    h = np.asarray(h, dtype=float)
    dr = profile.dr
    hp = derivative_uniform(h, dr, order=2)
    hpp = second_derivative_uniform(h, dr)
    r = profile.r[1:]
    out = np.zeros_like(h)
    rP, r2Q, W = _RadialOperator(profile).coefficients(r)
    out[1:] = ((r2Q * h[1:] / r - rP * hp[1:]) / r - hpp[1:]) / W
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


def _discrete_eigen_shape(coeffs: WaveCoefficients, lam: float, seed: np.ndarray) -> np.ndarray:
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
    for _ in range(2):
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
    """Oscillation period from mean spacing of same-direction zero crossings.

    Each crossing is placed by linear interpolation between the two samples
    around it, so the samples must resolve the oscillation.  For a clean
    mode, ``evolve``'s ``times`` and ``surface`` at 20 samples per period
    (``hardstars verify`` takes ``samples=60`` over three periods) give the
    period of every-step sampling to within 1e-5 relative.  At least two
    upward crossings are needed; with fewer the run did not oscillate as a
    mode, and ``ConvergenceError`` is raised.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    sign = np.sign(y)
    ups = np.where((sign[:-1] < 0) & (sign[1:] >= 0))[0]
    if len(ups) < 2:
        raise ConvergenceError(
            f"need at least two upward zero crossings to estimate a period, found {len(ups)}"
        )
    crossings = t[ups] - y[ups] * (t[ups + 1] - t[ups]) / (y[ups + 1] - y[ups])
    return float(np.mean(np.diff(crossings)))
