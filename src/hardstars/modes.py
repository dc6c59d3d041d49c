"""Radial oscillation modes of a static star, by Chebyshev collocation.

The time-periodic ansatz u = h(chi) cos(sqrt(lambda) t) turns the wave
equation into a Sturm-Liouville problem.  The wave operator is gamma times
the Euler-Lagrange operator of the second variation, -(e C h')' + e K h
(``variation.quadratic_form``, with e = exp(I - I(R))), so in the areal
radius the problem reads

    h'' + P h' + (lambda W - Q) h = 0,
    P = (e C)'/(e C) = 2/r - 2 q + 4 pi r n^2 / (1 - 2m/r),
    Q = K / C,   W = D / C = n^2 / (1 - 2m/r),

with h ~ r at the centre and the Robin surface condition
h'(R) = kappa h(R), kappa = w(R) (q(R) - 2/R).  For a vanishingly small star
the problem collapses to the l=1 spherical Bessel equation, so h -> j1 and
the admissible x = sqrt(lambda) R approach the roots of

    sin x (x^2 - 2) + 2 x cos x = 0            (x1 = 2.0815759778181...)

Every coefficient is a function of r^2, and so is g = h/r.  With
x^2 = lambda R^2 the problem in s = (r/R)^2 reads

    4 s g_ss + 2 (3 + rP) g_s + E g = -x^2 W g,    E = (rP - r^2 Q)/s,
    g + 2 g_s = kappa R g                          at s = 1.

At the centre the equation itself is the regularity condition (the other
solution, g ~ s^(-3/2), is no polynomial), so no series start is needed.
``_RadialOperator`` collocates the problem on N + 1 Chebyshev-Gauss-Lobatto
nodes in s (Trefethen, *Spectral Methods in MATLAB*, SIAM 2000, ch. 6-7;
Boyd, *Chebyshev and Fourier Spectral Methods*, 2001), with rP, r^2 Q and W
read from the form at the nodes.  Each node reads rho and m/r^3 from the
four nearest samples of the profile (``numerics.lagrange_uniform``), so
no spline over every knot is built:

* ``find_modes`` eliminates the Robin row and takes every x^2 at once from
  one N x N eigenvalue solve;
* the regular solution at any lambda is one linear solve with the Robin row
  replaced by g(0) = 1, so h = r g has unit central slope.
  ``shooting_defect`` returns its h'(R) - kappa h(R), the surface mismatch
  a shooting method would drive to zero: analytic in lambda, with the
  eigenvalues as its zeros.  ``eigenfunction`` sums g's Chebyshev series on
  the profile grid by Clenshaw's recurrence, and ``find_modes`` takes
  ``Mode.h`` and ``Mode.defect`` from that same solve at each eigenvalue;
* each ``Mode`` keeps g's Chebyshev series, and ``mode_to_initial_data``
  sums it at the wave grid's radii, so no grid is interpolated there either.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.chebyshev import chebval
from scipy.linalg import solve_banded
from scipy.optimize import brentq
from scipy.special import spherical_jn

from .background import FOUR_PI, BackgroundProfile, _chi_jacobian, _readonly, metric_terms
from .errors import ConvergenceError, DomainError
from .evolution import WaveCoefficients
from .numerics import chebyshev_nodes, chebyshev_series, lagrange_uniform, scan_sign_changes
from .variation import quadratic_form

#: First admissible x = sqrt(lambda) R in the zero-size limit.
X1_LIMIT = 2.0815759778181

#: Largest share of the biggest Chebyshev coefficient of a regular solution
#: g that its last three may keep; above it g is unresolved.  Measured at
#: R = 0.05: a tail of 3.6e-8 (mode 2 on 10 intervals) leaves 1.1e-12 of the
#: peak in h and 1.2e-11 in the defect, and one of 1.1e-7 (mode 3 on 12)
#: 1.8e-11 and 1.5e-10.  Resolved solutions leave about 1e-15, and rounding
#: 5e-10 on the 1040 intervals lambda = 1e9 takes.
TAIL_TOL = 1e-8


def dispersion_function(x, R: float = 0.0):
    """Surface-condition defect of the small-star model, whose zeros give the
    flat-operator eigenvalues.  At R = 0 it reduces to sin x (x^2-2) + 2x cos x
    (up to a factor x^2)."""
    x = np.asarray(x, dtype=float)
    return (2.0 - 8.0 * math.pi * R * R) * (-spherical_jn(1, x)) + np.sin(x)


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


# -------------------------------------------------------- collocation solver


def _node_count(x: float) -> int:
    """Chebyshev intervals N for a solution with up to x/pi half-waves: 16,
    and 8 more for every 4 pi of x begun.

    Mode j has about j half-waves, so ``find_modes`` passes x = pi n_modes.
    Measured on R = 0.02-0.247 against 56-72 intervals: N = 24 gives the
    lowest 6 modes to 1e-11 in x (4 pi reaches past mode 4 only), N = 40
    the lowest 14, and N = 1040 resolves the regular solution at
    lambda = 1e9, R = 0.05.  Past about 64 intervals the rounding of the
    eigenvalues grows towards 1e-11, so N grows no faster than the modes
    need.
    """
    return 16 + 8 * math.ceil(max(x, 0.0) / (4.0 * math.pi))


class _RadialOperator:
    """The radial problem of one star in s = (r/R)^2 on Chebyshev nodes.

    rP, r^2 Q and W are read from ``variation.quadratic_form``, with C's
    factor r^2 cancelled so that each is regular at the centre.  The form
    takes rho and m/r^3 at each node from the cubic through the four
    nearest profile samples (one-sided next to the centre and the surface).
    That is as accurate as a cubic spline over every knot, without building
    one: on grid 2001 the coefficients stay within 4e-14 of spline-read
    ones, and x_j within 6e-14, from R = 0.02 to 0.247.

    E is the quotient (rP - r^2 Q)/s at every node but the centre, where
    the quotient is 0/0; there E takes its limit R^2 (12 pi rho_c -
    m/r^3|_0) from the regular form, with D = 1 - 2m/r,

        E/R^2 = -q/r + (4 pi rho - m/r^3)/D + 2 q^2 + (2 m/r^3 + 8 pi n^2)/D
                - 4 pi r n^2 q/D - q',

    in which -q/r - q' -> -2 (m/r^3 + 4 pi (rho - 1)) and D -> 1.  The
    local wavenumber of the regular solution at lambda is sqrt(lambda W), so
    it has at most sqrt(lambda max W) R / pi half-waves.  The matrices of
    each N are built once per operator.
    """

    def __init__(self, profile: BackgroundProfile):
        self._profile = profile
        R = self.R = profile.R
        n2_R, D_R, q_R = metric_terms(R, float(profile.rho[-1]), float(profile.m_over_r3[-1]))
        self.kappa = float(_chi_jacobian(R, n2_R, D_R)) * (q_R - 2.0 / R)
        self.E_centre = R * R * (3.0 * FOUR_PI * float(profile.rho[0])
                                 - float(profile.m_over_r3[0]))
        n2, D, _ = metric_terms(profile.r, profile.rho, profile.m_over_r3)
        self._W_max = float(np.max(n2 / D))
        self._collocations: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def coefficients(self, r):
        """r P, r^2 Q = K / (4 pi n^2) and W = n^2 / (1 - 2m/r) at an array of radii."""
        p = self._profile
        rho, mor3 = lagrange_uniform(r, p.dr, p.rho, p.m_over_r3)
        n2, D, q = metric_terms(r, rho, mor3)
        K = quadratic_form(r, rho, mor3)[4]
        return 2.0 - 2.0 * r * q + FOUR_PI * r * r * n2 / D, K / (FOUR_PI * n2), n2 / D

    def collocation(self, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(L, W, robin) on N intervals: row j of L applies
        4 s g_ss + 2 (3 + rP) g_s + E g at node j, W is read at the nodes,
        and robin @ g = g + 2 g_s - kappa R g at s = 1 is h'(R) - kappa h(R)."""
        if N not in self._collocations:
            y, d1, d2 = chebyshev_nodes(N)
            s = y * y
            rP, r2Q, W = self.coefficients(self.R * y)
            E = np.empty_like(s)
            E[:-1] = (rP[:-1] - r2Q[:-1]) / s[:-1]
            E[-1] = self.E_centre
            L = 4.0 * s[:, None] * d2 + (2.0 * (3.0 + rP))[:, None] * d1 + np.diag(E)
            robin = 2.0 * d1[0]
            robin[0] += 1.0 - self.kappa * self.R
            self._collocations[N] = L, W, robin
        return self._collocations[N]

    def eigenvalues(self, N: int) -> np.ndarray:
        """Every x^2 on N intervals, ascending in real part.  The Robin row
        gives the surface value from the others, which leaves W^-1 times the
        remaining rows as one N x N matrix."""
        L, W, robin = self.collocation(N)
        surface = -robin[1:] / robin[0]
        x2 = np.linalg.eigvals((L[1:, 1:] + np.outer(L[1:, 0], surface)) / -W[1:, None])
        return x2[np.argsort(x2.real)]

    def regular(self, lam: float) -> tuple[np.ndarray, float]:
        """Chebyshev coefficients of the regular solution g at lam, with
        g(0) = 1, and its defect h'(R) - kappa h(R), on
        ``_node_count(sqrt(lam max W) R)`` intervals.

        Every interior and centre row is kept and the surface row becomes
        g(0) = 1.  A singular or non-finite solve, or a Chebyshev tail above
        ``TAIL_TOL``, raises ``ConvergenceError``.
        """
        if not math.isfinite(lam):
            raise ConvergenceError(f"regular solution: lam = {lam!r} is not finite")
        N = _node_count(math.sqrt(max(lam, 0.0) * self._W_max) * self.R)
        L, W, robin = self.collocation(N)
        M = L + np.diag((lam * self.R * self.R) * W)
        M[0] = 0.0
        M[0, N] = 1.0
        rhs = np.zeros(N + 1)
        rhs[0] = 1.0
        try:
            g = np.linalg.solve(M, rhs)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"regular solution at lam = {lam!r}: {exc}") from exc
        a = chebyshev_series(g)
        tail = float(np.max(np.abs(a[-3:])) / np.max(np.abs(a)))
        if not tail <= TAIL_TOL:
            raise ConvergenceError(
                f"regular solution at lam = {lam!r} is unresolved on {N} Chebyshev intervals: "
                f"tail {tail:.3g} of its largest coefficient > {TAIL_TOL:g}"
            )
        return a, float(robin @ g)


def _radial_sum(r: np.ndarray, R: float, a: np.ndarray) -> np.ndarray:
    """h = r g(s) at radii r of the star of radius R, from g's Chebyshev
    coefficients a (Clenshaw)."""
    y = r / R
    return r * chebval(2.0 * y * y - 1.0, a)


def _on_grid(profile: BackgroundProfile, a: np.ndarray) -> np.ndarray:
    """h = r g(s) on ``profile.r``."""
    return _readonly(_radial_sum(profile.r, profile.R, a))


def shooting_defect(profile: BackgroundProfile, lam: float,
                    operator: _RadialOperator | None = None) -> float:
    """h'(R) - kappa h(R) for the regular solution at trial eigenvalue lam,
    normalised to unit central slope (``_RadialOperator.regular``).

    Analytic in lam, so its zeros are exactly the eigenvalues.  Returns NaN
    if the solve fails, ends non-finite or is unresolved.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    try:
        return op.regular(lam)[1]
    except ConvergenceError:
        return math.nan


@dataclass(frozen=True)
class Mode:
    """One radial eigenmode on the background grid (slope 1 at the centre).

    ``series`` holds the Chebyshev coefficients a_k of g = h/r in
    s = (r/R)^2, g = sum a_k T_k(2 s - 1), from the regular solve at the
    eigenvalue; ``h`` is that series summed on ``profile.r``, and
    ``mode_to_initial_data`` sums it on any grid of the star of radius ``R``.
    """

    eigenvalue: float
    x: float                  # sqrt(lambda) R
    h: np.ndarray             # eigenfunction on profile.r, from the regular
                              # solve at the eigenvalue that gave defect
    defect: float             # h'(R) - kappa h(R) of that solve
    series: np.ndarray        # Chebyshev coefficients of g = h/r in 2 s - 1
    R: float                  # radius of the star the mode belongs to

    @property
    def frequency(self) -> float:
        return math.sqrt(self.eigenvalue)

    @property
    def period(self) -> float:
        return 2.0 * math.pi / self.frequency


def eigenfunction(profile: BackgroundProfile, lam: float,
                  operator: _RadialOperator | None = None) -> np.ndarray:
    """Regular solution h on the profile grid, with unit central slope.

    The solve ``shooting_defect`` makes, summed on the grid.  A failed or
    unresolved solve raises ``ConvergenceError``.
    """
    op = operator if operator is not None else _RadialOperator(profile)
    return _on_grid(profile, op.regular(lam)[0])


def find_modes(profile: BackgroundProfile, n_modes: int = 3) -> list[Mode]:
    """The lowest ``n_modes`` eigenvalues from one eigenvalue solve, each
    with its eigenfunction.

    The eigenvalue solve runs on ``_node_count(pi n_modes)`` intervals,
    since the organ-pipe spacing keeps x_j below j pi.  A requested x^2 that
    is complex beyond rounding, or a lambda that is not positive and finite,
    raises ``ConvergenceError``.  ``Mode.h`` and ``Mode.defect`` come from one
    regular solve at each eigenvalue, the one ``eigenfunction`` and
    ``shooting_defect`` make: so ``Mode.h`` is ``eigenfunction(profile,
    lambda_j)`` bit for bit, and ``Mode.defect`` is not zero by construction
    but shows how far x_j misses a zero of the regular solve's defect.  An
    unresolved regular solve raises ``ConvergenceError`` too.
    """
    op = _RadialOperator(profile)
    R = profile.R
    N = _node_count(math.pi * n_modes)
    modes = []
    for j, x2 in enumerate(op.eigenvalues(N)[:n_modes].tolist()):
        if abs(x2.imag) > 1e-10 * abs(x2):
            raise ConvergenceError(
                f"mode {j + 1}: eigenvalue x^2 = {x2:.6g} on {N} Chebyshev intervals is "
                f"complex beyond rounding"
            )
        lam = x2.real / (R * R)
        if not 0.0 < lam < math.inf:
            raise ConvergenceError(
                f"mode {j + 1}: eigenvalue lambda = {lam:.6g} on {N} Chebyshev intervals "
                f"is not positive and finite, so x = sqrt(lambda) R does not exist"
            )
        try:
            a, defect = op.regular(lam)
        except ConvergenceError as exc:
            raise ConvergenceError(f"mode {j + 1}: {exc}") from exc
        modes.append(Mode(eigenvalue=lam, x=math.sqrt(x2.real), h=_on_grid(profile, a),
                          defect=defect, series=_readonly(a), R=R))
    return modes


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

    The sample is the mode's Chebyshev series (``Mode.series``) summed at
    the radii ``coeffs.r0``, so it needs no interpolation of ``Mode.h`` and
    holds for coefficients assembled on any profile grid of the mode's star.
    Coefficients of a star of another radius raise ``DomainError``.

    Pointwise sampling is not discretely consistent near the centre, where
    the shell coordinate degenerates like chi^(1/3) and the node-1 stencil
    error is inflated; ``refine`` projects the sample onto the discrete
    operator's own eigenvector so evolution reproduces the mode cleanly.
    """
    if coeffs.profile.R != mode.R:
        raise DomainError(
            f"a mode of the R = {mode.R!r} star cannot seed wave data of the "
            f"R = {coeffs.profile.R!r} star"
        )
    u0 = amplitude * _radial_sum(coeffs.r0, mode.R, mode.series)
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
