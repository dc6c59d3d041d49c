"""Static, spherically symmetric stars made of the stiffest causal fluid.

The fluid obeys p = rho - 1 in units where the stiff floor density is 1 and
G = c = 1.  A star of areal radius R is the solution of the hydrostatic
system

    dm/dr   = 4 pi r^2 rho
    drho/dr = -((2 rho - 1)/(r - 2 m)) (4 pi r^2 (rho - 1) + m/r)

with m(0) = 0 and rho(R) = 1.  Two independent solvers are provided:

* ``solve_tov_picard`` iterates the integral fixed point of the deviation
  variables mtilde = m - (4 pi/3) r^3, rhotilde = rho - 1 on a uniform grid.
  The iteration is a contraction for small stars; the update map is applied
  until the weighted sup norm of the increment falls below ``picard_tol``.
* ``solve_tov_shooting`` (named after the shooting route it replaced)
  collocates the system in s = (r/R)^2, with mu = m/r^3 as the mass
  unknown, on Chebyshev-Gauss-Lobatto nodes (Trefethen, *Spectral Methods
  in MATLAB*, SIAM 2000, ch. 6-7; Boyd, *Chebyshev and Fourier Spectral
  Methods*, 2001) and solves it by Newton with the analytic Jacobian,
  doubling the nodes until the Chebyshev tail is at rounding level.  It
  reaches every radius up to ``R_MAX`` (the low-density star where two
  share a radius) and, like the fixed-point route, needs numpy alone.

Both return the same ``BackgroundProfile``; their agreement is the primary
cross-check of the module.  A profile is three arrays on the grid: r, rho
and m/r^3, the regular unknowns the solvers solve for.  m/r^3, 0/0 at the
centre, is stored with its analytic limit so no consumer ever divides by
zero.  Everything else is read off those arrays: R and the grid size, the
mass function m = (m/r^3) r^3, the particle coordinate chi (integrated on
first read) and the totals M = m(R) and N = chi(R).  Every other metric
quantity is a pointwise function of (r, rho, m/r^3) and is formed where it
is used: the lapse n = sqrt(2 rho - 1), psi = -ln n, omega = -ln(4 pi r^2 n)
and dr/dchi = sqrt(1 - 2m/r)/(4 pi r^2 n).

``metric_terms(r, rho, m/r^3)`` is the only place that forms the pointwise
quantities every layer builds on: n^2 = 2 rho - 1, D = 1 - 2m/r and the lapse
gradient q; the equilibrium slope is -n^2 q and dchi/dr = 4 pi r^2 n/sqrt(D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .calibration import R_MAX
from .errors import ConvergenceError, DomainError
from .numerics import chebyshev_nodes, chebyshev_series, cumulative_simpson_uniform

FOUR_PI = 4.0 * math.pi

#: Radius bound enforced for the fixed-point solver; inside it the update map
#: contracts with factor <= 3/4 in the weighted norm used below.
MAX_CONTRACTION_RADIUS = 0.25 * math.sqrt(3.0 / FOUR_PI)

#: Chebyshev intervals of the collocation solver's first try, and its cap.
#: N = 16 resolves every star up to R = 0.235; R = 0.24-0.2472 need 32.
COLLOCATION_N = 16
COLLOCATION_MAX_N = 64
#: Largest share of the biggest Chebyshev coefficient of rho or mu that
#: their last three may keep.  Measured tails at N = 16: at most 8.6e-16
#: for R <= 0.235, 2.3e-15 at R = 0.24 and 0.7-1.0e-14 for R = 0.245-0.2472;
#: on 24-64 intervals at most 4.1e-16 (rounding) over R = 0.02-0.2472.
TAIL_TOL = 2e-15
#: Newton stops after its first step of sup norm at most this.  Convergence
#: is quadratic up to the fold at R_max, so the next step would lie at the
#: rounding floor, measured at 1e-15 to 1.4e-12 (R = 0.02-0.2472).
NEWTON_STEP_TOL = 1e-10
#: Step cap: R = 0.02-0.235 converge in 2-5 steps from the closed form,
#: R = 0.247 in 8, and R = 0.24721839 (8e-10 below the fold) in 15.
NEWTON_MAX_STEPS = 40


@dataclass(frozen=True)
class StarParameters:
    """Inputs of a single static solve."""

    R: float
    grid_n: int = 4096
    picard_tol: float = 1e-12
    picard_max_iter: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.R <= R_MAX):
            raise DomainError(
                f"radius must lie in (0, {R_MAX}] (no static star is larger), got {self.R}"
            )
        if self.grid_n < 16:
            raise DomainError(f"grid_n must be at least 16, got {self.grid_n}")
        if self.picard_tol <= 0.0 or self.picard_max_iter < 1:
            raise DomainError("picard_tol must be positive and picard_max_iter >= 1")


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BackgroundProfile:
    """A solved star on a uniform radial grid: r, rho and m/r^3.

    R, the grid size, m and the totals are read off those arrays, and chi is
    integrated on first read; a profile is never half-built.
    """

    r: np.ndarray
    rho: np.ndarray
    m_over_r3: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def R(self) -> float:
        return float(self.r[-1])

    @property
    def grid_n(self) -> int:
        return len(self.r)

    @property
    def dr(self) -> float:
        return self.R / (self.grid_n - 1)

    @property
    def m(self) -> np.ndarray:
        """The mass function m = (m/r^3) r^3."""
        return _readonly(self.m_over_r3 * self.r ** 3)

    @cached_property
    def chi(self) -> np.ndarray:
        """The particle coordinate chi(r) = integral of dchi/dr (``chi_weight``)."""
        return _readonly(cumulative_simpson_uniform(chi_weight(self), self.dr))

    @property
    def M_total(self) -> float:
        return float(self.m[-1])

    @property
    def N_total(self) -> float:
        return float(self.chi[-1])

    @property
    def rho_central(self) -> float:
        return float(self.rho[0])


def tov_rhs(r: float, m: float, rho: float) -> tuple[float, float]:
    """Right-hand side of the hydrostatic system at a single point.

    At r = 0 both derivatives vanish (regular centre).  Raises ``DomainError``
    for a shell inside its own horizon (r <= 2m at r > 0) or density below
    the stiff floor.
    """
    if rho < 1.0:
        raise DomainError(f"density {rho} below the stiff floor 1")
    if r == 0.0:
        if m != 0.0:
            raise DomainError("nonzero mass at the centre")
        return 0.0, 0.0
    if r < 0.0 or r <= 2.0 * m:
        raise DomainError(f"shell at r={r} with m={m} is trapped (requires r > 2m)")
    dm = FOUR_PI * r * r * rho
    drho = -((2.0 * rho - 1.0) / (r - 2.0 * m)) * (FOUR_PI * r * r * (rho - 1.0) + m / r)
    return dm, drho


def approximate_profile(R: float, r: np.ndarray | float,
                        order: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Small-star closed form: density and radius-compression in powers of R^2.

    Returns (rho, compression) where compression approximates
    4 pi r^2 dr/dchi = sqrt(1 - 2m/r)/n, the rate at which areal radius is
    gained per flat shell volume.  ``order=1`` keeps the R^2 terms,

        rho ~ 1 + (2 pi/3)(R^2 - r^2),  compression ~ 1 - (2 pi/3)(R^2 + r^2),

    with errors O(R^4); ``order=2`` adds the R^4 terms of the expansion of
    the hydrostatic system in r/R,

        (8 pi^2/45)(2 r^4 - 15 R^2 r^2 + 13 R^4)   to rho,
        -(2 pi^2/45)(37 R^4 - 30 R^2 r^2 + 21 r^4)  to compression,

    with errors O(R^6).
    """
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order!r}")
    r = np.asarray(r, dtype=float)
    R2, r2 = R * R, r * r
    rho = 1.0 + (2.0 * math.pi / 3.0) * (R2 - r2)
    rprime = 1.0 - (2.0 * math.pi / 3.0) * (R2 + r2)
    if order == 2:
        pi2 = math.pi * math.pi
        rho = rho + (8.0 * pi2 / 45.0) * (2.0 * r2 * r2 - 15.0 * R2 * r2 + 13.0 * R2 * R2)
        rprime = rprime - (2.0 * pi2 / 45.0) * (37.0 * R2 * R2 - 30.0 * R2 * r2 + 21.0 * r2 * r2)
    return rho, rprime


def _pack_profile(r, rho, m_over_r3, provenance) -> BackgroundProfile:
    return BackgroundProfile(r=_readonly(r), rho=_readonly(rho),
                             m_over_r3=_readonly(m_over_r3), provenance=provenance)


def solve_tov_picard(params: StarParameters) -> BackgroundProfile:
    """Solve the static star by fixed-point iteration of the integral system.

    Works in the deviation variables (mtilde, rhotilde).  One sweep maps

        mtilde   <- integral_0^r 4 pi s^2 rhotilde ds
        rhotilde <- integral_r^R (1 + 2 rhotilde)
                    / (1 - (8 pi/3) s^2 - 2 mtilde/s)
                    * (4 pi s / 3) (1 + 3 rhotilde + 3 mtilde/(4 pi s^3)) ds

    and the iteration stops when the increment's weighted norm
    (3/(4 pi)) sup|d mtilde / r^3| + 2 sup|d rhotilde| drops below
    ``picard_tol``.  Quadrature is cumulative Simpson on the uniform grid.
    """
    if params.R > MAX_CONTRACTION_RADIUS:
        raise DomainError(
            "fixed-point solver requires R <= "
            f"{MAX_CONTRACTION_RADIUS:.6f} (contraction regime), got {params.R}"
        )
    n_pts = params.grid_n
    r = np.linspace(0.0, params.R, n_pts)
    dr = r[1] - r[0]
    r2 = r * r

    rhot = np.zeros(n_pts)
    ratio = np.zeros(n_pts)  # mtilde / r^3 with its centre limit at node 0

    last_residual = math.inf
    for iteration in range(1, params.picard_max_iter + 1):
        # mass update from the current density deviation
        mt = cumulative_simpson_uniform(FOUR_PI * r2 * rhot, dr)
        new_ratio = np.empty(n_pts)
        new_ratio[0] = (FOUR_PI / 3.0) * rhot[0]
        new_ratio[1:] = mt[1:] / (r[1:] ** 3)

        # density update from the current pair
        denom = 1.0 - (8.0 * math.pi / 3.0) * r2 - 2.0 * new_ratio * r2
        if np.any(denom <= 0.0):
            raise ConvergenceError("denominator vanished during fixed-point sweep")
        g = (
            (1.0 + 2.0 * rhot)
            / denom
            * (FOUR_PI * r / 3.0)
            * (1.0 + 3.0 * rhot + (3.0 / FOUR_PI) * new_ratio)
        )
        cg = cumulative_simpson_uniform(g, dr)
        new_rhot = cg[-1] - cg

        last_residual = (3.0 / FOUR_PI) * float(np.max(np.abs(new_ratio - ratio))) + 2.0 * float(
            np.max(np.abs(new_rhot - rhot))
        )
        rhot, ratio = new_rhot, new_ratio
        if last_residual <= params.picard_tol:
            break
    else:
        raise ConvergenceError(
            f"fixed-point iteration did not reach {params.picard_tol} "
            f"in {params.picard_max_iter} sweeps",
            iterations=params.picard_max_iter,
            residual=last_residual,
        )

    rho = 1.0 + rhot
    m_over_r3 = (FOUR_PI / 3.0) + ratio
    provenance = {
        "solver": "picard",
        "iterations": iteration,
        "residual": last_residual,
        "grid_n": n_pts,
        "tol": params.picard_tol,
    }
    return _pack_profile(r, rho, m_over_r3, provenance)


def _hydrostatic_system(a: float, s: np.ndarray, d1: np.ndarray, rho: np.ndarray,
                        mu: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residual F and Jacobian J of the hydrostatic system collocated at the
    nodes s with derivative matrix d1, for a = R^2 and the node values of
    rho and mu = m/r^3 (the unknowns, rho first).

    The first N + 1 rows are 3 mu + 2 s mu_s - 4 pi rho, the rest
    rho_s + (a/2) n^2 b/den with n^2 = 2 rho - 1, b = 4 pi (rho - 1) + mu and
    den = 1 - 2 a s mu, whose surface row is replaced by rho(1) - 1.
    """
    n2, b, den = 2.0 * rho - 1.0, FOUR_PI * (rho - 1.0) + mu, 1.0 - 2.0 * a * s * mu
    eye = np.eye(len(s))
    F = np.concatenate([3.0 * mu + 2.0 * s * (d1 @ mu) - FOUR_PI * rho,
                        d1 @ rho + 0.5 * a * n2 * b / den])
    J = np.block([
        [-FOUR_PI * eye, 3.0 * eye + 2.0 * s[:, None] * d1],
        [d1 + np.diag(0.5 * a * (2.0 * b + FOUR_PI * n2) / den),
         np.diag(0.5 * a * n2 * (1.0 + 2.0 * a * s * b / den) / den)],
    ])
    surface = len(s)
    F[surface] = rho[0] - 1.0
    J[surface] = 0.0
    J[surface, 0] = 1.0
    return F, J


def _newton(R: float, N: int, rho: np.ndarray,
            mu: np.ndarray) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Newton on the system collocated on N intervals, from node values
    (rho, mu): the solution, the steps taken and the sup norm of the
    solution's residual.  Stops after the first step of sup norm at most
    ``NEWTON_STEP_TOL``; a singular Jacobian, a non-finite step or
    ``NEWTON_MAX_STEPS`` steps raise ``ConvergenceError``.
    """
    y, d1, _ = chebyshev_nodes(N)
    step = math.nan
    for steps in range(1, NEWTON_MAX_STEPS + 1):
        F, J = _hydrostatic_system(R * R, y * y, d1, rho, mu)
        try:
            dx = np.linalg.solve(J, -F)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"Newton step {steps} on {N} Chebyshev intervals: {exc}",
                                   iterations=steps) from exc
        rho, mu = rho + dx[:N + 1], mu + dx[N + 1:]
        step = float(np.max(np.abs(dx)))
        if step <= NEWTON_STEP_TOL:
            F = _hydrostatic_system(R * R, y * y, d1, rho, mu)[0]
            return rho, mu, steps, float(np.max(np.abs(F)))
        if not math.isfinite(step):
            break
    residual = float(np.max(np.abs(F)))
    raise ConvergenceError(
        f"Newton iteration of the collocated hydrostatic system did not converge in {steps} "
        f"steps on {N} Chebyshev intervals: last step {step:.2g}, residual {residual:.2g} "
        f"(the largest static star has R = 0.2472183984)",
        iterations=steps, residual=residual,
    )


def solve_tov_shooting(params: StarParameters) -> BackgroundProfile:
    """Solve the static star by Chebyshev collocation of the hydrostatic
    system; the name is that of the shooting route it replaced, which
    ``--solver shooting`` and its configs keep.

    In s = (r/R)^2, with mu = m/r^3 and a = R^2, the system reads

        3 mu + 2 s mu_s = 4 pi rho,
        rho_s = -(a/2)(2 rho - 1)(4 pi (rho - 1) + mu)/(1 - 2 a s mu),
        rho(1) = 1,

    regular at the centre, where the first equation is 3 mu = 4 pi rho.  It
    is collocated on N + 1 Chebyshev-Gauss-Lobatto nodes in s (the density
    equation at every node but the surface) and solved by Newton with the
    analytic Jacobian (``_newton``) from the closed form
    (``approximate_profile`` of order 2, with mu = (4 pi/3) rho), which
    leads to the low-density star at every radius.  N starts at
    ``COLLOCATION_N`` and doubles, from the previous solution, while the last
    three Chebyshev coefficients of rho or mu exceed ``TAIL_TOL`` of their
    largest, up to ``COLLOCATION_MAX_N``.  The profile on the grid is the
    two Chebyshev series summed by Clenshaw's recurrence, with m/r^3 = mu.
    """
    # numpy.polynomial costs about 5 ms to import; the fixed-point commands never load it
    from numpy.polynomial.chebyshev import chebval

    R = params.R
    N = COLLOCATION_N
    y = chebyshev_nodes(N)[0]
    rho = approximate_profile(R, R * y, order=2)[0]
    mu = (FOUR_PI / 3.0) * rho
    iterations = 0
    while True:
        rho, mu, steps, residual = _newton(R, N, rho, mu)
        iterations += steps
        series = chebyshev_series(rho), chebyshev_series(mu)
        tail = max(float(np.max(np.abs(c[-3:])) / np.max(np.abs(c))) for c in series)
        if tail <= TAIL_TOL:
            break
        if N >= COLLOCATION_MAX_N:
            raise ConvergenceError(
                f"hydrostatic solution is unresolved on {N} Chebyshev intervals: tail "
                f"{tail:.3g} of its largest coefficient > {TAIL_TOL:g}",
                iterations=iterations,
            )
        N *= 2
        y = chebyshev_nodes(N)[0]
        rho, mu = (chebval(2.0 * y * y - 1.0, c) for c in series)

    r = np.linspace(0.0, R, params.grid_n)
    x = 2.0 * (r / R) ** 2 - 1.0
    rho, mu = (chebval(x, c) for c in series)
    provenance = {
        "solver": "shooting",
        "iterations": iterations,
        "residual": residual,
        "grid_n": params.grid_n,
        "rho_central": float(rho[0]),
    }
    return _pack_profile(r, rho, mu, provenance)


def metric_terms(r, rho, m_over_r3):
    """n^2 = 2 rho - 1, D = 1 - 2m/r and the lapse gradient
    q = dpsi/dr = (m/r^2 + 4 pi r (rho - 1))/D at r; plain arithmetic, so it
    takes floats (the surface values of the modes' kappa) as well as arrays."""
    n2 = 2.0 * rho - 1.0
    D = 1.0 - 2.0 * m_over_r3 * r * r
    q = (m_over_r3 * r + FOUR_PI * r * (rho - 1.0)) / D
    return n2, D, q


def _chi_jacobian(r, n2, D):
    """dchi/dr = 4 pi r^2 n/sqrt(D), 0 at the centre; takes floats as well as arrays."""
    return FOUR_PI * r * r * np.sqrt(n2) / np.sqrt(D)


def derive_metric_fields(profile: BackgroundProfile) -> BackgroundProfile:
    """Check that a profile is admissible and read its particle coordinate.

    Raises ``DomainError`` for a trapped shell (2m/r >= 1) or a density
    below the stiff floor; otherwise reads chi(r) = integral of
    4 pi s^2 n (1 - 2m/s)^{-1/2} ds with n = sqrt(2 rho - 1), so N = chi(R)
    is at hand, and returns the profile.
    """
    _, D, _ = metric_terms(profile.r, profile.rho, profile.m_over_r3)
    if np.any(D <= 0.0):
        raise DomainError("profile contains a trapped shell (2m/r >= 1)")
    if np.any(profile.rho < 1.0 - 1e-9):
        raise DomainError("profile density below the stiff floor")
    profile.chi  # the first read integrates it
    return profile


def chi_weight(profile: BackgroundProfile) -> np.ndarray:
    """dchi/dr on the grid (vanishes at the centre)."""
    n2, D, _ = metric_terms(profile.r, profile.rho, profile.m_over_r3)
    return _chi_jacobian(profile.r, n2, D)


_SOLVERS = {"picard": solve_tov_picard, "shooting": solve_tov_shooting}


def build_star(params: StarParameters, solver: str = "picard") -> BackgroundProfile:
    """Solve and complete a star in one call.

    ``solver`` is "picard" (default; fixed-point iteration, which requires
    the contraction-regime radius bound) or "shooting" (Chebyshev
    collocation, valid up to ``R_MAX``).
    """
    try:
        solve = _SOLVERS[solver]
    except KeyError:
        raise ValueError(f"unknown solver {solver!r}; expected one of {sorted(_SOLVERS)}") from None
    return derive_metric_fields(solve(params))


@dataclass(frozen=True)
class FamilyRow:
    R: float
    M_total: float | None
    rho_central: float | None
    compactness: float | None  # 3 M / R, photon-sphere margin when < 1
    error: str | None = None


def family_scan(R_values: Sequence[float], grid_n: int = 2048,
                solver: str = "picard") -> list[FamilyRow]:
    """Solve a family of stars with ``build_star``; per-row failures are
    captured, not raised."""
    rows: list[FamilyRow] = []
    for R in R_values:
        try:
            prof = build_star(StarParameters(R=float(R), grid_n=grid_n), solver)
            rows.append(
                FamilyRow(
                    R=float(R),
                    M_total=prof.M_total,
                    rho_central=prof.rho_central,
                    compactness=3.0 * prof.M_total / prof.R,
                )
            )
        except Exception as exc:  # noqa: BLE001 - survey must not abort
            rows.append(FamilyRow(R=float(R), M_total=None, rho_central=None,
                                  compactness=None, error=f"{type(exc).__name__}: {exc}"))
    return rows
