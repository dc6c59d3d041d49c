"""Static, spherically symmetric stars made of the stiffest causal fluid.

The fluid obeys p = rho - 1 in units where the stiff floor density is 1 and
G = c = 1.  A star of areal radius R is the solution of the hydrostatic
system

    dm/drho ... dm/dr   = 4 pi r^2 rho
    drho/dr = -((2 rho - 1)/(r - 2 m)) (4 pi r^2 (rho - 1) + m/r)

with m(0) = 0 and rho(R) = 1.  Two independent solvers are provided:

* ``solve_tov_picard`` iterates the integral fixed point of the deviation
  variables mtilde = m - (4 pi/3) r^3, rhotilde = rho - 1 on a uniform grid.
  The iteration is a contraction for small stars; the update map is applied
  until the weighted sup norm of the increment falls below ``picard_tol``.
* ``solve_tov_shooting`` integrates the differential system outward from the
  centre with a high-order adaptive integrator and bisects on the central
  density until the surface condition holds.  It imports scipy when it
  runs, so the fixed-point route needs numpy alone.

Both return the same ``BackgroundProfile``; their agreement is the primary
cross-check of the module.  ``derive_metric_fields`` completes a solved
profile with the metric and mass-coordinate data used downstream: the
particle coordinate chi, the lapse-related potentials psi and omega, and the
Jacobian dr/dchi.  Ratios such as m/r^3 that are 0/0 at the centre are stored
with their analytic limits so no consumer ever divides by zero.

``metric_terms(r, rho, m/r^3)`` is the only place that forms the pointwise
quantities every layer builds on: n^2 = 2 rho - 1, D = 1 - 2m/r and the lapse
gradient q; the equilibrium slope is -n^2 q and dchi/dr = 4 pi r^2 n/sqrt(D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .calibration import R_MAX
from .errors import ConvergenceError, DomainError
from .numerics import cumulative_simpson_uniform

FOUR_PI = 4.0 * math.pi

#: Radius bound enforced for the fixed-point solver; inside it the update map
#: contracts with factor <= 3/4 in the weighted norm used below.
MAX_CONTRACTION_RADIUS = 0.25 * math.sqrt(3.0 / FOUR_PI)


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
    """A solved star on a uniform radial grid.

    ``omega``, ``drdchi`` and ``dpsidchi`` diverge at the centre (the particle
    coordinate degenerates there); the stored node-0 values are +inf, and all
    centre-regular combinations are available through ``m_over_r3``.
    Metric-level fields are ``None`` until ``derive_metric_fields`` runs.
    """

    R: float
    grid_n: int
    r: np.ndarray
    m: np.ndarray
    rho: np.ndarray
    p: np.ndarray
    m_over_r3: np.ndarray
    provenance: dict = field(default_factory=dict)
    n: np.ndarray | None = None
    psi: np.ndarray | None = None
    omega: np.ndarray | None = None
    chi: np.ndarray | None = None
    drdchi: np.ndarray | None = None
    dpsidchi: np.ndarray | None = None
    M_total: float | None = None
    N_total: float | None = None

    @property
    def dr(self) -> float:
        return self.R / (self.grid_n - 1)

    @property
    def rho_central(self) -> float:
        return float(self.rho[0])

    @property
    def completed(self) -> bool:
        return self.chi is not None

    def require_metric(self) -> None:
        if not self.completed:
            raise ValueError("profile lacks metric fields; run derive_metric_fields first")


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
    return tuple(_tov_rhs_raw(r, (m, rho)))


def _tov_rhs_raw(r: float, y: np.ndarray) -> list[float]:
    # Unvalidated variant for the shooting integrator: trial solutions may
    # dip below rho = 1 before the bracket closes.
    m, rho = y
    dm = FOUR_PI * r * r * rho
    drho = -((2.0 * rho - 1.0) / (r - 2.0 * m)) * (FOUR_PI * r * r * (rho - 1.0) + m / r)
    return [dm, drho]


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


def _pack_profile(params: StarParameters, r, m, rho, m_over_r3, provenance) -> BackgroundProfile:
    return BackgroundProfile(
        R=params.R,
        grid_n=params.grid_n,
        r=_readonly(r),
        m=_readonly(m),
        rho=_readonly(rho),
        p=_readonly(rho - 1.0),
        m_over_r3=_readonly(m_over_r3),
        provenance=provenance,
    )


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

    m = (FOUR_PI / 3.0) * r ** 3 + cumulative_simpson_uniform(FOUR_PI * r2 * rhot, dr)
    rho = 1.0 + rhot
    m_over_r3 = (FOUR_PI / 3.0) + ratio
    provenance = {
        "solver": "picard",
        "iterations": iteration,
        "residual": last_residual,
        "grid_n": n_pts,
        "tol": params.picard_tol,
    }
    return _pack_profile(params, r, m, rho, m_over_r3, provenance)


def _integrate_outward(rho_c: float, R: float, r_eval: np.ndarray | None = None):
    from scipy.integrate import solve_ivp

    # Series start just off the centre; the neglected terms are O(r_start^4).
    r_start = 1e-6 * R
    m0 = (FOUR_PI / 3.0) * rho_c * r_start ** 3
    rho0 = rho_c - (2.0 * rho_c - 1.0) * 2.0 * math.pi * ((rho_c - 1.0) + rho_c / 3.0) * r_start ** 2
    sol = solve_ivp(
        _tov_rhs_raw,
        (r_start, R),
        [m0, rho0],
        method="DOP853",
        rtol=1e-13,
        atol=1e-14,
        t_eval=r_eval,
        dense_output=False,
    )
    if not sol.success:
        raise ConvergenceError(f"outward integration failed: {sol.message}")
    return sol


def solve_tov_shooting(params: StarParameters) -> BackgroundProfile:
    """Solve the static star by shooting on the central density.

    The central density is bisected inside [1, 1 + (16 pi/3) R^2] until the
    integrated surface density matches the stiff floor to 1e-12.
    """
    from scipy.optimize import brentq

    R = params.R
    hi = 1.0 + (16.0 * math.pi / 3.0) * R * R

    def surface_mismatch(rho_c: float) -> float:
        sol = _integrate_outward(rho_c, R)
        return float(sol.y[1][-1]) - 1.0

    f_lo = surface_mismatch(1.0)
    f_hi = surface_mismatch(hi)
    if f_lo * f_hi > 0.0:
        raise ConvergenceError(
            f"central-density bracket [1, {hi}] does not straddle the surface condition"
        )
    rho_c, res = brentq(surface_mismatch, 1.0, hi, xtol=1e-15, rtol=8.9e-16, full_output=True)
    final_mismatch = surface_mismatch(rho_c)
    if abs(final_mismatch) > 1e-12:
        raise ConvergenceError(
            "surface density mismatch above tolerance after bisection",
            iterations=res.iterations,
            residual=abs(final_mismatch),
        )

    r = np.linspace(0.0, R, params.grid_n)
    sol = _integrate_outward(rho_c, R, r_eval=r[1:])
    m = np.empty_like(r)
    rho = np.empty_like(r)
    m[0] = 0.0
    rho[0] = rho_c
    m[1:] = sol.y[0]
    rho[1:] = sol.y[1]
    m_over_r3 = np.empty_like(r)
    m_over_r3[0] = (FOUR_PI / 3.0) * rho_c
    m_over_r3[1:] = m[1:] / r[1:] ** 3
    provenance = {
        "solver": "shooting",
        "iterations": res.iterations,
        "residual": abs(final_mismatch),
        "grid_n": params.grid_n,
        "rho_central": rho_c,
    }
    return _pack_profile(params, r, m, rho, m_over_r3, provenance)


def metric_terms(r, rho, m_over_r3):
    """n^2 = 2 rho - 1, D = 1 - 2m/r and the lapse gradient
    q = dpsi/dr = (m/r^2 + 4 pi r (rho - 1))/D at r; plain arithmetic, so it
    takes floats (the surface values of the modes' kappa) as well as arrays."""
    n2 = 2.0 * rho - 1.0
    D = 1.0 - 2.0 * m_over_r3 * r * r
    q = (m_over_r3 * r + FOUR_PI * r * (rho - 1.0)) / D
    return n2, D, q


def _chi_jacobians(r, n2, D):
    """dchi/dr = 4 pi r^2 n/sqrt(D), 0 at the centre, and dr/dchi, +inf there."""
    w = FOUR_PI * r * r * np.sqrt(n2) / np.sqrt(D)
    drdchi = np.where(w > 0.0, 1.0 / np.maximum(w, 1e-300), np.inf)
    drdchi[0] = np.inf
    return w, drdchi


def derive_metric_fields(profile: BackgroundProfile) -> BackgroundProfile:
    """Complete a solved profile with metric and particle-coordinate data.

    Adds n = sqrt(2 rho - 1), psi = -ln n, omega = -ln(4 pi r^2 n), the
    particle coordinate chi(r) = integral of 4 pi s^2 n (1 - 2m/s)^{-1/2},
    and the Jacobians dr/dchi, dpsi/dchi.  The total mass and particle
    number are the surface values of m and chi.
    """
    r, m, rho = profile.r, profile.m, profile.rho
    dr = profile.dr
    n2, D, q = metric_terms(r, rho, profile.m_over_r3)
    if np.any(D <= 0.0):
        raise DomainError("profile contains a trapped shell (2m/r >= 1)")
    if np.any(rho < 1.0 - 1e-9):
        raise DomainError("profile density below the stiff floor")

    n = np.sqrt(n2)
    psi = -np.log(n)
    w, drdchi = _chi_jacobians(r, n2, D)
    chi = cumulative_simpson_uniform(w, dr)
    with np.errstate(divide="ignore"):
        omega = -np.log(FOUR_PI * r * r * n)
        omega[0] = np.inf
    # hydrostatic potential gradient dpsi/dr times dr/dchi
    dpsidchi = q * np.where(np.isfinite(drdchi), drdchi, 0.0)
    dpsidchi[0] = np.inf

    return replace(
        profile,
        n=_readonly(n),
        psi=_readonly(psi),
        omega=_readonly(omega),
        chi=_readonly(chi),
        drdchi=_readonly(drdchi),
        dpsidchi=_readonly(dpsidchi),
        M_total=float(m[-1]),
        N_total=float(chi[-1]),
    )


def chi_weight(profile: BackgroundProfile) -> np.ndarray:
    """dchi/dr on the grid (vanishes at the centre)."""
    n2, D, _ = metric_terms(profile.r, profile.rho, profile.m_over_r3)
    return _chi_jacobians(profile.r, n2, D)[0]


_SOLVERS = {"picard": solve_tov_picard, "shooting": solve_tov_shooting}


def build_star(params: StarParameters, solver: str = "picard") -> BackgroundProfile:
    """Solve and complete a star in one call.

    ``solver`` is "picard" (default; requires the contraction-regime radius
    bound) or "shooting" (valid up to the regularity bound).
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
                solver: Callable[[StarParameters], BackgroundProfile] = solve_tov_picard) -> list[FamilyRow]:
    """Solve a family of stars; per-row failures are captured, not raised."""
    rows: list[FamilyRow] = []
    for R in R_values:
        try:
            prof = derive_metric_fields(solver(StarParameters(R=float(R), grid_n=grid_n)))
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
