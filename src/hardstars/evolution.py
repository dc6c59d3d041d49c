"""Linear radial waves on a static star, in the shell coordinate.

The dynamical field u(chi, t) is the first-order displacement of the fluid
shell labelled by interior particle count chi; t is the clock of the comoving
frame.  The equation of motion is

    mass(chi) d2u/dt2 = d/dchi ( flux(chi) du/dchi ) + V(chi) u,

with  mass = e^F n^2,  flux = 16 pi^2 r0^4 n^2 e^F,  and a potential V that
diverges like -2/r0^2 at the centre.  V < 0 on every node for R up to about
0.208; above that V turns positive in an outer shell that spreads inward
(at n_chi 500: 224 of 499 nodes, r0 > 0.83 R, max 22.7 at R = 0.235; 310
nodes, r0 > 0.73 R, at R = 0.245).  F is a regular radial integral of
the background; remarkably flux/mass = (4 pi r0^2)^2 exactly, so the
characteristic speed in chi equals the shell surface area.

Boundary conditions: u = 0 at the centre (strongly), and at the surface the
Robin condition du/dchi = alpha u with alpha = q(R) - 2/R < 0.

The discretisation is a node-centred second-order finite-volume scheme on a
uniform chi grid.  The surface node owns a half cell, which makes the
semi-discrete energy

    E = 1/2 sum mass v^2 w + 1/2 sum flux_half (Du)^2/dchi
        - 1/2 sum V u^2 w - 1/2 flux_B alpha u_B^2

an exact invariant.  The kinetic, gradient and surface terms are
nonnegative, and so is the potential term wherever V <= 0, which covers
every node only for R below about 0.208.  The spatial operator
d2u/dt2 = A u is tridiagonal and constant in time, so
``WaveCoefficients.bands`` builds A once, in LAPACK banded layout, straight
from the flux-form coefficients (row 0, the pinned centre, is zero).  It is
the only copy of the operator: ``acceleration`` applies it, and the inverse
iteration of ``modes.mode_to_initial_data`` slices it.  A is self-adjoint in
the energy weights mass * w, so ``operator_eigenvalues`` reads any index
range of its spectrum -mu in O(n_chi) memory: max dt^2 mu is the exact
stability margin of the stepper (stable below 4), and the lowest mu seed the
brackets of ``modes.find_modes``.

``evolve`` integrates with velocity Verlet in kick-drift (leapfrog) form on
the dt^2-scaled bands S = dt^2 A: it carries w = dt v(t + dt/2), a plain
step is u += w, w += S u, and the full-step velocity v = (w - S u / 2)/dt
is rebuilt only where it is needed.  Eliminating w gives the two-step form
u_(n+1) + u_(n-1) = 2 C u_n with C = I + S/2, and w obeys the same
recurrence; hence x_(n+k) + x_(n-k) = 2 T_k(C) x_n for both, with T_k the
Chebyshev polynomial of the first kind (Hairer, Lubich and Wanner,
*Geometric Numerical Integration*, treat Stormer-Verlet as this two-step
method).  T_k(C) is banded with half-bandwidth k, so after k plain steps
``evolve`` advances u and w by k = ``STRIDE`` steps with one BLAS ``dgbmv``
call each.  T_k(C) comes from the three-term recurrence run in
``np.longdouble`` and rounded to double once.  Built in double, its
rounding breaks time reversal: 3719 steps forward and back at n_chi 501
return v with an error of 3.5e-8, against 3.7e-10 when built in
``np.longdouble``.  What ``np.longdouble`` is depends on the platform: the
80-bit x87 format on x86-64 Linux, plain double on MSVC builds and arm64
macOS (where the strides keep only the double accuracy), a slow software
quad on aarch64 Linux.
Each sample (energy, norms, constraint residual) is taken after at most
k - 1 plain side steps on copies of the last stride boundary, and the
surface probe between boundaries comes from one (k, 2k) block of rows of
the second-kind polynomials U_j(C).  The stepper conserves the energy to
O(dt^2) uniformly.

Near the centre the shell coordinate degenerates (r0 ~ chi^(1/3)), so mode
frequencies on the chi grid converge at first order in dchi, not second;
``test_period_discretisation_first_order`` pins this.

``reconstruct`` maps a displacement field to the remaining linearized metric
and matter fields, and ``constraint_residual`` measures how well a state
satisfies the linearized mass constraint; its meaningful norm is over a fixed
interior fraction, since chi-stencils lose accuracy at the centre.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import dgbmv

from .background import FOUR_PI, BackgroundProfile, _chi_jacobians, _readonly, metric_terms
from .errors import CflViolationError, DomainError, InstabilityError
from .numerics import cumulative_simpson_uniform, derivative_uniform


# ------------------------------------------------------------- coefficients


@dataclass(frozen=True)
class WaveCoefficients:
    """Background data sampled on the uniform chi grid of the wave solver."""

    profile: BackgroundProfile
    n_chi: int
    dchi: float
    chi: np.ndarray
    r0: np.ndarray
    rho0: np.ndarray
    n0: np.ndarray
    n2: np.ndarray         # n0^2 = 2 rho0 - 1, as metric_terms forms it
    m0: np.ndarray
    q: np.ndarray          # radial gradient of the lapse potential
    w: np.ndarray          # dchi/dr0 at the nodes (0 at the centre)
    drdchi: np.ndarray     # dr0/dchi at the nodes (inf at the centre)
    r0_half: np.ndarray    # shell radii at the half nodes
    F: np.ndarray
    mass: np.ndarray
    V: np.ndarray          # potential; node 0 stored as 0 and never used
    flux_half: np.ndarray  # flux at the n_chi - 1 half nodes
    flux_surface: float
    alpha: float
    cmax: float
    # derived in __post_init__, so dataclasses.replace rebuilds it
    bands: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "bands", _readonly(_operator_bands(self)))

    @property
    def B(self) -> float:
        return float(self.chi[-1])


def _operator_bands(c: WaveCoefficients) -> np.ndarray:
    """The operator A of d2u/dt2 = A u in LAPACK (1, 1) banded layout.

    ``ab[0, j] = A[j-1, j]``, ``ab[1, j] = A[j, j]``, ``ab[2, j] = A[j+1, j]``.
    Interior rows are (flux_half difference + V u)/mass; the surface row
    closes the half cell with the Robin flux flux_B alpha u_B.  Row 0 (the
    pinned centre) is zero.
    """
    n = c.n_chi
    k = c.flux_half / (c.dchi * c.dchi)  # couplings across the n - 1 half cells
    ab = np.zeros((3, n))
    inv_m = 1.0 / c.mass[1:-1]
    ab[0, 2:] = k[1:] * inv_m                       # A[i, i+1], 1 <= i <= n-2
    ab[2, :-2] = k[:-1] * inv_m                     # A[i, i-1], 1 <= i <= n-2
    ab[1, 1:-1] = (c.V[1:-1] - k[1:] - k[:-1]) * inv_m
    two_m = 2.0 / c.mass[-1]
    ab[2, -2] = k[-1] * two_m                       # A[n-1, n-2]
    ab[1, -1] = (c.flux_surface * c.alpha / c.dchi - k[-1]) * two_m + c.V[-1] / c.mass[-1]
    return ab


def _invert_chi(chi_spline: CubicSpline, targets: np.ndarray, R: float) -> np.ndarray:
    """Radii r in [0, R] with chi(r) = target, for all targets at once.

    Newton on the spline, safeguarded by bisection inside a bracket that
    starts as the knot interval holding the target.  Targets at or below 0
    map to 0, targets at or above chi(R) to R.
    """
    knots = chi_spline.x
    values = chi_spline(knots)
    out = np.where(targets <= 0.0, 0.0, R)
    inside = (targets > 0.0) & (targets < values[-1])
    t = targets[inside]
    k = np.clip(np.searchsorted(values, t, side="right") - 1, 0, len(knots) - 2)
    lo, hi = knots[k], knots[k + 1]
    r = lo + (hi - lo) * (t - values[k]) / (values[k + 1] - values[k])
    chi_prime = chi_spline.derivative()
    for _ in range(60):
        f = chi_spline(r) - t
        below = f < 0.0
        lo = np.where(below, r, lo)
        hi = np.where(below, hi, r)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = r - f / chi_prime(r)
        # closed bracket: a converged Newton step rounds onto r itself,
        # which may be a bracket end
        ok = (newton >= lo) & (newton <= hi)
        r_next = np.where(f == 0.0, r, np.where(ok, newton, 0.5 * (lo + hi)))
        done = np.all(np.abs(r_next - r) <= 4.0 * np.finfo(float).eps * r)
        r = r_next
        if done:
            break
    out[inside] = r
    return out


_NO_ERRSTATE = contextlib.nullcontext()


def potential_bracket(r0, rho, mor3):
    """Zeroth-order stability bracket at radius r0, with the ``metric_terms``
    (n^2, D, q) it is built from.

    The bracket is the potential stripped of its e^F weight:
    2 q^2 D + 2 m/r^3 + 4 pi r n^2 (2/r - q) - D (2/r^2 + q') with
    D = 1 - 2m/r.  It diverges like -2/r^2 at the centre.
    """
    n2, D, q = metric_terms(r0, rho, mor3)
    N = mor3 * r0 + FOUR_PI * r0 * (rho - 1.0)
    rho_eq_slope = -n2 * q
    N_prime = FOUR_PI * rho - 2.0 * mor3 + FOUR_PI * (rho - 1.0) + FOUR_PI * r0 * rho_eq_slope
    D_prime = -8.0 * math.pi * r0 * rho + 2.0 * mor3 * r0
    q_prime = (N_prime * D - N * D_prime) / (D * D)
    # only an array can hold the centre node; np.errstate would double the
    # cost of the float calls from the shooting right-hand side (r > 0)
    if isinstance(r0, np.ndarray):
        quiet = np.errstate(divide="ignore", invalid="ignore")
    else:
        quiet = _NO_ERRSTATE
    with quiet:
        bracket = (
            2.0 * q * q * D
            + 2.0 * mor3
            + 8.0 * math.pi * n2
            - FOUR_PI * r0 * n2 * q
            - 2.0 * D / (r0 * r0)
            - D * q_prime
        )
    return bracket, n2, D, q


def assemble_coefficients(profile: BackgroundProfile, n_chi: int = 1001) -> WaveCoefficients:
    """Sample the wave-equation coefficients on a uniform chi grid.

    The radius of each shell is found by inverting the background chi(r)
    map (root-finding in r, where everything is smooth); the coefficient
    formulas are then evaluated pointwise from one spline of the regular
    background fields (rho, m/r^3, F).
    """
    profile.require_metric()
    if n_chi < 16:
        raise DomainError(f"n_chi must be at least 16, got {n_chi}")
    B = profile.N_total
    R = profile.R
    n = n_chi
    dchi = B / (n - 1)
    chi = np.linspace(0.0, B, n)

    # regular radial integral entering the mass and flux weights
    r_bg, rho_bg, mor3_bg = profile.r, profile.rho, profile.m_over_r3
    D_bg = metric_terms(r_bg, rho_bg, mor3_bg)[1]
    F_bg = cumulative_simpson_uniform(r_bg * (8.0 * math.pi * rho_bg - 2.0 * mor3_bg) / D_bg,
                                      profile.dr)
    chi_sp = CubicSpline(r_bg, profile.chi)
    fields_sp = CubicSpline(r_bg, np.column_stack([rho_bg, mor3_bg, F_bg]))

    r0 = _invert_chi(chi_sp, chi, R)
    r0[-1] = R
    r0_half = _invert_chi(chi_sp, chi[:-1] + 0.5 * dchi, R)

    rho0, mor3, F = fields_sp(r0).T
    bracket, n2, D, q = potential_bracket(r0, rho0, mor3)
    if np.any(D <= 0.0) or np.any(n2 <= 0.0):
        raise DomainError("coefficient assembly left the regular domain")
    eF = np.exp(F)
    V = eF * bracket
    V[0] = 0.0
    mass = eF * n2
    w, drdchi = _chi_jacobians(r0, n2, D)

    rho_h, mor3_h, F_h = fields_sp(r0_half).T
    n2_h = metric_terms(r0_half, rho_h, mor3_h)[0]
    flux_half = 16.0 * math.pi**2 * r0_half**4 * n2_h * np.exp(F_h)
    flux_surface = float(16.0 * math.pi**2 * R**4 * n2[-1] * eF[-1])
    alpha = float(q[-1] - 2.0 / R)

    return WaveCoefficients(
        profile=profile,
        n_chi=n,
        dchi=dchi,
        chi=_readonly(chi),
        r0=_readonly(r0),
        rho0=_readonly(rho0),
        n0=_readonly(np.sqrt(n2)),
        n2=_readonly(n2),
        m0=_readonly(mor3 * r0**3),
        q=_readonly(q),
        w=_readonly(w),
        drdchi=_readonly(drdchi),
        r0_half=_readonly(r0_half),
        F=_readonly(F),
        mass=_readonly(mass),
        V=_readonly(V),
        flux_half=_readonly(flux_half),
        flux_surface=flux_surface,
        alpha=alpha,
        cmax=FOUR_PI * R * R,
    )


# ------------------------------------------------------------------ dynamics


def acceleration(coeffs: WaveCoefficients, u: np.ndarray) -> np.ndarray:
    """Spatial operator: (d/dchi(flux du/dchi) + V u)/mass with both BCs."""
    ab = coeffs.bands
    acc = ab[1] * u
    acc[1:] += ab[2, :-1] * u[:-1]
    acc[:-1] += ab[0, 1:] * u[1:]
    return acc


def discrete_energy(coeffs: WaveCoefficients, u: np.ndarray, v: np.ndarray) -> float:
    """The exact invariant of the semi-discrete system: kinetic, gradient,
    potential and surface pieces, each nonnegative except the potential one
    where V > 0 (outer shells of stars with R above about 0.208)."""
    dchi = coeffs.dchi
    wgt = np.full(coeffs.n_chi, dchi)
    wgt[0] = 0.0
    wgt[-1] = 0.5 * dchi
    kinetic = 0.5 * float(np.sum(coeffs.mass * v * v * wgt))
    gradient = 0.5 * float(np.sum(coeffs.flux_half * np.diff(u) ** 2)) / dchi
    potential = -0.5 * float(np.sum(coeffs.V * u * u * wgt))
    surface = -0.5 * coeffs.flux_surface * coeffs.alpha * u[-1] ** 2
    return kinetic + gradient + potential + surface


def operator_eigenvalues(coeffs: WaveCoefficients, first: int, last: int) -> np.ndarray:
    """Eigenvalues ``first``..``last`` (0-based, ascending) of the spectrum -mu
    of A on the free nodes 1..n-1.

    A is self-adjoint in the energy weights W, so W^(1/2) A W^(-1/2) is a
    symmetric tridiagonal matrix with the diagonal of A and off-diagonal
    sqrt(A[i, i+1] A[i+1, i]); a selected index range costs O(n_chi) memory.
    Index n_chi - 2 is the top of the spectrum, which sets the stability
    margin of ``evolve``; the lowest indices seed ``modes.find_modes``.
    """
    ab = coeffs.bands
    diag = -ab[1, 1:]
    off = -np.sqrt(ab[0, 2:] * ab[2, 1:-1])
    return eigvalsh_tridiagonal(diag, off, select="i", select_range=(first, last))


def energy_norms(coeffs: WaveCoefficients, u: np.ndarray, v: np.ndarray) -> dict[str, float]:
    """Weighted field norms (trapezoid in chi; centre values by shell ratio).

    "norm"   : integral of u^2/r0^2 + v^2 + r0^4 (du/dchi)^2
    "first"  : integral of u^2/r0^2 + v^2/r0^2 + r0^4 (du/dchi)^2
    "second" : integral of (Lu)^2/r0^2 + r0^4 (dv/dchi)^2 + r0^10 (d2u/dchi2)^2
    where L is the spatial operator.  These are diagnostics of boundedness,
    not invariants.
    """
    dchi = coeffs.dchi
    r0 = coeffs.r0

    def ratio_sq(f: np.ndarray) -> np.ndarray:
        out = np.empty_like(f)
        out[1:] = (f[1:] / r0[1:]) ** 2
        out[0] = (f[1] / r0[1]) ** 2
        return out

    du = derivative_uniform(u, dchi, order=2)
    dv = derivative_uniform(v, dchi, order=2)
    d2u = derivative_uniform(du, dchi, order=2)
    r4 = r0**4
    norm = np.trapezoid(ratio_sq(u) + v * v + r4 * du * du, dx=dchi)
    first = np.trapezoid(ratio_sq(u) + ratio_sq(v) + r4 * du * du, dx=dchi)
    lu = acceleration(coeffs, u)
    second = np.trapezoid(ratio_sq(lu) + r4 * dv * dv + r0**10 * d2u * d2u, dx=dchi)
    return {"norm": float(norm), "first": float(first), "second": float(second)}


def cfl_timestep(coeffs: WaveCoefficients, cfl: float) -> float:
    if not (0.0 < cfl <= 0.5):
        raise CflViolationError(
            f"cfl must lie in (0, 0.5] for the explicit stepper, got {cfl}"
        )
    return cfl * coeffs.dchi / coeffs.cmax


@dataclass(frozen=True)
class EvolutionResult:
    """Final state plus sampled diagnostics of one evolution run."""

    dt: float
    n_steps: int
    u: np.ndarray
    v: np.ndarray
    times: np.ndarray
    energies: np.ndarray
    norm_series: dict[str, np.ndarray]
    residuals: np.ndarray
    probe_times: np.ndarray
    probe_values: np.ndarray
    initial_energy: float
    provenance: dict = field(default_factory=dict)

    @property
    def max_energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies / self.initial_energy - 1.0)))


STRIDE = 32            # steps per Chebyshev stride: the half-bandwidth of T_k(C)
_BUILD_COLUMNS = 64    # columns of T_k(C) built per longdouble block


class _KickDrift:
    """Kick-drift Verlet in place on its own buffers: u, w = dt v(t + dt/2)
    and kick = dt^2 A u at the current step."""

    def __init__(self, scaled: np.ndarray, u: np.ndarray, w: np.ndarray) -> None:
        self.u, self.w = u, w
        self.kick = np.empty_like(u)
        self._part = np.empty(len(u) - 1)
        self._bands = scaled[0, 1:], scaled[1], scaled[2, :-1]
        self._halves = u[:-1], u[1:], self.kick[:-1], self.kick[1:]

    def _form_kick(self) -> None:
        up, diag, low = self._bands
        u_head, u_tail, kick_head, kick_tail = self._halves
        part = self._part
        np.multiply(diag, self.u, out=self.kick)
        np.multiply(low, u_head, out=part)
        np.add(kick_tail, part, out=kick_tail)
        np.multiply(up, u_tail, out=part)
        np.add(kick_head, part, out=kick_head)

    def load(self, u: np.ndarray, w: np.ndarray) -> None:
        """Copy in a state and form its kick."""
        np.copyto(self.u, u)
        np.copyto(self.w, w)
        self._form_kick()

    def run(self, first: int, last: int, probe: np.ndarray | None = None) -> None:
        """Steps ``first``..``last``, writing u[-1] to ``probe[step]``."""
        u, w, kick, form_kick = self.u, self.w, self.kick, self._form_kick
        for step in range(first, last + 1):
            np.add(u, w, out=u)
            form_kick()
            np.add(w, kick, out=w)
            if probe is not None:
                probe[step] = u[-1]


def _chebyshev_band(scaled: np.ndarray, k: int) -> np.ndarray:
    """The transpose T_k(C)^T = T_k(C^T), C = I + S/2 with S the dt^2-scaled
    operator bands, in LAPACK (k, k) banded layout and Fortran order.

    ``dgbmv`` with ``trans=1`` applies T_k(C) from it as one dot product of
    2k + 1 terms per entry, which rounds less than the column-by-column
    form of ``trans=0``.  Left multiplication by C^T mixes rows only, so
    the columns of T_(m+1) = 2 C^T T_m - T_(m-1) are built block by block.
    The recurrence runs in ``np.longdouble`` and T_k is rounded to double
    once.
    """
    n = scaled.shape[1]
    rows = 2 * k + 3  # band rows -1..2k+1; the outer two stay zero
    # entries of 2C^T by matrix row, padded so that entry [p, j] of a block
    # (band row p - 1, matrix row j + p - 1 - k) sits at column j + p
    pad = k + 1
    s = scaled.astype(np.longdouble)
    two_c = np.zeros((3, n + 2 * pad), dtype=np.longdouble)
    two_c[0, pad + 1:pad + n] = s[0, 1:]    # 2 C[i-1, i]
    two_c[1, pad:pad + n] = 2.0 + s[1]      # 2 C[i, i]
    two_c[2, pad:pad + n - 1] = s[2, :-1]   # 2 C[i+1, i]
    windows = np.lib.stride_tricks.sliding_window_view(two_c, rows, axis=1)
    band = np.empty((2 * k + 1, n), order="F")
    for j0 in range(0, n, _BUILD_COLUMNS):
        cols = slice(j0, min(j0 + _BUILD_COLUMNS, n))
        low, diag, up = (np.ascontiguousarray(windows[t, cols].T) for t in range(3))
        prev = np.zeros_like(diag)                   # T_0 = I
        prev[k + 1] = 1.0
        cur = np.zeros_like(diag)                    # T_1 = C
        cur[k] = 0.5 * up[k]
        cur[k + 1] = 0.5 * diag[k + 1]
        cur[k + 2] = 0.5 * low[k + 2]
        acc, tmp = np.empty_like(diag), np.empty_like(diag)
        for m in range(1, k):
            act, below, above = (slice(k - m + d, k + m + 3 + d) for d in (0, -1, 1))
            a, t = acc[act], tmp[act]
            np.multiply(low[act], cur[below], out=a)
            np.multiply(diag[act], cur[act], out=t)
            np.add(a, t, out=a)
            np.multiply(up[act], cur[above], out=t)
            np.add(a, t, out=a)
            np.subtract(a, prev[act], out=prev[act])
            prev, cur = cur, prev
        band[:, cols] = cur[1:-1]
    return band


def _probe_block(scaled: np.ndarray, k: int) -> np.ndarray:
    """The (k, 2k) block that maps the last k entries of u_n and of w_n to
    the surface values of u_(n+1)..u_(n+k).

    From u_(n+1) = u_n + w_n and the two-step recurrence,
    u_(n+j) = (U_(j-1) - U_(j-2))(C) u_n + U_(j-1)(C) w_n, with U the
    Chebyshev polynomials of the second kind.  The surface row r_i of
    U_i(C) lives on the last i + 1 nodes; the rows follow
    r_i = 2 r_(i-1) C - r_(i-2), in ``np.longdouble``.
    """
    s = scaled[:, -k:].astype(np.longdouble)
    c = np.zeros((k, k), dtype=np.longdouble)   # C on the last k nodes
    i = np.arange(k)
    c[i, i] = 1.0 + 0.5 * s[1]
    c[i[:-1], i[1:]] = 0.5 * s[0, 1:]
    c[i[1:], i[:-1]] = 0.5 * s[2, :-1]
    r = np.zeros((k + 1, k), dtype=np.longdouble)  # r[i + 1] = e_last^T U_i(C)
    r[1, -1] = 1.0
    for j in range(2, k + 1):
        r[j] = 2.0 * (r[j - 1] @ c) - r[j - 2]
    return np.hstack([r[1:] - r[:-1], r[1:]]).astype(float)


def evolve(
    coeffs: WaveCoefficients,
    u0: np.ndarray,
    v0: np.ndarray,
    T: float,
    cfl: float = 0.4,
    samples: int = 200,
    instability_factor: float = 100.0,
    progress: Callable[[int, int], None] | None = None,
) -> EvolutionResult:
    """Velocity-Verlet evolution for duration T (landing on T exactly).

    The time step is the CFL step shrunk so that n_steps * dt == T.  The
    scheme is kick-drift Verlet on the dt^2-scaled bands S of A with
    w = dt v(t + dt/2): a plain step is u += w, then w += S u.  Both u and
    w obey u_(n+1) + u_(n-1) = 2 C u_n with C = I + S/2, so
    x_(n+k) = 2 T_k(C) x_n - x_(n-k) for k = ``STRIDE``.  After k plain
    steps, u and w advance k steps per stride, one ``dgbmv`` call each
    with the banded T_k(C) (built in ``np.longdouble``, rounded once).
    Runs shorter than 2k steps, and grids of at most 2k nodes, stay plain.

    The energy, the norms and the constraint residual are recorded at the
    sample steps (every ``n_steps // samples`` steps, and the last), from
    the full-step velocity v = (w - S u / 2)/dt.  Each sample state, and
    the final state, comes from at most k - 1 plain steps on copies of the
    last stride boundary, so the stride sequences never restart.
    ``probe_values`` holds the surface displacement after every step; after
    a stride boundary n it is u_(n+j) = (U_(j-1) - U_(j-2))(C) u_n
    + U_(j-1)(C) w_n at the surface node, from the last k entries of u_n
    and w_n through ``_probe_block``.  Raises ``InstabilityError`` at the first sample where
    the discrete energy is non-finite or above ``instability_factor`` times
    its initial value.  ``provenance`` records ``max_dt2_mu``, the exact
    stability margin (stable below 4), and ``stride`` (k), ``strides`` and
    ``plain_steps``, with k * strides + plain_steps == n_steps.
    """
    if T <= 0.0:
        raise DomainError(f"evolution duration must be positive, got {T}")
    dt_cfl = cfl_timestep(coeffs, cfl)
    n_steps = max(1, math.ceil(T / dt_cfl))
    dt = T / n_steps

    u = np.array(u0, dtype=float)
    v = np.array(v0, dtype=float)
    if u.shape != (coeffs.n_chi,) or v.shape != (coeffs.n_chi,):
        raise DomainError("initial data shape does not match the chi grid")
    u[0] = 0.0
    v[0] = 0.0

    e0 = discrete_energy(coeffs, u, v)
    every = max(1, n_steps // max(1, samples))
    times = [0.0]
    energies = [e0]
    norm_series = {key: [val] for key, val in energy_norms(coeffs, u, v).items()}
    residuals = [residual_norm(coeffs, u)]
    probe = np.empty(n_steps + 1)
    probe[0] = u[-1]

    dt2 = dt * dt
    scaled = dt2 * coeffs.bands
    w = dt * v + 0.5 * dt2 * acceleration(coeffs, u)

    sample_steps = list(range(every, n_steps + 1, every))
    if sample_steps[-1] != n_steps:
        sample_steps.append(n_steps)
    pending = iter(sample_steps)
    next_sample = next(pending)

    def record(step: int, state: _KickDrift) -> np.ndarray:
        nonlocal next_sample
        v = (state.w - 0.5 * state.kick) / dt
        e = discrete_energy(coeffs, state.u, v)
        times.append(step * dt)
        energies.append(e)
        for key, val in energy_norms(coeffs, state.u, v).items():
            norm_series[key].append(val)
        residuals.append(residual_norm(coeffs, state.u))
        if e0 > 0.0 and (not math.isfinite(e) or e > instability_factor * e0):
            raise InstabilityError(
                f"discrete energy grew by {e / e0:.3g} at t={step * dt:.6g}",
                step=step,
                energy_ratio=e / e0,
            )
        if progress is not None:
            progress(step, n_steps)
        next_sample = next(pending, math.inf)
        return v

    k = STRIDE
    # scipy's dgbmv wants at least 2k + 1 rows
    strides = n_steps // k - 1 if n_steps >= 2 * k and coeffs.n_chi > 2 * k else 0
    if strides:
        u_back, w_back = u.copy(), w.copy()  # x_(n-k) at the first boundary n = k
    state = _KickDrift(scaled, u, w)
    plain_end = k if strides else n_steps
    at = 0
    while next_sample <= plain_end:
        state.run(at + 1, next_sample, probe)
        at = next_sample
        v = record(at, state)
    state.run(at + 1, plain_end, probe)

    if strides:
        band = _chebyshev_band(scaled, k)
        block = _probe_block(scaled, k)
        edge = np.empty(2 * k)
        n = coeffs.n_chi
        side = _KickDrift(scaled, np.empty_like(u), np.empty_like(w))
        at = k
        while True:
            # samples and probe values from this boundary up to the next
            stop = min(at + k, n_steps)
            edge[:k] = u[-k:]
            edge[k:] = w[-k:]
            np.dot(block[:stop - at], edge, out=probe[at + 1:stop + 1])
            side_at = None
            while next_sample < at + k:
                if side_at is None:
                    side.load(u, w)
                    side_at = at
                side.run(side_at + 1, next_sample)
                side_at = next_sample
                v = record(side_at, side)
            if at + k > n_steps:
                break
            u_back = dgbmv(n, n, k, k, 2.0, band, u, beta=-1.0, y=u_back, overwrite_y=1, trans=1)
            w_back = dgbmv(n, n, k, k, 2.0, band, w, beta=-1.0, y=w_back, overwrite_y=1, trans=1)
            u, u_back = u_back, u
            w, w_back = w_back, w
            at += k
        u = side.u
        del band  # 1 MB at n_chi 2000; not held while the results are built

    top = coeffs.n_chi - 2  # index of the largest eigenvalue
    probe_times = np.arange(n_steps + 1, dtype=float)
    probe_times *= dt
    return EvolutionResult(
        dt=dt,
        n_steps=n_steps,
        u=_readonly(u),
        v=_readonly(v),
        times=_readonly(np.array(times)),
        energies=_readonly(np.array(energies)),
        norm_series={key: _readonly(np.array(vals)) for key, vals in norm_series.items()},
        residuals=_readonly(np.array(residuals)),
        probe_times=_readonly(probe_times),
        probe_values=_readonly(probe),
        initial_energy=e0,
        provenance={
            "cfl": cfl,
            "samples": samples,
            "max_dt2_mu": dt2 * float(operator_eigenvalues(coeffs, top, top)[0]),
            "stride": k,
            "strides": strides,
            "plain_steps": n_steps - k * strides,
        },
    )


# ------------------------------------------------------- initial data presets


def gaussian_pulse(
    coeffs: WaveCoefficients,
    amplitude: float = 1e-6,
    center: float = 0.5,
    width: float = 0.1,
) -> tuple[np.ndarray, np.ndarray]:
    """Static Gaussian bump in chi (center and width as fractions of B)."""
    xi = coeffs.chi / coeffs.B
    u0 = amplitude * np.exp(-(((xi - center) / width) ** 2))
    u0[0] = 0.0
    return u0, np.zeros_like(u0)


# ------------------------------------------------- linearized reconstruction


@dataclass(frozen=True)
class LinearizedFields:
    """First-order metric and matter fields implied by a displacement u."""

    psi1: np.ndarray
    omega1: np.ndarray
    m1: np.ndarray
    rho1: np.ndarray
    n1: np.ndarray


def reconstruct(coeffs: WaveCoefficients, u: np.ndarray) -> LinearizedFields:
    """Algebraic first-order fields from the shell displacement.

    psi1 = (2/r0 - q) u + du/dr0,  omega1 = du/dr0 - q u,
    m1 = -4 pi r0^2 (rho0 - 1) u,  rho1 = -(2 rho0 - 1) psi1,  n1 = rho1/n0.

    Centre values are the regular limits for an r-linear displacement,
    estimated from the first interior node.
    """
    u = np.asarray(u, dtype=float)
    r0 = coeffs.r0
    du_dchi = derivative_uniform(u, coeffs.dchi, order=2)
    du_dr0 = du_dchi * coeffs.w  # = (du/dchi)/(dr0/dchi)

    psi1 = np.empty_like(u)
    omega1 = np.empty_like(u)
    slope0 = u[1] / r0[1]
    psi1[1:] = (2.0 / r0[1:] - coeffs.q[1:]) * u[1:] + du_dr0[1:]
    psi1[0] = 3.0 * slope0
    omega1[1:] = du_dr0[1:] - coeffs.q[1:] * u[1:]
    omega1[0] = slope0
    m1 = -FOUR_PI * r0 * r0 * (coeffs.rho0 - 1.0) * u
    rho1 = -coeffs.n2 * psi1
    n1 = rho1 / coeffs.n0
    return LinearizedFields(
        psi1=_readonly(psi1),
        omega1=_readonly(omega1),
        m1=_readonly(m1),
        rho1=_readonly(rho1),
        n1=_readonly(n1),
    )


def constraint_residual(coeffs: WaveCoefficients, u: np.ndarray) -> np.ndarray:
    """Defect of the linearized mass constraint for the state u.

    Compares the chi-derivative of the algebraic m1 (wide stencil) against
    the linearized constraint flux (which itself uses the narrow stencil of
    ``reconstruct``); the mismatch is pure discretisation defect and shrinks
    at second order away from the centre.  Node 0 is reported as 0.
    """
    u = np.asarray(u, dtype=float)
    fields = reconstruct(coeffs, u)
    dchi = coeffs.dchi
    lhs = derivative_uniform(fields.m1, dchi, order=4)
    du_dchi = derivative_uniform(u, dchi, order=2)
    r0 = coeffs.r0
    with np.errstate(invalid="ignore"):
        rhs = FOUR_PI * (
            (2.0 * r0 * coeffs.rho0 * u + r0 * r0 * fields.rho1) * coeffs.drdchi
            + r0 * r0 * coeffs.rho0 * du_dchi
        )
    out = lhs - rhs
    out[0] = 0.0
    return out


def residual_norm(coeffs: WaveCoefficients, u: np.ndarray, interior: float = 0.1) -> float:
    """Sup of the constraint residual over chi >= interior * B."""
    res = constraint_residual(coeffs, u)
    mask = coeffs.chi >= interior * coeffs.B
    return float(np.max(np.abs(res[mask])))
