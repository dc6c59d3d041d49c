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
The stepper is one resumable run, which ``hardstars evolve`` drives across
all its snapshots.  Each sample (surface displacement, energy, norms,
constraint residual) is taken after at most k - 1 plain side steps on
copies of the last stride boundary.  The stepper conserves the energy to
O(dt^2) uniformly.

Near the centre the shell coordinate degenerates (r0 ~ chi^(1/3)), so mode
frequencies on the chi grid converge at first order in dchi, not second;
``test_period_discretisation_first_order`` pins this.

``reconstruct`` maps a displacement field to the remaining linearized metric
and matter fields; ``constraint_residual`` measures how well a state meets
the linearized mass constraint.  A run folds the weights and star factors of
its sample diagnostics into vectors once (``_SampleForms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline, PPoly
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import dgbmv

from .background import FOUR_PI, BackgroundProfile, _chi_jacobians, _readonly, metric_terms
from .errors import CflViolationError, ConvergenceError, DomainError, InstabilityError
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
    n2: np.ndarray         # n0^2 = 2 rho0 - 1, as metric_terms forms it
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


def _invert_chi(chi_spline: PPoly, targets: np.ndarray, R: float) -> np.ndarray:
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


def potential_bracket(r0, rho, mor3):
    """Zeroth-order stability bracket at radius r0, with the ``metric_terms``
    (n^2, D, q) it is built from.

    The bracket is the potential stripped of its e^F weight:
    2 q^2 D + 2 m/r^3 + 4 pi r n^2 (2/r - q) - D (2/r^2 + q') with
    D = 1 - 2m/r.  It diverges like -2/r^2 at the centre.  Plain arithmetic
    on arrays; a caller holding the centre node enters ``np.errstate``
    around the call.
    """
    n2, D, q = metric_terms(r0, rho, mor3)
    N = mor3 * r0 + FOUR_PI * r0 * (rho - 1.0)
    rho_eq_slope = -n2 * q
    N_prime = FOUR_PI * rho - 2.0 * mor3 + FOUR_PI * (rho - 1.0) + FOUR_PI * r0 * rho_eq_slope
    D_prime = -8.0 * math.pi * r0 * rho + 2.0 * mor3 * r0
    q_prime = (N_prime * D - N * D_prime) / (D * D)
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
    formulas are then evaluated pointwise from the same spline, of chi and
    the regular background fields (rho, m/r^3, F).
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
    spline = CubicSpline(r_bg, np.column_stack([profile.chi, rho_bg, mor3_bg, F_bg]))

    # the nodes and the half nodes in one pass, on the chi column alone
    r0, r0_half = np.split(_invert_chi(PPoly(spline.c[..., 0], spline.x),
                                       np.concatenate([chi, chi[:-1] + 0.5 * dchi]), R), [n])
    r0[-1] = R

    rho0, mor3, F = spline(r0)[:, 1:].T
    with np.errstate(divide="ignore", invalid="ignore"):  # the centre node
        bracket, n2, D, q = potential_bracket(r0, rho0, mor3)
    if np.any(D <= 0.0) or np.any(n2 <= 0.0):
        raise ConvergenceError("coefficient assembly left the regular domain")
    eF = np.exp(F)
    V = eF * bracket
    V[0] = 0.0
    mass = eF * n2
    w, drdchi = _chi_jacobians(r0, n2, D)

    rho_h, mor3_h, F_h = spline(r0_half)[:, 1:].T
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
        n2=_readonly(n2),
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


# chi-stencils lose accuracy at the centre; the residual's sup starts at this fraction of B
RESIDUAL_INTERIOR = 0.1


def _m1_coefficient(coeffs: WaveCoefficients) -> np.ndarray:
    """-4 pi r0^2 (rho0 - 1): the linearised mass m1 of a unit displacement."""
    return -FOUR_PI * coeffs.r0 * coeffs.r0 * (coeffs.rho0 - 1.0)


class _SampleForms:
    """The sample diagnostics of a run with step dt: slopes and dot products."""

    def __init__(self, coeffs: WaveCoefficients, dt: float = 1.0) -> None:
        c, r0, dchi = coeffs, coeffs.r0, coeffs.dchi
        self.coeffs, self.dchi = c, dchi
        self.wgt = np.concatenate(([0.0], np.full(c.n_chi - 2, dchi), [0.5 * dchi]))  # energy
        self.trap = np.concatenate(([0.5 * dchi], self.wgt[1:]))  # norms
        # f^2/r0^2 at the centre is its node-1 value, so node 1 takes the centre weight
        self.inv_r2 = np.concatenate(([0.0], self.trap[1:] / r0[1:] ** 2))
        self.inv_r2[1] += self.trap[0] / r0[1] ** 2
        self.kick_r2 = self.inv_r2 / dt**4  # the "second" norm's L u is the kick S u / dt^2
        self.r4 = self.trap * r0**4
        self.r10 = self.trap * r0**10
        self.m1 = _m1_coefficient(c)
        # with reconstruct's rho1 = -n^2 psi1, n^2 = 2 rho0 - 1 and w dr0/dchi = 1,
        # the constraint flux is alpha u + m1 du/dchi; written out, its terms
        # in u cancel to about R^2 of their size
        self.alpha = np.divide(FOUR_PI * (r0 * r0 * c.n2 * c.q - 2.0 * r0 * (c.rho0 - 1.0)), c.w,
                               out=np.zeros(c.n_chi), where=c.w > 0.0)
        self.interior = int(np.searchsorted(c.chi, RESIDUAL_INTERIOR * c.B))

    def energy(self, u: np.ndarray, v: np.ndarray) -> float:
        c, wgt = self.coeffs, self.wgt
        kinetic = 0.5 * float(np.sum(c.mass * v * v * wgt))
        gradient = 0.5 * float(np.sum(c.flux_half * np.diff(u) ** 2)) / self.dchi
        potential = -0.5 * float(np.sum(c.V * u * u * wgt))
        surface = -0.5 * c.flux_surface * c.alpha * u[-1] ** 2
        return kinetic + gradient + potential + surface

    def norms(self, u: np.ndarray, v: np.ndarray, du: np.ndarray,
              kick: np.ndarray) -> dict[str, float]:
        dv = derivative_uniform(v, self.dchi)
        d2u = derivative_uniform(du, self.dchi)
        u_terms = np.dot(self.inv_r2 * u, u) + np.dot(self.r4 * du, du)
        first = u_terms + np.dot(self.inv_r2 * v, v)
        norm = u_terms + np.dot(self.trap * v, v)
        second = (np.dot(self.kick_r2 * kick, kick) + np.dot(self.r4 * dv, dv)
                  + np.dot(self.r10 * d2u, d2u))
        return {"norm": float(norm), "first": float(first), "second": float(second)}

    def residual(self, u: np.ndarray, du: np.ndarray) -> np.ndarray:
        out = derivative_uniform(self.m1 * u, self.dchi, order=4)
        out -= self.alpha * u + self.m1 * du
        out[0] = 0.0
        return out

    def residual_sup(self, u: np.ndarray, du: np.ndarray) -> float:
        return float(np.max(np.abs(self.residual(u, du)[self.interior:])))


def discrete_energy(coeffs: WaveCoefficients, u: np.ndarray, v: np.ndarray) -> float:
    """The exact invariant of the semi-discrete system: kinetic, gradient,
    potential and surface pieces, each nonnegative except the potential one
    where V > 0 (outer shells of stars with R above about 0.208)."""
    return _SampleForms(coeffs).energy(u, v)


def energy_norms(coeffs: WaveCoefficients, u: np.ndarray, v: np.ndarray) -> dict[str, float]:
    """Weighted field norms (trapezoid in chi; centre values by shell ratio).

    "norm"   : integral of u^2/r0^2 + v^2 + r0^4 (du/dchi)^2
    "first"  : integral of u^2/r0^2 + v^2/r0^2 + r0^4 (du/dchi)^2
    "second" : integral of (Lu)^2/r0^2 + r0^4 (dv/dchi)^2 + r0^10 (d2u/dchi2)^2
    where L is the spatial operator.  These are diagnostics of boundedness,
    not invariants.
    """
    du = derivative_uniform(u, coeffs.dchi)
    return _SampleForms(coeffs).norms(u, v, du, acceleration(coeffs, u))


def constraint_residual(coeffs: WaveCoefficients, u: np.ndarray) -> np.ndarray:
    """Defect of the linearized mass constraint for the state u.

    Compares the chi-derivative of the algebraic m1 (wide stencil) against
    the linearized constraint flux (which itself uses the narrow stencil of
    ``reconstruct``); the mismatch is pure discretisation defect and shrinks
    at second order away from the centre.  Node 0 is reported as 0.
    """
    return _SampleForms(coeffs).residual(u, derivative_uniform(u, coeffs.dchi))


def residual_norm(coeffs: WaveCoefficients, u: np.ndarray) -> float:
    """Sup of the constraint residual over chi >= ``RESIDUAL_INTERIOR`` * B."""
    return _SampleForms(coeffs).residual_sup(u, derivative_uniform(u, coeffs.dchi))


def cfl_timestep(coeffs: WaveCoefficients, cfl: float) -> float:
    if not (0.0 < cfl <= 0.5):
        raise CflViolationError(
            f"cfl must lie in (0, 0.5] for the explicit stepper, got {cfl}"
        )
    return cfl * coeffs.dchi / coeffs.cmax


def _time_step(coeffs: WaveCoefficients, T: float, cfl: float) -> tuple[int, float]:
    """(n_steps, dt): the CFL step shrunk so that n_steps * dt == T."""
    if T <= 0.0:
        raise DomainError(f"evolution duration must be positive, got {T}")
    n_steps = max(1, math.ceil(T / cfl_timestep(coeffs, cfl)))
    return n_steps, T / n_steps


def _sample_steps(n_steps: int, samples: int) -> list[int]:
    """Every ``n_steps // samples`` steps, and the last."""
    every = max(1, n_steps // max(1, samples))
    return [*range(every, n_steps, every), n_steps]


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
    surface: np.ndarray    # u at the surface node, at ``times``
    initial_energy: float
    provenance: dict = field(default_factory=dict)

    @property
    def max_energy_drift(self) -> float:
        return float(np.max(np.abs(self.energies / self.initial_energy - 1.0)))


STRIDE = 32            # steps per Chebyshev stride: the half-bandwidth of T_k(C)
_BUILD_COLUMNS = 64    # columns of T_k(C) built per longdouble block
INSTABILITY_FACTOR = 100.0  # energy growth over its initial value that counts as unstable


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

    def run(self, steps: int) -> None:
        u, w, kick, form_kick = self.u, self.w, self.kick, self._form_kick
        for _ in range(steps):
            np.add(u, w, out=u)
            form_kick()
            np.add(w, kick, out=w)


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


class _WaveRun:
    """The stepper of ``evolve`` as one resumable run of ``n_steps`` steps
    of size dt from (u0, v0).

    ``advance(step)`` moves on to a sample step after the last one, records
    the sample series there (time, surface displacement u[-1], energy,
    norms, constraint residual), raises ``InstabilityError`` as ``evolve``
    does, and returns (u, v); u is the run's own buffer, valid until the
    next call.  T_k(C) is built on first need.
    """

    def __init__(self, coeffs: WaveCoefficients, u0: np.ndarray, v0: np.ndarray,
                 dt: float, n_steps: int) -> None:
        u = np.array(u0, dtype=float)
        v = np.array(v0, dtype=float)
        if u.shape != (coeffs.n_chi,) or v.shape != (coeffs.n_chi,):
            raise DomainError("initial data shape does not match the chi grid")
        u[0] = 0.0
        v[0] = 0.0
        self.coeffs, self.dt, self.n_steps = coeffs, dt, n_steps
        self.forms = _SampleForms(coeffs, dt)
        self.times, self.surface, self.energies, self.residuals = [], [], [], []
        self.norm_series: dict[str, list[float]] = {"norm": [], "first": [], "second": []}
        lu = acceleration(coeffs, u)
        self.e0 = self._record(0, u, v, (dt * dt) * lu)

        k = STRIDE
        self._scaled = dt * dt * coeffs.bands
        self._u, self._w = u, dt * v + 0.5 * (dt * dt) * lu
        # scipy's dgbmv wants at least 2k + 1 rows
        self.strides = n_steps // k - 1 if n_steps >= 2 * k and coeffs.n_chi > 2 * k else 0
        self._plain_end = k if self.strides else n_steps
        self._main = _KickDrift(self._scaled, u, self._w)
        self._back = u.copy(), self._w.copy()  # x_(n-k) at the first boundary n = k
        self._at = 0            # last plain step, then last stride boundary
        self._side = self._band = None  # made on first need
        self._side_at: int | None = None

    def _record(self, step: int, u: np.ndarray, v: np.ndarray, kick: np.ndarray) -> float:
        e = self.forms.energy(u, v)
        du = derivative_uniform(u, self.forms.dchi)
        self.times.append(step * self.dt)
        self.surface.append(float(u[-1]))
        self.energies.append(e)
        for key, val in self.forms.norms(u, v, du, kick).items():
            self.norm_series[key].append(val)
        self.residuals.append(self.forms.residual_sup(u, du))
        return e

    def _stride(self) -> None:
        k, n = STRIDE, self.coeffs.n_chi
        if self._band is None:
            self._band = _chebyshev_band(self._scaled, k)
        # x_(n+k) = 2 T_k(C) x_n - x_(n-k), written over x_(n-k)
        ahead = [dgbmv(n, n, k, k, 2.0, self._band, x, beta=-1.0, y=back, overwrite_y=1, trans=1)
                 for x, back in zip((self._u, self._w), self._back)]
        self._back = self._u, self._w
        self._u, self._w = ahead
        self._at += k
        self._side_at = None
        if self._at + k > self.n_steps:  # the last stride; T_k is 1 MB at n_chi 2000
            self._band = None

    def advance(self, step: int) -> tuple[np.ndarray, np.ndarray]:
        if step <= self._plain_end:
            state = self._main
            state.run(step - self._at)
            self._at = step
        else:
            if self._side is None:  # the first sample past the plain steps
                self._main.run(self._plain_end - self._at)
                self._at = self._plain_end
                self._side = _KickDrift(self._scaled, np.empty_like(self._u),
                                        np.empty_like(self._w))
            while step >= self._at + STRIDE:
                self._stride()
            state = self._side
            if self._side_at is None:
                state.load(self._u, self._w)
                self._side_at = self._at
            state.run(step - self._side_at)
            self._side_at = step
        v = (state.w - 0.5 * state.kick) / self.dt
        e, e0 = self._record(step, state.u, v, state.kick), self.e0
        if e0 > 0.0 and (not math.isfinite(e) or e > INSTABILITY_FACTOR * e0):
            raise InstabilityError(
                f"discrete energy grew by {e / e0:.3g} at t={step * self.dt:.6g}",
                step=step,
                energy_ratio=e / e0,
            )
        return state.u, v


def evolve(
    coeffs: WaveCoefficients,
    u0: np.ndarray,
    v0: np.ndarray,
    T: float,
    cfl: float = 0.4,
    samples: int = 200,
) -> EvolutionResult:
    """Velocity-Verlet evolution for duration T (landing on T exactly).

    The time step is the CFL step shrunk so that n_steps * dt == T.  The
    scheme is kick-drift Verlet on S = dt^2 A, which after k = ``STRIDE``
    plain steps advances u and w = dt v(t + dt/2) k steps per ``dgbmv``
    call with T_k(C), C = I + S/2 (see the module docstring).  Runs shorter
    than 2k steps, and grids of at most 2k nodes, stay plain.

    The stepper is resumable: it stops at each sample step (every
    ``n_steps // samples`` steps, and the last), records the surface
    displacement u[-1], and the energy, the norms and the constraint
    residual from the full-step velocity v = (w - S u / 2)/dt and the kick
    S u, and goes on; ``times`` and every series start with the initial
    state.  Sample states and the final state come from at most k - 1 plain
    steps on copies of the last stride boundary, so the strides never
    restart: u, v and each sample's values do not depend on ``samples``.  Raises
    ``InstabilityError`` at the first sample where the discrete energy is
    non-finite or above ``INSTABILITY_FACTOR`` times its initial value.
    ``provenance`` records ``max_dt2_mu``, the exact stability margin
    (stable below 4), and ``stride`` (k), ``strides`` and ``plain_steps``,
    with k * strides + plain_steps == n_steps.
    """
    n_steps, dt = _time_step(coeffs, T, cfl)
    run = _WaveRun(coeffs, u0, v0, dt, n_steps)
    for step in _sample_steps(n_steps, samples):
        u, v = run.advance(step)

    top = coeffs.n_chi - 2  # index of the largest eigenvalue
    return EvolutionResult(
        dt=dt,
        n_steps=n_steps,
        u=_readonly(u),
        v=_readonly(v),
        times=_readonly(np.array(run.times)),
        energies=_readonly(np.array(run.energies)),
        norm_series={key: _readonly(np.array(vals)) for key, vals in run.norm_series.items()},
        residuals=_readonly(np.array(run.residuals)),
        surface=_readonly(np.array(run.surface)),
        initial_energy=run.e0,
        provenance={
            "cfl": cfl,
            "samples": samples,
            "max_dt2_mu": dt * dt * float(operator_eigenvalues(coeffs, top, top)[0]),
            "stride": STRIDE,
            "strides": run.strides,
            "plain_steps": n_steps - STRIDE * run.strides,
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
    du_dr0 = derivative_uniform(u, coeffs.dchi) * coeffs.w  # = (du/dchi)/(dr0/dchi)

    psi1 = np.empty_like(u)
    omega1 = np.empty_like(u)
    slope0 = u[1] / r0[1]
    psi1[1:] = (2.0 / r0[1:] - coeffs.q[1:]) * u[1:] + du_dr0[1:]
    psi1[0] = 3.0 * slope0
    omega1[1:] = du_dr0[1:] - coeffs.q[1:] * u[1:]
    omega1[0] = slope0
    m1 = _m1_coefficient(coeffs) * u
    rho1 = -coeffs.n2 * psi1
    n1 = rho1 / np.sqrt(coeffs.n2)
    return LinearizedFields(
        psi1=_readonly(psi1),
        omega1=_readonly(omega1),
        m1=_readonly(m1),
        rho1=_readonly(rho1),
        n1=_readonly(n1),
    )
