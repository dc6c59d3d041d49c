"""Linear radial waves on a static star, in the shell coordinate.

The dynamical field u(chi, t) is the first-order displacement of the fluid
shell labelled by interior particle count chi; t is the clock of the comoving
frame.  The equation of motion is

    mass(chi) d2u/dt2 = d/dchi ( flux(chi) du/dchi ) + V(chi) u,

with coefficients read from the quadratic form of the second variation
(``variation.quadratic_form``: A, B, C, D and the bulk potential K).  With
e = exp(I - I(R)) from ``variation.integrating_factor``, w = dchi/dr0 and
gamma = 1/sqrt(1 - 2M/R),

    mass = gamma n^3 e / sqrt(1 - 2m/r0),  flux = gamma C w e,  V = -gamma e K / w.

So the wave operator is gamma times the Euler-Lagrange operator of
``variation.second_variation``, and for u = 0 at the surface the static
energy below is gamma/2 times the second variation of the same
displacement (``test_wave_energy_is_gamma_times_second_variation``).  V
diverges like -2/r0^2 at the centre.  V < 0 on every node for R up to about
0.208; above that V turns positive in an outer shell that spreads inward
(at n_chi 500: 224 of 499 nodes, r0 > 0.83 R, max 22.7 at R = 0.235; 310
nodes, r0 > 0.73 R, at R = 0.245).  flux/mass = (4 pi r0^2)^2 exactly, so
the characteristic speed in chi equals the shell surface area.

``assemble_coefficients`` samples the star at the radius r0 of each node
and half node.  It reads the profile only locally: on each knot interval of
the uniform r grid, chi(r) is the cubic through the four nearest samples,
r0 is that cubic's root (safeguarded Newton), and rho, m/r^3 and I - I(R)
are read at r0 from the same four-point stencil
(``numerics.lagrange_uniform``).  No spline over every knot is built.

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
stability margin of the stepper (stable below 4).

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
call each.  T_k(C) is built by one squaring, T_k = 2 T_(k/2)^2 - I, of
rows of T_(k/2)(C) from the three-term recurrence; both run in
``_BUILD_DTYPE`` (``np.longdouble``), and T_k is rounded to double once.
The build streams in blocks of 256 rows of T_k, each with a halo of k/2
rows of T_(k/2) on either side, so no whole T_(k/2) is held in long
double.  Built in double, the rounding breaks time reversal: 3719 steps
forward and back at n_chi 501 return v with an error of up to 3.5e-10 of
its scale, against 1.6e-12 in ``np.longdouble`` (worst over last-bit draws
of the mass weights).  What ``np.longdouble`` is
depends on the platform: the 80-bit x87 format on x86-64 Linux, plain
double on MSVC builds and arm64 macOS (where the strides keep only the
double accuracy), a slow software quad on aarch64 Linux.
The stepper is one resumable run, which ``hardstars evolve`` drives across
all its snapshots.  Each sample (surface displacement, energy, norms,
constraint residual) is taken on a copy of the nearer stride boundary, at
most k/2 plain steps away: forward from the boundary below or backward
(w -= S u, u -= w) from the one above.  Past the last boundary there is
none above, so the last window takes up to k - 1 steps forward.  The
stepper conserves the energy to O(dt^2) uniformly.

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
from scipy.linalg import eigvalsh_tridiagonal
from scipy.linalg.blas import dgbmv

from .background import FOUR_PI, BackgroundProfile, _chi_jacobian, _readonly, metric_terms
from .errors import CflViolationError, ConvergenceError, DomainError, InstabilityError
from .numerics import derivative_uniform, lagrange_uniform
from .variation import integrating_factor, quadratic_form


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
    r0_half: np.ndarray    # shell radii at the half nodes
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


#: Largest comoving grid ``assemble_coefficients`` accepts.  An ``evolve``
#: takes O(n_chi) steps of O(n_chi) work each, and the stride band holds
#: 2 STRIDE + 1 doubles per node (52 MB at the cap).
MAX_N_CHI = 100_000
#: Newton steps allowed per chi inversion.  From the linear start every
#: target converges in 3-4 on grids of 401-4096 points (R = 0.02-0.2471,
#: n_chi 16-100000), and in up to 8 on a 16-point grid.
CHI_NEWTON_MAX_STEPS = 20


def _invert_chi(profile: BackgroundProfile, targets: np.ndarray) -> np.ndarray:
    """Radii r in [0, R] with chi(r) = target, for all targets at once.

    chi is read as ``numerics.lagrange_uniform`` reads it: on each knot
    interval of the uniform r grid, the cubic through the four profile
    samples around it.  Each root is found by Newton on that cubic, started
    by linear interpolation in the knot interval holding the target and
    safeguarded by bisection inside it; it stops once every step is within
    4 eps of r.  Targets at or below 0 map to 0, targets at or above chi(R)
    to R.  Raises ``ConvergenceError`` after ``CHI_NEWTON_MAX_STEPS`` steps.
    """
    chi, n = profile.chi, profile.grid_n
    out = np.where(targets <= 0.0, 0.0, profile.R)
    inside = (targets > 0.0) & (targets < chi[-1])
    t = targets[inside]
    k = np.searchsorted(chi, t, side="right") - 1  # chi[k] <= t < chi[k + 1]
    i = np.clip(k - 1, 0, n - 4)                   # the stencil chi[i..i+3]
    # the cubic in u = r/dr - k, u in [0, 1] on the interval, as
    # chi[k] + u (b1 + u (b2 + u b3)), from its forward differences at i
    y0, y1, y2, y3 = chi[i], chi[i + 1], chi[i + 2], chi[i + 3]
    d1, d2, d3 = y1 - y0, y2 - 2.0 * y1 + y0, y3 - 3.0 * (y2 - y1) - y0
    c = k - i                                      # u = 0 at stencil coordinate c
    b1 = d1 + (c - 0.5) * d2 + ((3 * c - 6) * c + 2) * d3 / 6.0
    b2 = 0.5 * d2 + 0.5 * (c - 1) * d3
    b3 = d3 / 6.0
    f0 = chi[k] - t
    lo, hi = np.zeros_like(t), np.ones_like(t)
    u = -f0 / (chi[k + 1] - chi[k])
    eps4 = 4.0 * np.finfo(float).eps
    for _ in range(CHI_NEWTON_MAX_STEPS):
        f = f0 + u * (b1 + u * (b2 + u * b3))
        below = f < 0.0
        lo = np.where(below, u, lo)
        hi = np.where(below, hi, u)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = u - f / (b1 + u * (2.0 * b2 + 3.0 * u * b3))
        # closed bracket: a converged Newton step rounds onto u itself,
        # which may be a bracket end
        ok = (newton >= lo) & (newton <= hi)
        u_next = np.where(f == 0.0, u, np.where(ok, newton, 0.5 * (lo + hi)))
        # the step relative to r / dr = u + k, the radius returned
        done = np.all(np.abs(u_next - u) <= eps4 * (u_next + k))
        u = u_next
        if done:
            break
    else:
        raise ConvergenceError(f"chi inversion did not converge in {CHI_NEWTON_MAX_STEPS} "
                               "Newton steps", iterations=CHI_NEWTON_MAX_STEPS)
    out[inside] = (u + k) * profile.dr
    return out


def assemble_coefficients(profile: BackgroundProfile, n_chi: int = 1001) -> WaveCoefficients:
    """Sample the wave-equation coefficients on a uniform chi grid.

    The radius of each node and half node is found by inverting the
    background chi(r) map (``_invert_chi``, root-finding in r, where
    everything is smooth); rho, m/r^3 and I - I(R) are read there from the
    four nearest profile samples (``numerics.lagrange_uniform``, the same
    cubic the inversion solves), and the coefficients from
    ``variation.quadratic_form``, with e = exp(I - I(R)) and
    gamma = 1/sqrt(1 - 2M/R):

        mass = gamma n^3 e / sqrt(1 - 2m/r),  flux = gamma C w e,
        V = -gamma e K / w,  alpha = q(R) - 2/R.

    Raises ``DomainError`` for n_chi below 16 or above ``MAX_N_CHI``.
    """
    if not 16 <= n_chi <= MAX_N_CHI:
        raise DomainError(f"n_chi must lie in [16, {MAX_N_CHI}], got {n_chi}")
    B = profile.N_total
    R = profile.R
    n = n_chi
    dchi = B / (n - 1)
    chi = np.linspace(0.0, B, n)

    # the nodes and the half nodes in one pass, split only at the end
    r = _invert_chi(profile, np.concatenate([chi, chi[:-1] + 0.5 * dchi]))
    I = integrating_factor(profile)
    rho, mor3, I_r = lagrange_uniform(r, profile.dr, profile.rho, profile.m_over_r3, I - I[-1])
    n2, D, q = metric_terms(r, rho, mor3)
    _, _, C, D_phi, K = quadratic_form(r, rho, mor3)
    # the slope and angle coefficients are positive off the centre exactly
    # where n^2 > 0 and 1 - 2m/r > 0
    if np.any(C[1:] <= 0.0) or np.any(D_phi[1:] <= 0.0):
        raise ConvergenceError("coefficient assembly left the regular domain")
    gamma = 1.0 / math.sqrt(1.0 - 2.0 * profile.M_total / R)
    e = np.exp(I_r)
    w = _chi_jacobian(r, n2, D)
    flux = gamma * C * w * e
    r0, r0_half = r[:n], r[n:]
    n2, D, e, w, K = n2[:n], D[:n], e[:n], w[:n], K[:n]
    mass = gamma * n2 * np.sqrt(n2) * e / np.sqrt(D)
    with np.errstate(divide="ignore"):  # w = 0 at the centre node
        V = -gamma * e * K / w
    V[0] = 0.0
    alpha = float(q[n - 1] - 2.0 / R)

    return WaveCoefficients(
        profile=profile,
        n_chi=n,
        dchi=dchi,
        chi=_readonly(chi),
        r0=_readonly(r0),
        rho0=_readonly(rho[:n]),
        n2=_readonly(n2),
        q=_readonly(q[:n]),
        w=_readonly(w),
        r0_half=_readonly(r0_half),
        mass=_readonly(mass),
        V=_readonly(V),
        flux_half=_readonly(flux[n:]),
        flux_surface=float(flux[n - 1]),
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
    margin of ``evolve``.
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
_BUILD_DTYPE = np.longdouble  # T_k(C) is built in this type and rounded to double once
_BUILD_COLUMNS = 64    # rows of T_(k/2)(C) per recurrence block
_SQUARE_COLUMNS = 256  # rows of T_k(C) per squaring block
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

    def run_back(self, steps: int) -> None:
        """``steps`` steps backward in time: each undoes one step of ``run``."""
        u, w, kick, form_kick = self.u, self.w, self.kick, self._form_kick
        for _ in range(steps):
            np.subtract(w, kick, out=w)
            np.subtract(u, w, out=u)
            form_kick()


def _chebyshev_rows(windows: np.ndarray, k: int, lo: int, hi: int, out: np.ndarray) -> None:
    """Rows lo..hi-1 of T_k(C) into ``out`` (2k + 1, hi - lo), each as its
    column of T_k(C^T) in band layout, by the three-term recurrence in the
    build type.  Left multiplication by C^T mixes rows only, so the columns
    of T_(m+1) = 2 C^T T_m - T_(m-1) are built block by block; ``windows``
    holds the entries of 2C^T for each column (see ``_chebyshev_band``)."""
    for j0 in range(lo, hi, _BUILD_COLUMNS):
        cols = slice(j0, min(j0 + _BUILD_COLUMNS, hi))
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
        out[:, j0 - lo:cols.stop - lo] = cur[1:-1]


def _chebyshev_band(scaled: np.ndarray, k: int) -> np.ndarray:
    """The transpose T_k(C)^T = T_k(C^T), C = I + S/2 with S the dt^2-scaled
    operator bands, for even k, in LAPACK (k, k) banded layout and Fortran
    order.

    ``dgbmv`` with ``trans=1`` applies T_k(C) from it as one dot product of
    2k + 1 terms per entry, which rounds less than the column-by-column
    form of ``trans=0``.  Column j of the result is row j of T_k(C), which
    one squaring gives from the rows of T_h(C), h = k/2, around it:
    T_k = 2 T_h^2 - I.  The rows of T_h come from the three-term recurrence
    (``_chebyshev_rows``), and each diagonal of T_k from one batched dot
    product of h + 1 to 2h + 1 terms per row; both run in ``_BUILD_DTYPE``,
    and T_k is rounded to double once.  The build streams in blocks of
    ``_SQUARE_COLUMNS`` rows of T_k, each with h rows of T_h on either side,
    so no whole T_h is ever held in the build type.
    """
    n = scaled.shape[1]
    h = k // 2
    # entries of 2C^T by matrix row, padded so that entry [p, j] of a window
    # (band row p - 1 of column j, matrix row j + p - 1 - h) sits at column j + p
    pad = h + 1
    two_c = np.zeros((3, n + 2 * pad), dtype=_BUILD_DTYPE)
    two_c[0, pad + 1:pad + n] = scaled[0, 1:]    # 2 C[i-1, i]
    two_c[1, pad:pad + n] = scaled[1]
    two_c[1, pad:pad + n] += 2.0                 # 2 C[i, i]
    two_c[2, pad:pad + n - 1] = scaled[2, :-1]   # 2 C[i+1, i]
    windows = np.lib.stride_tricks.sliding_window_view(two_c, 2 * h + 3, axis=1)
    block = _SQUARE_COLUMNS
    width = block + 2 * h
    # rows j0 - h .. j0 + block + h - 1 of T_h, zero outside the matrix
    half = np.zeros((2 * h + 1, width), dtype=_BUILD_DTYPE)
    size = half.itemsize
    acc = np.empty(block, dtype=_BUILD_DTYPE)
    band = np.empty((2 * k + 1, n), order="F")
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        if j0:
            half[:, :2 * h] = half[:, block:]  # the halo the last block shares
        start = j0 + h if j0 else 0
        stop = min(j1 + h, n)
        if start < stop:
            _chebyshev_rows(windows, h, start, stop, half[:, start - j0 + h:stop - j0 + h])
        half[:, max(start, stop) - j0 + h:] = 0.0
        cols = j1 - j0
        out = acc[:cols, None, None]
        for d in range(-k, k + 1):
            # T_k[j, j + d] = 2 sum_a T_h[j, j + a] T_h[j + a, j + d] - [d == 0]
            a_lo, a_hi = max(-h, d - h), min(h, d + h)
            # x[i, c] = T_h[j, j + a] and y[i, c] = T_h[j + a, j + d] for
            # a = a_lo + i, j = j0 + c: y climbs one band row per term
            x = half[a_lo + h:a_hi + h + 1, h:h + cols]
            y = np.ndarray((a_hi - a_lo + 1, cols), half.dtype, half,
                           ((d - a_lo + h) * width + h + a_lo) * size,
                           ((1 - width) * size, size))
            np.matmul(x.T[:, None, :], y.T[:, :, None], out=out)
            acc[:cols] *= 2.0
            if d == 0:
                acc[:cols] -= 1.0
            band[d + k, j0:j1] = acc[:cols]
    return band


class _WaveRun:
    """The stepper of ``evolve`` as one resumable run of ``n_steps`` steps
    of size dt from (u0, v0).

    ``advance(step)`` moves on to a sample step after the last one, records
    the sample series there (time, surface displacement u[-1], energy,
    norms, constraint residual), raises ``InstabilityError`` as ``evolve``
    does, and returns (u, v); u is the run's own buffer, valid until the
    next call.  Past the first k plain steps the run is a chain of stride
    boundaries k, 2k, ..., and a sample s is reached on a copy from the
    nearer one: forward from the boundary b at or below s when s - b <= k/2
    or when b is the last boundary, else backward from b + k.  The choice
    depends on s alone, so the states do not depend on the schedule.  The
    strides up to a sample run in one loop; T_k(C) is built on first need
    and dropped after the last stride.  ``side_steps`` counts the plain
    steps taken on the copies, forward and backward.
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
        self._last = self._plain_end + k * self.strides  # the last stride boundary
        self._main = _KickDrift(self._scaled, u, self._w)
        self._back = u.copy(), self._w.copy()  # x_(n-k) at the first boundary n = k
        self._at = 0            # last plain step, then last stride boundary
        self._side = self._band = None  # made on first need
        self._side_from: tuple[int, int] | None = None  # (boundary, step) of a forward copy
        self.side_steps = 0

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

    def _strides_to(self, boundary: int) -> None:
        """Stride the chain on to ``boundary`` in one loop."""
        if boundary <= self._at:
            return
        k, n = STRIDE, self.coeffs.n_chi
        if self._band is None:
            self._band = _chebyshev_band(self._scaled, k)
        band = self._band
        u, w = self._u, self._w
        back_u, back_w = self._back
        # x_(n+k) = 2 T_k(C) x_n - x_(n-k), written over x_(n-k); dgbmv's
        # arguments are m, n, kl, ku, alpha, a, x, incx, offx, beta, y,
        # incy, offy, trans, overwrite_y
        for _ in range((boundary - self._at) // k):
            back_u = dgbmv(n, n, k, k, 2.0, band, u, 1, 0, -1.0, back_u, 1, 0, 1, 1)
            back_w = dgbmv(n, n, k, k, 2.0, band, w, 1, 0, -1.0, back_w, 1, 0, 1, 1)
            u, w, back_u, back_w = back_u, back_w, u, w
        self._u, self._w, self._back = u, w, (back_u, back_w)
        self._at = boundary
        if boundary == self._last:  # the last stride; T_k is 1 MB at n_chi 2000
            self._band = None

    def _side_state(self, step: int) -> _KickDrift:
        """The sample state at ``step``, past the plain steps, on the copy."""
        k, side = STRIDE, self._side
        below = step - step % k  # the boundaries are the multiples of k
        if step - below > k // 2 and below < self._last:
            self._strides_to(below + k)
            side.load(self._u, self._w)
            side.run_back(below + k - step)
            self.side_steps += below + k - step
            self._side_from = None
            return side
        if self._side_from is not None and self._side_from[0] == below:
            done = self._side_from[1]  # resume the forward copy of the same boundary
        else:
            self._strides_to(below)
            side.load(self._u, self._w)
            done = below
        side.run(step - done)
        self.side_steps += step - done
        self._side_from = below, step
        return side

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
            state = self._side_state(step)
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
    state.  Sample states and the final state come from plain steps on
    copies of the nearer stride boundary, at most k/2 forward from the one
    below or backward from the one above, and up to k - 1 forward past the
    last boundary.  The strides never restart and the direction depends on
    the sample step alone, so u, v and each sample's values do not depend
    on ``samples``.  Raises
    ``InstabilityError`` at the first sample where the discrete energy is
    non-finite or above ``INSTABILITY_FACTOR`` times its initial value.
    ``provenance`` records ``max_dt2_mu``, the exact stability margin
    (stable below 4), ``stride`` (k), ``strides`` and ``plain_steps``, with
    k * strides + plain_steps == n_steps, and ``side_steps``, the plain
    steps taken on the sample copies, forward and backward.
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
            "side_steps": run.side_steps,
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
