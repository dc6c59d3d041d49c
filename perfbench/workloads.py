"""The three benchmark workloads: their inputs, one round of program calls,
and the checks on what the program returned.

A round calls the program through module attributes (``bg.solve_tov_picard``
and so on), so the traced run sees the calls through its wrappers, and
wraps each call in ``Ledger.op``, which times it; code between operations
is not timed.  Every round of a run makes the same calls on the same
inputs; the inputs come from the workload seed (and, for the audit draws,
the audit seed).
Checks compare against ``oracles`` or against properties the program
states; they never compare against stored output.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from pathlib import Path

import numpy as np

import oracles

from hardstars import background as bg
from hardstars import calibration as cal
from hardstars import cli, evolution as ev, modes as mo, storage as st, variation as va
from hardstars.background import StarParameters

#: Traced span prefix -> module; the public functions of each are wrapped.
LAYERS = {
    "background": bg,
    "variation": va,
    "storage": st,
    "cli": cli,
    "evolution": ev,
    "modes": mo,
}

FOUR_PI = 4.0 * math.pi


class Ledger:
    """Counts and times program operations; only a named known fault may fail.

    Every round makes the same operations in the same order, so the n-th
    time of each round belongs to the same operation.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rounds: list[list[float]] = []

    def start_round(self) -> None:
        self.rounds.append([])

    def op(self, fn, *args, known_fault: type[Exception] | None = None, **kwargs):
        self.attempted += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except known_fault or ():
            self.failed += 1
            return None
        finally:
            self.rounds[-1].append(time.perf_counter() - start)


class Checks:
    def __init__(self) -> None:
        self.failures: list[str] = []

    def __call__(self, name: str, ok: bool, detail: str) -> None:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            self.failures.append(name)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item, dtype=float).tobytes())
        elif isinstance(item, bytes):
            h.update(item)
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _energy_weights(coeffs) -> np.ndarray:
    # mass times cell width; the surface node owns half a cell, the pinned
    # centre none
    w = np.full(coeffs.n_chi, coeffs.dchi)
    w[0] = 0.0
    w[-1] *= 0.5
    return coeffs.mass * w


# ------------------------------------------------------------------ static


class Static:
    """Radius ladder through both solvers, audit, storage and three CLI calls."""

    GRID_N = 4001
    AUDIT_COUNT = 50
    # rung centres; each radius is its centre plus a seeded jitter of at
    # most JITTER.  The first three stay where the closed form's R^4
    # coefficient is below 25, the first five inside the fixed-point
    # regime, the last three are reachable by shooting only.
    RUNGS = (0.02, 0.04, 0.06, 0.09, 0.115, 0.15, 0.19, 0.235)
    JITTER = 0.005
    CLOSED_FORM_MAX_R = 0.07
    work_unit = "stars_per_s"

    def __init__(self, seed: int, audit_seed: int, scratch: Path, tracer) -> None:
        rng = np.random.default_rng(seed)
        self.radii = [round(c + rng.uniform(-self.JITTER, self.JITTER), 6) for c in self.RUNGS]
        self.audit_seed = audit_seed
        self.scratch = scratch
        self.tracer = tracer
        picard = [R for R in self.radii if R <= bg.MAX_CONTRACTION_RADIUS]
        # written by write_profile for the fourth radius in every round
        self.profile_csv = scratch / "star_3.csv"
        self.cli_calls = (
            ("family", ["family", "--radii", ",".join(repr(R) for R in picard), "--grid-n", "2001"]),
            ("build", ["build", "--R", repr(self.radii[3]), "--grid-n", str(self.GRID_N)]),
            ("variation_audit", ["variation-audit", "--profile", str(self.profile_csv),
                                 "--count", str(self.AUDIT_COUNT), "--seed", str(audit_seed)]),
        )

    def describe(self) -> str:
        return (f"radii {self.radii} on grid {self.GRID_N}, audit seed {self.audit_seed}, "
                f"{self.AUDIT_COUNT} draws")

    def _detuned_control(self, star, perts):
        with self.tracer.span("variation.detuned_control"):
            return va.criticality_audit(va.detuned_profile(star), perts)

    def _cli(self, argv: list[str]) -> int:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"hardstars {' '.join(argv)} exited {code}: {sink.getvalue()}")
        return code

    def run_round(self, led: Ledger) -> dict:
        stars = []
        for i, R in enumerate(self.radii):
            params = StarParameters(R=R, grid_n=self.GRID_N)
            picard = None
            if R <= bg.MAX_CONTRACTION_RADIUS:
                picard = led.op(bg.derive_metric_fields, led.op(bg.solve_tov_picard, params))
            shooting = led.op(bg.derive_metric_fields, led.op(bg.solve_tov_shooting, params))
            star = picard if picard is not None else shooting
            perts = led.op(va.audit_perturbations, star, count=self.AUDIT_COUNT, seed=self.audit_seed)
            report = led.op(va.criticality_audit, star, perts)
            detuned = led.op(self._detuned_control, star, perts)
            csv_path, _ = led.op(st.write_profile, star, self.scratch / f"star_{i}")
            back = led.op(st.read_profile_csv, csv_path)
            stars.append({"R": R, "picard": picard, "shooting": shooting, "star": star,
                          "report": report, "detuned": detuned, "back": back})
        cli_dirs = []
        for tag in ("a", "b"):
            out_dir = self.scratch / f"cli_{tag}"
            for name, argv in self.cli_calls:
                with self.tracer.span(f"cli.{name}"):
                    led.op(self._cli, argv + ["--output-dir", str(out_dir)])
            cli_dirs.append(out_dir)
        artifacts = [{p.name: p.read_bytes() for p in sorted(d.iterdir())} for d in cli_dirs]
        return {"stars": stars, "artifacts": artifacts}

    def layer_counts(self, out: dict) -> dict[str, float]:
        return {"cli.artifact_bytes": float(sum(len(b) for b in out["artifacts"][0].values()))}

    def digest(self, out: dict) -> str:
        items = []
        for s in out["stars"]:
            items += [s["star"].rho, s["star"].m, s["star"].chi, s["report"].first_variations,
                      s["report"].second_variations, s["detuned"].first_variations]
        for name, blob in sorted(out["artifacts"][0].items()):
            items += [name, blob]
        return _digest(items)

    def work(self, out: dict) -> float:
        return float(len(out["stars"]))

    def check(self, out: dict, ok: Checks) -> None:
        tol = cal.BACKGROUND_CROSS_CHECK_TOL
        for s in out["stars"]:
            R, star = s["R"], s["star"]
            rho_c, M = oracles.shoot_star(R)
            for route in ("picard", "shooting"):
                prof = s[route]
                if prof is None:
                    continue
                gap = max(abs(prof.rho_central - rho_c), abs(prof.M_total - M))
                ok(f"static.oracle[{route} R={R}]", gap <= tol,
                   f"|rho_c - {rho_c:.13f}|, |M - {M:.13e}| <= {gap:.2e} (bound {tol:g})")
            if s["picard"] is not None:
                gap = max(float(np.max(np.abs(s["picard"].m - s["shooting"].m))),
                          float(np.max(np.abs(s["picard"].rho - s["shooting"].rho))))
                ok(f"static.dual_route[R={R}]", gap <= tol, f"sup gap {gap:.2e} <= {tol:g}")
            surface = abs(float(star.rho[-1]) - 1.0)
            ok(f"static.surface[R={R}]", surface <= 1e-12, f"|rho(R) - 1| = {surface:.1e}")
            if R <= self.CLOSED_FORM_MAX_R:
                closed, _ = bg.approximate_profile(R, star.r)
                dev = float(np.max(np.abs(star.rho - closed)))
                ok(f"static.closed_form[R={R}]", dev <= 25.0 * R**4,
                   f"sup|rho - closed form| = {dev:.3e} <= 25 R^4 = {25.0 * R**4:.3e}")
            rep = s["report"]
            ok(f"static.criticality[R={R}]", rep.max_abs_first <= cal.SOLVED_FIRST_VARIATION_MAX,
               f"max|M_dot| = {rep.max_abs_first:.2e} <= {cal.SOLVED_FIRST_VARIATION_MAX:g}")
            low = float(np.min(rep.second_variations))
            ok(f"static.coercivity[R={R}]", low > 0.0, f"min M_ddot = {low:.4g} > 0")
            if s["picard"] is not None:
                lo, hi = cal.EQUIVALENCE_RATIO_WINDOW
                rlo, rhi = rep.ratio_window
                ok(f"static.ratio_window[R={R}]", lo <= rlo and rhi <= hi,
                   f"ratios [{rlo:.3g}, {rhi:.3g}] within [{lo:g}, {hi:g}]")
                floor = 0.5 * FOUR_PI * R * R * 0.01
                det = float(np.min(np.abs(s["detuned"].first_variations)))
                ok(f"static.detuned[R={R}]", det >= floor, f"min|M_dot| = {det:.3e} >= {floor:.3e}")
            same = all(np.array_equal(getattr(star, c), getattr(s["back"], c)) for c in st.CSV_COLUMNS)
            ok(f"static.read_back[R={R}]", same, "every CSV column read back bit for bit")
        first, second = out["artifacts"]
        ok("static.cli_identical", first == second and len(first) > 0,
           f"{len(first)} artifacts of family, build and variation-audit byte-identical on re-run")

    def standalone(self, out: dict) -> dict[str, float]:
        return {}


# ------------------------------------------------------------------- waves


class Waves:
    """Gaussian-pulse evolutions of the R=0.05 star on two chi grids."""

    R = 0.05
    GRID_N = 2001
    N_CHI = (1000, 2000)
    DURATION = 10.0  # in units of R
    work_unit = "shell_steps_per_s"

    def __init__(self, seed: int, audit_seed: int, scratch: Path, tracer) -> None:
        rng = np.random.default_rng(seed)
        # pulse placement and width as fractions of the particle number B
        self.center = float(rng.uniform(0.45, 0.55))
        self.width = float(rng.uniform(0.09, 0.11))

    def describe(self) -> str:
        return (f"R={self.R} grid {self.GRID_N}, n_chi {self.N_CHI}, T={self.DURATION}R, "
                f"pulse centre {self.center:.4f} B width {self.width:.4f} B")

    def _evolve(self, coeffs):
        u0, v0 = ev.gaussian_pulse(coeffs, center=self.center, width=self.width)
        return u0, v0, ev.evolve(coeffs, u0, v0, T=self.DURATION * self.R)

    def run_round(self, led: Ledger) -> dict:
        star = led.op(bg.build_star, StarParameters(R=self.R, grid_n=self.GRID_N))
        runs = {}
        for n in self.N_CHI:
            coeffs = led.op(ev.assemble_coefficients, star, n_chi=n)
            runs[n] = (coeffs, *led.op(self._evolve, coeffs))
        return {"runs": runs}

    def layer_counts(self, out: dict) -> dict[str, float]:
        return {}

    def digest(self, out: dict) -> str:
        items = []
        for _, _, _, res in out["runs"].values():
            items += [res.u, res.v, res.energies, res.n_steps]
        return _digest(items)

    def work(self, out: dict) -> float:
        return float(sum(n * run[3].n_steps for n, run in out["runs"].items()))

    def check(self, out: dict, ok: Checks) -> None:
        drift = {}
        for n, (coeffs, u0, v0, res) in out["runs"].items():
            ratios = res.energies / res.initial_energy
            lo, hi = float(np.min(ratios)), float(np.max(ratios))
            ok(f"waves.energy_band[n_chi={n}]", 0.98 <= lo and hi <= 1.02,
               f"E/E0 in [{lo:.8f}, {hi:.8f}] within [0.98, 1.02]")
            drift[n] = (coeffs.dchi, res.max_energy_drift)
        (h1, d1), (h2, d2) = (drift[n] for n in self.N_CHI)
        order = math.log(d1 / d2) / math.log(h1 / h2)
        ok("waves.drift_order", order >= 1.8, f"drift {d1:.3e} -> {d2:.3e}, order {order:.3f} >= 1.8")

        coeffs, u0, v0, res = out["runs"][self.N_CHI[0]]
        n = coeffs.n_chi
        A = oracles.operator_matrix(lambda u: ev.acceleration(coeffs, u), n)
        u_ref, v_ref = oracles.verlet_propagator(A, _energy_weights(coeffs)[1:], res.dt, res.n_steps,
                                                 u0[1:], v0[1:])
        du = float(np.max(np.abs(res.u[1:] - u_ref)) / np.max(np.abs(u_ref)))
        dv = float(np.max(np.abs(res.v[1:] - v_ref)) / np.max(np.abs(v_ref)))
        ok("waves.closed_form_verlet", max(du, dv) <= 1e-7,
           f"final u, v vs closed-form Verlet after {res.n_steps} steps: rel {du:.2e}, {dv:.2e} <= 1e-7")

    def standalone(self, out: dict) -> dict[str, float]:
        coeffs, _, _, res = out["runs"][self.N_CHI[-1]]
        u, v = np.array(res.u), np.array(res.v)
        return {
            "evolution.acceleration_us": 1e6 * _median_time(lambda: ev.acceleration(coeffs, u), 201),
            "evolution.diagnostics_ms": 1e3 * _median_time(
                lambda: (ev.energy_norms(coeffs, u, v), ev.residual_norm(coeffs, u)), 11),
        }


# ---------------------------------------------------------------- spectrum


class Spectrum:
    """Fundamentals at three radii, three modes at R=0.05, and their initial data."""

    RADII = (0.02, 0.05, 0.1)
    GRID_N = 2001
    N_CHI = (1000, 2000)
    # assemble_coefficients raises ValueError at R=0.02: the chi spline at
    # R rounds just below B, so brentq cannot bracket the last node.
    KNOWN_FAULT_R = 0.02
    DEFECT_MAX = 1e-10
    work_unit = "modes_per_s"

    def __init__(self, seed: int, audit_seed: int, scratch: Path, tracer) -> None:
        rng = np.random.default_rng(seed)
        self.amplitude = float(10.0 ** rng.uniform(-7.0, -5.0))

    def describe(self) -> str:
        return (f"radii {self.RADII} grid {self.GRID_N}, 3 modes at R=0.05, n_chi {self.N_CHI}, "
                f"initial-data amplitude {self.amplitude:.4e}")

    def _initial_data(self, star, mode, n):
        coeffs = ev.assemble_coefficients(star, n_chi=n)
        return coeffs, mo.mode_to_initial_data(coeffs, mode, amplitude=self.amplitude)[0]

    def run_round(self, led: Ledger) -> dict:
        fundamentals = {}
        for R in self.RADII:
            star = led.op(bg.build_star, StarParameters(R=R, grid_n=self.GRID_N))
            mode = led.op(mo.find_modes, star, n_modes=1)[0]
            h = led.op(mo.eigenfunction, star, mode.eigenvalue)
            data = {}
            for n in self.N_CHI:
                fault = ValueError if R == self.KNOWN_FAULT_R else None
                data[n] = led.op(self._initial_data, star, mode, n, known_fault=fault)
            fundamentals[R] = {"star": star, "mode": mode, "h": h, "data": data}
        ladder = led.op(mo.find_modes, fundamentals[0.05]["star"], n_modes=3)
        return {"fundamentals": fundamentals, "ladder": ladder}

    def layer_counts(self, out: dict) -> dict[str, float]:
        return {"modes.located": self.work(out)}

    def digest(self, out: dict) -> str:
        items = [m.x for m in out["ladder"]]
        for f in out["fundamentals"].values():
            items += [f["mode"].x, f["h"]]
            items += [None if d is None else d[1] for d in f["data"].values()]
        return _digest(items)

    def _modes(self, out: dict) -> list:
        return [f["mode"] for f in out["fundamentals"].values()] + list(out["ladder"])

    def work(self, out: dict) -> float:
        return float(sum(abs(m.defect) <= self.DEFECT_MAX for m in self._modes(out)))

    def check(self, out: dict, ok: Checks) -> None:
        worst = max(abs(m.defect) for m in self._modes(out))
        ok("spectrum.defects", worst <= self.DEFECT_MAX,
           f"max |boundary defect| {worst:.2e} <= {self.DEFECT_MAX:g} over {len(self._modes(out))} modes")
        xs = [m.x for m in out["ladder"]]
        gaps = np.diff(xs)
        ok("spectrum.ladder", bool(np.all(np.abs(gaps - math.pi) <= 0.5 * math.pi)),
           f"x_j = {', '.join(f'{x:.8f}' for x in xs)}; spacings within pi +- pi/2")
        root = oracles.limit_root()
        ok("spectrum.limit_root", abs(root - mo.X1_LIMIT) <= 1e-12,
           f"X1_LIMIT {mo.X1_LIMIT!r} vs bisection {root!r}")
        x1 = {R: f["mode"].x for R, f in out["fundamentals"].items()}
        ok("spectrum.above_limit", all(x > mo.X1_LIMIT for x in x1.values()),
           ", ".join(f"x1({R}) = {x:.10f}" for R, x in x1.items()) + " > X1_LIMIT")
        lo, hi = cal.GAP_EXPONENT_BAND
        for Ra, Rb in zip(self.RADII, self.RADII[1:]):
            expo = math.log((x1[Rb] ** 2 - mo.X1_LIMIT**2) / (x1[Ra] ** 2 - mo.X1_LIMIT**2)) / math.log(Rb / Ra)
            ok(f"spectrum.gap_exponent[{Ra}-{Rb}]", lo <= expo <= hi,
               f"exponent of x1^2 - X1_LIMIT^2 = {expo:.3f} in [{lo:g}, {hi:g}]")
        for R, f in out["fundamentals"].items():
            if any(d is None for d in f["data"].values()):
                continue
            xs_h, dchis = [], []
            for coeffs, u0 in f["data"].values():
                xs_h.append(oracles.rayleigh_x(lambda u: ev.acceleration(coeffs, u), u0,
                                               _energy_weights(coeffs), R))
                dchis.append(coeffs.dchi)
            # first-order discretisation error: extrapolate with the exact
            # grid ratio; the remainder must be a small part of the shift
            ratio = dchis[0] / dchis[1]
            extrap = xs_h[1] + (xs_h[1] - xs_h[0]) / (ratio - 1.0)
            bound = 0.02 * abs(xs_h[0] - xs_h[1])
            ok(f"spectrum.rayleigh[R={R}]", abs(extrap - x1[R]) <= bound,
               f"Rayleigh x {xs_h[0]:.7f}, {xs_h[1]:.7f} -> {extrap:.7f} vs shooting {x1[R]:.7f} "
               f"(|diff| {abs(extrap - x1[R]):.1e} <= {bound:.1e})")

    def standalone(self, out: dict) -> dict[str, float]:
        f = out["fundamentals"][0.05]
        return {"modes.shooting_defect_ms": 1e3 * _median_time(
            lambda: mo.shooting_defect(f["star"], f["mode"].eigenvalue), 3)}


WORKLOADS = {"static": Static, "waves": Waves, "spectrum": Spectrum}
