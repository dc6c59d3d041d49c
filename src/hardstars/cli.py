"""Command-line front end tying the solvers into reproducible runs.

Subcommands: build, family, variation-audit, evolve, modes, verify.
A run is described by a RunConfig; ``--config file.json`` overrides any
flag, unknown keys are rejected, and every emitted file carries a header
with the configuration hash so artifacts are traceable and re-runs are
byte-identical.

The option table is the one place options are declared: RunConfig's
fields are its common rows (annotation = type, metadata = flag and help),
and ``_COMMANDS`` gives each command's help, runner and option rows.  The
parser, the JSON key check, the type check and the defaults the commands
read all come from it, so flags and config files are checked alike.

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 verification failure.

The module itself loads only the standard library and the numpy-free
``errors``, ``calibration`` and ``plotting``: parsing, ``--help``,
``--version`` and a flag or config file that fails its checks run without
numpy.  Each command imports what it runs: ``build``, ``family`` and
``variation-audit`` load numpy (``background``, ``storage``,
``variation``) but no scipy; ``evolve``, ``modes`` and ``verify`` load
``evolution`` and ``modes``, and with them scipy.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__, calibration
from .errors import (
    CflViolationError,
    ConfigError,
    ConvergenceError,
    DomainError,
    HardStarError,
    InstabilityError,
)
from .plotting import render_svg

if TYPE_CHECKING:
    import numpy as np

    from .background import BackgroundProfile, StarParameters

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4


# ------------------------------------------------------------ option table


@dataclass(frozen=True)
class _Opt:
    """One row of the option table.

    ``kind`` is float, int, str, a tuple of choices, or list (of floats,
    comma-separated on the command line).  A value must exceed ``above``; a
    flag value drops the keys in ``replaces``.
    """

    key: str
    flag: str
    kind: object
    default: object = None
    help: str | None = None
    above: float | None = None
    replaces: tuple[str, ...] = ()


def _common(default, flag: str, help: str):
    """A RunConfig field that a flag also sets."""
    return field(default=default, metadata={"flag": flag, "help": help})


@dataclass(frozen=True)
class RunConfig:
    """One fully specified run; serializes to a canonical JSON document."""

    command: str
    R: float = _common(0.1, "--R", "surface areal radius")
    grid_n: int = _common(2001, "--grid-n", "radial grid nodes")
    seed: int = _common(calibration.DEFAULT_AUDIT_SEED, "--seed", "audit RNG seed")
    output_dir: str = _common(".", "--output-dir", "artifact directory")
    options: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.command not in _COMMANDS:
            raise ConfigError(f"unknown command {self.command!r}")
        if not isinstance(self.options, dict):
            raise ConfigError("options must be a JSON object")
        rows = _option_rows(self.command)
        extra = set(self.options) - set(rows)
        if extra:
            raise ConfigError(f"unknown option keys for {self.command}: {sorted(extra)}")
        for row in _COMMON.values():
            _check(row, getattr(self, row.key))
        for key, value in self.options.items():
            _check(rows[key], value)

    def canonical_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, separators=(",", ":"))

    @property
    def hash(self) -> str:
        """Digest of everything that shapes the numbers; where they land is excluded."""
        from .storage import digest

        doc = dataclasses.asdict(self)
        doc.pop("output_dir")
        return digest(json.dumps(doc, sort_keys=True, separators=(",", ":")))

    def star_parameters(self) -> StarParameters:
        from .background import StarParameters

        return StarParameters(R=self.R, grid_n=int(self.grid_n))

    @staticmethod
    def from_dict(data: dict) -> RunConfig:
        unknown = set(data) - {f.name for f in dataclasses.fields(RunConfig)}
        if unknown:
            raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
        if "command" not in data:
            raise ConfigError("configuration must name a command")
        try:
            return RunConfig(**data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc


_KINDS = {"float": float, "int": int, "str": str}
# the common rows: every RunConfig field but command and options
_COMMON = {
    f.name: _Opt(f.name, f.metadata["flag"], _KINDS[f.type], f.default, f.metadata["help"])
    for f in dataclasses.fields(RunConfig)
    if f.name not in ("command", "options")
}


def _option_rows(command: str) -> dict[str, _Opt]:
    return {row.key: row for row in _COMMANDS[command][2]}


def _number(value, integral: bool = False) -> bool:
    """A finite int or float, integral if asked; never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return isinstance(value, int) or (math.isfinite(value) and (not integral or value.is_integer()))


_TYPES = {
    float: ("a finite number", _number),
    int: ("an integer", lambda v: _number(v, integral=True)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a non-empty list of finite numbers",
           lambda v: isinstance(v, list) and bool(v) and all(map(_number, v))),
}


def _check(row: _Opt, value) -> None:
    if isinstance(row.kind, tuple):
        expected, ok = "one of " + ", ".join(row.kind), isinstance(value, str) and value in row.kind
    else:
        expected, test = _TYPES[row.kind]
        ok = test(value)
    if not ok:
        raise ConfigError(f"{row.key} must be {expected}, got {value!r}")
    if row.above is not None and not value > row.above:
        raise ConfigError(f"{row.key} must be greater than {row.above:g}, got {value!r}")


def _get(config: RunConfig, key: str):
    """A common field or option of the config's command, as the layers take it:
    an absent option reads as its table default, ints as int, floats as float."""
    row = _COMMON.get(key) or _option_rows(config.command)[key]
    value = getattr(config, key) if key in _COMMON else config.options.get(key, row.default)
    if value is None or row.kind not in (int, float, list):
        return value
    return [float(v) for v in value] if row.kind is list else row.kind(value)


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path} at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


# ----------------------------------------------------------------- emission


def _header(config: RunConfig, kind: str) -> dict:
    return {"config": config.hash, "format": f"hardstars-{kind}", "version": __version__}


def _emit_csv(path: Path, columns: tuple[str, ...], rows, config: RunConfig, kind: str) -> Path:
    from .storage import write_table

    return write_table(path, _header(config, kind), columns, rows)


def _emit_json(path: Path, payload: dict, config: RunConfig, kind: str) -> Path:
    from .storage import write_document

    return write_document(path, {**_header(config, kind), **payload})


def _resolve_output_dir(config: RunConfig) -> Path:
    out = Path(config.output_dir)
    root = os.environ.get("HARDSTARS_OUTPUT_ROOT")
    if root and not out.is_absolute():
        out = Path(root) / out
    out.mkdir(parents=True, exist_ok=True)
    return out


# ----------------------------------------------------------------- commands


def _cmd_build(config: RunConfig, out: Path) -> int:
    from .background import build_star
    from .storage import write_profile

    star = build_star(config.star_parameters())
    basename = _get(config, "basename")
    if basename is None:
        # dots in the radius would be eaten by suffix handling
        basename = "profile_R" + f"{config.R:g}".replace(".", "p")
    csv_path, json_path = write_profile(star, out / basename, extra={"config": config.hash})
    print(f"built R={config.R:g} M={star.M_total:.12g} N={star.N_total:.12g}")
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    return EXIT_OK


def _cmd_family(config: RunConfig, out: Path) -> int:
    import numpy as np

    from .background import family_scan

    radii = _get(config, "radii")
    if radii is None:
        r_min, r_max = _get(config, "r_min"), _get(config, "r_max")
        if not 0.0 < r_min < r_max:
            raise ConfigError("family scan needs 0 < r_min < r_max")
        radii = list(np.linspace(r_min, r_max, _get(config, "count")))
    rows = family_scan(radii, grid_n=_get(config, "grid_n"))
    columns = ("R", "M_total", "rho_central", "compactness")
    table = [[math.nan if getattr(row, name) is None else getattr(row, name) for name in columns]
             for row in rows]
    path = _emit_csv(out / "family.csv", columns, table, config, "family")
    failures = [row for row in rows if row.error is not None]
    for row in failures:
        print(f"R={row.R:g}: {row.error}", file=sys.stderr)
    print(f"wrote {path} ({len(rows) - len(failures)}/{len(rows)} solved)")
    if len(failures) == len(rows):
        raise ConvergenceError("no radius in the scan produced a star")
    return EXIT_OK


def _cmd_variation_audit(config: RunConfig, out: Path) -> int:
    import numpy as np

    from .background import FOUR_PI, build_star
    from .storage import read_profile_csv
    from .variation import audit_perturbations, criticality_audit

    profile = _get(config, "profile")
    if profile is not None:
        try:
            star = read_profile_csv(profile)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot use profile {profile}: {exc}") from exc
    else:
        star = build_star(config.star_parameters())
    count, seed = _get(config, "count"), _get(config, "seed")
    perts = audit_perturbations(star, count=count, seed=seed)
    report = criticality_audit(star, perts)

    rows = [
        {
            "index": k,
            "M_dot": float(report.first_variations[k]),
            "M_ddot": float(report.second_variations[k]),
            "E_var": float(report.energies[k]),
            "ratio": float(report.ratios[k]),
        }
        for k in range(count)
    ]
    payload = {
        "R": star.R,
        "count": count,
        "seed": seed,
        "max_abs_M_dot": report.max_abs_first,
        "min_M_ddot": float(np.min(report.second_variations)),
        "ratio_bounds": list(report.ratio_window),
        "perturbations": rows,
    }
    report_path = _emit_json(out / "variation_report.json", payload, config, "variation-report")

    # shell-by-shell mass rate of the first draw (vanishing surface density
    # freezes the total, the interior still moves)
    rdot = perts[0].rdot
    mdot = -FOUR_PI * star.r**2 * (star.rho - 1.0) * rdot
    mdot_path = _emit_csv(
        out / "mdot.csv",
        ("chi", "r", "rdot", "mdot"),
        zip(star.chi, star.r, rdot, mdot),
        config,
        "mass-rate",
    )
    print(
        f"audited {count} perturbations: max|M_dot|={report.max_abs_first:.3e} "
        f"ratio window [{report.ratio_window[0]:.3g}, {report.ratio_window[1]:.3g}]"
    )
    print(f"wrote {report_path}")
    print(f"wrote {mdot_path}")
    return EXIT_OK


def _initial_data(preset: str, star: BackgroundProfile, coeffs):
    import numpy as np

    from .evolution import gaussian_pulse
    from .modes import find_modes, mode_to_initial_data
    from .storage import read_table

    if preset == "gaussian":
        return gaussian_pulse(coeffs)
    if preset.startswith("mode:"):
        try:
            index = int(preset.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"mode preset needs an integer index, got {preset!r}") from None
        if index < 1:
            raise ConfigError("mode preset index counts from 1")
        modes = find_modes(star, n_modes=index)
        return mode_to_initial_data(coeffs, modes[index - 1])
    if preset.startswith("file:"):
        path = preset.split(":", 1)[1]
        try:
            names, table = read_table(path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read initial data {path}: {exc}") from exc
        if not {"chi", "u", "v"} <= set(names):
            raise ConfigError(f"initial data {path} needs chi,u,v columns")
        cols = dict(zip(names, table.T))
        chi, u, v = cols["chi"], cols["u"], cols["v"]
        if not np.isfinite([chi, u, v]).all():
            raise ConfigError(f"initial data {path} holds a non-finite value")
        if np.any(np.diff(chi) <= 0.0):
            raise ConfigError(f"initial data {path} needs a strictly increasing chi column")
        # np.interp would hold the end values constant beyond the table
        lo, hi = float(coeffs.chi[0]), float(coeffs.chi[-1])
        if chi[0] > lo or chi[-1] < hi:
            raise ConfigError(
                f"initial data {path} covers chi in [{float(chi[0])!r}, {float(chi[-1])!r}], "
                f"not the whole grid [{lo!r}, {hi!r}]"
            )
        u0 = np.interp(coeffs.chi, chi, u)
        v0 = np.interp(coeffs.chi, chi, v)
        u0[0] = 0.0
        v0[0] = 0.0
        if not (np.any(u0) or np.any(v0)):
            raise ConfigError(f"initial data {path} is zero on every free node")
        return u0, v0
    raise ConfigError(f"unknown initial-data preset {preset!r}")


def _cmd_evolve(config: RunConfig, out: Path) -> int:
    from .background import build_star
    from .evolution import _sample_steps, _time_step, _WaveRun, assemble_coefficients, reconstruct

    cfl = _get(config, "cfl")
    duration = _get(config, "duration")  # in units of R
    samples = _get(config, "samples")
    n_snap = _get(config, "snapshots")
    preset = _get(config, "preset")

    star = build_star(config.star_parameters())
    coeffs = assemble_coefficients(star, n_chi=_get(config, "n_chi"))
    u, v = _initial_data(preset, star, coeffs)

    def snapshot(index: int, uu: np.ndarray, vv: np.ndarray) -> Path:
        fields = reconstruct(coeffs, uu)
        return _emit_csv(
            out / f"snapshot_{index:03d}.csv",
            ("chi", "r0", "u", "v", "psi1", "omega1", "m1", "rho1"),
            zip(coeffs.chi, coeffs.r0, uu, vv, fields.psi1, fields.omega1, fields.m1, fields.rho1),
            config,
            "snapshot",
        )

    # one unbroken run; snapshot j sits at j segment lengths, each segment
    # sampled as an evolve of one segment length would be
    T_total = duration * config.R
    seg_steps, dt = _time_step(coeffs, T_total / (n_snap - 1), cfl)
    seg_samples = _sample_steps(seg_steps, samples // (n_snap - 1))
    run = _WaveRun(coeffs, u, v, dt, seg_steps * (n_snap - 1))
    snapshot(0, u, v)
    for seg in range(1, n_snap):
        for step in seg_samples:
            u, v = run.advance((seg - 1) * seg_steps + step)
        snapshot(seg, u, v)
    times, energies, norms = run.times, run.energies, run.norm_series

    energy_path = _emit_csv(
        out / "energy.csv",
        ("phi", "energy", "norm", "first", "second", "constraint_residual"),
        zip(times, energies, norms["norm"], norms["first"], norms["second"], run.residuals),
        config,
        "energy-history",
    )
    e0 = energies[0]
    svg_path = render_svg(
        [
            ("energy/E0", times, [e / e0 for e in energies]),
            ("norm/N0", times, [n / norms["norm"][0] for n in norms["norm"]]),
            ("first/F0", times, [n / norms["first"][0] for n in norms["first"]]),
            ("second/S0", times, [n / norms["second"][0] for n in norms["second"]]),
        ],
        out / "energy.svg",
        title=f"evolution R={config.R:g} preset={preset}",
        xlabel="phi",
        ylabel="relative size",
        ylog=True,
    )
    drift = max(abs(e / e0 - 1.0) for e in energies)
    print(f"evolved to phi={T_total:g} in {len(times)} samples, energy drift {drift:.3e}")
    print(f"wrote {energy_path}")
    print(f"wrote {svg_path}")
    return EXIT_OK


def _cmd_modes(config: RunConfig, out: Path) -> int:
    from .background import build_star
    from .evolution import assemble_coefficients
    from .modes import dispersion_roots, find_modes, mode_to_initial_data

    count, which = _get(config, "count"), _get(config, "which")
    emit_j = _get(config, "emit_initial_data")
    if emit_j is not None and not 1 <= emit_j <= count:
        raise ConfigError(f"emit_initial_data index {emit_j} outside 1..{count}")

    # flat-operator eigenvalues under the surface condition of this radius,
    # which must be one a star can have
    params = config.star_parameters()
    R = params.R
    flat = dispersion_roots(count, R=R)
    lam_h0 = [(x / R) ** 2 for x in flat]

    star = None
    modes = []
    if which in ("full", "both"):
        star = build_star(params)
        modes = find_modes(star, n_modes=count)

    columns: tuple[str, ...]
    rows = []
    if which == "h0":
        columns = ("j", "lambda_h0")
        rows = [(j + 1, lam_h0[j]) for j in range(count)]
    elif which == "full":
        columns = ("j", "lambda_full", "boundary_residual")
        rows = [(j + 1, m.eigenvalue, m.defect) for j, m in enumerate(modes)]
    else:
        columns = ("j", "lambda_h0", "lambda_full", "gap", "boundary_residual")
        rows = [
            (j + 1, lam_h0[j], m.eigenvalue, m.eigenvalue - lam_h0[j], m.defect)
            for j, m in enumerate(modes)
        ]
    table_path = _emit_csv(out / "modes.csv", columns, rows, config, "mode-table")
    print(f"wrote {table_path}")

    for j, mode in enumerate(modes, start=1):
        path = _emit_csv(
            out / f"mode_{j}.csv",
            ("r", "h"),
            zip(star.r, mode.h),
            config,
            "eigenfunction",
        )
        print(f"wrote {path}")

    if emit_j is not None:
        if star is None:
            star = build_star(params)
        if len(modes) < emit_j:
            modes = find_modes(star, n_modes=emit_j)
        coeffs = assemble_coefficients(star, n_chi=_get(config, "n_chi"))
        u0, v0 = mode_to_initial_data(coeffs, modes[emit_j - 1])
        path = _emit_csv(
            out / f"initial_data_mode_{emit_j}.csv",
            ("chi", "u", "v"),
            zip(coeffs.chi, u0, v0),
            config,
            "initial-data",
        )
        print(f"wrote {path}")
    return EXIT_OK


# ------------------------------------------------------------------- verify


class _Checks:
    def __init__(self) -> None:
        self.failures = 0
        self.count = 0

    def record(self, name: str, ok: bool, detail: str) -> None:
        self.count += 1
        if not ok:
            self.failures += 1
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {detail}")


def _cmd_verify(config: RunConfig, out: Path) -> int:
    """Re-check the documented invariants of every module on one star."""
    import numpy as np
    from scipy.special import spherical_jn

    from .background import approximate_profile, build_star, solve_tov_picard
    from .evolution import assemble_coefficients, evolve, gaussian_pulse
    from .modes import X1_LIMIT, estimate_period, find_modes, mode_to_initial_data
    from .variation import (
        audit_perturbations,
        criticality_audit,
        detuned_profile,
        mass_aspect_bound_ratios,
    )

    checks = _Checks()
    R = config.R
    params = config.star_parameters()

    # the fixed-point reference refuses R > MAX_CONTRACTION_RADIUS, so it runs first
    cross = solve_tov_picard(params)
    star = build_star(params)
    gap = max(
        float(np.max(np.abs(star.m - cross.m))),
        float(np.max(np.abs(star.rho - cross.rho))),
    )
    checks.record(
        "background.dual-route",
        gap <= calibration.BACKGROUND_CROSS_CHECK_TOL,
        f"sup gap {gap:.3e} <= {calibration.BACKGROUND_CROSS_CHECK_TOL:g}",
    )
    checks.record(
        "background.surface-density",
        abs(star.rho[-1] - 1.0) <= 1e-12,
        f"|rho(R)-1| = {abs(star.rho[-1] - 1.0):.3e}",
    )
    mono = bool(
        np.all(np.diff(star.m) >= 0.0)
        and np.all(np.diff(star.rho) <= 1e-15)
        and np.all(star.rho >= 1.0 - 1e-15)
    )
    checks.record("background.monotone-fields", mono, "m rising, rho falling to 1")
    compact = 3.0 * star.M_total / R
    checks.record(
        "background.compactness", compact < 1.0, f"3M/R = {compact:.6f} < 1"
    )
    rho_close, _ = approximate_profile(R, star.r, order=2)
    approx_gap = float(np.max(np.abs(star.rho - rho_close)))
    checks.record(
        "background.small-radius-closure",
        approx_gap <= calibration.CLOSED_FORM_R6_MAX * R**6,
        f"sup|rho - two-term closed form| = {approx_gap:.3e} "
        f"<= {calibration.CLOSED_FORM_R6_MAX:g} R^6",
    )

    perts = audit_perturbations(star, count=12, seed=_get(config, "seed"))
    report = criticality_audit(star, perts)
    checks.record(
        "variation.criticality",
        report.max_abs_first <= calibration.SOLVED_FIRST_VARIATION_MAX,
        f"max|M_dot| = {report.max_abs_first:.3e}",
    )
    checks.record(
        "variation.coercivity",
        bool(np.all(report.second_variations > 0.0)),
        f"min M_ddot = {float(np.min(report.second_variations)):.4f} > 0",
    )
    lo, hi = calibration.EQUIVALENCE_RATIO_WINDOW
    rlo, rhi = report.ratio_window
    checks.record(
        "variation.equivalence-window",
        lo <= rlo and rhi <= hi,
        f"ratios in [{rlo:.3g}, {rhi:.3g}] within [{lo:g}, {hi:g}]",
    )
    det_report = criticality_audit(detuned_profile(star), perts)
    det_first = float(np.min(np.abs(det_report.first_variations)))
    det_floor = calibration.detuned_floor(R)
    checks.record(
        "variation.detuned-detection",
        det_first >= det_floor,
        f"min|M_dot| = {det_first:.3e} >= {det_floor:.3e}",
    )
    aspect_ok = True
    aspect_detail = []
    ceilings = calibration.MASS_ASPECT_RATIO_MAX
    # a row per draw, a column per exponent; each draw's second variation once
    ratios = [mass_aspect_bound_ratios(star, p.rdot, list(ceilings), squared=True)
              for p in perts[:6]]
    for (expo, ceiling), column in zip(ceilings.items(), zip(*ratios)):
        worst = max(column)
        aspect_ok = aspect_ok and worst <= ceiling
        aspect_detail.append(f"e={expo:g}: {worst:.3f}<={ceiling:g}")
    checks.record("variation.mass-aspect", aspect_ok, ", ".join(aspect_detail))

    coeffs = assemble_coefficients(star, n_chi=501)
    u0, v0 = gaussian_pulse(coeffs)
    res = evolve(coeffs, u0, v0, T=5.0 * R, cfl=0.4, samples=50)
    checks.record(
        "evolution.energy-drift",
        res.max_energy_drift <= calibration.ENERGY_DRIFT_MAX,
        f"relative drift {res.max_energy_drift:.3e}",
    )
    growth = float(np.max(res.norm_series["norm"] / res.norm_series["norm"][0]))
    ceiling = calibration.NORM_GROWTH_MAX["gaussian"]
    checks.record(
        "evolution.norm-boundedness",
        growth <= ceiling,
        f"norm growth {growth:.2f} <= {ceiling:g}",
    )
    checks.record(
        "evolution.constraint-residual",
        bool(np.all(np.isfinite(res.residuals))),
        f"max interior residual {float(np.max(res.residuals)):.3e}",
    )

    modes = find_modes(star, n_modes=1)
    x1 = modes[0].x
    if R in calibration.X1_BY_RADIUS:
        pin = calibration.X1_BY_RADIUS[R]
        ok = abs(x1 - pin) <= calibration.X1_REPRODUCTION_TOL
        detail = f"x1 = {x1:.10f} vs pinned {pin:.10f}"
    else:
        ok = X1_LIMIT < x1 < 1.2 * X1_LIMIT
        detail = f"x1 = {x1:.10f} above the small-radius limit {X1_LIMIT:.10f}"
    checks.record("modes.fundamental", ok, detail)
    checks.record(
        "modes.boundary-residual",
        abs(modes[0].defect) <= 1e-10,
        f"defect {modes[0].defect:.3e}",
    )
    if R in calibration.FLAT_SHAPE_DISTANCE_MAX:
        flat = 3.0 * R / x1 * spherical_jn(1, x1 * star.r / R)
        dist = float(np.max(np.abs(modes[0].h - flat)) / np.max(np.abs(modes[0].h)))
        ceiling = calibration.FLAT_SHAPE_DISTANCE_MAX[R]
        checks.record(
            "modes.flat-shape", dist <= ceiling, f"shape distance {dist:.4f} <= {ceiling:g}"
        )
    um, vm = mode_to_initial_data(coeffs, modes[0])
    resm = evolve(coeffs, um, vm, T=3.0 * modes[0].period, cfl=0.3, samples=60)
    period = estimate_period(resm.times, resm.surface)
    rel = abs(period - modes[0].period) / modes[0].period
    checks.record(
        "modes.period-roundtrip",
        rel <= calibration.PERIOD_MATCH_RTOL,
        f"period {period:.8f} vs 2pi/sqrt(lambda) {modes[0].period:.8f} (rel {rel:.2e})",
    )

    print(f"{checks.count} checks, {checks.failures} failures")
    _emit_json(
        out / "verify.json",
        {"R": R, "checks": checks.count, "failures": checks.failures},
        config,
        "verify-summary",
    )
    return EXIT_VERIFY if checks.failures else EXIT_OK


# command -> (help, runner, option rows)
_COMMANDS = {
    "build": ("solve one star and write its profile", _cmd_build, (
        _Opt("basename", "--basename", str, None, "output files base name"),
    )),
    "family": ("scan masses over a range of radii", _cmd_family, (
        _Opt("radii", "--radii", list, None, "comma-separated radii",
             replaces=("r_min", "r_max", "count")),
        _Opt("r_min", "--r-min", float, 0.02, "smallest radius of the scan"),
        _Opt("r_max", "--r-max", float, 0.12, "largest radius of the scan"),
        _Opt("count", "--count", int, 6, "radii in the scan", above=1),
    )),
    "variation-audit": ("first/second variation over random draws", _cmd_variation_audit, (
        _Opt("profile", "--profile", str, None, "profile CSV to audit instead of solving"),
        _Opt("count", "--count", int, 50, "number of perturbations", above=0),
    )),
    "evolve": ("run the linear wave equation", _cmd_evolve, (
        _Opt("n_chi", "--n-chi", int, 501, "comoving grid nodes"),
        _Opt("cfl", "--cfl", float, 0.4, "time step over dchi/c_max (at most 0.5)"),
        _Opt("duration", "--T", float, 10.0, "duration in units of R", above=0.0),
        _Opt("preset", "--preset", str, "gaussian", "gaussian, mode:<j>, or file:<csv>"),
        _Opt("samples", "--samples", int, 200, "energy samples", above=0),
        _Opt("snapshots", "--snapshots", int, 5, "snapshot files (at least 2)", above=1),
    )),
    "modes": ("radial eigenmodes by Chebyshev collocation", _cmd_modes, (
        _Opt("count", "--count", int, 3, "number of modes", above=0),
        _Opt("which", "--which", ("h0", "full", "both"), "both", "flat-model, full, or both"),
        _Opt("emit_initial_data", "--emit-initial-data", int, None, "index of the mode to emit"),
        _Opt("n_chi", "--n-chi", int, 501, "comoving grid nodes of the initial data"),
    )),
    "verify": ("re-check module invariants on one star", _cmd_verify, ()),
}


# ------------------------------------------------------------------ parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each parse gets a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="hardstars",
        description="Static hard stars, their mass variations, linear waves, and modes.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, rows) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text)
        for row in (*_COMMON.values(), *rows):
            kwargs = {"dest": row.key, "default": row.default, "help": row.help}
            if isinstance(row.kind, tuple):
                kwargs["choices"] = row.kind
            elif row.kind in (int, float):
                kwargs["type"] = row.kind
            sub.add_argument(row.flag, **kwargs)
        sub.add_argument("--config", default=None, help="JSON config overriding flags")
    return parser


def _flag_values(ns: argparse.Namespace) -> dict:
    """The config the flags give; options whose value is None are left out."""
    data = {"command": ns.command}
    data.update((key, getattr(ns, key)) for key in _COMMON)
    rows = _option_rows(ns.command).values()
    options = {row.key: getattr(ns, row.key) for row in rows if getattr(ns, row.key) is not None}
    for row in rows:
        if row.key in options:
            if row.kind is list:
                text = options[row.key]
                try:
                    options[row.key] = [float(tok) for tok in text.split(",") if tok]
                except ValueError:
                    raise ConfigError(
                        f"{row.flag} takes comma-separated numbers, got {text!r}"
                    ) from None
            for key in row.replaces:
                options.pop(key, None)
    data["options"] = options
    return data


def build_config(argv: list[str] | None = None) -> RunConfig:
    """Flags plus optional JSON file (the file wins) to one RunConfig."""
    ns = _build_parser().parse_args(argv)
    data = _flag_values(ns)
    if ns.config is not None:
        overrides = _load_config_file(ns.config)
        if "command" in overrides and overrides["command"] != data["command"]:
            raise ConfigError(
                f"config file names command {overrides['command']!r} "
                f"but {data['command']!r} was invoked"
            )
        file_options = overrides.pop("options", None)
        data.update(overrides)
        if file_options is not None:
            if not isinstance(file_options, dict):
                raise ConfigError("options must be a JSON object")
            data["options"] = {**data["options"], **file_options}
    return RunConfig.from_dict(data)


def main(argv: list[str] | None = None) -> int:
    try:
        config = build_config(argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        out = _resolve_output_dir(config)
        return _COMMANDS[config.command][1](config, out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        # an output directory or artifact path that cannot be made or written
        detail = f"cannot write {exc.filename}: {exc.strerror}" if exc.filename else str(exc)
        print(f"config error: {detail}", file=sys.stderr)
        return EXIT_CONFIG
    except (ConvergenceError, CflViolationError, InstabilityError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except HardStarError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
