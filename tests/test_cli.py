"""End-to-end checks of the command-line front end.

Every test drives ``main(argv)`` directly so exit codes, stderr text, and
emitted artifacts are all observable; only the start test, which needs a
fresh interpreter, runs one in a subprocess.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hardstars
from hardstars import StarParameters, background, build_star, calibration, evolution, variation
from hardstars.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_VERIFY,
    RunConfig,
    _build_parser,
    build_config,
    main,
)
from hardstars.errors import ConfigError
from hardstars.evolution import assemble_coefficients, evolve, gaussian_pulse, reconstruct
from hardstars.storage import read_profile_csv, read_table
from tov_oracle import ivp_shooting


def run(*argv: str) -> int:
    return main(list(argv))


def header_of(path: Path) -> dict:
    first = path.read_text().splitlines()[0]
    assert first.startswith("# ")
    return json.loads(first[2:])


def data_rows(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]


# -------------------------------------------------------------------- start

_START_SCRIPT = """
import json, sys
from hardstars import cli

def loaded(name):
    return sorted(m for m in sys.modules if m == name or m.startswith(name + "."))

def exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code

small = ["--grid-n", "201", "--output-dir", sys.argv[1]]
steps = {"import": (0, loaded("numpy"), loaded("scipy"))}
for name, argv in {
    "--version": ["--version"],
    "--help": ["--help"],
    "nan": ["build", "--R", "nan", *small],
    "build": ["build", "--R", "0.05", *small],
    "family": ["family", "--radii", "0.02,0.05", *small],
    "variation-audit": ["variation-audit", "--R", "0.05", "--count", "4", *small],
    "shooting": ["build", "--R", "0.05", "--solver", "shooting", *small],
}.items():
    steps[name] = (exit_code(argv), loaded("numpy"), loaded("scipy"))
print(json.dumps(steps))
"""


def test_picard_commands_start_without_scipy(tmp_path):
    # importing the CLI, --version, --help and a config error load no
    # numpy; build, family and variation-audit (either solver) no scipy
    src = str(Path(hardstars.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c", _START_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    steps = json.loads(proc.stdout.splitlines()[-1])
    for name, code in (("import", EXIT_OK), ("--version", EXIT_OK), ("--help", EXIT_OK),
                       ("nan", EXIT_CONFIG)):
        assert steps[name] == [code, [], []], name
    for name in ("build", "family", "variation-audit", "shooting"):
        code, _, scipy_loaded = steps[name]
        assert code == EXIT_OK, name
        assert scipy_loaded == [], name


def test_package_exports_resolve():
    # the background names load on first access; each is background's own
    for name in hardstars.__all__:
        assert hasattr(hardstars, name), name
    for name in ("BackgroundProfile", "StarParameters", "build_star", "tov_rhs"):
        assert getattr(hardstars, name) is getattr(background, name)
    with pytest.raises(AttributeError):
        hardstars.no_such_name


# --------------------------------------------------------------- run config


def test_run_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"command": "build", "radius": 0.1})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"command": "build", "options": {"junk": 1}})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"command": "orbit"})
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"command": "build", "solver": "euler"})


def test_run_config_hash_ignores_output_location():
    a = RunConfig.from_dict({"command": "build", "R": 0.05, "output_dir": "a"})
    b = RunConfig.from_dict({"command": "build", "R": 0.05, "output_dir": "b"})
    c = RunConfig.from_dict({"command": "build", "R": 0.06, "output_dir": "a"})
    assert a.hash == b.hash
    assert a.hash != c.hash
    assert len(a.hash) == 12


def test_canonical_json_is_stable():
    cfg = RunConfig.from_dict({"command": "verify", "R": 0.05})
    doc = json.loads(cfg.canonical_json())
    assert doc["command"] == "verify"
    assert doc["R"] == 0.05
    assert cfg.canonical_json() == RunConfig.from_dict(doc).canonical_json()


# Config hashes of the README examples; every artifact header carries one.
_PINNED_HASHES = {
    "build --R 0.1 --grid-n 2001": "d4c75fd0a2f6",
    "family --radii 0.02,0.05,0.1": "791b58eaeff9",
    "family --r-min 0.02 --r-max 0.12 --count 6": "ebfe3fb5f802",
    "variation-audit --R 0.1 --count 50": "85aaf366625b",
    "evolve --R 0.05 --n-chi 501 --T 10 --preset gaussian": "caccca22b7b1",
    "modes --R 0.05 --count 3 --which both": "6e7be7f899b2",
    "modes --R 0.05 --count 1 --emit-initial-data 1": "94044d8b74ec",
    "verify --R 0.05": "f93dde19fba8",
}


@pytest.mark.parametrize("argv", list(_PINNED_HASHES))
def test_readme_config_hashes_are_pinned(argv):
    assert build_config(argv.split()).hash == _PINNED_HASHES[argv]


_floats = st.floats(allow_nan=False, allow_infinity=False)
_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_ints = st.integers(-10**12, 10**12)
_texts = st.text(max_size=12)
# key -> (flag, valid values); every flag a command takes except --radii,
# whose flag form drops r_min, r_max and count while a JSON radii keeps them
_COMMON_FLAGS = {
    "R": ("--R", _floats),
    "grid_n": ("--grid-n", _ints),
    "solver": ("--solver", st.sampled_from(["picard", "shooting"])),
    "seed": ("--seed", _ints),
    "output_dir": ("--output-dir", _texts),
}
_OPTION_FLAGS = {
    "build": {"basename": ("--basename", _texts)},
    "family": {
        "r_min": ("--r-min", _floats),
        "r_max": ("--r-max", _floats),
        "count": ("--count", st.integers(2, 10**6)),
    },
    "variation-audit": {
        "profile": ("--profile", _texts),
        "count": ("--count", st.integers(1, 10**6)),
    },
    "evolve": {
        "n_chi": ("--n-chi", _ints),
        "cfl": ("--cfl", _floats),
        "duration": ("--T", _positive),
        "preset": ("--preset", _texts),
        "samples": ("--samples", st.integers(1, 10**12)),
        "snapshots": ("--snapshots", st.integers(2, 10**12)),
    },
    "modes": {
        "count": ("--count", st.integers(1, 10**6)),
        "which": ("--which", st.sampled_from(["h0", "full", "both"])),
        "emit_initial_data": ("--emit-initial-data", _ints),
        "n_chi": ("--n-chi", _ints),
    },
    "verify": {},
}


@st.composite
def _drawn_run(draw):
    """A command and a valid value for some of its flags, keyed common/option."""
    command = draw(st.sampled_from(sorted(_OPTION_FLAGS)))
    picked = {}
    for group, flags in (("common", _COMMON_FLAGS), ("option", _OPTION_FLAGS[command])):
        for key, (flag, values) in flags.items():
            if draw(st.booleans()):
                picked[key] = (group, flag, draw(values))
    return command, picked


def _drawn_argv(run):
    command, picked = run
    return [command] + [f"{flag}={value!r}" if isinstance(value, float) else f"{flag}={value}"
                        for _, flag, value in picked.values()]


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(run=_drawn_run())
def test_flags_and_config_file_give_one_config(tmp_path_factory, run):
    command, picked = run
    argv = _drawn_argv(run)
    doc = {key: value for key, (group, _, value) in picked.items() if group == "common"}
    doc["options"] = {key: value for key, (group, _, value) in picked.items() if group == "option"}
    path = tmp_path_factory.getbasetemp() / "drawn_config.json"
    path.write_text(json.dumps(doc))
    from_flags = build_config(argv)
    from_file = build_config([command, "--config", str(path)])
    assert from_flags.canonical_json() == from_file.canonical_json()
    assert from_flags.hash == from_file.hash
    back = RunConfig.from_dict(json.loads(from_flags.canonical_json()))
    assert back.canonical_json() == from_flags.canonical_json()
    assert back.hash == from_flags.hash


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(earlier=_drawn_run(), later=_drawn_run())
def test_later_config_keeps_no_earlier_flag_values(earlier, later):
    # the parser is built once per process, and every parse starts from
    # the defaults, so a call gives what a freshly built parser gives
    assert _build_parser() is _build_parser()
    build_config(_drawn_argv(earlier))
    got = build_config(_drawn_argv(later))
    _build_parser.cache_clear()
    assert got.canonical_json() == build_config(_drawn_argv(later)).canonical_json()


def test_parser_works_after_usage_error(capsys):
    usage_errors = (["evolve", "--T"], ["evolve", "--n-chi", "x"], ["nope"], ["family", "--x", "1"])
    for argv in usage_errors:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "usage: hardstars" in capsys.readouterr().err
    config = build_config(["evolve", "--T", "3"])
    assert config.options["duration"] == 3.0
    _build_parser.cache_clear()
    assert config.canonical_json() == build_config(["evolve", "--T", "3"]).canonical_json()


# -------------------------------------------------------------- exit codes


def test_build_success_and_artifacts(tmp_path):
    code = run("build", "--R", "0.05", "--grid-n", "601", "--output-dir", str(tmp_path))
    assert code == EXIT_OK
    csv = tmp_path / "profile_R0p05.csv"
    js = tmp_path / "profile_R0p05.json"
    assert csv.exists() and js.exists()
    head = header_of(csv)
    assert len(head["config"]) == 12
    assert head["format"] == "hardstars-profile"


def test_malformed_config_reports_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{\n  "command": "build",\n}\n')
    code = run("build", "--config", str(bad))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert "line 3" in err and "column" in err


def test_unknown_config_key_is_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "build", "radius": 0.05}')
    assert run("build", "--config", str(bad)) == EXIT_CONFIG
    assert "radius" in capsys.readouterr().err


def test_config_command_must_match_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"command": "build", "R": 0.05}')
    assert run("family", "--config", str(cfg)) == EXIT_CONFIG
    assert "build" in capsys.readouterr().err


def test_config_file_overrides_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "build",
                "R": 0.08,
                "grid_n": 401,
                "output_dir": str(tmp_path / "out"),
            }
        )
    )
    code = run("build", "--R", "0.02", "--grid-n", "901", "--config", str(cfg))
    assert code == EXIT_OK
    assert (tmp_path / "out" / "profile_R0p08.csv").exists()


_MALFORMED = {
    "R-string": (["build"], {"R": "0.1"}),
    "grid_n-fraction": (["build"], {"grid_n": 2001.5}),
    "seed-fraction": (["variation-audit"], {"seed": 1.5}),
    "seed-string": (["variation-audit"], {"seed": "a"}),
    "output_dir-number": (["build"], {"output_dir": 5}),
    "count-string": (["variation-audit"], {"options": {"count": "x"}}),
    "count-numeric-string": (["variation-audit"], {"options": {"count": "4"}}),
    "count-bool": (["variation-audit"], {"options": {"count": True}}),
    "profile-number": (["variation-audit"], {"options": {"profile": 5}}),
    "snapshots-string": (["evolve"], {"options": {"snapshots": "a"}}),
    "snapshots-one": (["evolve"], {"options": {"snapshots": 1}}),
    "snapshots-zero": (["evolve"], {"options": {"snapshots": 0}}),
    "snapshots-negative": (["evolve"], {"options": {"snapshots": -3}}),
    "samples-zero": (["evolve"], {"options": {"samples": 0}}),
    "samples-negative": (["evolve"], {"options": {"samples": -1}}),
    "radii-entry-string": (["family"], {"options": {"radii": [0.05, "x"]}}),
    "radii-string": (["family"], {"options": {"radii": "0.1"}}),
    "count-flag-zero": (["variation-audit", "--count", "0"], None),
    "T-flag-nan": (["evolve", "--T", "nan"], None),
    "snapshots-flag-one": (["evolve", "--snapshots", "1"], None),
    "samples-flag-zero": (["evolve", "--samples", "0"], None),
    "n-chi-flag-huge": (["evolve", "--n-chi", "2000000000"], None),
    "radii-flag-word": (["family", "--radii", "a"], None),
    "radii-flag-nan": (["family", "--radii", "0.05,nan"], None),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_malformed_config_exits_2(tmp_path, capsys, case):
    argv, doc = _MALFORMED[case]
    argv = [*argv, "--grid-n", "201", "--output-dir", str(tmp_path)]
    if doc is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("emit", [0, 2])
def test_modes_emit_index_checked_before_solving(tmp_path, capsys, emit):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"R": 0.05, "options": {"count": 1, "emit_initial_data": emit}}))
    out = tmp_path / "out"
    assert run("modes", "--config", str(cfg), "--output-dir", str(out)) == EXIT_CONFIG
    assert "emit_initial_data" in capsys.readouterr().err
    assert not list(out.glob("mode*.csv"))


def test_radius_outside_domain_is_config_error(tmp_path, capsys):
    assert run("build", "--R", "0.4", "--output-dir", str(tmp_path)) == EXIT_CONFIG
    assert "radius" in capsys.readouterr().err


@pytest.mark.parametrize("R", ["0.25", "0.3"])
def test_radius_past_largest_star_is_config_error(tmp_path, capsys, R):
    # above calibration.R_MAX no static star exists, so the radius is refused
    # before the collocation's Newton iteration can fail to converge
    code = run("build", "--R", R, "--solver", "shooting", "--output-dir", str(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG
    assert err.startswith("config error: radius must lie in (0, 0.2472184]")
    assert "Traceback" not in err


def test_shooting_builds_just_below_largest_radius(tmp_path):
    # two stars share each of these radii; the build gives the one less
    # dense than the largest star (rho_c = 1.92346), checked against the
    # solve_ivp shooting bracketed below that density.  Measured gaps at
    # R = 0.2472: sup|rho| 7.6e-13, sup|m| 1.2e-14, mostly the oracle's:
    # 20-digit mpmath puts its rho_c 6.2e-13 high and the build's 1.4e-13 low
    assert calibration.R_MAX > 0.2472
    for R in (0.247, 0.2471, 0.2472):
        argv = ("build", "--R", repr(R), "--solver", "shooting", "--grid-n", "801")
        assert run(*argv, "--output-dir", str(tmp_path)) == EXIT_OK, R
        star = read_profile_csv(tmp_path / f"profile_R{repr(R).replace('.', 'p')}.csv")
        assert star.R == R
        assert star.rho[-1] == pytest.approx(1.0, abs=1e-12)
        assert star.rho_central < 1.92346
        _, m, rho = ivp_shooting(R, 801, rho_c_max=1.92346)
        assert np.max(np.abs(star.rho - rho)) <= 1e-12, R
        assert np.max(np.abs(star.m - m)) <= 2e-14, R


def test_solver_stall_is_solver_failure(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "command": "build",
                "R": 0.1,
                "grid_n": 301,
                "picard_max_iter": 2,
                "output_dir": str(tmp_path),
            }
        )
    )
    assert run("build", "--config", str(cfg)) == EXIT_SOLVER
    assert "solver failure" in capsys.readouterr().err


def test_bad_cfl_is_solver_failure(tmp_path):
    code = run(
        "evolve", "--R", "0.05", "--grid-n", "401", "--n-chi", "101",
        "--cfl", "0.9", "--T", "0.5", "--output-dir", str(tmp_path),
    )
    assert code == EXIT_SOLVER


def _grow_picard_mass(monkeypatch):
    # a thousandfold mass per sweep drives the second sweep's denominator negative
    real = background.cumulative_simpson_uniform
    monkeypatch.setattr(background, "cumulative_simpson_uniform", lambda y, dx: 1e3 * real(y, dx))


def _no_breakdown(monkeypatch):
    # the input alone fails: R_MAX is rounded up past the largest star
    pass


def _trap_wave_grid(monkeypatch):
    # the form's angle coefficient D = 4 pi r^2 n^4 / (1 - 2m/r) turns
    # negative, as it does on a trapped shell
    real = evolution.quadratic_form

    def trapped(*args):
        A, B, C, D, K = real(*args)
        return A, B, C, -D, K

    monkeypatch.setattr(evolution, "quadratic_form", trapped)


def _stall_chi_inversion(monkeypatch):
    # one Newton step cannot meet the inversion's step test from the linear start
    monkeypatch.setattr(evolution, "CHI_NEWTON_MAX_STEPS", 1)


def _flatten_second_variation(monkeypatch):
    monkeypatch.setattr(variation, "second_variation", lambda *args, **kwargs: 0.0)


def _flip_second_norm(monkeypatch):
    # every sample after the first reports a negative "second" norm
    real = evolution._SampleForms.norms
    calls = []

    def flipped(self, *args):
        norms = real(self, *args)
        calls.append(norms)
        return norms if len(calls) == 1 else {**norms, "second": -norms["second"]}

    monkeypatch.setattr(evolution._SampleForms, "norms", flipped)


_SMALL_EVOLVE = ("evolve", "--R", "0.05", "--grid-n", "401", "--n-chi", "101", "--T", "0.5")


@pytest.mark.parametrize("breakdown, argv, message", [
    (_grow_picard_mass, ("build", "--R", "0.1", "--grid-n", "401"),
     "denominator vanished during fixed-point sweep"),
    (_no_breakdown, ("build", "--R", "0.2472184", "--solver", "shooting", "--grid-n", "401"),
     "Newton iteration of the collocated hydrostatic system did not converge"),
    (_trap_wave_grid, _SMALL_EVOLVE, "coefficient assembly left the regular domain"),
    (_stall_chi_inversion, _SMALL_EVOLVE, "chi inversion did not converge"),
    (_flatten_second_variation, ("verify", "--R", "0.05", "--grid-n", "401"),
     "second variation not positive"),
    (_flip_second_norm, _SMALL_EVOLVE, "nonpositive value on a log axis"),
], ids=["picard-denominator", "shooting-past-largest-star", "assembly-domain", "chi-inversion",
        "second-variation", "log-axis"])
def test_numerical_breakdown_is_solver_failure(tmp_path, capsys, monkeypatch, breakdown, argv,
                                               message):
    # each breaks down in the middle of a solve on valid input: exit 3, not 2
    breakdown(monkeypatch)
    code = run(*argv, "--output-dir", str(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER, err
    assert "solver failure: " in err and message in err
    assert "Traceback" not in err


def test_output_root_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HARDSTARS_OUTPUT_ROOT", str(tmp_path))
    assert run("build", "--R", "0.05", "--grid-n", "401", "--output-dir", "sub") == EXIT_OK
    assert (tmp_path / "sub" / "profile_R0p05.csv").exists()
    # absolute directories bypass the root
    abs_dir = tmp_path / "abs"
    assert run("build", "--R", "0.05", "--grid-n", "401", "--output-dir", str(abs_dir)) == EXIT_OK
    assert (abs_dir / "profile_R0p05.csv").exists()


@pytest.mark.parametrize("case", ["output-dir-is-file", "basename-in-missing-dir"])
def test_unwritable_artifact_is_config_error(tmp_path, capsys, case):
    if case == "output-dir-is-file":
        blocked = tmp_path / "f"
        blocked.touch()
        argv = ["--output-dir", str(blocked)]
    else:
        blocked = tmp_path / "out" / "sub" / "x.csv"
        argv = ["--output-dir", str(tmp_path / "out"), "--basename", "sub/x"]
    code = run("build", "--R", "0.05", "--grid-n", "201", *argv)
    err = capsys.readouterr().err
    assert code == EXIT_CONFIG, err
    assert err.startswith("config error: ") and str(blocked) in err
    assert "Traceback" not in err


# ------------------------------------------------------------- determinism


def test_identical_runs_are_byte_identical(tmp_path):
    for d in ("a", "b"):
        assert run(
            "build", "--R", "0.05", "--grid-n", "601", "--output-dir", str(tmp_path / d)
        ) == EXIT_OK
    a = (tmp_path / "a" / "profile_R0p05.csv").read_bytes()
    b = (tmp_path / "b" / "profile_R0p05.csv").read_bytes()
    assert a == b
    aj = (tmp_path / "a" / "profile_R0p05.json").read_bytes()
    bj = (tmp_path / "b" / "profile_R0p05.json").read_bytes()
    assert aj == bj

    # every other command writes through the same table and document writer
    small = ["--R", "0.05", "--grid-n", "601"]
    commands = {
        "family": ["family", "--radii", "0.02,0.05", "--grid-n", "601"],
        "audit": ["variation-audit", *small, "--count", "4"],
        "evolve": ["evolve", *small, "--n-chi", "101", "--T", "1",
                   "--samples", "10", "--snapshots", "2"],
        "modes": ["modes", *small, "--count", "2", "--emit-initial-data", "1",
                  "--n-chi", "101"],
    }
    for name, argv in commands.items():
        trees = []
        for d in ("a", "b"):
            out = tmp_path / name / d
            assert run(*argv, "--output-dir", str(out)) == EXIT_OK
            trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.iterdir())})
        assert trees[0] == trees[1], name
        assert trees[0], name


# ---------------------------------------------------------------- commands


def test_family_scan_lists_radii(tmp_path):
    code = run(
        "family", "--radii", "0.02,0.05,0.08", "--grid-n", "601",
        "--output-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = data_rows(tmp_path / "family.csv")
    assert rows[0] == "R,M_total,rho_central,compactness"
    assert len(rows) == 4
    radii = [float(ln.split(",")[0]) for ln in rows[1:]]
    assert radii == pytest.approx([0.02, 0.05, 0.08])
    masses = [float(ln.split(",")[1]) for ln in rows[1:]]
    assert masses == sorted(masses)


def test_variation_audit_report(tmp_path):
    code = run(
        "variation-audit", "--R", "0.1", "--grid-n", "601", "--count", "6",
        "--output-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "variation_report.json").read_text())
    assert doc["count"] == 6
    assert len(doc["perturbations"]) == 6
    assert doc["max_abs_M_dot"] < 1e-6
    assert doc["min_M_ddot"] > 0.0
    lo, hi = doc["ratio_bounds"]
    assert 0.0 < lo < hi
    rows = data_rows(tmp_path / "mdot.csv")
    assert rows[0] == "chi,r,rdot,mdot"
    assert len(rows) == 602


def test_variation_audit_from_profile_file(tmp_path):
    assert run("build", "--R", "0.1", "--grid-n", "601", "--output-dir", str(tmp_path)) == EXIT_OK
    code = run(
        "variation-audit", "--R", "0.1", "--count", "4",
        "--profile", str(tmp_path / "profile_R0p1.csv"),
        "--output-dir", str(tmp_path / "audit"),
    )
    assert code == EXIT_OK
    doc = json.loads((tmp_path / "audit" / "variation_report.json").read_text())
    assert doc["max_abs_M_dot"] < 1e-6


@pytest.mark.parametrize("R, solver", [("0.09", "picard"), ("0.19", "shooting")])
def test_audit_of_built_profile_matches_direct_audit(tmp_path, R, solver):
    # the profile file re-derives the star bit for bit, so the audit of a
    # `build` output is the audit of the solve itself, draw by draw
    star_args = ("--R", R, "--solver", solver, "--grid-n", "4001", "--seed", "7")
    assert run("build", *star_args, "--output-dir", str(tmp_path)) == EXIT_OK
    profile = tmp_path / f"profile_R{R.replace('.', 'p')}.csv"
    reports = []
    for tag, source in (("direct", ()), ("file", ("--profile", str(profile)))):
        out = tmp_path / tag
        code = run("variation-audit", *star_args, "--count", "8", *source, "--output-dir", str(out))
        assert code == EXIT_OK
        reports.append(json.loads((out / "variation_report.json").read_text())["perturbations"])
    direct, from_file = reports
    assert len(direct) == 8
    for a, b in zip(direct, from_file):
        for key in ("M_dot", "M_ddot", "E_var", "ratio"):
            assert a[key] == b[key], (a["index"], key)


def test_evolve_artifacts(tmp_path):
    code = run(
        "evolve", "--R", "0.05", "--grid-n", "801", "--n-chi", "201",
        "--T", "2", "--samples", "30", "--snapshots", "3",
        "--output-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = data_rows(tmp_path / "energy.csv")
    assert rows[0] == "phi,energy,norm,first,second,constraint_residual"
    phis = [float(ln.split(",")[0]) for ln in rows[1:]]
    assert phis[0] == 0.0
    assert phis == sorted(phis)
    assert phis[-1] == pytest.approx(2.0 * 0.05, rel=1e-12)
    energies = np.array([float(ln.split(",")[1]) for ln in rows[1:]])
    assert np.max(np.abs(energies / energies[0] - 1.0)) < 1e-3
    for k in range(3):
        snap = tmp_path / f"snapshot_{k:03d}.csv"
        srows = data_rows(snap)
        assert srows[0] == "chi,r0,u,v,psi1,omega1,m1,rho1"
        assert len(srows) == 202
    svg = (tmp_path / "energy.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


# four snapshots, three segments of 992 steps each: every segment is strided
_STRIDED_EVOLVE = ("evolve", "--R", "0.05", "--grid-n", "801", "--n-chi", "201",
                   "--T", "2", "--samples", "30", "--snapshots", "4")


def _segment_restart_evolve(coeffs, u, v, T_total, n_snap, cfl, samples):
    """``evolve`` as the CLI once ran it: one ``evolve`` per snapshot
    segment, each restarted from the (u, v) the last one ended on, with the
    sample series spliced.  Returns (phi, energies, [(u, v) per snapshot])."""
    seg_T = T_total / (n_snap - 1)
    seg_samples = max(1, samples // (n_snap - 1))
    times, energies, snaps = [], [], [(u, v)]
    offset = 0.0
    for _ in range(1, n_snap):
        res = evolve(coeffs, u, v, T=seg_T, cfl=cfl, samples=seg_samples)
        skip = 1 if times else 0  # segment boundaries appear once
        times.extend(offset + res.times[skip:])
        energies.extend(res.energies[skip:])
        u, v = np.array(res.u), np.array(res.v)
        offset += seg_T
        snaps.append((u, v))
    return np.array(times), np.array(energies), snaps


def test_evolve_builds_chebyshev_band_once(tmp_path, monkeypatch):
    built = []
    band = evolution._chebyshev_band
    monkeypatch.setattr(evolution, "_chebyshev_band", lambda *args: built.append(args) or band(*args))
    assert run(*_STRIDED_EVOLVE, "--output-dir", str(tmp_path)) == EXIT_OK
    assert len(built) == 1


def test_evolve_matches_segment_restarts(tmp_path):
    # one unbroken run against one run per segment: w is no longer rebuilt
    # from v and the strides no longer restart at each snapshot, so the
    # states part at roundoff; measured gap 4e-14 (u), 7e-14 (m1),
    # 6.9e-13 (v, psi1, omega1, rho1), 2.9e-15 (energy), 2.2e-16 (phi)
    assert run(*_STRIDED_EVOLVE, "--output-dir", str(tmp_path)) == EXIT_OK
    coeffs = assemble_coefficients(build_star(StarParameters(R=0.05, grid_n=801)), n_chi=201)
    u0, v0 = gaussian_pulse(coeffs)
    phi, energies, snaps = _segment_restart_evolve(coeffs, u0, v0, 0.1, 4, 0.4, 30)
    names, table = read_table(tmp_path / "energy.csv")
    assert table.shape[0] == len(phi)
    assert np.all(np.abs(table[1:, 0] / phi[1:] - 1.0) <= 1e-12)
    assert np.max(np.abs(table[:, 1] - energies)) <= 1e-13 * np.max(energies)
    for j, (u, v) in enumerate(snaps):
        names, table = read_table(tmp_path / f"snapshot_{j:03d}.csv")
        assert table[:, 0].tobytes() == coeffs.chi.tobytes()
        fields = reconstruct(coeffs, u)
        expected = {"u": u, "v": v, "psi1": fields.psi1, "omega1": fields.omega1,
                    "m1": fields.m1, "rho1": fields.rho1}
        for key, col in expected.items():
            gap = np.max(np.abs(table[:, names.index(key)] - col))
            assert gap <= 1e-11 * np.max(np.abs(col)), (j, key)


def test_mode_preset_round_trip(tmp_path):
    mdir, fdir, ddir = tmp_path / "m", tmp_path / "f", tmp_path / "d"
    code = run(
        "modes", "--R", "0.05", "--grid-n", "801", "--count", "1",
        "--emit-initial-data", "1", "--n-chi", "201", "--output-dir", str(ddir),
    )
    assert code == EXIT_OK
    seed = ddir / "initial_data_mode_1.csv"
    assert data_rows(seed)[0] == "chi,u,v"
    common = ["--R", "0.05", "--grid-n", "801", "--n-chi", "201",
              "--T", "1", "--samples", "10", "--snapshots", "2"]
    assert run("evolve", *common, "--preset", "mode:1", "--output-dir", str(mdir)) == EXIT_OK
    assert run("evolve", *common, "--preset", f"file:{seed}", "--output-dir", str(fdir)) == EXIT_OK
    # identical physics, headers differ only by preset hash
    assert data_rows(mdir / "energy.csv") == data_rows(fdir / "energy.csv")


def test_modes_table(tmp_path):
    code = run(
        "modes", "--R", "0.05", "--grid-n", "801", "--count", "2",
        "--which", "both", "--output-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = data_rows(tmp_path / "modes.csv")
    assert rows[0] == "j,lambda_h0,lambda_full,gap,boundary_residual"
    assert len(rows) == 3
    first = rows[1].split(",")
    lam_h0, lam_full, gap = float(first[1]), float(first[2]), float(first[3])
    assert gap == pytest.approx(lam_full - lam_h0, rel=1e-12)
    assert 0.0 < abs(gap) < 0.05 * lam_h0
    for j in (1, 2):
        erows = data_rows(tmp_path / f"mode_{j}.csv")
        assert erows[0] == "r,h"
        assert len(erows) == 802


def test_modes_h0_only_needs_no_star(tmp_path):
    from hardstars.modes import dispersion_roots

    code = run(
        "modes", "--R", "0.05", "--count", "3", "--which", "h0",
        "--output-dir", str(tmp_path),
    )
    assert code == EXIT_OK
    rows = data_rows(tmp_path / "modes.csv")
    assert rows[0] == "j,lambda_h0"
    lams = [float(ln.split(",")[1]) for ln in rows[1:]]
    assert lams == sorted(lams)
    expected = (dispersion_roots(1, R=0.05)[0] / 0.05) ** 2
    assert lams[0] == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("R", ["0", "-0.5", "5"])
def test_modes_h0_only_checks_the_radius(tmp_path, capsys, R):
    # no star is built for the flat roots, but the radius must still be one
    # a star can have, as it must for --which full and both
    out = tmp_path / "out"
    assert run("modes", "--R", R, "--which", "h0", "--output-dir", str(out)) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err
    assert not (out / "modes.csv").exists()


def test_bad_preset_is_config_error(tmp_path, capsys):
    short_row = tmp_path / "short_row.csv"
    short_row.write_text("chi,u,v\n0,0,0\n1,0\n")
    tables = {
        "nan.csv": "chi,u,v\n0,0,0\n0.5,nan,0\n1,1e-6,0\n",
        "unsorted.csv": "chi,u,v\n0,0,0\n1,1e-6,0\n0.5,1e-6,0\n",
        "zero.csv": "chi,u,v\n0,0,0\n1,0,0\n",
    }
    for name, text in tables.items():
        (tmp_path / name).write_text(text)
    presets = ("sawtooth", "mode:x", f"file:{short_row}", f"file:{tmp_path / 'missing.csv'}",
               *(f"file:{tmp_path / name}" for name in tables))
    for preset in presets:
        code = run(
            "evolve", "--R", "0.05", "--grid-n", "401", "--n-chi", "101",
            "--preset", preset, "--output-dir", str(tmp_path),
        )
        assert code == EXIT_CONFIG, preset
        err = capsys.readouterr().err
        assert "preset" in err or "initial data" in err, preset


@pytest.mark.parametrize("part", ["inner-half", "outer-half"])
def test_initial_data_must_cover_the_grid(tmp_path, capsys, part):
    # a table over half the chi range used to be extended by its end value
    star = build_star(StarParameters(R=0.05, grid_n=401))
    B = float(assemble_coefficients(star, n_chi=101).B)
    chi = (np.linspace(0.0, 0.5 * B, 51) + (0.5 * B if part == "outer-half" else 0.0)).tolist()
    u = (1e-6 * np.linspace(0.0, 1.0, 51)).tolist()
    table = tmp_path / "half.csv"
    table.write_text("chi,u,v\n" + "".join(f"{c!r},{x!r},0\n" for c, x in zip(chi, u)))
    out = tmp_path / "out"
    code = run(
        "evolve", "--R", "0.05", "--grid-n", "401", "--n-chi", "101",
        "--preset", f"file:{table}", "--output-dir", str(out),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"covers chi in [{chi[0]!r}, {chi[-1]!r}], not the whole grid [0.0, {B!r}]" in err
    assert not (out / "snapshot_000.csv").exists()


@pytest.fixture(scope="module")
def profile_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("profile")
    assert run("build", "--R", "0.05", "--grid-n", "401", "--output-dir", str(out)) == EXIT_OK
    return (out / "profile_R0p05.csv").read_text().splitlines()


@pytest.mark.parametrize(
    "case",
    ["missing", "columns", "non-numeric", "no-rows", "non-uniform", "below-floor", "trapped",
     "four-column", "old-format", "no-header", "format", "version"],
)
def test_bad_profile_file_is_config_error(tmp_path, capsys, profile_lines, case):
    header, names, *rows = profile_lines
    if case == "columns":
        names = names.replace("rho", "density")
    elif case == "non-numeric":
        rows[7] = "x" + rows[7]
    elif case == "no-rows":
        rows = []
    elif case == "non-uniform":
        rows[7] = "0.5" + rows[7][rows[7].index(","):]
    elif case in ("below-floor", "trapped"):
        r, rho, m_over_r3 = rows[7].split(",")
        if case == "below-floor":
            rho = "0.5"
        else:  # 2m/r = 2 m/r^3 r^2 = 2
            m_over_r3 = repr(1.0 / float(r) ** 2)
        rows[7] = ",".join((r, rho, m_over_r3))
    elif case == "four-column":
        # the columns written before a profile file held only r, rho, m/r^3
        names = "r,m,rho,m_over_r3"
        star = build_star(StarParameters(R=0.05, grid_n=401))
        rows = [",".join("%.17g" % x for x in row)
                for row in zip(star.r, star.m, star.rho, star.m_over_r3)]
    elif case == "old-format":
        # the ten columns of the profile files written before the four-column ones
        names = "r,m,rho,p,n,psi,omega,chi,drdchi,dpsidchi"
        rows = [",".join("%.17g" % x for x in row) for row in _old_format_columns()]
    elif case == "format":
        header = header.replace('"hardstars-profile"', '"hardstars-snapshot"')
    elif case == "version":
        header = header.replace(f'"version": "{hardstars.__version__}"', '"version": "0.0.1"')
    lines = [header, names, *rows] if case != "no-header" else [names, *rows]
    path = tmp_path / "profile.csv"
    if case != "missing":
        path.write_text("\n".join(lines) + "\n")
    code = run(
        "variation-audit", "--count", "2", "--profile", str(path),
        "--output-dir", str(tmp_path / "out"),
    )
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "cannot use profile" in err
    assert "Traceback" not in err
    reason = {"below-floor": "below the stiff floor", "trapped": "trapped shell",
              "four-column": "expected r,rho,m_over_r3", "old-format": "expected r,rho,m_over_r3"}
    assert reason.get(case, "") in err


def _old_format_columns():
    """The rows of the older ten-column profile file of the R = 0.05 build,
    with +inf at the centre of omega, dr/dchi and dpsi/dchi."""
    star = build_star(StarParameters(R=0.05, grid_n=401))
    r, rho = star.r, star.rho
    n2, D, q = background.metric_terms(r, rho, star.m_over_r3)
    n = np.sqrt(n2)
    with np.errstate(divide="ignore", invalid="ignore"):
        omega = -np.log(background.FOUR_PI * r * r * n)
        drdchi = 1.0 / background.chi_weight(star)
        dpsidchi = q * drdchi
    dpsidchi[0] = np.inf
    return zip(r, star.m, rho, rho - 1.0, n, -np.log(n), omega, star.chi, drdchi, dpsidchi)


# ------------------------------------------------------------------ verify


def test_verify_passes_on_small_star(tmp_path, capsys):
    code = run("verify", "--R", "0.05", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "0 failures" in out
    assert "FAIL" not in out
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["failures"] == 0


def test_verify_passes_at_default_radius(tmp_path, capsys):
    code = run("verify", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert "ok   background.small-radius-closure" in out
    assert json.loads((tmp_path / "verify.json").read_text())["R"] == 0.1


def test_verify_takes_each_second_variation_once(tmp_path, capsys, monkeypatch):
    # the mass-aspect check reads three exponents off each of its six draws,
    # so it takes six second variations, not one per draw and exponent (18)
    real = variation.second_variation
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(variation, "second_variation", counted)
    code = run("verify", "--R", "0.05", "--grid-n", "401", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_OK, out
    assert "ok   variation.mass-aspect" in out
    assert len(calls) == 6


def test_verify_period_without_crossings_is_solver_failure(tmp_path, capsys, monkeypatch):
    # a mode run whose surface never crosses zero has no period: that is a
    # numerical failure (exit 3), not a configuration error (exit 2)
    real = evolution.evolve

    def no_crossings(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, surface=np.abs(res.surface) + 1.0)

    monkeypatch.setattr(evolution, "evolve", no_crossings)
    code = run("verify", "--R", "0.05", "--output-dir", str(tmp_path))
    err = capsys.readouterr().err
    assert code == EXIT_SOLVER
    assert "solver failure: need at least two upward zero crossings" in err
    assert not (tmp_path / "verify.json").exists()


def test_verify_flags_violations(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(calibration, "ENERGY_DRIFT_MAX", 0.0)
    code = run("verify", "--R", "0.05", "--output-dir", str(tmp_path))
    out = capsys.readouterr().out
    assert code == EXIT_VERIFY
    assert "FAIL evolution.energy-drift" in out
