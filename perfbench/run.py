"""Run one hardstars benchmark workload and print its metrics.

    python3 perfbench/run.py --workload static|waves|spectrum|all \
        --seed N --seconds S --trace 0|1 [--audit-seed N]

Run from anywhere; the program is imported from the ``src`` directory
next to this one, never from an installed copy.  The run

1. caps BLAS/OpenMP threads at the CPU count of this process;
2. repeats rounds of the workload until its operations have taken
   ``--seconds`` (at least two rounds); ``wall_s`` sums each operation's
   best time over the rounds.  With ``--trace 1`` every second round runs
   with spans around the calls into the program, and the per-layer metrics
   come from those;
3. times ``import hardstars.cli`` in a fresh interpreter before each round
   (at least five times; ``setup_s`` is the median);
4. checks the first round against independent computations, and every
   later round against the first bit for bit;
5. prints the machine facts, each check and metric by name and unit, and
   as its last line one JSON object with ``correct``, ``attempted``,
   ``failed`` and ``metrics``.

It exits 0 when every check passes, 1 when one fails, and 2 when the
program cannot be found.  ``--workload all`` runs each workload in its own
fresh interpreter and prints a combined summary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
WORKLOAD_NAMES = ("static", "waves", "spectrum")
SETUP_REPEATS = 5
# each operation's time is its best over at least this many rounds
MIN_ROUNDS = 2

# end-to-end metric -> unit; README.md says what each one measures
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    p.add_argument("--seed", type=int, default=0, help="workload input seed")
    p.add_argument("--seconds", type=float, default=15.0, help="time spent in measured rounds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--audit-seed", type=int, default=None,
                   help="seed of the variation audit draws (default DEFAULT_AUDIT_SEED)")
    return p.parse_args(argv)


def measure_setup() -> float:
    """Seconds from spawning a fresh interpreter until ``import hardstars.cli`` returns."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); import hardstars.cli; "
            "print(time.perf_counter()); print(hardstars.__file__)")
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=120, check=True)
    stamp, where = done.stdout.split()
    if not Path(where).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hardstars from {where}, not from {SRC}")
    return float(stamp) - start


def per_layer(tracer, rounds: int, counts: dict[str, float], standalone: dict[str, float],
              overhead_pct: float) -> dict[str, tuple[float, str]]:
    spans = tracer.spans

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    def total(name: str) -> float:
        return spans.get(name, (0, 0.0, 0.0))[1]

    def mean(name: str, scale: float) -> float:
        return scale * total(name) / calls(name) if calls(name) else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    picard, shooting = "background.solve_tov_picard", "background.solve_tov_shooting"
    steps = tracer.counters.get("evolution.steps", 0.0)
    located = counts.get("modes.located", 0.0)
    out = {
        "background.picard_ms": (mean(picard, 1e3), "ms"),
        "background.picard_sweeps": (ratio(tracer.counters.get("picard_sweeps", 0.0), calls(picard)), "count"),
        "background.shooting_ms": (mean(shooting, 1e3), "ms"),
        "background.shooting_iterations": (
            ratio(tracer.counters.get("shooting_iterations", 0.0), calls(shooting)), "count"),
        "background.derive_metric_ms": (mean("background.derive_metric_fields", 1e3), "ms"),
        "variation.audit_perturbations_ms": (mean("variation.audit_perturbations", 1e3), "ms"),
        "variation.criticality_audit_ms": (mean("variation.criticality_audit", 1e3), "ms"),
        "variation.detuned_control_ms": (mean("variation.detuned_control", 1e3), "ms"),
        "storage.write_profile_ms": (mean("storage.write_profile", 1e3), "ms"),
        "storage.read_profile_ms": (mean("storage.read_profile_csv", 1e3), "ms"),
        "storage.profile_bytes": (
            ratio(tracer.counters.get("profile_bytes", 0.0), calls("storage.write_profile")), "B"),
        "cli.family_ms": (mean("cli.family", 1e3), "ms"),
        "cli.build_ms": (mean("cli.build", 1e3), "ms"),
        "cli.variation_audit_ms": (mean("cli.variation_audit", 1e3), "ms"),
        "cli.artifact_bytes": (counts.get("cli.artifact_bytes", 0.0), "B"),
        "evolution.assemble_ms": (mean("evolution.assemble_coefficients", 1e3), "ms"),
        "evolution.evolve_s": (mean("evolution.evolve", 1.0), "s"),
        "evolution.steps": (steps / rounds, "count"),
        "evolution.step_us": (1e6 * ratio(total("evolution.evolve"), steps), "us"),
        "evolution.acceleration_us": (standalone.get("evolution.acceleration_us", 0.0), "us"),
        "evolution.diagnostics_ms": (standalone.get("evolution.diagnostics_ms", 0.0), "ms"),
        "modes.find_modes_s": (mean("modes.find_modes", 1.0), "s"),
        "modes.shooting_defect_ms": (standalone.get("modes.shooting_defect_ms", 0.0), "ms"),
        "modes.defect_evals": (calls("modes.shooting_defect") / rounds, "count"),
        "modes.defect_evals_per_mode": (ratio(calls("modes.shooting_defect") / rounds, located), "count"),
        "modes.eigenfunction_ms": (mean("modes.eigenfunction", 1e3), "ms"),
        "modes.initial_data_ms": (mean("modes.mode_to_initial_data", 1e3), "ms"),
    }
    for layer in ("background", "variation", "storage", "cli", "evolution", "modes"):
        own = sum(row[2] for name, row in spans.items() if name.startswith(layer + "."))
        out[f"{layer}.self_ms"] = (1e3 * own / rounds, "ms")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out


def run_workload(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy

    import tracer as tracing
    import workloads
    from hardstars import variation

    audit_seed = variation.DEFAULT_AUDIT_SEED if args.audit_seed is None else args.audit_seed
    print(f"machine: cpus={NPROC} python={platform.python_version()} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} blas_threads={os.environ['OMP_NUM_THREADS']}")

    tracer = tracing.Tracer()
    hooks = {
        "background.solve_tov_picard": lambda p: tracer.count("picard_sweeps", p.provenance["iterations"]),
        "background.solve_tov_shooting": lambda p: tracer.count("shooting_iterations", p.provenance["iterations"]),
        "storage.write_profile": lambda paths: tracer.count("profile_bytes", sum(x.stat().st_size for x in paths)),
        "evolution.evolve": lambda res: tracer.count("evolution.steps", res.n_steps),
    }
    scratch_root = ROOT / ".perfbench_tmp"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch_root))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, audit_seed, scratch, tracer)
        print(f"workload {args.workload} seed {args.seed}: {wl.describe()}")
        led = workloads.Ledger()
        flags, counts = [], {}
        first = first_digest = None
        identical = True
        setup = []
        while (sum(map(sum, led.rounds)) < args.seconds or len(flags) < MIN_ROUNDS
               or (args.trace and True not in flags)):
            # import timings are spread over the run, one before each round,
            # so that their median does not depend on when the run started
            setup.append(measure_setup())
            traced = bool(args.trace) and flags.count(False) > flags.count(True)
            flags.append(traced)
            led.start_round()
            with tracer.installed(workloads.LAYERS, hooks) if traced else nullcontext():
                out = wl.run_round(led)
            if traced:
                for key, val in wl.layer_counts(out).items():
                    counts[key] = counts.get(key, 0.0) + val
            digest = wl.digest(out)
            if first is None:
                first, first_digest = out, digest
            else:
                identical = identical and digest == first_digest
            del out
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while len(setup) < SETUP_REPEATS:
            setup.append(measure_setup())

        checks = workloads.Checks()
        wl.check(first, checks)
        checks("rounds_identical", identical, f"{len(flags)} rounds gave bit-identical outputs")

        def best_round(traced: bool) -> float:
            # each operation's fastest time over the rounds, summed
            times = [t for t, f in zip(led.rounds, flags) if f == traced]
            return sum(min(op) for op in zip(*times))

        wall_s = best_round(False)
        work = wl.work(first)
        e2e = {
            "setup_s": statistics.median(setup),
            "wall_s": wall_s,
            "peak_rss_mb": peak_rss_mb,
            "work_per_s": work / wall_s,
        }
        for traced in (False, True):
            sums = [sum(t) for t, f in zip(led.rounds, flags) if f == traced]
            if sums:
                print(f"{'traced' if traced else 'untraced'} rounds: {len(sums)}, operation time per round "
                      + ", ".join(f"{x:.4f}" for x in sums) + f" s, best {best_round(traced):.4f} s")
        print("setup samples: " + ", ".join(f"{x:.4f}" for x in setup) + " s")
        for name, value in e2e.items():
            print(f"metric {name} = {value:.6g} {END_TO_END_UNITS[name]}")
        print(f"metric {wl.work_unit} = {work / wall_s:.6g} 1/s ({work:g} per round)")
        print(f"operations: attempted {led.attempted} failed {led.failed}")

        if args.trace:
            n_traced = flags.count(True)
            overhead = 100.0 * (best_round(True) / wall_s - 1.0)
            layer = per_layer(tracer, n_traced, {k: v / n_traced for k, v in counts.items()},
                              wl.standalone(first), overhead)
            print("span                                      calls   total_ms    self_ms  (per traced round)")
            for name, (n, tot, own) in sorted(tracer.spans.items(), key=lambda kv: -kv[1][2]):
                if not n:
                    continue
                print(f"span {name:<38} {n / n_traced:7.0f} {1e3 * tot / n_traced:10.2f} {1e3 * own / n_traced:10.2f}")
            for name, (value, unit) in layer.items():
                print(f"layer {name} = {value:.6g} {unit}")
            metrics = layer
        else:
            metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in e2e.items()}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch_root.rmdir()
        except OSError:
            pass

    correct = not checks.failures
    print(json.dumps({
        "correct": correct,
        "attempted": led.attempted,
        "failed": led.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args: argparse.Namespace) -> int:
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.audit_seed is not None:
            argv += ["--audit-seed", str(args.audit_seed)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        print(done.stdout, end="")
        status = max(status, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or not lines:
            summary["correct"] = False
            continue
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            summary["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(summary))
    return status


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "hardstars" / "__init__.py").is_file():
        print(f"error: no hardstars package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(NPROC)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
