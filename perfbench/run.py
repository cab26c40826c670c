"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mc_small --seed 1 --seconds 12 --trace 0

The package is imported from `src/` of the checkout this file sits in.
With `--trace 0` the run reports the end-to-end metrics, measured with
tracing off and given in reference seconds (see probe.py); with
`--trace 1` it reports the per-layer metrics of a traced run and writes
its spans to `.bench_out/`.  Every run checks the program's outputs.
Progress, each metric with its unit and every failed check go to
standard error; the last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import time

SCRIPT_START = time.monotonic()  # set-up is timed from here

import argparse  # noqa: E402  (imports are part of the timed set-up)
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import traceback
from pathlib import Path
from statistics import median

from checks import same_bytes
from probe import Probe
from spans import SpanSummary, Tracer, instrument, percentile_us

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_UNITS = 3
MIN_TRACED_UNITS = 2
# An untraced run splits its units among this process and fresh ones run
# one after another, so that how fast one process happens to run is
# averaged out; each also times its own set-up.
PROCESSES = 3
CHILD_TIMEOUT_S = 150

WORKLOAD_NAMES = ("mc_small", "mc_highdim", "bounds_large", "bounds_many")

END_TO_END = {"unit_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# name -> unit; per unit of work unless the name says otherwise
PER_LAYER = {
    "montecarlo.trial_stream.us_p50": "us",
    "montecarlo.trial_stream.us_p99": "us",
    "montecarlo.run_trials.self_s": "s",
    "montecarlo.sweep.self_s": "s",
    "montecarlo.trials": "count",
    "montecarlo.failures": "count",
    "montecarlo.useful_frac": "frac",
    "model.sample_measurement.calls": "count",
    "model.sample_measurement.us_p50": "us",
    "model.sample_measurement.us_p99": "us",
    "model.SparseSignal.calls": "count",
    "model.ProblemModel.calls": "count",
    "model.ProblemModel.self_s": "s",
    "model.ProblemModel.bytes_computed": "B",
    "model.ProblemModel.distinct_frac": "frac",
    "model.generate_gaussian_matrix.self_s": "s",
    "model.generate_gaussian_matrix.bytes_computed": "B",
    "estimators.oracle.us_p50": "us",
    "estimators.oracle.us_p99": "us",
    "estimators.ml.us_p50": "us",
    "estimators.ml.us_p99": "us",
    "estimators.unbiased.us_p50": "us",
    "estimators.unbiased.us_p99": "us",
    "estimators.noise.us_p50": "us",
    "estimators.noise.us_p99": "us",
    "estimators.oracle.distinct_frac": "frac",
    "ccrb.ccrb_maximal.calls": "count",
    "ccrb.ccrb_maximal.self_s": "s",
    "ccrb.ccrb_maximal.distinct_frac": "frac",
    "ccrb.ccrb_nonmaximal.self_s": "s",
    "ccrb.sigmas_for_levels.self_s": "s",
    "ccrb.rip_constants.supports": "count",
    "ccrb.rip_constants.us_per_support": "us",
    "ccrb.gamma_bounds.inside_frac": "frac",
    "hcrb.test_points.pairs": "count",
    "hcrb.test_points.us_per_pair": "us",
    "hcrb.hcrb_general.self_s": "s",
    "hcrb.hcrb_unit_closed_form.us_p50": "us",
    "hcrb.hcrb_general.monotonicity_violations": "count",
    "fisher.fim_monte_carlo.samples": "count",
    "fisher.fim_monte_carlo.ns_per_sample": "ns",
    "fisher.fim_monte_carlo.bytes_computed": "B",
    "cli.main.self_s": "s",
    "cli.csv_bytes": "B",
    "model.self_frac": "frac",
    "fisher.self_frac": "frac",
    "ccrb.self_frac": "frac",
    "hcrb.self_frac": "frac",
    "estimators.self_frac": "frac",
    "montecarlo.self_frac": "frac",
    "cli.self_frac": "frac",
    "bench.self_frac": "frac",
    "trace.overhead_frac": "frac",
    "trace.predicted_group_frac": "frac",
    "trials_per_s": "1/s",
    "unit_wall_s": "s",
    "workers2_speedup": "ratio",
    "ops_failed_frac": "frac",
}


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


class Tally:
    """Operations attempted and failed, and every check made."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks = []

    def ops(self, attempted: int, failed: int = 0) -> None:
        self.attempted += attempted
        self.failed += failed

    def add(self, checks) -> None:
        for c in checks:
            self.checks.append(c)
            self.ops(1, 0 if c.ok else 1)
            if not c.ok:
                log(f"CHECK FAILED {c.name}: {c.detail}")

    @property
    def correct(self) -> bool:
        return self.failed == 0


def run_units(wl, tally, reference: str, seconds: float, min_units: int, tracer=None,
              probe=None):
    """Repeat the unit for `seconds` (at least `min_units` times); every
    rerun must reproduce the warm-up's output exactly.  With a probe, it
    runs before the first unit and after each one, and each unit's time
    is also given in reference seconds against the mean of the probes on
    either side of it."""
    times, scaled, out = [], [], None
    deadline = time.perf_counter() + seconds
    before = probe.run() if probe else 0.0
    while len(times) < min_units or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        if tracer is None:
            out = wl.unit()
        else:
            with tracer.unit_span(len(times)):
                out = wl.unit()
        times.append(time.perf_counter() - t0)
        if probe:
            after = probe.run()
            scaled.append(probe.scale(times[-1], (before + after) / 2))
            before = after
        tally.ops(*wl.ops(out))
        tally.add([same_bytes("determinism.rerun", reference, wl.fingerprint(out))])
    return times, scaled, out


def setup_seconds() -> float:
    """Set-up so far: from the first line of this script through imports,
    input generation and the warm-up unit."""
    return time.monotonic() - SCRIPT_START


def measure_share(wl, tally, seconds: float) -> dict:
    """One process's share of an untraced run: its set-up through the
    warm-up unit, whose output is checked, then units for `seconds`.
    Set-up and units are timed with the probe."""
    reference = wl.unit()
    setup_s = setup_seconds()
    tally.ops(*wl.ops(reference))
    tally.add(wl.checks(reference))
    fingerprint = wl.fingerprint(reference)
    probe = Probe(wl.probe_parts)
    setup_probe_s = probe.run()
    times, scaled, _ = run_units(wl, tally, fingerprint, seconds, 1, probe=probe)
    return {
        "setup_s": setup_s,
        "setup_scaled_s": probe.scale(setup_s, setup_probe_s),
        "setup_probe_s": setup_probe_s,
        "times": times,
        "scaled": scaled,
        "sha256": hashlib.sha256(fingerprint.encode()).hexdigest(),
    }


def child_share(args, tally, seconds: float) -> dict:
    """measure_share in a fresh process; its operations join the tally."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(seconds), "--share"]
    done = subprocess.run(cmd, cwd=ROOT, check=True, timeout=CHILD_TIMEOUT_S,
                          stdout=subprocess.PIPE, text=True)
    share = json.loads(done.stdout.splitlines()[-1])
    tally.ops(share["attempted"], share["failed"])
    return share


def layer_metrics(wl, summary, out, untraced_s, traced_s, extra, tally) -> dict[str, float]:
    s = summary

    def pct(name, q):
        return percentile_us(s.durations(name), q)

    def per(total_s, count, scale):
        return total_s / count * scale if count else 0.0

    trials = s.calls("montecarlo.trial_stream")
    failures = s.count("montecarlo.failures")
    supports = s.count("ccrb.rip_constants.supports")
    pairs = s.count("hcrb.test_points.pairs")
    samples = s.count("fisher.fim_monte_carlo.samples")
    m = {
        "montecarlo.trial_stream.us_p50": pct("montecarlo.trial_stream", 50),
        "montecarlo.trial_stream.us_p99": pct("montecarlo.trial_stream", 99),
        "montecarlo.run_trials.self_s": s.self_s("montecarlo.run_trials"),
        "montecarlo.sweep.self_s": s.self_s("montecarlo.sweep"),
        "montecarlo.trials": trials,
        "montecarlo.failures": failures,
        "montecarlo.useful_frac": (trials - failures) / trials if trials else 0.0,
        "model.sample_measurement.calls": s.calls("model.sample_measurement"),
        "model.sample_measurement.us_p50": pct("model.sample_measurement", 50),
        "model.sample_measurement.us_p99": pct("model.sample_measurement", 99),
        "model.SparseSignal.calls": s.calls("model.SparseSignal"),
        "model.ProblemModel.calls": s.calls("model.ProblemModel"),
        "model.ProblemModel.self_s": s.self_s("model.ProblemModel"),
        "model.ProblemModel.bytes_computed": s.count("model.ProblemModel.bytes_computed"),
        "model.ProblemModel.distinct_frac": s.distinct_frac("model.ProblemModel"),
        "model.generate_gaussian_matrix.self_s": s.self_s("model.generate_gaussian_matrix"),
        "model.generate_gaussian_matrix.bytes_computed": s.count(
            "model.generate_gaussian_matrix.bytes_computed"
        ),
        "estimators.oracle.distinct_frac": s.distinct_frac("estimators.oracle"),
        "ccrb.ccrb_maximal.calls": s.calls("ccrb.ccrb_maximal"),
        "ccrb.ccrb_maximal.self_s": s.self_s("ccrb.ccrb_maximal"),
        "ccrb.ccrb_maximal.distinct_frac": s.distinct_frac("ccrb.ccrb_maximal"),
        "ccrb.ccrb_nonmaximal.self_s": s.self_s("ccrb.ccrb_nonmaximal"),
        "ccrb.sigmas_for_levels.self_s": s.self_s("ccrb.sigmas_for_levels"),
        "ccrb.rip_constants.supports": supports,
        "ccrb.rip_constants.us_per_support": per(s.inclusive_s("ccrb.rip_constants"), supports, 1e6),
        "ccrb.gamma_bounds.inside_frac": 0.0,
        "hcrb.test_points.pairs": pairs,
        "hcrb.test_points.us_per_pair": per(s.inclusive_s("hcrb.test_points"), pairs, 1e6),
        "hcrb.hcrb_general.self_s": s.self_s("hcrb.hcrb_general"),
        "hcrb.hcrb_unit_closed_form.us_p50": pct("hcrb.hcrb_unit_closed_form", 50),
        "hcrb.hcrb_general.monotonicity_violations": 0.0,
        "fisher.fim_monte_carlo.samples": samples,
        "fisher.fim_monte_carlo.ns_per_sample": per(
            s.inclusive_s("fisher.fim_monte_carlo"), samples, 1e9
        ),
        "fisher.fim_monte_carlo.bytes_computed": s.count("fisher.fim_monte_carlo.bytes_computed"),
        "cli.main.self_s": s.self_s("cli.main"),
        "cli.csv_bytes": float(wl.csv_bytes(out)),
        "trace.overhead_frac": median(traced_s) / median(untraced_s) - 1.0,
        "unit_wall_s": median(untraced_s),
        "trace.predicted_group_frac": predicted_group_frac(wl, s),
        "trials_per_s": wl.trials(out) / median(untraced_s),
        "workers2_speedup": extra.get("workers2_speedup", 0.0),
        "ops_failed_frac": tally.failed / max(tally.attempted, 1),
    }
    for est in ("oracle", "ml", "unbiased", "noise"):
        m[f"estimators.{est}.us_p50"] = pct(f"estimators.{est}", 50)
        m[f"estimators.{est}.us_p99"] = pct(f"estimators.{est}", 99)
    for layer, frac in s.layer_self_frac().items():
        m[f"{layer}.self_frac"] = frac
    m.update(wl.report(out))
    return {name: float(m[name]) for name in PER_LAYER}


def predicted_group_frac(wl, s) -> float:
    """Share of traced wall time taken by the workload's predicted group:
    dotted names by inclusive span time, bare layer names by self time."""
    layers = s.layer_self_frac()
    total = 0.0
    for name in wl.predicted_group:
        if "." in name:
            total += s.inclusive_frac(name)
        else:
            total += layers[name]
    return total


def blas_threads() -> int | None:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def cache_sizes() -> dict[str, str]:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}"] = size
    return out


def provenance(args, wl) -> dict:
    import numpy
    import scipy

    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": wl.why,
        "largest_array": wl.largest_array,
        "caches": cache_sizes(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--share", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    return args


def use_checkout_source() -> bool:
    """Import the package from this checkout's src/ or not at all."""
    if not (SRC / "sparsebounds" / "__init__.py").is_file():
        log(f"perfbench: no package source at {SRC / 'sparsebounds'}")
        return False
    sys.path.insert(0, str(SRC))
    import sparsebounds

    return Path(sparsebounds.__file__).resolve().is_relative_to(SRC)


def measure(args, wl, tally) -> dict[str, float]:
    if not args.trace:
        seconds = args.seconds / PROCESSES
        shares = [measure_share(wl, tally, seconds)]
        shares += [child_share(args, tally, seconds) for _ in range(PROCESSES - 1)]
        tally.add([same_bytes("determinism.processes", shares[0]["sha256"], s["sha256"])
                   for s in shares[1:]])
        extra_checks, _, extra_ops = wl.extra(rounds=1)
        tally.ops(extra_ops)
        tally.add(extra_checks)
        times = [t for s in shares for t in s["times"]]
        scaled = [t for s in shares for t in s["scaled"]]
        log(f"units {len(times)}, wall s: " + " ".join(f"{t:.3f}" for t in times))
        log("units, reference s: " + " ".join(f"{t:.3f}" for t in scaled))
        log("set-up wall s, this process then fresh ones: "
            + " ".join(f"{s['setup_s']:.3f}" for s in shares))
        log("their probes, s: " + " ".join(f"{s['setup_probe_s']:.3f}" for s in shares))
        return {
            "unit_s": median(scaled),
            "setup_s": median(s["setup_scaled_s"] for s in shares),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    t0 = time.perf_counter()
    reference = wl.unit()
    log(f"warm-up unit {time.perf_counter() - t0:.3f} s")
    tally.ops(*wl.ops(reference))
    tally.add(wl.checks(reference))
    fingerprint = wl.fingerprint(reference)
    untraced, _, _ = run_units(wl, tally, fingerprint, args.seconds / 2, MIN_UNITS)
    tracer = Tracer()
    with instrument(tracer):
        traced, _, out = run_units(wl, tally, fingerprint, args.seconds / 2, MIN_TRACED_UNITS, tracer)
    extra_checks, extra, extra_ops = wl.extra(rounds=1)
    tally.ops(extra_ops)
    tally.add(extra_checks)
    summary = SpanSummary(tracer)
    metrics = layer_metrics(wl, summary, out, untraced, traced, extra, tally)
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{wl.name}.csv")
    log(f"untraced units {len(untraced)}, traced units {len(traced)}, "
        f"{len(tracer.start)} spans written to {OUT_DIR / f'spans-{wl.name}.csv'}")
    log(f"prediction: {' + '.join(wl.predicted_group)} take {wl.predicted_relation} "
        f"{wl.predicted_share:.0%}; measured {metrics['trace.predicted_group_frac']:.1%}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not use_checkout_source():
        return 2
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, OUT_DIR / "work")
    if args.share:
        tally = Tally()
        share = measure_share(wl, tally, args.seconds)
        print(json.dumps({**share, "attempted": tally.attempted, "failed": tally.failed}))
        return 0

    tally = Tally()
    units = PER_LAYER if args.trace else END_TO_END
    try:
        values = measure(args, wl, tally)
    except Exception:  # report the failure as an incorrect run, not a crash
        log(traceback.format_exc())
        tally.ops(1, 1)
        values = {name: 0.0 for name in units}

    OUT_DIR.mkdir(exist_ok=True)
    facts = provenance(args, wl)
    (OUT_DIR / f"provenance-{wl.name}.json").write_text(json.dumps(facts, indent=1) + "\n")
    log(json.dumps(facts))
    for name, unit in units.items():
        log(f"{name:48s} {values[name]:.6g} {unit}")
    log(f"checks: {sum(c.ok for c in tally.checks)}/{len(tally.checks)} passed; "
        f"operations: {tally.failed} of {tally.attempted} failed")
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
