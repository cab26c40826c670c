"""The benchmark's four workloads.

Each workload builds its inputs from the seed in `__init__` (set-up),
runs one complete unit of work in `unit()` through the package's public
entry points only (`sparsebounds.cli.main` and the functions exported
by `sparsebounds`), and checks a unit's output in `checks()`.  Calls go
through module attributes at call time, so the spans installed by
`spans.instrument` see them.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from pathlib import Path
from statistics import median

import numpy as np

import sparsebounds as sb
import sparsebounds.cli as cli

import checks as ck


class UnitError(RuntimeError):
    """A unit of work could not complete."""


def run_cli(argv: list[str]) -> str:
    """Run the command line in-process; return what it printed."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise UnitError(f"sparsebounds {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def run_figure(fig: str, seed: int, out_dir: Path, *extra: str) -> str:
    run_cli(["figure", fig, *extra, "--seed", str(seed), "--out-dir", str(out_dir),
             "--output", f"{fig}.csv"])
    return (out_dir / f"{fig}.csv").read_text(encoding="utf-8")


class Workload:
    name = ""
    why = ""
    largest_array = ""
    # trace prediction: spans (dotted) by inclusive time, layers by self time
    predicted_group: tuple[str, ...] = ()
    predicted_share = 0.0
    predicted_relation = "at least"
    # parts of the host-speed probe (probe.py) that stress what the unit does
    probe_parts: tuple[str, ...] = ("python", "numpy", "memory")

    def __init__(self, seed: int, work_dir: Path):
        self.seed = seed
        self.work_dir = work_dir / self.name
        self.work_dir.mkdir(parents=True, exist_ok=True)

    def unit(self) -> dict:
        """One complete unit of work; returns its outputs."""
        raise NotImplementedError

    def fingerprint(self, out: dict) -> str:
        """Everything a rerun with the same seed must reproduce exactly."""
        return "".join(out["csv"].values()) + repr(out.get("values"))

    def csv_bytes(self, out: dict) -> int:
        return sum(len(t.encode()) for t in out["csv"].values())

    def trials(self, out: dict) -> int:
        return 0

    def ops(self, out: dict) -> tuple[int, int]:
        """(operations attempted, operations failed) inside one unit."""
        raise NotImplementedError

    def checks(self, out: dict) -> list[ck.Check]:
        raise NotImplementedError

    def extra(self, rounds: int) -> tuple[list[ck.Check], dict[str, float], int]:
        """Runs beyond the unit: (checks, metrics, operations attempted)."""
        return [], {}, 0

    def report(self, out: dict) -> dict[str, float]:
        """Reported-only per-layer values taken from a unit's output."""
        return {}


SIMULATE = [
    "simulate", "--n", "5", "--m", "5", "--s", "1", "--sigma-e", "0.1",
    "--x", "1,0,0,0,0", "--estimators", "oracle,ml,unbiased,noise",
]


class McSmall(Workload):
    name = "mc_small"
    why = ("Per-trial Python overhead dominates: 20k trials of n = 5 over four "
           "estimators and five sigma_n points (the run_trials/sweep path)")
    largest_array = "A, 5 x 5 float64 (200 B)"
    predicted_group = (
        "montecarlo.trial_stream", "model.sample_measurement", "estimators.apply_estimator",
    )
    predicted_share = 0.60
    probe_parts = ("python", "numpy")

    TRIALS = 1000
    GRID = "log:1e-3:10:5"
    # two equal chunks of montecarlo.TRIAL_CHUNK per cell, so --workers 2
    # really runs the thread pool
    PROBE_TRIALS = 8192
    # the costliest and the cheapest estimator per trial
    PROBE_ESTIMATORS = "oracle,unbiased"

    def unit(self):
        argv = SIMULATE + ["--sigma-n", self.GRID, "--trials", str(self.TRIALS),
                           "--seed", str(self.seed)]
        return {"csv": {"simulate": run_cli(argv)}}

    def extra(self, rounds):
        """The workers probe: one sigma_n point whose chunks a thread pool
        shares.  Output must not depend on the worker count;
        workers2_speedup is the median time at one worker over two."""
        argv = SIMULATE[:-1] + [self.PROBE_ESTIMATORS, "--sigma-n", "0.1",
                                "--trials", str(self.PROBE_TRIALS), "--seed", str(self.seed)]
        times = {1: [], 2: []}
        outputs = []
        for _ in range(rounds):
            for workers in (1, 2):
                t0 = time.perf_counter()
                outputs.append(run_cli(argv + ["--workers", str(workers)]))
                times[workers].append(time.perf_counter() - t0)
        found = [ck.same_bytes("determinism.workers_1_vs_2", outputs[0], o) for o in outputs[1:]]
        speedup = median(times[1]) / median(times[2])
        attempted = len(outputs) * 2 * self.PROBE_TRIALS
        return found, {"workers2_speedup": speedup}, attempted

    def trials(self, out):
        return sum(int(r["trials"]) for r in ck.rows(out["csv"]["simulate"]))

    def ops(self, out):
        table = ck.rows(out["csv"]["simulate"])
        return sum(int(r["trials"]) for r in table), sum(int(r["failures"]) for r in table)

    def checks(self, out):
        return ck.simulate_checks(out["csv"]["simulate"])


class McHighdim(Workload):
    name = "mc_highdim"
    why = ("Same Monte Carlo layers on 1e4-element vectors: numpy work and "
           "SparseSignal validation dominate, stream creation is small (table1)")
    largest_array = "y, 1e4 float64 (80 KB)"
    predicted_group = ("cli",)
    predicted_share = 0.50
    predicted_relation = "about"
    probe_parts = ("python", "numpy")

    TRIALS = 5000

    def unit(self):
        csv_text = run_figure("table1", self.seed, self.work_dir, "--trials", str(self.TRIALS))
        return {"csv": {"table1": csv_text}}

    def trials(self, out):
        return self.TRIALS

    def ops(self, out):
        return self.TRIALS, 0

    def checks(self, out):
        return ck.table1_checks(out["csv"]["table1"])


class BoundsLarge(Workload):
    name = "bounds_large"
    why = ("A few large kernel calls bound by memory and BLAS: fig5 up to "
           "s = 300 with A of 3000 x 6000; no Monte Carlo")
    largest_array = "A at s = 300, 3000 x 6000 float64 (144 MB)"
    predicted_group = ("model.ProblemModel", "model.generate_gaussian_matrix", "ccrb.ccrb_maximal")
    predicted_share = 0.80
    probe_parts = ("large",)

    DRAWS = 1

    def unit(self):
        return {"csv": {"fig5": run_figure("fig5", self.seed, self.work_dir,
                                           "--draws", str(self.DRAWS))}}

    def ops(self, out):
        return len(ck.rows(out["csv"]["fig5"])), 0

    def checks(self, out):
        return ck.fig5_checks(out["csv"]["fig5"])


def _axis_offsets(n: int, scales) -> list[np.ndarray]:
    out = []
    for t in scales:
        for i in range(n):
            for sign in (1.0, -1.0):
                v = np.zeros(n)
                v[i] = sign * t
                out.append(v)
    return out


class BoundsMany(Workload):
    name = "bounds_many"
    why = ("Many small kernel calls bound by Python overhead; the only workload "
           "running hcrb, fisher and the closed-form figures; shows the "
           "hcrb_general monotonicity defect")
    largest_array = "H, 240 x 240 float64 (450 KB); FIM residual chunk 32768 x 4 (1 MB)"
    predicted_group = ("ccrb.rip_constants",)
    predicted_share = 0.30

    SANDWICH = 10
    HCRB_N = 40
    HCRB_SIGMA_E = (0.0, 0.05, 0.1)
    HCRB_SCALES = (1e-3, 0.1, 0.5)
    FIM_SAMPLES = 1_000_000
    FIGURES = ("fig3", "fig4", "fig6", "fig7")

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.sandwich = []
        for k in range(self.SANDWICH):
            rng = np.random.default_rng([seed, 1, k])
            A = rng.normal(0.0, 1.0 / math.sqrt(100), size=(100, 200))
            support = np.sort(rng.choice(200, size=10, replace=False))
            x = np.zeros(200)
            x[support] = rng.integers(0, 2, size=10) * 2.0 - 1.0
            self.sandwich.append((A, x))
        n = self.HCRB_N
        self.hcrb_x = np.r_[1.0, 0.5, np.zeros(n - 2)]
        self.offsets_all = _axis_offsets(n, self.HCRB_SCALES)
        self.offsets_small = _axis_offsets(n, self.HCRB_SCALES[:1])
        rng = np.random.default_rng([seed, 3])
        self.fim_A = rng.normal(0.0, 0.5, size=(4, 6))
        self.fim_x = np.array([1.0, 0.0, -0.8, 0.0, 0.0, 0.0])
        self.x_q = np.sort(10.0 ** rng.uniform(-6.0, 0.0, size=30))

    def unit(self):
        values = {}
        gammas, inside = [], 0
        for k, (A, xv) in enumerate(self.sandwich):
            x = sb.SparseSignal(xv)
            se, sn = sb.sigmas_for_levels(A, x, 0.5, 0.5, 10)
            model = sb.ProblemModel(A, se, sn, 10)
            gamma = sb.ccrb_maximal(model, x).gamma_ccrb
            rip = sb.rip_constants(A, 10, mode="sampled", samples=2000,
                                   rng=np.random.default_rng([self.seed, 2, k]))
            lo, hi = sb.gamma_bounds(rip, sb.noise_levels(model, x), 10)
            gammas.append(gamma)
            inside += lo <= gamma <= hi
        values["gamma"] = gammas
        values["sandwich_inside"] = inside

        traces = []
        x = sb.SparseSignal(self.hcrb_x)
        for se in self.HCRB_SIGMA_E:
            model = sb.ProblemModel(np.eye(self.HCRB_N), se, 0.1, 3)
            _, full = sb.hcrb_general(model, x, self.offsets_all)
            _, small = sb.hcrb_general(model, x, self.offsets_small)
            traces.append((se, full, small))
        values["hcrb_traces"] = traces

        x = sb.SparseSignal(self.fim_x)
        model = sb.ProblemModel(self.fim_A, 0.3, 0.5, 2)
        est = sb.fim_monte_carlo(model, x, samples=self.FIM_SAMPLES,
                                 rng=np.random.default_rng([self.seed, 4]))
        ref = sb.fim_closed_form(model, x)
        values["fim_rel"] = float(np.linalg.norm(est.J - ref.J) / np.linalg.norm(ref.J))

        pairs = []
        for se in (0.0, 0.05):
            model = sb.ProblemModel(np.eye(10), se, 0.1, 2)
            for xq in self.x_q:
                x = sb.SparseSignal(np.r_[1.0, xq, np.zeros(8)])
                pairs.append((f"sigma_e={se:g},x_q={xq:.3g}",
                              sb.ccrb_maximal(model, x).bound,
                              sb.hcrb_unit_closed_form(model, x).bound))
        values["ccrb_hcrb"] = pairs

        csv = {fig: run_figure(fig, self.seed, self.work_dir) for fig in self.FIGURES}
        return {"csv": csv, "values": values}

    def ops(self, out):
        v = out["values"]
        calls = 4 * len(v["gamma"]) + 2 * len(v["hcrb_traces"]) + 2 + 2 * len(v["ccrb_hcrb"])
        rows = sum(len(ck.rows(t)) for t in out["csv"].values())
        return calls + rows, 0

    def checks(self, out):
        v = out["values"]
        return [ck.fim_check(v["fim_rel"]), *ck.ccrb_below_hcrb_checks(v["ccrb_hcrb"])]

    def report(self, out):
        v = out["values"]
        return {
            "hcrb.hcrb_general.monotonicity_violations": float(
                sum(full < small for _, full, small in v["hcrb_traces"])
            ),
            "ccrb.gamma_bounds.inside_frac": v["sandwich_inside"] / len(v["gamma"]),
        }


WORKLOADS = {w.name: w for w in (McSmall, McHighdim, BoundsLarge, BoundsMany)}
