"""Command line front end: bound tables, figure protocols, simulations.

Subcommands
-----------
bounds    one CCRB or HCRB row for a fully specified instance
figure    reproduce a named experiment protocol as a plot-ready CSV
simulate  run reference estimators against the bounds over a sigma_n grid

Numbers are serialized at '%.17g' so a fixed seed reproduces output
files byte for byte.  Exit codes: 0 success, 2 usage, 3 math-domain
failure (any MathDomainError), 4 I/O failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import operator
import os
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .ccrb import (
    ccrb_bound,
    ccrb_maximal,
    gamma_approx,
    sigmas_for_levels,
    transition_ce,
)
from .errors import InvalidInputError, MathDomainError, SparseBoundsError
from .estimators import _KIND_NAMES, EstimatorSpec, _ml_unit, _noise_exploiting, row_dot
from .hcrb import d_hcrb, hcrb_unit_closed_form
from .model import (
    ProblemModel,
    SparseSignal,
    generate_bernoulli_signal,
    generate_gaussian_matrix,
)
from .montecarlo import (
    TRIAL_CHUNK,
    chunk_moments,
    draw_blocks,
    merge_moments,
    mse_stats,
    run_trials,
    sweep,
)

__all__ = ["ExperimentConfig", "figure_rows", "main"]

DEFAULT_SEED = 1729
SEED_ENV_VAR = "SPARSEBOUNDS_SEED"

BOUNDS_HEADER = ("bound", "first_term", "correction", "gamma", "regime")
HCRB_BOUNDS_HEADER = ("bound", "support_part", "nonsupport_part", "ratio", "regime")
FIGURE_HEADER = ("x_value", "curve_id", "value", "std_error")
SIMULATE_HEADER = (
    "sigma_n",
    "estimator",
    "mse",
    "std_error",
    "bias_l2",
    "trials",
    "failures",
    "ccrb",
    "hcrb",
    "oracle_theory",
    "rel_gap",
    "biased_regime",
)


# ---------------------------------------------------------------------------
# serialization helpers


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_table(fh, header, rows) -> None:
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(path: Path | None, header, rows) -> None:
    if path is None:
        _write_table(sys.stdout, header, rows)
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        _write_table(fh, header, rows)


def _substream(seed: int, *key: int) -> Generator:
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))


def _db(db_value: float) -> float:
    return 10.0 ** (db_value / 10.0)


def _logspace(lo: float, hi: float, points: int) -> list[float]:
    if points < 2 or lo <= 0.0 or hi <= lo:
        raise InvalidInputError("grid needs points >= 2 and 0 < lo < hi")
    return [float(v) for v in np.logspace(math.log10(lo), math.log10(hi), points)]


# ---------------------------------------------------------------------------
# figure protocols


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by the figure protocols.

    Fields left as None fall back to each protocol's documented default;
    the counts (trials, points, draws, n, m, s) must be positive.
    """

    experiment: str
    seed: int = DEFAULT_SEED
    trials: int | None = None
    points: int | None = None
    draws: int | None = None
    n: int | None = None
    m: int | None = None
    s: int | None = None
    sigma_n: float | None = None
    x_q: float | None = None
    workers: int = 1

    def __post_init__(self):
        for name in ("trials", "points", "draws", "n", "m", "s"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise InvalidInputError(f"{name} must be positive")


# additive noise levels used by the gamma figures, as (label, value)
_CN_LEVELS = (("0", 0.0), ("-5dB", _db(-5.0)), ("15dB", _db(15.0)))


def _rows_fig3(cfg: ExperimentConfig) -> list[tuple]:
    """Analytic gamma(c_e, c_n) curves; each includes its transition point."""
    s = cfg.s if cfg.s is not None else 10
    points = cfg.points if cfg.points is not None else 61
    rows = []
    for label, c_n in _CN_LEVELS:
        grid = sorted(set(_logspace(_db(-30), _db(30), points)) | {transition_ce(c_n)})
        for c_e in grid:
            rows.append((c_e, f"gamma_cn={label}", gamma_approx(c_e, c_n, s), 0.0))
    return rows


def _instance_gammas(rng: Generator, m: int, n: int, s: int, levels) -> list[float]:
    """gamma_ccrb of one random instance at each (c_e, c_n) of `levels`,
    from one model and one support factor.  Nothing of the instance
    outlives the call, so its A is freed before the next one is drawn."""
    A = generate_gaussian_matrix(m, n, rng)
    signal = generate_bernoulli_signal(n, s, rng)
    model = ProblemModel(A, 0.0, 0.0, s)
    gammas = []
    for c_e, c_n in levels:
        sibling = model.with_noise(*sigmas_for_levels(A, signal, c_e, c_n, s))
        gammas.append(ccrb_maximal(sibling, signal).gamma_ccrb)
    return gammas


def _rows_fig4(cfg: ExperimentConfig) -> list[tuple]:
    """gamma of random instances against the scalar approximation."""
    s = cfg.s if cfg.s is not None else 10
    n = cfg.n if cfg.n is not None else 20 * s
    m = cfg.m if cfg.m is not None else 10 * s
    points = cfg.points if cfg.points is not None else 21
    draws = cfg.draws if cfg.draws is not None else 3
    rows = []
    grid = _logspace(_db(-30), _db(30), points)
    for ci, (label, c_n) in enumerate(_CN_LEVELS):
        for pi, c_e in enumerate(grid):
            for di in range(draws):
                rng = _substream(cfg.seed, ci, pi, di)
                (gamma,) = _instance_gammas(rng, m, n, s, [(c_e, c_n)])
                rows.append((c_e, f"ccrb_cn={label}", gamma, 0.0))
        for c_e in _logspace(_db(-30), _db(30), 121):
            rows.append((c_e, f"approx_cn={label}", gamma_approx(c_e, c_n, s), 0.0))
    return rows


# the nine fig5 curves as (label, c_e, c_n)
_FIG5_LEVELS = [
    (f"ce={ce_db:g}dB_cn={cn_label}", _db(ce_db), c_n)
    for ce_db in (-15.0, -5.0, 5.0)
    for cn_label, c_n in (("0", 0.0), ("-15dB", _db(-15.0)), ("-5dB", _db(-5.0)))
]


def _rows_fig5(cfg: ExperimentConfig) -> list[tuple]:
    """gamma versus sparsity on a log-log scale, one curve per (c_e, c_n)."""
    s_values = (3, 10, 30, 100, 300)
    draws = cfg.draws if cfg.draws is not None else 3
    levels = [(c_e, c_n) for _, c_e, c_n in _FIG5_LEVELS]
    rows = []
    for si, s in enumerate(s_values):
        for di in range(draws):
            gammas = _instance_gammas(_substream(cfg.seed, si, di), 10 * s, 20 * s, s, levels)
            for (label, _, _), gamma in zip(_FIG5_LEVELS, gammas):
                rows.append((float(s), f"ccrb_{label}", gamma, 0.0))
    for label, c_e, c_n in _FIG5_LEVELS:
        for s in s_values:
            rows.append((float(s), f"approx_{label}", gamma_approx(c_e, c_n, s), 0.0))
    return rows


def _rows_fig6(cfg: ExperimentConfig) -> list[tuple]:
    """Normalized HCRB gap term against sigma_e^2 for several sparsities."""
    s_values = (1, 3, 10, 30, 100)
    sigma_n = cfg.sigma_n if cfg.sigma_n is not None else 0.1
    x_q = cfg.x_q if cfg.x_q is not None else 1000.0
    points = cfg.points if cfg.points is not None else 25
    grid = _logspace(1e-4, 1e2, points)
    rows = []
    for s in s_values:
        n = 10 * s
        A = np.eye(n)
        x = np.zeros(n)
        x[:s] = x_q
        signal = SparseSignal(x, tuple(range(s)))
        base = ProblemModel(A, 0.0, sigma_n, s)
        for se2 in grid:
            model = base.with_noise(math.sqrt(se2), sigma_n)
            rows.append((se2, f"s={s}", d_hcrb(model, signal) / (n - s), 0.0))
    return rows


def _rows_fig7(cfg: ExperimentConfig) -> list[tuple]:
    """HCRB gap term against the smallest entry for several sigma_e."""
    n = cfg.n if cfg.n is not None else 10
    sigma_n = cfg.sigma_n if cfg.sigma_n is not None else 0.1
    points = cfg.points if cfg.points is not None else 41
    sigma_e_values = (0.01, 0.1, 1.0, 10.0)
    grid = _logspace(1e-3, 1e3, points)
    base = ProblemModel(np.eye(n), 0.0, sigma_n, 1)
    rows = []
    for sigma_e in sigma_e_values:
        model = base.with_noise(sigma_e, sigma_n)
        for x_q in grid:
            x = np.zeros(n)
            x[0] = x_q
            signal = SparseSignal(x, (0,))
            rows.append((x_q, f"sigma_e={sigma_e:g}", d_hcrb(model, signal), 0.0))
    return rows


def _rows_fig_estimators(cfg: ExperimentConfig) -> list[tuple]:
    """Empirical MSE of the ML and locally unbiased estimators vs the bounds."""
    n = cfg.n if cfg.n is not None else 5
    trials = cfg.trials if cfg.trials is not None else 10_000
    points = cfg.points if cfg.points is not None else 25
    sigma_e_values = (0.1, 1.0)
    grid = _logspace(1e-3, 10.0, points)
    base = ProblemModel(np.eye(n), 0.0, 0.0, 1)
    x = np.zeros(n)
    x[0] = 1.0
    signal = SparseSignal(x, (0,))
    specs = (
        ("ml", EstimatorSpec.maximum_likelihood(1)),
        ("unbiased", EstimatorSpec.locally_unbiased(signal)),
    )
    rows = []
    for ei, sigma_e in enumerate(sigma_e_values):
        for pi, sigma_n in enumerate(grid):
            model = base.with_noise(sigma_e, sigma_n)
            for j, (name, spec) in enumerate(specs):
                summary = run_trials(
                    model,
                    signal,
                    spec,
                    trials,
                    cfg.seed,
                    workers=cfg.workers,
                    stream_key=(ei, pi, j),
                )
                rows.append(
                    (
                        sigma_n,
                        f"mse_{name}_sigma_e={sigma_e:g}",
                        summary.mse,
                        summary.std_error_mse,
                    )
                )
            rows.append(
                (
                    sigma_n,
                    f"hcrb_sigma_e={sigma_e:g}",
                    hcrb_unit_closed_form(model, signal).bound,
                    0.0,
                )
            )
            rows.append(
                (
                    sigma_n,
                    f"ccrb_sigma_e={sigma_e:g}",
                    ccrb_maximal(model, signal).bound,
                    0.0,
                )
            )
    return rows


def _rows_table1(cfg: ExperimentConfig) -> list[tuple]:
    """Least-squares versus noise-exploiting estimation at high dimension.

    The sensing matrix is the identity, so measurements are drawn from
    the equivalent law without materializing it, and both estimators map
    the same blocks of draws.  A squared error is added to its running
    sum in trial order across the whole run.
    """
    n = cfg.n if cfg.n is not None else 10_000
    trials = cfg.trials if cfg.trials is not None else 10_000
    sigma_e = 0.01
    x = np.zeros(n)
    x[0] = 1.0
    sx = sigma_e  # sigma_x^2 = sigma_e^2 ||x||^2, sigma_n = 0
    kernels = {"ls": lambda Y: _ml_unit(Y, 1), "ne": _noise_exploiting}
    sums = dict.fromkeys(kernels, 0.0)
    moments = dict.fromkeys(kernels, (0, 0.0, 0.0))
    for lo in range(0, trials, TRIAL_CHUNK):
        qs = {key: [] for key in kernels}
        for _, Y in draw_blocks(x, sx, cfg.seed, (), lo, min(lo + TRIAL_CHUNK, trials)):
            for key, kernel in kernels.items():
                xhat, errors, _ = kernel(Y)
                if errors:
                    raise errors[min(errors)]
                q = row_dot(xhat - x).tolist()
                qs[key] += q
                sums[key] = functools.reduce(operator.add, q, sums[key])
        for key in kernels:
            moments[key] = merge_moments(moments[key], chunk_moments(qs[key]))
    rows = [(float(n), "ls_theoretical", sigma_e**2, 0.0)]
    for key, label in zip(kernels, ("ls_empirical", "noise_exploiting_empirical")):
        rows.append((float(n), label, *mse_stats(sums[key], moments[key])))
    return rows


_FIGURES = {
    "fig3": _rows_fig3,
    "fig4": _rows_fig4,
    "fig5": _rows_fig5,
    "fig6": _rows_fig6,
    "fig7": _rows_fig7,
    "fig-estimators": _rows_fig_estimators,
    "table1": _rows_table1,
}


def figure_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Rows (x_value, curve_id, value, std_error) for a named protocol."""
    try:
        fn = _FIGURES[cfg.experiment]
    except KeyError:
        raise InvalidInputError(f"unknown figure id {cfg.experiment!r}") from None
    return fn(cfg)


# ---------------------------------------------------------------------------
# configuration file


def load_config(path: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment, keys may use dashes.

    The keys are the long options of the subcommands, except --config.
    """
    keys = _config_keys(build_parser())
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError:
        raise InvalidInputError(f"{path}: config file is not UTF-8 text") from None
    values: dict[str, str] = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
            )
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise InvalidInputError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def _preset_flags(args) -> list[str]:
    """--seed from the environment, then one flag per config key that the
    command has an option for.  They go before the user's own flags and
    argparse keeps the last value it reads, so a flag beats the config file,
    which beats the environment, which beats the option's default.  The
    '=' form keeps a value such as '-1,0,0' from reading as a flag."""
    flags = []
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        flags.append(f"--seed={env}")
    if args.config:
        for key, value in load_config(args.config).items():
            if hasattr(args, key):
                flags.append(f"--{key.replace('_', '-')}={value}")
    return flags


def _out_path(args, default_name: str | None = None) -> Path | None:
    output = args.output if args.output is not None else default_name
    # joining an absolute output path keeps it as it is
    return None if output is None else Path(args.out_dir) / output


# ---------------------------------------------------------------------------
# instance construction shared by bounds and simulate


def _floats(spec: str) -> list[float]:
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"cannot parse numbers in {spec!r}") from None


def _read_csv(path: str, ndmin: int) -> np.ndarray:
    try:
        return np.loadtxt(path, delimiter=",", ndmin=ndmin)
    except ValueError:
        raise InvalidInputError(f"cannot parse numbers in {path!r}") from None


def _parse_vector(spec: str, n: int) -> np.ndarray:
    x = _read_csv(spec, 1).ravel() if os.path.exists(spec) else np.array(_floats(spec))
    if x.size != n:
        raise InvalidInputError(f"signal has {x.size} entries, expected n={n}")
    return x


def _build_matrix(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    if kind == "identity":
        if m != n or n < 1:
            raise InvalidInputError("identity matrix requires m = n >= 1")
        return np.eye(n)
    if kind == "gaussian":
        return generate_gaussian_matrix(m, n, _substream(seed, 0))
    if not os.path.isfile(kind):
        raise InvalidInputError(
            f"matrix must be identity, gaussian or a CSV file, got {kind!r}"
        )
    A = _read_csv(kind, 2)
    if A.shape != (m, n):
        raise InvalidInputError(
            f"matrix file has shape {A.shape}, expected ({m}, {n})"
        )
    return A


def _parse_grid(spec: str) -> list[float]:
    """A comma list, or log:LO:HI:POINTS for a log-spaced grid."""
    if not spec.startswith("log:"):
        grid = _floats(spec)
        if not grid:
            raise InvalidInputError("grid is empty")
        return grid
    try:
        _, lo, hi, points = spec.split(":")
        lo, hi, points = float(lo), float(hi), int(points)
    except ValueError:
        raise InvalidInputError("grid must look like log:LO:HI:POINTS") from None
    return _logspace(lo, hi, points)


def _parse_estimators(spec: str, model: ProblemModel, signal: SparseSignal):
    names = [tok.strip() for tok in spec.split(",") if tok.strip() != ""]
    out = []
    for name in names:
        kind = next((k for k, short in _KIND_NAMES.items() if name in (k, short)), None)
        if kind is None:
            raise InvalidInputError(f"unknown estimator {name!r}")
        if kind == "oracle":
            out.append(EstimatorSpec.oracle(signal.support))
        elif kind == "maximum_likelihood":
            out.append(EstimatorSpec.maximum_likelihood(model.s))
        elif kind == "locally_unbiased":
            out.append(EstimatorSpec.locally_unbiased(signal))
        else:
            out.append(EstimatorSpec.noise_exploiting())
    return out


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args) -> None:
    A = _build_matrix(args.matrix, args.m, args.n, args.seed)
    signal = SparseSignal(_parse_vector(args.x, args.n))
    model = ProblemModel(A, args.sigma_e, args.sigma_n, args.s)
    if args.which == "ccrb":
        rep = ccrb_bound(model, signal)
        header = BOUNDS_HEADER
        row = (rep.bound, rep.first_term, rep.d_ccrb, rep.gamma_ccrb, rep.regime)
    else:
        rep = hcrb_unit_closed_form(model, signal)
        header = HCRB_BOUNDS_HEADER
        row = (
            rep.bound,
            rep.support_part,
            rep.nonsupport_part,
            rep.nonsupport_part / rep.support_part,
            "maximal",
        )
    _emit(_out_path(args), header, [row])


def cmd_figure(args) -> None:
    knobs = {
        f.name: getattr(args, f.name)
        for f in fields(ExperimentConfig)
        if f.name != "experiment"
    }
    rows = figure_rows(ExperimentConfig(experiment=args.id, **knobs))
    path = _out_path(args, f"{args.id}.csv")
    _emit(path, FIGURE_HEADER, rows)
    print(path)


def _biased_regime(mse: float, std_error: float, hcrb: float | None) -> bool:
    """The biased_regime flag: the MSE is below the HCRB by more than three
    standard errors, so Monte Carlo noise alone does not explain it (the
    margin of acceptance criterion 11).  False when there is no HCRB."""
    return hcrb is not None and mse < hcrb - 3.0 * std_error


def cmd_simulate(args) -> None:
    A = _build_matrix(args.matrix, args.m, args.n, args.seed)
    if args.x is not None:
        signal = SparseSignal(_parse_vector(args.x, args.n))
    else:
        signal = generate_bernoulli_signal(args.n, args.s, _substream(args.seed, 1))
    grid = _parse_grid(args.sigma_n)
    base = ProblemModel(A, args.sigma_e, grid[0], args.s)
    points = [({"sigma_n": sn}, base.with_noise(args.sigma_e, sn), signal) for sn in grid]
    raw = sweep(
        points,
        _parse_estimators(args.estimators, base, signal),
        args.trials,
        args.seed,
        workers=args.workers,
    )
    rows = []
    for r in raw:
        rel_gap = None
        if r["estimator"] == "oracle" and r["oracle_theory"]:
            rel_gap = abs(r["mse"] - r["oracle_theory"]) / r["oracle_theory"]
        biased = None
        if r["estimator"]:
            biased = _biased_regime(r["mse"], r["std_error"], r["hcrb"])
        # the sweep row carries every column before rel_gap under its name
        rows.append((*(r[col] for col in SIMULATE_HEADER[:-2]), rel_gap, biased))
    _emit(_out_path(args), SIMULATE_HEADER, rows)


# ---------------------------------------------------------------------------
# parser


def _seed(text: str) -> int:
    """A nonnegative integer, as SeedSequence requires."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=_seed, default=DEFAULT_SEED, help="master random seed")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out-dir", dest="out_dir", default=".", help="output directory")
    p.add_argument("--output", default=None, help="output file (under --out-dir)")


def _add_instance(p: argparse.ArgumentParser) -> None:
    """The instance flags that bounds and simulate share."""
    for flag in ("--n", "--m", "--s"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--sigma-e", dest="sigma_e", type=float, required=True)
    p.add_argument(
        "--matrix", default="identity", help="identity, gaussian, or a CSV file path"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebounds",
        description="Estimation lower bounds for sparse signals under "
        "sensing-matrix perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="print one bound row as CSV")
    pb.add_argument("which", choices=("ccrb", "hcrb"))
    _add_instance(pb)
    pb.add_argument("--sigma-n", dest="sigma_n", type=float, required=True)
    pb.add_argument("--x", required=True, help="comma separated values or a file")
    _add_common(pb)
    pb.set_defaults(func=cmd_bounds)

    pf = sub.add_parser("figure", help="write one experiment protocol as CSV")
    pf.add_argument("id", choices=sorted(_FIGURES))
    for flag in ("--trials", "--points", "--draws", "--n", "--m", "--s"):
        pf.add_argument(flag, type=int)  # None: the protocol's own default
    pf.add_argument("--sigma-n", dest="sigma_n", type=float)
    pf.add_argument("--x-q", dest="x_q", type=float)
    pf.add_argument("--workers", type=int, default=1)
    _add_common(pf)
    pf.set_defaults(func=cmd_figure)

    ps = sub.add_parser("simulate", help="estimator MSE against the bounds")
    _add_instance(ps)
    ps.add_argument(
        "--sigma-n",
        dest="sigma_n",
        default="log:1e-3:10:25",
        help="grid: comma list or log:LO:HI:POINTS (default %(default)s)",
    )
    ps.add_argument("--x", default=None, help="signal values; random if omitted")
    ps.add_argument(
        "--estimators",
        default="oracle",
        help="comma list of oracle, ml, unbiased, noise (default %(default)s)",
    )
    ps.add_argument("--trials", type=int, default=10_000)
    ps.add_argument("--workers", type=int, default=1)
    _add_common(ps)
    ps.set_defaults(func=cmd_simulate)

    return parser


def _config_keys(parser: argparse.ArgumentParser) -> set[str]:
    """Every subcommand's long options, as config keys, except --config."""
    (commands,) = parser._subparsers._group_actions
    actions = [a for p in commands.choices.values() for a in p._actions]
    return {a.dest for a in actions if a.option_strings} - {"help", "config"}


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv)
        preset = _preset_flags(args)
        if preset:
            # parse again with the environment and config values first, so
            # argparse checks each one with its option's own type
            at = argv.index(args.command) + 1
            args = parser.parse_args(argv[:at] + preset + argv[at:])
        args.func(args)
    except SystemExit as exc:
        # argparse exits itself on usage errors; keep main() returning
        return int(exc.code or 0)
    except MathDomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SparseBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
