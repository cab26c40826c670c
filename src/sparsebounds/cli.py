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
import math
import os
import sys
from dataclasses import dataclass
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
from .estimators import _KIND_NAMES, EstimatorSpec, _ml_unit, _noise_exploiting
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
    merge_moments,
    mse_stats,
    run_trials,
    sweep,
    trial_stream,
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

    Fields left as None fall back to each protocol's documented default.
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
                A = generate_gaussian_matrix(m, n, rng)
                signal = generate_bernoulli_signal(n, s, rng)
                sigma_e, sigma_n = sigmas_for_levels(A, signal, c_e, c_n, s)
                rep = ccrb_maximal(ProblemModel(A, sigma_e, sigma_n, s), signal)
                rows.append((c_e, f"ccrb_cn={label}", rep.gamma_ccrb, 0.0))
        for c_e in _logspace(_db(-30), _db(30), 121):
            rows.append((c_e, f"approx_cn={label}", gamma_approx(c_e, c_n, s), 0.0))
    return rows


_FIG5_CE_DB = (-15.0, -5.0, 5.0)
_FIG5_CN = (("0", 0.0), ("-15dB", _db(-15.0)), ("-5dB", _db(-5.0)))


def _rows_fig5(cfg: ExperimentConfig) -> list[tuple]:
    """gamma versus sparsity on a log-log scale, one curve per (c_e, c_n)."""
    s_values = (3, 10, 30, 100, 300)
    draws = cfg.draws if cfg.draws is not None else 3
    rows = []
    for si, s in enumerate(s_values):
        n, m = 20 * s, 10 * s
        for di in range(draws):
            rng = _substream(cfg.seed, si, di)
            A = generate_gaussian_matrix(m, n, rng)
            signal = generate_bernoulli_signal(n, s, rng)
            for ce_db in _FIG5_CE_DB:
                c_e = _db(ce_db)
                for cn_label, c_n in _FIG5_CN:
                    sigma_e, sigma_n = sigmas_for_levels(A, signal, c_e, c_n, s)
                    rep = ccrb_maximal(ProblemModel(A, sigma_e, sigma_n, s), signal)
                    rows.append(
                        (
                            float(s),
                            f"ccrb_ce={ce_db:g}dB_cn={cn_label}",
                            rep.gamma_ccrb,
                            0.0,
                        )
                    )
    for ce_db in _FIG5_CE_DB:
        for cn_label, c_n in _FIG5_CN:
            for s in s_values:
                rows.append(
                    (
                        float(s),
                        f"approx_ce={ce_db:g}dB_cn={cn_label}",
                        gamma_approx(_db(ce_db), c_n, s),
                        0.0,
                    )
                )
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
        for se2 in grid:
            model = ProblemModel(A, math.sqrt(se2), sigma_n, s)
            rows.append((se2, f"s={s}", d_hcrb(model, signal) / (n - s), 0.0))
    return rows


def _rows_fig7(cfg: ExperimentConfig) -> list[tuple]:
    """HCRB gap term against the smallest entry for several sigma_e."""
    n = cfg.n if cfg.n is not None else 10
    sigma_n = cfg.sigma_n if cfg.sigma_n is not None else 0.1
    points = cfg.points if cfg.points is not None else 41
    sigma_e_values = (0.01, 0.1, 1.0, 10.0)
    A = np.eye(n)
    rows = []
    for sigma_e in sigma_e_values:
        for x_q in _logspace(1e-3, 1e3, points):
            x = np.zeros(n)
            x[0] = x_q
            signal = SparseSignal(x, (0,))
            model = ProblemModel(A, sigma_e, sigma_n, 1)
            rows.append((x_q, f"sigma_e={sigma_e:g}", d_hcrb(model, signal), 0.0))
    return rows


def _rows_fig_estimators(cfg: ExperimentConfig) -> list[tuple]:
    """Empirical MSE of the ML and locally unbiased estimators vs the bounds."""
    n = cfg.n if cfg.n is not None else 5
    trials = cfg.trials if cfg.trials is not None else 10_000
    points = cfg.points if cfg.points is not None else 25
    sigma_e_values = (0.1, 1.0)
    grid = _logspace(1e-3, 10.0, points)
    A = np.eye(n)
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
            model = ProblemModel(A, sigma_e, sigma_n, 1)
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
    the equivalent law without materializing it, and both estimators run
    on the same draw.
    """
    n = cfg.n if cfg.n is not None else 10_000
    trials = cfg.trials if cfg.trials is not None else 10_000
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    sigma_e = 0.01
    x = np.zeros(n)
    x[0] = 1.0
    sx = sigma_e  # sigma_x^2 = sigma_e^2 ||x||^2, sigma_n = 0
    keys = ("ls", "ne")
    sums = dict.fromkeys(keys, 0.0)
    moments = dict.fromkeys(keys, (0, 0.0, 0.0))
    for lo in range(0, trials, TRIAL_CHUNK):
        qs = {key: [] for key in keys}
        for t in range(lo, min(lo + TRIAL_CHUNK, trials)):
            y = x + sx * trial_stream(cfg.seed, t).standard_normal(n)
            for key, (xhat, _) in zip(keys, (_ml_unit(y, 1), _noise_exploiting(y))):
                err = xhat - x
                q = float(err @ err)
                qs[key].append(q)
                sums[key] += q
        for key in keys:
            moments[key] = merge_moments(moments[key], chunk_moments(qs[key]))
    rows = [(float(n), "ls_theoretical", sigma_e**2, 0.0)]
    for key, label in zip(keys, ("ls_empirical", "noise_exploiting_empirical")):
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
# configuration file and argument resolution

_CONFIG_TYPES = {
    "trials": int,
    "seed": int,
    "points": int,
    "draws": int,
    "n": int,
    "m": int,
    "s": int,
    "workers": int,
    "sigma_e": float,
    "sigma_n": float,
    "x_q": float,
    "out_dir": str,
    "output": str,
    "matrix": str,
    "x": str,
    "estimators": str,
}


def load_config(path: str) -> dict[str, str]:
    """Flat key = value file; '#' starts a comment, keys may use dashes."""
    values: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InvalidInputError(
                    f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}"
                )
            key, value = line.split("=", 1)
            key = key.strip().replace("-", "_")
            if key not in _CONFIG_TYPES:
                raise InvalidInputError(f"{path}:{lineno}: unknown key {key!r}")
            values[key] = value.strip()
    return values


def _resolve(args, name: str, default):
    """Flag > config file > default (seed also consults the environment)."""
    value = getattr(args, name, None)
    if value is not None:
        return value
    cfg = getattr(args, "_config_values", {})
    if name in cfg:
        return _CONFIG_TYPES[name](cfg[name])
    if name == "seed":
        env = os.environ.get(SEED_ENV_VAR)
        if env is not None:
            try:
                return int(env)
            except ValueError:
                raise InvalidInputError(
                    f"{SEED_ENV_VAR} must be an integer, got {env!r}"
                ) from None
    return default


def _load_args_config(args) -> None:
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    args._config_values = cfg


def _out_path(args, default_name: str | None) -> Path | None:
    out_dir = Path(_resolve(args, "out_dir", "."))
    output = _resolve(args, "output", default_name)
    if output is None:
        return None
    path = Path(output)
    return path if path.is_absolute() else out_dir / path


# ---------------------------------------------------------------------------
# instance construction shared by bounds and simulate


def _parse_vector(spec: str, n: int) -> np.ndarray:
    if os.path.exists(spec):
        x = np.loadtxt(spec, delimiter=",", ndmin=1).ravel()
    else:
        try:
            x = np.array([float(tok) for tok in spec.split(",") if tok.strip() != ""])
        except ValueError:
            raise InvalidInputError(f"cannot parse signal {spec!r}") from None
    if x.size != n:
        raise InvalidInputError(f"signal has {x.size} entries, expected n={n}")
    return x


def _build_matrix(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    if kind == "identity":
        if m != n:
            raise InvalidInputError("identity matrix requires m = n")
        return np.eye(n)
    if kind == "gaussian":
        return generate_gaussian_matrix(m, n, _substream(seed, 0))
    A = np.loadtxt(kind, delimiter=",", ndmin=2)
    if A.shape != (m, n):
        raise InvalidInputError(
            f"matrix file has shape {A.shape}, expected ({m}, {n})"
        )
    return A


def _parse_grid(spec: str) -> list[float]:
    if spec.startswith("log:"):
        parts = spec.split(":")
        if len(parts) != 4:
            raise InvalidInputError("grid must look like log:LO:HI:POINTS")
        lo, hi, points = float(parts[1]), float(parts[2]), int(parts[3])
        return _logspace(lo, hi, points)
    try:
        return [float(tok) for tok in spec.split(",") if tok.strip() != ""]
    except ValueError:
        raise InvalidInputError(f"cannot parse grid {spec!r}") from None


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
    _load_args_config(args)
    seed = _resolve(args, "seed", DEFAULT_SEED)
    A = _build_matrix(args.matrix, args.m, args.n, seed)
    x = _parse_vector(args.x, args.n)
    signal = SparseSignal(x)
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
    _emit(_out_path(args, None), header, [row])


def cmd_figure(args) -> None:
    _load_args_config(args)
    cfg = ExperimentConfig(
        experiment=args.id,
        seed=_resolve(args, "seed", DEFAULT_SEED),
        trials=_resolve(args, "trials", None),
        points=_resolve(args, "points", None),
        draws=_resolve(args, "draws", None),
        n=_resolve(args, "n", None),
        m=_resolve(args, "m", None),
        s=_resolve(args, "s", None),
        sigma_n=_resolve(args, "sigma_n", None),
        x_q=_resolve(args, "x_q", None),
        workers=_resolve(args, "workers", 1),
    )
    rows = figure_rows(cfg)
    path = _out_path(args, f"{args.id}.csv")
    _emit(path, FIGURE_HEADER, rows)
    if path is not None:
        print(path)


def _biased_regime(mse: float, std_error: float, hcrb: float | None) -> bool:
    """The biased_regime flag: the MSE is below the HCRB by more than three
    standard errors, so Monte Carlo noise alone does not explain it (the
    margin of acceptance criterion 11).  False when there is no HCRB."""
    return hcrb is not None and mse < hcrb - 3.0 * std_error


def cmd_simulate(args) -> None:
    _load_args_config(args)
    seed = _resolve(args, "seed", DEFAULT_SEED)
    trials = _resolve(args, "trials", 10_000)
    workers = _resolve(args, "workers", 1)
    matrix = _resolve(args, "matrix", "identity")
    A = _build_matrix(matrix, args.m, args.n, seed)
    if args.x is not None:
        signal = SparseSignal(_parse_vector(args.x, args.n))
    else:
        signal = generate_bernoulli_signal(args.n, args.s, _substream(seed, 1))
    # the sigma_n key is a grid spec here, so bypass the float conversion
    grid_spec = args.sigma_n
    if grid_spec is None:
        grid_spec = args._config_values.get("sigma_n", "log:1e-3:10:25")
    grid = _parse_grid(grid_spec)
    models = [ProblemModel(A, args.sigma_e, sn, args.s) for sn in grid]
    estimators = _parse_estimators(
        _resolve(args, "estimators", "oracle"), models[0], signal
    )
    raw = sweep(
        [({"sigma_n": sn}, mdl, signal) for sn, mdl in zip(grid, models)],
        estimators,
        trials,
        seed,
        workers=workers,
    )
    rows = []
    for r in raw:
        rel_gap = None
        if r["estimator"] == "oracle" and r["oracle_theory"]:
            rel_gap = abs(r["mse"] - r["oracle_theory"]) / r["oracle_theory"]
        biased = None
        if r["estimator"]:
            biased = _biased_regime(r["mse"], r["std_error"], r["hcrb"])
        rows.append(
            (
                r["sigma_n"],
                r["estimator"],
                r["mse"],
                r["std_error"],
                r["bias_l2"],
                r["trials"],
                r["failures"],
                r["ccrb"],
                r["hcrb"],
                r["oracle_theory"],
                rel_gap,
                biased,
            )
        )
    _emit(_out_path(args, None), SIMULATE_HEADER, rows)


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None, help="master random seed")
    p.add_argument("--config", default=None, help="flat key = value config file")
    p.add_argument("--out-dir", dest="out_dir", default=None, help="output directory")
    p.add_argument("--output", default=None, help="output file (under --out-dir)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebounds",
        description="Estimation lower bounds for sparse signals under "
        "sensing-matrix perturbation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("bounds", help="print one bound row as CSV")
    pb.add_argument("which", choices=("ccrb", "hcrb"))
    pb.add_argument("--n", type=int, required=True)
    pb.add_argument("--m", type=int, required=True)
    pb.add_argument("--s", type=int, required=True)
    pb.add_argument("--sigma-e", dest="sigma_e", type=float, required=True)
    pb.add_argument("--sigma-n", dest="sigma_n", type=float, required=True)
    pb.add_argument("--x", required=True, help="comma separated values or a file")
    pb.add_argument(
        "--matrix",
        default="identity",
        help="identity, gaussian, or a CSV file path",
    )
    _add_common(pb)
    pb.set_defaults(func=cmd_bounds)

    pf = sub.add_parser("figure", help="write one experiment protocol as CSV")
    pf.add_argument("id", choices=sorted(_FIGURES))
    pf.add_argument("--trials", type=int, default=None)
    pf.add_argument("--points", type=int, default=None)
    pf.add_argument("--draws", type=int, default=None)
    pf.add_argument("--n", type=int, default=None)
    pf.add_argument("--m", type=int, default=None)
    pf.add_argument("--s", type=int, default=None)
    pf.add_argument("--sigma-n", dest="sigma_n", type=float, default=None)
    pf.add_argument("--x-q", dest="x_q", type=float, default=None)
    pf.add_argument("--workers", type=int, default=None)
    _add_common(pf)
    pf.set_defaults(func=cmd_figure)

    ps = sub.add_parser("simulate", help="estimator MSE against the bounds")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--m", type=int, required=True)
    ps.add_argument("--s", type=int, required=True)
    ps.add_argument("--sigma-e", dest="sigma_e", type=float, required=True)
    ps.add_argument(
        "--sigma-n",
        dest="sigma_n",
        default=None,
        help="grid: comma list or log:LO:HI:POINTS (default log:1e-3:10:25)",
    )
    ps.add_argument("--x", default=None, help="signal values; random if omitted")
    ps.add_argument(
        "--matrix", default=None, help="identity, gaussian, or a CSV file path"
    )
    ps.add_argument(
        "--estimators",
        default=None,
        help="comma list of oracle, ml, unbiased, noise (default oracle)",
    )
    ps.add_argument("--trials", type=int, default=None)
    ps.add_argument("--workers", type=int, default=None)
    _add_common(ps)
    ps.set_defaults(func=cmd_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits itself on usage errors; keep main() returning
        return int(exc.code or 0)
    try:
        args.func(args)
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
