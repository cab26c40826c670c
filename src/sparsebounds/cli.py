"""The command line: bounds, figure and simulate write CSV rows at '%.17g'.
Exit codes: 0 success, a package error's exit_code, 4 I/O failure."""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .ccrb import ccrb_bound, ccrb_maximal, gamma_approx, sigmas_at_levels, transition_ce
from .errors import (DegenerateModelError, InvalidInputError, NoUnbiasedEstimatorError,
                     SingularMatrixError, SparseBoundsError)
from .estimators import EstimatorSpec
from .hcrb import d_hcrb, hcrb_unit_closed_form
from .model import (ProblemModel, SparseSignal, checked_count, checked_seed,
                    generate_bernoulli_signal, generate_gaussian_matrix)
from .montecarlo import (TRIAL_CHUNK, chunk_moments, key_stream, merge_moments, run_trials,
                         std_error_of_mean)

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
    """Knobs of the figure protocols, None taking the protocol's default
    (_FIGURES).  Raises InvalidInputError unless every count is an integer
    >= 1 (checked_count) and the seed an integer >= 0 (checked_seed)."""

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

    def __post_init__(self):
        checked_seed("seed", self.seed)
        for name in ("trials", "points", "draws", "n", "m", "s"):
            value = getattr(self, name)
            if value is not None:
                checked_count(name, value)


# additive noise levels used by the gamma figures, as (label, value)
_CN_LEVELS = (("0", 0.0), ("-5dB", _db(-5.0)), ("15dB", _db(15.0)))


def _rows_fig3(cfg: ExperimentConfig) -> list[tuple]:
    """Analytic gamma(c_e, c_n) curves; each includes its transition point."""
    rows = []
    for label, c_n in _CN_LEVELS:
        grid = sorted(set(_logspace(_db(-30), _db(30), cfg.points)) | {transition_ce(c_n)})
        for c_e in grid:
            rows.append((c_e, f"gamma_cn={label}", gamma_approx(c_e, c_n, cfg.s), 0.0))
    return rows


def _instance_gammas(rng: np.random.Generator, m: int, s: int, levels) -> list[float]:
    """gamma_ccrb at each (c_e, c_n) of `levels` of one random instance,
    drawn as its m x s A_S and x_S alone (README)."""
    model = ProblemModel(generate_gaussian_matrix(m, s, rng), 0.0, 0.0, s)
    signal = generate_bernoulli_signal(s, s, rng)
    return [
        ccrb_maximal(model.with_noise(*sigmas), signal).gamma_ccrb
        for sigmas in sigmas_at_levels(model.A, signal, levels, s)
    ]


def _rows_fig4(cfg: ExperimentConfig) -> list[tuple]:
    """gamma of random instances against the scalar approximation."""
    s = cfg.s
    m = cfg.m if cfg.m is not None else 10 * s  # the one default derived from s
    rows = []
    grid = _logspace(_db(-30), _db(30), cfg.points)
    for ci, (label, c_n) in enumerate(_CN_LEVELS):
        for pi, c_e in enumerate(grid):
            for di in range(cfg.draws):
                rng = key_stream(cfg.seed, (ci, pi, di))
                (gamma,) = _instance_gammas(rng, m, s, [(c_e, c_n)])
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
    levels = [(c_e, c_n) for _, c_e, c_n in _FIG5_LEVELS]
    rows = []
    for si, s in enumerate(s_values):
        for di in range(cfg.draws):
            gammas = _instance_gammas(key_stream(cfg.seed, (si, di)), 10 * s, s, levels)
            for (label, _, _), gamma in zip(_FIG5_LEVELS, gammas):
                rows.append((float(s), f"ccrb_{label}", gamma, 0.0))
    for label, c_e, c_n in _FIG5_LEVELS:
        for s in s_values:
            rows.append((float(s), f"approx_{label}", gamma_approx(c_e, c_n, s), 0.0))
    return rows


def _rows_fig6(cfg: ExperimentConfig) -> list[tuple]:
    """Normalized HCRB gap term against sigma_e^2 for several sparsities."""
    s_values = (1, 3, 10, 30, 100)
    grid = _logspace(1e-4, 1e2, cfg.points)
    rows = []
    for s in s_values:
        n = 10 * s
        A = np.eye(n)
        x = np.zeros(n)
        x[:s] = cfg.x_q
        signal = SparseSignal(x, tuple(range(s)))
        base = ProblemModel(A, 0.0, cfg.sigma_n, s)
        for se2 in grid:
            model = base.with_noise(math.sqrt(se2), cfg.sigma_n)
            rows.append((se2, f"s={s}", d_hcrb(model, signal) / (n - s), 0.0))
    return rows


def _rows_fig7(cfg: ExperimentConfig) -> list[tuple]:
    """HCRB gap term against the smallest entry for several sigma_e."""
    grid = _logspace(1e-3, 1e3, cfg.points)
    base = ProblemModel(np.eye(cfg.n), 0.0, cfg.sigma_n, 1)
    rows = []
    for sigma_e in (0.01, 0.1, 1.0, 10.0):
        model = base.with_noise(sigma_e, cfg.sigma_n)
        for x_q in grid:
            x = np.zeros(cfg.n)
            x[0] = x_q
            signal = SparseSignal(x, (0,))
            rows.append((x_q, f"sigma_e={sigma_e:g}", d_hcrb(model, signal), 0.0))
    return rows


def _rows_fig_estimators(cfg: ExperimentConfig) -> list[tuple]:
    """Empirical MSE of the ML and locally unbiased estimators against the
    bounds, every bound before any trial (README)."""
    grid = _logspace(1e-3, 10.0, cfg.points)
    base = ProblemModel(np.eye(cfg.n), 0.0, 0.0, 1)
    x = np.zeros(cfg.n)
    x[0] = 1.0
    signal = SparseSignal(x, (0,))
    specs = [EstimatorSpec.maximum_likelihood(1), EstimatorSpec.locally_unbiased(signal)]
    points = [(ei, pi, base.with_noise(sigma_e, sn))
              for ei, sigma_e in enumerate((0.1, 1.0)) for pi, sn in enumerate(grid)]
    bounds = [hcrb_unit_closed_form(model, signal) for _, _, model in points]
    rows = []
    for (ei, pi, model), hcrb in zip(points, bounds):
        sn, label = grid[pi], f"sigma_e={model.sigma_e:g}"
        for j, spec in enumerate(specs):
            out = run_trials(model, signal, spec, cfg.trials, cfg.seed, (ei, pi, j))
            curve = f"mse_{spec.name}_{label}"
            if out.failures:  # the CSV has no column for them
                print(f"{curve} sigma_n={_fmt(sn)}: {out.failures}/{out.trials} trials failed",
                      file=sys.stderr)
            rows.append((sn, curve, out.mse, out.std_error_mse))
        rows.append((sn, f"hcrb_{label}", hcrb.bound, 0.0))
        rows.append((sn, f"ccrb_{label}", hcrb.support_part, 0.0))
    return rows


def _rows_table1(cfg: ExperimentConfig) -> list[tuple]:
    """Least squares against noise-exploiting estimation at high dimension,
    each trial drawing only z_0 and Q ~ chi^2_{n-1} (README), a chunk at a
    time from key_stream(seed, ()), reduced as run_maps reduces."""
    sigma_e = 0.01
    rng = key_stream(cfg.seed, ())
    ls, ne = (0, 0.0, 0.0), (0, 0.0, 0.0)
    for lo in range(0, cfg.trials, TRIAL_CHUNK):
        k = min(TRIAL_CHUNK, cfg.trials - lo)
        y0 = 1.0 + sigma_e * rng.standard_normal(k)
        q = rng.chisquare(cfg.n - 1, k) if cfg.n > 1 else np.zeros(k)
        ls_err = y0 - 1.0
        ne_err = (y0 * y0 + sigma_e**2 * q) / (2.0 * y0) - 1.0
        ls = merge_moments(ls, chunk_moments(ls_err * ls_err))
        ne = merge_moments(ne, chunk_moments(ne_err * ne_err))
    return [
        (float(cfg.n), "ls_theoretical", sigma_e**2, 0.0),
        (float(cfg.n), "ls_empirical", ls[1], std_error_of_mean(ls)),
        (float(cfg.n), "noise_exploiting_empirical", ne[1], std_error_of_mean(ne)),
    ]


# figure id -> (row function, {knob: default}); a protocol reads only the
# knobs listed here (fig4 also reads m, whose default follows s)
_FIGURES = {
    "fig3": (_rows_fig3, {"s": 10, "points": 61}),
    "fig4": (_rows_fig4, {"s": 10, "points": 21, "draws": 3}),
    "fig5": (_rows_fig5, {"draws": 3}),
    "fig6": (_rows_fig6, {"sigma_n": 0.1, "x_q": 1000.0, "points": 25}),
    "fig7": (_rows_fig7, {"n": 10, "sigma_n": 0.1, "points": 41}),
    "fig-estimators": (_rows_fig_estimators, {"n": 5, "trials": 10_000, "points": 25}),
    "table1": (_rows_table1, {"n": 10_000, "trials": 10_000}),
}


def figure_rows(cfg: ExperimentConfig) -> list[tuple]:
    """Rows (x_value, curve_id, value, std_error) for a named protocol,
    its unset knobs filled with the protocol's defaults."""
    try:
        fn, defaults = _FIGURES[cfg.experiment]
    except KeyError:
        raise InvalidInputError(f"unknown figure id {cfg.experiment!r}") from None
    unset = {k: v for k, v in defaults.items() if getattr(cfg, k) is None}
    return fn(replace(cfg, **unset))


# ---------------------------------------------------------------------------
# configuration file


def load_config(path: str) -> dict[str, str]:
    """The key = value pairs of a config file, keys with underscores.
    Raises InvalidInputError on a line that is not one, a key that is no
    subcommand's long option, or a file that is not UTF-8 text."""
    keys = frozenset().union(*_command_options().values())
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
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


def _preset_flags(argv: list[str]) -> list[str]:
    """The flags main puts between the command name and the user's own:
    --seed from the environment, then one per config key the command has
    an option for; none with -h or --help, or no known command."""
    options = _command_options().get(argv[0]) if argv else None
    try:
        pre = _preset_finder().parse_known_args(argv[1:])[0]
    except argparse.ArgumentError:  # such as --config without a value,
        return []  # which the one parse reports
    if options is None or pre.help:
        return []
    # argparse keeps the last value it reads, so a flag beats these; the '=' form
    # keeps a value such as '-1,0,0' from reading as a flag
    env = os.environ.get(SEED_ENV_VAR)
    flags = [] if env is None else [f"--seed={env}"]
    config = load_config(pre.config) if pre.config else {}
    return flags + [f"--{key.replace('_', '-')}={value}"
                    for key, value in config.items() if key in options]


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
    x = _read_csv(spec, 1).ravel() if os.path.isfile(spec) else np.array(_floats(spec))
    if x.size != n:
        raise InvalidInputError(f"signal has {x.size} entries, expected n={n}")
    return x


def _build_matrix(kind: str, m: int, n: int, seed: int) -> np.ndarray:
    if kind == "identity":
        if m != n or n < 1:
            raise InvalidInputError("identity matrix requires m = n >= 1")
        A = np.eye(n)
    elif kind == "gaussian":
        A = generate_gaussian_matrix(m, n, key_stream(seed, (0,)))
    elif not os.path.isfile(kind):
        raise InvalidInputError(
            f"matrix must be identity, gaussian or a CSV file, got {kind!r}"
        )
    else:
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


# ---------------------------------------------------------------------------
# subcommands


def cmd_bounds(args) -> None:
    A = _build_matrix(args.matrix, args.m, args.n, args.seed)
    signal = SparseSignal(_parse_vector(args.x, args.n))
    model = ProblemModel(A, args.sigma_e, args.sigma_n, args.s)
    del A  # the model holds its own read-only copy
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


def _point_bounds(model: ProblemModel, signal: SparseSignal) -> tuple:
    """(ccrb, hcrb, oracle_theory) of one simulate point, oracle_theory the
    maximal CCRB's first term; None where a bound has no value (README)."""
    reps = []
    for bound in (ccrb_bound, hcrb_unit_closed_form):
        try:
            reps.append(bound(model, signal))
        except (InvalidInputError, NoUnbiasedEstimatorError, SingularMatrixError,
                DegenerateModelError):
            reps.append(None)
    ccrb, hcrb = reps
    theory = ccrb.first_term if ccrb and ccrb.regime == "maximal" else None
    return ccrb and ccrb.bound, hcrb and hcrb.bound, theory


def cmd_simulate(args) -> None:
    """Rows point-major: a point's bounds come first, then cell (i, j) of
    sigma_n point i and estimator j runs on stream key (i, j)."""
    A = _build_matrix(args.matrix, args.m, args.n, args.seed)
    if args.x is not None:
        signal = SparseSignal(_parse_vector(args.x, args.n))
    else:
        signal = generate_bernoulli_signal(args.n, args.s, key_stream(args.seed, (1,)))
    grid = _parse_grid(args.sigma_n)
    base = ProblemModel(A, args.sigma_e, grid[0], args.s)
    del A  # the model holds its own read-only copy
    models = [base.with_noise(args.sigma_e, sn) for sn in grid]
    names = [tok.strip() for tok in args.estimators.split(",")]
    specs = [EstimatorSpec.named(name, base, signal) for name in names if name]
    rows = []
    for i, (sn, model) in enumerate(zip(grid, models)):
        _, hcrb, theory = bounds = _point_bounds(model, signal)
        if not specs:  # one bounds-only row
            rows.append((sn, "", None, None, None, 0, 0, *bounds, None, None))
        for j, spec in enumerate(specs):
            out = run_trials(model, signal, spec, args.trials, args.seed, (i, j))
            mse, se = out.mse, out.std_error_mse
            rel_gap = abs(mse - theory) / theory if spec.name == "oracle" and theory else None
            rows.append((sn, spec.name, mse, se, float(np.linalg.norm(out.bias)), out.trials,
                         out.failures, *bounds, rel_gap, _biased_regime(mse, se, hcrb)))
    _emit(_out_path(args), SIMULATE_HEADER, rows)


# ---------------------------------------------------------------------------
# parser


def _int_type(least: int, what: str):
    """An argparse type: an integer of at least `least`."""

    def parse(text: str) -> int:
        try:
            if int(text) >= least:
                return int(text)
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text!r}")

    return parse


_seed = _int_type(0, "nonnegative")  # as key_stream requires
_positive = _int_type(1, "positive")
_WORKERS_HELP = "must be positive; changes nothing, as the trials run serially"


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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, which holds no per-call state."""
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

    pf = sub.add_parser("figure", help="write one experiment protocol as CSV")
    pf.add_argument("id", choices=sorted(_FIGURES))
    for flag in ("--trials", "--points", "--draws", "--n", "--m", "--s"):
        pf.add_argument(flag, type=int)  # None: the protocol's own default
    pf.add_argument("--sigma-n", dest="sigma_n", type=float)
    pf.add_argument("--x-q", dest="x_q", type=float)
    _add_common(pf)

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
    ps.add_argument("--trials", type=_positive, default=10_000)
    ps.add_argument("--workers", type=_positive, default=1, help=_WORKERS_HELP)
    _add_common(ps)

    return parser


@functools.cache
def _command_options() -> dict[str, frozenset[str]]:
    """Each subcommand's long options as config keys, except --config."""
    (commands,) = build_parser()._subparsers._group_actions
    return {name: frozenset(a.dest for a in p._actions if a.option_strings) - {"help", "config"}
            for name, p in commands.choices.items()}


@functools.cache
def _preset_finder() -> argparse.ArgumentParser:
    """Reads --config and -h/--help in each form build_parser's parser reads."""
    finder = argparse.ArgumentParser(add_help=False, exit_on_error=False)
    finder.add_argument("--config")
    finder.add_argument("-h", "--help", action="store_true")
    return finder


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = parser.parse_args(argv[:1] + _preset_flags(argv) + argv[1:])
        # looked up here, not stored on the cached parser, so that a cmd_*
        # replaced after the first call is the one that runs
        handlers = {"bounds": cmd_bounds, "figure": cmd_figure, "simulate": cmd_simulate}
        handlers[args.command](args)
    except SystemExit as exc:
        # argparse exits itself on usage errors; keep main() returning
        return int(exc.code or 0)
    except SparseBoundsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
