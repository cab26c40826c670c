import argparse
import contextlib
import csv
import dataclasses
import io
import math
import os
import tempfile
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sparsebounds
import sparsebounds.ccrb as ccrb_module
import sparsebounds.cli as cli
from sparsebounds.ccrb import ccrb_maximal, transition_ce
from sparsebounds.cli import (
    DEFAULT_SEED,
    SEED_ENV_VAR,
    ExperimentConfig,
    figure_rows,
    load_config,
    main,
)
from sparsebounds.errors import (
    AssumptionViolatedError,
    DegenerateModelError,
    InvalidInputError,
    NoUnbiasedEstimatorError,
    OverflowingMatrixError,
    SingularMatrixError,
    UnsupportedMatrixError,
    WrongRegimeError,
)
from sparsebounds.estimators import EstimatorSpec
from sparsebounds.hcrb import d_hcrb, hcrb_unit_closed_form
from sparsebounds.model import ProblemModel, SparseSignal
from sparsebounds.montecarlo import key_stream, run_trials


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run(argv):
    return main(list(argv))


# a cheap simulate run; argparse keeps the last value of a repeated flag
SIMULATE_TINY = [
    "simulate", "--n", "5", "--m", "5", "--s", "1", "--sigma-e", "0.1",
    "--trials", "10", "--sigma-n", "0.5",
]


class TestBoundsCommand:
    def test_ccrb_identity_no_matrix_noise(self, capsys):
        code = run(
            [
                "bounds", "ccrb",
                "--n", "6", "--m", "6", "--s", "2",
                "--sigma-e", "0", "--sigma-n", "0.5",
                "--x", "1,0,2,0,0,0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "bound,first_term,correction,gamma,regime"
        vals = lines[1].split(",")
        assert float(vals[0]) == pytest.approx(2 * 0.25, rel=1e-12)
        assert vals[4] == "maximal"

    def test_ccrb_picks_nonmaximal_regime(self, capsys):
        code = run(
            [
                "bounds", "ccrb",
                "--n", "4", "--m", "4", "--s", "2",
                "--sigma-e", "0", "--sigma-n", "1",
                "--x", "1,0,0,0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = lines[1].split(",")
        assert vals[4] == "nonmaximal"
        assert float(vals[0]) == pytest.approx(4.0, rel=1e-12)  # n sigma_n^2

    def test_hcrb_needs_identity(self, capsys):
        code = run(
            [
                "bounds", "hcrb",
                "--n", "6", "--m", "6", "--s", "2",
                "--sigma-e", "0.1", "--sigma-n", "0.5",
                "--x", "1,0,2,0,0,0",
                "--matrix", "gaussian",
            ]
        )
        assert code == 3
        assert "identity" in capsys.readouterr().err

    def test_hcrb_identity_decomposition(self, capsys):
        code = run(
            [
                "bounds", "hcrb",
                "--n", "6", "--m", "6", "--s", "2",
                "--sigma-e", "0.1", "--sigma-n", "0.5",
                "--x", "1,0,2,0,0,0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        vals = [float(v) for v in lines[1].split(",")[:3]]
        assert vals[0] == pytest.approx(vals[1] + vals[2], rel=1e-12)

    def test_hcrb_header_names_its_parts(self, capsys):
        code = run(
            [
                "bounds", "hcrb",
                "--n", "6", "--m", "6", "--s", "2",
                "--sigma-e", "0.1", "--sigma-n", "0.5",
                "--x", "1,0,2,0,0,0",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "bound,support_part,nonsupport_part,ratio,regime"
        vals = lines[1].split(",")
        assert float(vals[3]) == pytest.approx(float(vals[2]) / float(vals[1]), rel=1e-12)

    def test_hcrb_at_strong_matrix_noise_is_finite(self, capsys):
        # the support part once cancelled to 0.0 here, and the ratio divided by it
        code = run(
            [
                "bounds", "hcrb",
                "--n", "10", "--m", "10", "--s", "1",
                "--sigma-e", "1e8", "--sigma-n", "0.1",
                "--x", "1,0,0,0,0,0,0,0,0,0",
            ]
        )
        assert code == 0
        vals = capsys.readouterr().out.strip().splitlines()[1].split(",")
        for v in (vals[0], vals[1], vals[3]):
            assert math.isfinite(float(v)) and float(v) > 0.0

    @pytest.mark.parametrize("flag", ["--sigma-e", "--sigma-n"])
    def test_infinite_noise_deviation_exits_two(self, flag, capsys):
        argv = [
            "bounds", "ccrb",
            "--n", "6", "--m", "6", "--s", "2",
            "--sigma-e", "0.1", "--sigma-n", "0.5",
            "--x", "1,0,2,0,0,0",
        ]
        argv[argv.index(flag) + 1] = "inf"
        assert run(argv) == 2
        assert "finite" in capsys.readouterr().err

    def test_matrix_from_file(self, tmp_path, capsys):
        p = tmp_path / "A.csv"
        np.savetxt(p, np.eye(3), delimiter=",")
        code = run(
            [
                "bounds", "ccrb",
                "--n", "3", "--m", "3", "--s", "1",
                "--sigma-e", "0", "--sigma-n", "1",
                "--x", "2,0,0",
                "--matrix", str(p),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1].split(",")[0] == "1"

    # s = 2 with x = (1, 0) is the nonmaximal regime, whose Gram is A^T A
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("s, x", [("1", "1,0"), ("2", "1,1"), ("2", "1,0")])
    def test_overflowing_support_gram_is_a_math_error(self, s, x, tmp_path, capsys):
        p = tmp_path / "big.csv"
        np.savetxt(p, 1e200 * np.eye(2), delimiter=",")
        code = run(
            [
                "bounds", "ccrb",
                "--n", "2", "--m", "2", "--s", s,
                "--sigma-e", "0.1", "--sigma-n", "0.1",
                "--x", x,
                "--matrix", str(p),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: A_S^T A_S overflows double range\n"

    # finite entries of 1e160 give a Gram of inf and NaN, which ended in a
    # numpy LinAlgError from the eigensolve: a traceback and exit 1
    @pytest.mark.filterwarnings("error")
    def test_non_finite_support_gram_is_a_math_error(self, tmp_path, capsys):
        p = tmp_path / "big.csv"
        np.savetxt(p, np.random.default_rng(0).standard_normal((12, 4)) * 1e160, delimiter=",")
        code = run(
            [
                "bounds", "ccrb",
                "--n", "4", "--m", "12", "--s", "3",
                "--sigma-e", "0.1", "--sigma-n", "0.1",
                "--x", "1,1,1,0",
                "--matrix", str(p),
            ]
        )
        assert code == 3
        assert capsys.readouterr().err == "error: A_S^T A_S overflows double range\n"

    # the row read nan,inf,nan,nan,maximal with exit 0
    @pytest.mark.filterwarnings("error")
    def test_overflowing_ccrb_is_a_math_error(self, tmp_path, capsys):
        p = tmp_path / "small.csv"
        np.savetxt(p, np.random.default_rng(1).standard_normal((8, 3)) * 1e-150, delimiter=",")
        code = run(
            [
                "bounds", "ccrb",
                "--n", "3", "--m", "8", "--s", "2",
                "--sigma-e", "0.1", "--sigma-n", "0.1",
                "--x", "4e99,2.4e99,0",
                "--matrix", str(p),
            ]
        )
        assert code == 3
        assert capsys.readouterr() == ("", "error: CCRB overflows double range\n")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("sigma_e", ["1e70", "1e-170"])
    def test_overflowing_sigma_x_is_a_math_error(self, sigma_e, capsys):
        # ||x||^2 overflows; the rows were nan,inf,nan,nan and all nan
        code = run(
            [
                "bounds", "ccrb",
                "--n", "2", "--m", "2", "--s", "1",
                "--sigma-e", sigma_e, "--sigma-n", "1",
                "--x", "1e200,0",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err == "error: sigma_e^2 ||x||^2 + sigma_n^2 overflows double range\n"

    def test_nonmaximal_bound_at_strong_matrix_noise(self, capsys):
        # at sigma_e = 1e6 the Fisher information's condition number passes
        # 1e12, yet A = I makes it regular: the bound exists
        code = run(
            [
                "bounds", "ccrb",
                "--n", "6", "--m", "6", "--s", "3",
                "--sigma-e", "1e6", "--sigma-n", "0.1",
                "--x", "1,0,2,0,0,0",
            ]
        )
        assert code == 0
        row = next(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        sx2 = 1e12 * 5 + 0.01
        exact = sx2 * (5 + sx2 / (sx2 + 12e24 * 5))
        assert float(row["bound"]) == pytest.approx(exact, rel=1e-12)

    def test_output_file(self, tmp_path):
        out = tmp_path / "row.csv"
        code = run(
            [
                "bounds", "ccrb",
                "--n", "4", "--m", "4", "--s", "1",
                "--sigma-e", "0", "--sigma-n", "1",
                "--x", "1,0,0,0",
                "--output", str(out),
            ]
        )
        assert code == 0
        assert out.read_text().startswith("bound,")


# The exit code each exported error class has always mapped to.
EXIT_CODES = {
    "AssumptionViolatedError": 3,
    "DegenerateModelError": 3,
    "DivergentTestPointError": 3,
    "ExcessiveFailureError": 3,
    "InfeasibleOffsetError": 3,
    "NoUnbiasedEstimatorError": 3,
    "OverflowingMatrixError": 3,
    "SingularMatrixError": 3,
    "UnsupportedMatrixError": 3,
    "UnsupportedSizeError": 3,
    "WrongRegimeError": 3,
    "InvalidInputError": 2,
    "SparseBoundsError": 2,
    "MathDomainError": 3,
    "OverflowingTestPointError": 3,
}

EXPORTED_ERRORS = sorted(
    name
    for name, obj in vars(sparsebounds).items()
    if isinstance(obj, type) and issubclass(obj, Exception)
)


class TestExitCodes:
    def test_every_exported_error_has_a_pinned_code(self):
        assert EXPORTED_ERRORS == sorted(EXIT_CODES)

    @pytest.mark.parametrize("name", EXPORTED_ERRORS)
    def test_error_class_maps_to_its_code(self, name, monkeypatch, capsys):
        def fail(args):
            raise getattr(sparsebounds, name)("boom")

        monkeypatch.setattr(cli, "cmd_bounds", fail)
        code = run(
            [
                "bounds", "ccrb",
                "--n", "1", "--m", "1", "--s", "1",
                "--sigma-e", "0", "--sigma-n", "1", "--x", "1",
            ]
        )
        assert code == EXIT_CODES[name]
        assert capsys.readouterr().err == "error: boom\n"

    def test_usage_error(self, capsys):
        code = run(["bounds", "ccrb", "--n", "4"])  # missing required flags
        assert code == 2

    def test_math_error_is_three(self, capsys):
        # s-sparse hypothesis violated: 3 nonzeros with s=2
        code = run(
            [
                "bounds", "ccrb",
                "--n", "4", "--m", "4", "--s", "2",
                "--sigma-e", "0.1", "--sigma-n", "0.5",
                "--x", "1,1,1,0",
            ]
        )
        assert code == 3
        assert capsys.readouterr().err.startswith("error:")

    def test_io_error_is_four(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("x")
        code = run(
            [
                "bounds", "ccrb",
                "--n", "4", "--m", "4", "--s", "1",
                "--sigma-e", "0", "--sigma-n", "1",
                "--x", "1,0,0,0",
                "--output", str(blocker / "row.csv"),  # parent is a file
            ]
        )
        assert code == 4

    def test_bad_vector_is_two(self, capsys):
        code = run(
            [
                "bounds", "ccrb",
                "--n", "4", "--m", "4", "--s", "1",
                "--sigma-e", "0", "--sigma-n", "1",
                "--x", "1,zebra,0,0",
            ]
        )
        assert code == 2


# the protocol table of README: the knobs each protocol reads, and their
# defaults (fig4 also reads m, whose default follows s)
README_DEFAULTS = {
    "fig3": {"s": 10, "points": 61},
    "fig4": {"s": 10, "points": 21, "draws": 3},
    "fig5": {"draws": 3},
    "fig6": {"sigma_n": 0.1, "x_q": 1000.0, "points": 25},
    "fig7": {"n": 10, "sigma_n": 0.1, "points": 41},
    "fig-estimators": {"n": 5, "trials": 10_000, "points": 25},
    "table1": {"n": 10_000, "trials": 10_000},
}
# cheap values for the knobs a test does not set to their defaults
SMALL_KNOBS = {
    "fig3": {"s": 3, "points": 5},
    "fig4": {"s": 3, "points": 2, "draws": 1},
    "fig5": {"draws": 1},
    "fig6": {"sigma_n": 0.5, "x_q": 2.0, "points": 4},
    "fig7": {"n": 4, "sigma_n": 0.5, "points": 4},
    "fig-estimators": {"n": 3, "trials": 20, "points": 2},
    "table1": {"n": 10, "trials": 20},
}


class TestFigureCommand:
    def test_fig3_schema_and_transition_rows(self, tmp_path, capsys):
        code = run(["figure", "fig3", "--out-dir", str(tmp_path), "--points", "11"])
        assert code == 0
        path = tmp_path / "fig3.csv"
        assert str(path) in capsys.readouterr().out
        rows = read_csv(path)
        assert set(rows[0]) == {"x_value", "curve_id", "value", "std_error"}
        xs = {float(r["x_value"]) for r in rows if r["curve_id"].endswith("cn=0")}
        assert transition_ce(0.0) in xs
        # at the transition the reduction factor is half its ceiling, 1/(2s)
        tr_rows = [
            r
            for r in rows
            if r["curve_id"] == "gamma_cn=0"
            and float(r["x_value"]) == transition_ce(0.0)
        ]
        assert len(tr_rows) == 1
        assert float(tr_rows[0]["value"]) == pytest.approx(1.0 / 20.0, abs=1e-15)

    def test_fig7_values_match_library(self, tmp_path):
        code = run(
            ["figure", "fig7", "--out-dir", str(tmp_path), "--points", "5", "--seed", "3"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "fig7.csv")
        r = rows[0]
        assert r["curve_id"] == "sigma_e=0.01"
        xq = float(r["x_value"])
        model = ProblemModel(A=np.eye(10), sigma_e=0.01, sigma_n=0.1, s=1)
        x = np.zeros(10)
        x[0] = xq
        want = d_hcrb(model, SparseSignal(x))
        assert float(r["value"]) == pytest.approx(want, rel=1e-12)

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for d in (a, b):
            code = run(
                [
                    "figure", "fig4",
                    "--out-dir", str(d),
                    "--points", "4", "--draws", "2", "--s", "3",
                    "--seed", "77",
                ]
            )
            assert code == 0
        assert (a / "fig4.csv").read_bytes() == (b / "fig4.csv").read_bytes()

    def test_seed_changes_sampled_figures(self, tmp_path):
        outs = []
        for seed in ("1", "2"):
            d = tmp_path / seed
            run(
                [
                    "figure", "fig4",
                    "--out-dir", str(d),
                    "--points", "4", "--draws", "2", "--s", "3",
                    "--seed", seed,
                ]
            )
            outs.append((d / "fig4.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_fig4_ignores_n(self, tmp_path):
        # the bound reads only A_S, so fig4 draws m x s matrices whatever n is
        outs = []
        for extra in ([], ["--n", "2"], ["--n", "50"]):
            d = tmp_path / str(len(outs))
            assert run(["figure", "fig4", "--s", "3", "--out-dir", str(d), *extra]) == 0
            outs.append((d / "fig4.csv").read_bytes())
        assert outs[1] == outs[0] and outs[2] == outs[0]

    def test_env_seed_matches_flag(self, tmp_path, monkeypatch):
        d1 = tmp_path / "env"
        d2 = tmp_path / "flag"
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        run(["figure", "fig4", "--out-dir", str(d1), "--points", "3", "--draws", "2", "--s", "3"])
        monkeypatch.delenv(SEED_ENV_VAR)
        run(
            [
                "figure", "fig4",
                "--out-dir", str(d2),
                "--points", "3", "--draws", "2", "--s", "3",
                "--seed", "123",
            ]
        )
        assert (d1 / "fig4.csv").read_bytes() == (d2 / "fig4.csv").read_bytes()

    def test_fig_estimators_matches_public_api(self):
        # cell (sigma_e index, sigma_n index, estimator index) draws the
        # stream key (ei, pi, j)
        rows = figure_rows(ExperimentConfig("fig-estimators", points=3, trials=300))
        x = np.zeros(5)
        x[0] = 1.0
        signal = SparseSignal(x, (0,))
        specs = [EstimatorSpec.maximum_likelihood(1), EstimatorSpec.locally_unbiased(signal)]
        want = []
        for ei, sigma_e in enumerate((0.1, 1.0)):
            for pi, sigma_n in enumerate(np.logspace(-3, 1, 3)):
                model = ProblemModel(np.eye(5), sigma_e, sigma_n, 1)
                for j, (name, spec) in enumerate(zip(("ml", "unbiased"), specs)):
                    out = run_trials(model, signal, spec, 300, DEFAULT_SEED, (ei, pi, j))
                    curve = f"mse_{name}_sigma_e={sigma_e:g}"
                    want.append((sigma_n, curve, out.mse, out.std_error_mse))
                hcrb = hcrb_unit_closed_form(model, signal).bound
                want.append((sigma_n, f"hcrb_sigma_e={sigma_e:g}", hcrb, 0.0))
                ccrb = ccrb_maximal(model, signal).bound
                want.append((sigma_n, f"ccrb_sigma_e={sigma_e:g}", ccrb, 0.0))
        assert rows == want

    def test_fig_estimators_reports_failed_trials(self, tmp_path, monkeypatch, capsys):
        # failures have no CSV column, so each cell with any goes to stderr
        argv = ["figure", "fig-estimators", "--points", "2", "--trials", "50"]
        assert run(argv + ["--out-dir", str(tmp_path / "clean")]) == 0
        assert capsys.readouterr().err == ""
        real = cli.run_trials

        def failing(model, signal, spec, trials, seed, key):
            return dataclasses.replace(real(model, signal, spec, trials, seed, key), failures=1)

        monkeypatch.setattr(cli, "run_trials", failing)
        assert run(argv + ["--out-dir", str(tmp_path / "failing")]) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 8  # 2 sigma_e x 2 sigma_n x 2 estimators
        assert lines[0] == "mse_ml_sigma_e=0.1 sigma_n=0.001: 1/50 trials failed"
        assert lines[-1] == "mse_unbiased_sigma_e=1 sigma_n=10: 1/50 trials failed"
        got = (tmp_path / "failing" / "fig-estimators.csv").read_bytes()
        assert got == (tmp_path / "clean" / "fig-estimators.csv").read_bytes()

    @pytest.mark.parametrize(
        "fig, knob",
        [(fig, knob) for fig, defaults in README_DEFAULTS.items() for knob in defaults],
    )
    def test_explicit_default_gives_the_same_rows(self, fig, knob, monkeypatch):
        assert cli._FIGURES[fig][1] == README_DEFAULTS[fig]
        if fig == "fig5":
            # a cheap stand-in for the random instances that still reads
            # each draw's own stream
            def stand_in(rng, m, s, levels):
                return [rng.random() for _ in levels]

            monkeypatch.setattr(cli, "_instance_gammas", stand_in)
        small = {k: v for k, v in SMALL_KNOBS[fig].items() if k != knob}
        unset = figure_rows(ExperimentConfig(fig, seed=5, **small))
        default = {knob: README_DEFAULTS[fig][knob]}
        assert figure_rows(ExperimentConfig(fig, seed=5, **small, **default)) == unset

    def test_table1_trial_counts(self, tmp_path):
        argv = ["figure", "table1", "--n", "10", "--out-dir", str(tmp_path), "--trials"]
        assert run(argv + ["0"]) == 2
        assert run(argv + ["1"]) == 0
        rows = read_csv(tmp_path / "table1.csv")
        assert [float(r["std_error"]) for r in rows] == [0.0, 0.0, 0.0]


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("# comment\npoints = 5\nseed = 9\n")
        d = tmp_path / "out"
        run(
            [
                "figure", "fig3",
                "--config", str(cfg),
                "--out-dir", str(d),
                "--points", "7",
            ]
        )
        rows = read_csv(d / "fig3.csv")
        per_curve = {}
        for r in rows:
            per_curve.setdefault(r["curve_id"], 0)
            per_curve[r["curve_id"]] += 1
        # 7 grid points from the flag (plus the inserted transition point)
        assert max(per_curve.values()) == 8

    def test_config_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("points = 5\n")
        d = tmp_path / "out"
        run(["figure", "fig3", "--config", str(cfg), "--out-dir", str(d)])
        rows = read_csv(d / "fig3.csv")
        counts = {}
        for r in rows:
            counts[r["curve_id"]] = counts.get(r["curve_id"], 0) + 1
        assert max(counts.values()) == 6

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("sigma_q = 5\n")
        with pytest.raises(InvalidInputError):
            load_config(str(cfg))

    def test_dashes_and_underscores_equivalent(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("out-dir = /tmp/somewhere\n")
        assert load_config(str(cfg))["out_dir"] == "/tmp/somewhere"

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text("sigma_q = 5\n")
        code = run(["figure", "fig3", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2

    def test_accepted_keys_are_the_long_options(self, tmp_path):
        parser = cli.build_parser()
        (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            opt[2:].replace("-", "_")
            for sub in commands.choices.values()
            for action in sub._actions
            for opt in action.option_strings
            if opt.startswith("--")
        } - {"help", "config"}
        cfg = tmp_path / "run.conf"
        cfg.write_text("".join(f"{key} = 1\n" for key in sorted(options)))
        assert set(load_config(str(cfg))) == options
        for key in ("config", "help", "which", "id", "command"):
            cfg.write_text(f"{key} = 1\n")
            with pytest.raises(InvalidInputError, match="unknown key"):
                load_config(str(cfg))

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["figure", "fig3", "--points", "3"], "seed = abc"),
            (SIMULATE_TINY, "trials = 1.5"),
            (SIMULATE_TINY, "seed = -1"),
        ],
    )
    def test_wrong_type_value_names_the_option(self, argv, line, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(line + "\n")
        code = run(argv + ["--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "--" + line.split()[0] in err
        assert "Traceback" not in err

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_bytes(b"points = 3\n# caf\xe9\n")
        code = run(["figure", "fig3", "--config", str(cfg), "--out-dir", str(tmp_path)])
        assert code == 2
        assert "UTF-8" in capsys.readouterr().err

    def test_config_beats_env_seed(self, tmp_path, monkeypatch):
        cfg = tmp_path / "run.conf"
        cfg.write_text("seed = 5\n")
        argv = ["figure", "fig4", "--points", "3", "--draws", "1", "--s", "3"]
        monkeypatch.setenv(SEED_ENV_VAR, "123")
        run(argv + ["--config", str(cfg), "--out-dir", str(tmp_path / "cfg")])
        monkeypatch.delenv(SEED_ENV_VAR)
        run(argv + ["--seed", "5", "--out-dir", str(tmp_path / "flag")])
        got = (tmp_path / "cfg" / "fig4.csv").read_bytes()
        assert got == (tmp_path / "flag" / "fig4.csv").read_bytes()

    def test_simulate_reads_x(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("x = -2,0,0,0,0\n")  # must not read as a flag
        argv = SIMULATE_TINY + ["--trials", "50"]
        assert run(argv + ["--config", str(cfg), "--output", str(tmp_path / "cfg.csv")]) == 0
        assert run(argv + ["--x=-2,0,0,0,0", "--output", str(tmp_path / "flag.csv")]) == 0
        assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_bounds_reads_matrix(self, tmp_path, capsys):
        argv = [
            "bounds", "ccrb",
            "--n", "6", "--m", "4", "--s", "2",
            "--sigma-e", "0.1", "--sigma-n", "0.2",
            "--x", "1,0,2,0,0,0", "--seed", "3",
        ]
        cfg = tmp_path / "run.conf"
        cfg.write_text("matrix = gaussian\n")
        assert run(argv + ["--config", str(cfg)]) == 0
        from_config = capsys.readouterr().out
        assert run(argv + ["--matrix", "gaussian"]) == 0
        assert capsys.readouterr().out == from_config

    def test_key_the_command_lacks_is_ignored(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text("points = 5\nx_q = 2\ndraws = 0\n")
        argv = SIMULATE_TINY + ["--config", str(cfg), "--output", str(tmp_path / "s.csv")]
        assert run(argv) == 0
        # figure has no --x; it must not abbreviate --x-q
        cfg.write_text("x = 1\nmatrix = gaussian\n")
        argv = ["figure", "fig7", "--points", "2", "--config", str(cfg)]
        assert run(argv + ["--out-dir", str(tmp_path / "cfg")]) == 0
        assert run(["figure", "fig7", "--points", "2", "--out-dir", str(tmp_path / "flag")]) == 0
        got = (tmp_path / "cfg" / "fig7.csv").read_bytes()
        assert got == (tmp_path / "flag" / "fig7.csv").read_bytes()


RUN_CONF = "n = 6\nm = 6\ns = 2\nsigma-e = 0.1\n"
HCRB_ROW = (
    "bound,support_part,nonsupport_part,ratio,regime\n"
    "0.5992473380652471,0.59411764705882353,0.0051296910064236277,0.0086341333771486808,"
    "maximal\n"
)


class TestConfigSuppliesAnyOption:
    """The config and environment values go in before the only parse, so
    they can supply required options too; a flag still wins."""

    @pytest.mark.parametrize(
        "form", [["--config", "{}"], ["--config={}"], ["--conf", "{}"]],
        ids=["space", "equals", "abbreviated"],
    )
    def test_required_options_from_config(self, form, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(RUN_CONF)
        argv = ["bounds", "ccrb", *(tok.format(cfg) for tok in form), "--sigma-n", "0.5"]
        assert run(argv + ["--x", "1,0,2,0,0,0"]) == 0
        assert capsys.readouterr().out == (
            "bound,first_term,correction,gamma,regime\n"
            "0.59411764705882353,0.59999999999999998,0.0058823529411764705,"
            "0.0098039215686274508,maximal\n"
        )

    @pytest.mark.parametrize("head, newline", [(b"\xef\xbb\xbf", b"\n"), (b"", b"\r\n")],
                             ids=["utf-8-bom", "crlf"])
    def test_config_as_other_editors_save_it(self, head, newline, tmp_path, capsys):
        cfg = tmp_path / "bom.conf"
        lines = [b"n = 6", b"m = 6", b"s = 2", b"sigma-e = 0", b"x = 1,0,2,0,0,0", b""]
        cfg.write_bytes(head + newline.join(lines))
        assert run(["bounds", "ccrb", "--config", str(cfg), "--sigma-n", "0.5"]) == 0
        assert capsys.readouterr().out == (
            "bound,first_term,correction,gamma,regime\n0.5,0.5,0,0,maximal\n"
        )

    def test_required_x_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "x.conf"
        cfg.write_text("x = 1,0,2,0,0,0\n")
        argv = ["bounds", "hcrb", "--n", "6", "--m", "6", "--s", "2", "--sigma-e", "0.1",
                "--sigma-n", "0.5", "--config", str(cfg)]
        assert run(argv) == 0
        assert capsys.readouterr().out == HCRB_ROW

    def test_simulate_from_config_matches_flags(self, tmp_path):
        cfg = tmp_path / "run.conf"
        cfg.write_text(RUN_CONF)
        tail = ["--sigma-n", "0.1", "--x", "1,0,2,0,0,0", "--trials", "100"]
        argv = ["simulate", "--config", str(cfg), *tail, "--output", str(tmp_path / "cfg.csv")]
        assert run(argv) == 0
        argv = ["simulate", "--n", "6", "--m", "6", "--s", "2", "--sigma-e", "0.1", *tail,
                "--output", str(tmp_path / "flag.csv")]
        assert run(argv) == 0
        assert (tmp_path / "cfg.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()

    def test_flag_beats_a_required_option_from_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.conf"
        cfg.write_text(RUN_CONF.replace("sigma-e = 0.1", "sigma-e = 7"))
        argv = ["bounds", "hcrb", "--config", str(cfg), "--sigma-e", "0.1", "--sigma-n", "0.5"]
        assert run(argv + ["--x", "1,0,2,0,0,0"]) == 0
        assert capsys.readouterr().out == HCRB_ROW

    @pytest.mark.parametrize("preset", [False, True], ids=["bare", "preset"])
    def test_one_parse_per_call(self, preset, tmp_path, monkeypatch):
        cfg = tmp_path / "run.conf"
        cfg.write_text("points = 3\nx = 1\n")  # figure has no --x
        argv = ["figure", "fig3", "--points", "2", "--out-dir", str(tmp_path)]
        if preset:
            monkeypatch.setenv(SEED_ENV_VAR, "5")
            argv += ["--config", str(cfg)]
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(parser, args=None, namespace=None):
            seen.append(list(args))
            return parse_args(parser, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(argv) == 0
        presets = ["--seed=5", "--points=3"] if preset else []
        assert seen == [argv[:1] + presets + argv[1:]]

    @pytest.mark.parametrize(
        "argv",
        [["bounds", "-h", "--config", "missing.conf"],
         ["bounds", "--config", "missing.conf", "--help"],
         ["simulate", "--config=missing.conf", "--he"]],
        ids=["h-first", "help-last", "abbreviated"],
    )
    def test_help_comes_before_the_config(self, argv, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert run(argv) == 0
        assert capsys.readouterr().out.startswith(f"usage: sparsebounds {argv[0]}")

    def test_config_is_read_before_argv_is_checked(self, tmp_path, capsys):
        # the one precedence change: a missing config file is an I/O error
        # (4) even where argv alone is a usage error (2)
        assert run(["bounds", "--n", "abc", "--config", str(tmp_path / "missing.conf")]) == 4
        assert "missing.conf" in capsys.readouterr().err

    def test_config_without_a_value_is_a_usage_error(self, capsys):
        assert run(TestRepeatedMain.BOUNDS + ["--config"]) == 2
        assert "argument --config: expected one argument" in capsys.readouterr().err


class TestMalformedInput:
    @pytest.mark.parametrize("fig", ["fig4", "fig5"])
    @pytest.mark.parametrize("draws", ["0", "-1"])
    def test_draws_below_one(self, fig, draws, tmp_path, capsys):
        code = run(["figure", fig, "--draws", draws, "--points", "2", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "draws" in capsys.readouterr().err
        assert not (tmp_path / f"{fig}.csv").exists()

    @pytest.mark.parametrize("grid", ["log:1e-3:x:3", "log:1e-3:10:2.5", "", ","])
    def test_bad_sigma_n_grid(self, grid, tmp_path, capsys):
        code = run(SIMULATE_TINY + ["--sigma-n", grid, "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert "grid" in capsys.readouterr().err

    def test_non_numeric_signal_file(self, tmp_path, capsys):
        p = tmp_path / "x.csv"
        p.write_text("1,0,zebra,0,0\n")
        code = run(SIMULATE_TINY + ["--x", str(p), "--output", str(tmp_path / "s.csv")])
        assert code == 2
        assert str(p) in capsys.readouterr().err

    def test_non_numeric_matrix_file(self, tmp_path, capsys):
        p = tmp_path / "A.csv"
        p.write_text("1,0,0\n0,one,0\n0,0,1\n")
        code = run(
            [
                "bounds", "ccrb",
                "--n", "3", "--m", "3", "--s", "1",
                "--sigma-e", "0", "--sigma-n", "1",
                "--x", "2,0,0", "--matrix", str(p),
            ]
        )
        assert code == 2
        assert str(p) in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["gausian", "Identity", "", "missing.csv", "."])
    def test_unknown_matrix_kind(self, kind, tmp_path, capsys):
        # neither a known kind nor a file: a usage error naming the kinds,
        # not an I/O failure
        code = run(SIMULATE_TINY + ["--matrix", kind, "--output", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "identity" in err and "gaussian" in err and repr(kind) in err
        assert not (tmp_path / "s.csv").exists()

    BOUNDS_3 = ["bounds", "ccrb", "--n", "3", "--m", "3", "--s", "1",
                "--sigma-e", "0.1", "--sigma-n", "0.1"]

    @pytest.mark.parametrize(
        "flag, message",
        [("--x", "cannot parse numbers in"), ("--matrix", "a CSV file, got")],
    )
    def test_directory_is_not_a_file(self, flag, message, tmp_path, capsys):
        # --x and --matrix read a path only when it is a file
        argv = self.BOUNDS_3 + ["--x", "1,0,0", flag, str(tmp_path)]
        assert run(argv) == 2
        assert f"{message} {str(tmp_path)!r}" in capsys.readouterr().err

    def test_matrix_file_of_the_wrong_shape(self, tmp_path, capsys):
        p = tmp_path / "A.csv"
        p.write_text("1,0\n0,1\n")
        assert run(self.BOUNDS_3 + ["--x", "1,0,0", "--matrix", str(p)]) == 2
        assert "matrix file has shape (2, 2), expected (3, 3)" in capsys.readouterr().err

    def test_fig_estimators_fails_without_its_bounds(self, tmp_path, capsys, monkeypatch):
        # simulate leaves a bound it cannot compute empty; fig-estimators
        # plots the bounds, so it must fail instead, before any trial
        monkeypatch.setattr(sparsebounds.montecarlo, "trial_stream", _no_trial)
        argv = ["figure", "fig-estimators", "--n", "1", "--points", "2", "--trials", "10"]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "closed-form HCRB requires n >= 2" in capsys.readouterr().err
        assert not (tmp_path / "fig-estimators.csv").exists()

    def test_fig_estimators_takes_every_bound_before_any_trial(self, monkeypatch):
        # the last point's bound fails, and still no trial is drawn
        real = cli.hcrb_unit_closed_form

        def last_fails(model, signal):
            if (model.sigma_e, model.sigma_n) == (1.0, 10.0):
                raise InvalidInputError("last bound")
            return real(model, signal)

        monkeypatch.setattr(cli, "hcrb_unit_closed_form", last_fails)
        monkeypatch.setattr(sparsebounds.montecarlo, "trial_stream", _no_trial)
        with pytest.raises(InvalidInputError, match="^last bound$"):
            figure_rows(ExperimentConfig("fig-estimators", points=3, trials=10))

    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("fig", ["fig7", "fig-estimators", "table1"])
    def test_nonpositive_n(self, fig, n, tmp_path, capsys):
        argv = ["figure", fig, "--n", n, "--points", "2", "--trials", "1"]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert f"n must be an integer >= 1, got {int(n)}" in capsys.readouterr().err
        argv = SIMULATE_TINY + ["--n", n, "--m", n, "--output", str(tmp_path / "s.csv")]
        assert run(argv) == 2


def _no_trial(*args, **kwargs):
    raise AssertionError("a trial was drawn")


def _outcome(argv, config: bytes | None = None, files: dict | None = None):
    """(exit code, stderr, output CSV text) of one in-process run, with an
    optional config and optional input files: each files[name] array is
    written as a CSV of that name in the run's directory, where an argv
    token equal to the name points.  The text is "" when no output was
    written."""
    err, files = io.StringIO(), files or {}
    with tempfile.TemporaryDirectory() as d:
        for name, arr in files.items():
            np.savetxt(os.path.join(d, name), arr, delimiter=",")
        argv = [os.path.join(d, tok) if tok in files else tok for tok in argv]
        if config is not None:
            cfg = os.path.join(d, "run.conf")
            with open(cfg, "wb") as fh:
                fh.write(config)
            argv = argv + ["--config", cfg]
        argv = argv + ["--out-dir", d, "--output", "out.csv"]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        text = ""
        if os.path.exists(os.path.join(d, "out.csv")):
            with open(os.path.join(d, "out.csv")) as fh:
                text = fh.read()
    return code, err.getvalue(), text


_CONFIG_KEYS = [
    "trials", "seed", "points", "draws", "n", "m", "s", "workers", "sigma_e",
    "sigma_n", "x_q", "matrix", "x", "estimators", "sigma-e", "x-q",
]
_TEXT = st.text(alphabet="0123456789abcxyz,:.-+e ", max_size=12)
_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "log:1e-3:10:3", "log:1:x:2", "gaussian", "identity",
                     "oracle,ml", "noise", "unbiased", "1,0,0", "-1,0,0", "1e400"]),
    _TEXT,
)
_LINE = st.one_of(
    st.tuples(st.sampled_from(_CONFIG_KEYS), _VALUES).map(lambda kv: f"{kv[0]} = {kv[1]}"),
    st.tuples(st.sampled_from(["sigma_q", "config", "id", "help"]), _VALUES).map(
        lambda kv: f"{kv[0]} = {kv[1]}"
    ),
    _TEXT,
)
_CONFIGS = st.one_of(
    st.none(),
    st.lists(_LINE, max_size=5).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=24),
)


# Numeric flags to fuzz, each with values around and beyond its valid range.
_SEEDS = st.one_of(st.integers(-3, 3), st.just(2**70))
_COUNTS = st.integers(-2, 6)
# up to and past MAX_DEVIATION, where the CCRB's rank-one reduction dominates
_STRONG_SIGMA_E = st.one_of(
    st.sampled_from([1e4, 1e8, 1e51, 1e70, 7e74, math.nan, math.inf, 1e100]),
    st.floats(-1.0, 10.0),
)
_FLAGS = {
    "fig3": {"--points": st.integers(-2, 5), "--s": st.integers(-2, 40), "--seed": _SEEDS},
    "simulate": {
        "--n": _COUNTS,
        "--m": _COUNTS,
        "--n --m": _COUNTS,
        "--s": _COUNTS,
        "--trials": st.integers(-2, 10),
        "--workers": st.integers(-1, 3),
        "--seed": _SEEDS,
        "--sigma-e": st.one_of(
            st.sampled_from([math.nan, math.inf, 1e300, 1e100]), st.floats(-1.0, 10.0)
        ),
    },
    "bounds ccrb": {"--sigma-e": _STRONG_SIGMA_E},
    "bounds hcrb": {"--sigma-e": _STRONG_SIGMA_E},
}
# Valid tiny runs; the fuzzed flags follow them, and argparse keeps the last value.
_BASE = {
    "fig3": ["figure", "fig3", "--points", "3"],
    "simulate": SIMULATE_TINY,
    **{
        f"bounds {which}": [
            "bounds", which, "--n", "10", "--m", "10", "--s", "1", "--sigma-e", "0.1",
            "--sigma-n", "0.1", "--x", "1,0,0,0,0,0,0,0,0,0",
        ]
        for which in ("ccrb", "hcrb")
    },
}


# Scale families of the matrix and signal files: A * 10**k and x * 10**k.
_A_SCALES = [0, 150, -150, 155, 160, -160, 200, -200, 300]
_X_SCALES = [0, 100, -100, 160]


@st.composite
def _extreme_inputs(draw):
    """(argv, files) of a bounds ccrb, bounds hcrb or oracle simulate run
    on a matrix file (or the identity) and a signal file of extreme scale,
    some with near-duplicate columns."""
    n, identity = draw(st.integers(1, 6)), draw(st.booleans())
    m, s = n if identity else draw(st.integers(1, 8)), draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.standard_normal((m, n))
    if n > 1 and draw(st.booleans()):
        A[:, 1] = A[:, 0] + 10.0 ** draw(st.integers(-12, -4)) * rng.standard_normal(m)
    x = np.zeros(n)
    k = draw(st.integers(1, s))
    x[rng.choice(n, size=k, replace=False)] = rng.standard_normal(k)
    x *= 10.0 ** draw(st.sampled_from(_X_SCALES))
    matrix = "identity" if identity else "A.csv"
    argv = ["--n", str(n), "--m", str(m), "--s", str(s), "--x", "x.csv", "--matrix", matrix,
            "--sigma-e", draw(st.sampled_from(["0", "0.1"]))]
    command = draw(st.sampled_from(["bounds ccrb", "bounds hcrb", "simulate"]))
    if command == "simulate":
        argv += ["--sigma-n", "0.1,1", "--trials", "20", "--estimators", "oracle"]
    else:
        argv += ["--sigma-n", "0.1"]
    files = {"A.csv": A * 10.0 ** draw(st.sampled_from(_A_SCALES)), "x.csv": x}
    return command.split() + argv, files


class TestFuzz:
    """Config files, numeric flags and input files of extreme scale never
    end in a traceback: every run exits 0, 2 (usage or configuration),
    3 (math domain) or 4 (I/O)."""

    @staticmethod
    def check(argv, config=None, files=None):
        code, err, out = _outcome(argv, config, files)
        assert code in (0, 2, 3, 4), err
        assert "Traceback" not in err
        return code, out

    @settings(max_examples=60)
    @given(command=st.sampled_from(sorted(_BASE)), config=_CONFIGS)
    def test_config_files(self, command, config):
        self.check(_BASE[command], config)

    @settings(max_examples=200)
    @given(command=st.sampled_from(sorted(_FLAGS)), data=st.data())
    def test_numeric_flags(self, command, data):
        # one flag of a valid run, so a bad value is the only bad input
        name = data.draw(st.sampled_from(sorted(_FLAGS[command])))
        value = repr(data.draw(_FLAGS[command][name]))
        self.check(_BASE[command] + [tok for flag in name.split() for tok in (flag, value)])

    @settings(max_examples=150)
    @given(inputs=_extreme_inputs())
    def test_input_files_of_extreme_scale(self, inputs):
        argv, files = inputs
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)  # a warning escapes main
            code, out = self.check(argv, files=files)
        if code == 0:
            cells = [c for row in csv.DictReader(io.StringIO(out)) for c in row.values()]
            assert cells
            for cell in cells:
                try:
                    value = float(cell)
                except ValueError:
                    continue  # an empty cell, a name or a regime
                assert math.isfinite(value), out


FIG5_LEVELS = [(c_e, c_n) for _, c_e, c_n in cli._FIG5_LEVELS]


class TestFig5Instance:
    """One fig4 or fig5 draw is the m x s matrix A_S alone, never an m x n
    A, and it sums its support energy once for all levels."""

    def test_peak_memory_is_about_one_matrix(self):
        unit = 1000 * 100 * 8  # A_S of the s = 100 instance; an m x n A is 20 units
        tracemalloc.start()
        try:
            cli._instance_gammas(key_stream(7, (3, 0)), 1000, 100, FIG5_LEVELS)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * unit

    @pytest.mark.parametrize("count", [1, 2, 9])
    def test_support_energy_runs_once_per_draw(self, monkeypatch, count):
        calls = []
        energy = ccrb_module._support_energy

        def counted(*args):
            calls.append(args)
            return energy(*args)

        monkeypatch.setattr(ccrb_module, "_support_energy", counted)
        gammas = cli._instance_gammas(key_stream(7, (0, 0)), 30, 3, FIG5_LEVELS[:count])
        assert len(gammas) == count and len(calls) == 1

    @pytest.mark.parametrize(
        "cfg, shapes",
        [
            (ExperimentConfig("fig4", s=3, points=2, draws=1), {(30, 3)}),
            (ExperimentConfig("fig5", draws=1), {(10 * s, s) for s in (3, 10, 30, 100, 300)}),
        ],
        ids=["fig4", "fig5"],
    )
    def test_draws_no_more_than_s_columns(self, monkeypatch, cfg, shapes):
        asked = []
        draw = cli.generate_gaussian_matrix

        def spy(m, n, rng):
            asked.append((m, n))
            return draw(m, n, rng)

        monkeypatch.setattr(cli, "generate_gaussian_matrix", spy)
        figure_rows(cfg)
        assert set(asked) == shapes


# simulate on A = I_6, s = 2, x = (1, 0, -1, 0, 0, 0)
SIMULATE_SUPPORT_2 = [
    "simulate", "--n", "6", "--m", "6", "--s", "2", "--sigma-e", "0.1",
    "--x", "1,0,-1,0,0,0",
]


class TestSimulateCommand:
    def simulate(self, tmp_path, *flags):
        out = tmp_path / "sim.csv"
        assert run(SIMULATE_SUPPORT_2 + [*flags, "--output", str(out)]) == 0
        return read_csv(out)

    def test_bounds_only_row(self, tmp_path):
        (row,) = self.simulate(tmp_path, "--sigma-n", "1", "--estimators", "")
        assert row["estimator"] == "" and row["sigma_n"] == "1"
        for col in ("mse", "std_error", "bias_l2", "rel_gap", "biased_regime"):
            assert row[col] == ""
        assert (row["trials"], row["failures"]) == ("0", "0")
        assert float(row["ccrb"]) > 0
        assert float(row["hcrb"]) >= float(row["ccrb"])

    def test_one_row_per_point_and_estimator_point_major(self, tmp_path):
        rows = self.simulate(
            tmp_path, "--sigma-n", "1,2", "--estimators", "oracle,ml", "--trials", "300",
            "--seed", "1",
        )
        cells = [(r["sigma_n"], r["estimator"]) for r in rows]
        assert cells == [("1", "oracle"), ("1", "ml"), ("2", "oracle"), ("2", "ml")]
        for r in rows:
            assert r["trials"] == "300"
            assert float(r["mse"]) > 0

    def test_estimators_draw_independent_streams(self, tmp_path):
        rows = self.simulate(
            tmp_path, "--sigma-n", "1", "--estimators", "oracle,oracle", "--trials", "400",
            "--seed", "7",
        )
        # same estimator twice: distinct streams, so distinct empirical MSE
        assert rows[0]["mse"] != rows[1]["mse"]

    def test_no_hcrb_for_a_gaussian_matrix(self, tmp_path):
        (row,) = self.simulate(
            tmp_path, "--sigma-n", "0.5", "--matrix", "gaussian", "--estimators", ""
        )
        assert row["hcrb"] == ""
        assert float(row["ccrb"]) > 0

    def test_cell_i_j_runs_on_stream_key_i_j(self, tmp_path):
        grid, names = (0.5, 2.0), ("oracle", "ml")
        rows = self.simulate(
            tmp_path, "--sigma-n", "0.5,2", "--estimators", ",".join(names), "--trials", "200",
            "--seed", "4",
        )
        signal = SparseSignal(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]))
        base = ProblemModel(np.eye(6), 0.1, grid[0], 2)
        want = []
        for i, sn in enumerate(grid):
            for j, name in enumerate(names):
                spec = EstimatorSpec.named(name, base, signal)
                out = run_trials(base.with_noise(0.1, sn), signal, spec, 200, 4, (i, j))
                want.append([format(v, ".17g") for v in (
                    out.mse, out.std_error_mse, float(np.linalg.norm(out.bias)))])
        assert [[r["mse"], r["std_error"], r["bias_l2"]] for r in rows] == want

    def test_a_points_bounds_come_before_its_trials(self, tmp_path, monkeypatch):
        calls = []
        point_bounds, trials = cli._point_bounds, cli.run_trials

        def bounds_spy(model, signal):
            calls.append(("bounds", model.sigma_n))
            return point_bounds(model, signal)

        def trials_spy(model, signal, spec, *args):
            calls.append((spec.name, model.sigma_n))
            return trials(model, signal, spec, *args)

        monkeypatch.setattr(cli, "_point_bounds", bounds_spy)
        monkeypatch.setattr(cli, "run_trials", trials_spy)
        self.simulate(tmp_path, "--sigma-n", "1,2", "--estimators", "oracle,ml", "--trials", "10")
        assert calls == [
            ("bounds", 1.0), ("oracle", 1.0), ("ml", 1.0),
            ("bounds", 2.0), ("oracle", 2.0), ("ml", 2.0),
        ]

    def test_signal_length_mismatch_exits_two(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(SIMULATE_SUPPORT_2 + ["--x", "1,0,-1,0,0", "--output", str(out)])
        assert code == 2
        assert "signal has 5 entries, expected n=6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("s", [2, 3], ids=["maximal", "nonmaximal"])
    def test_oracle_theory_is_the_maximal_ccrb_first_term(self, tmp_path, s):
        (row,) = self.simulate(tmp_path, "--s", str(s), "--sigma-n", "0.5", "--estimators", "")
        model = ProblemModel(np.eye(6), 0.1, 0.5, s)
        rep = ccrb_module.ccrb_bound(model, SparseSignal(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])))
        assert row["ccrb"] == format(rep.bound, ".17g")
        want = format(rep.first_term, ".17g") if rep.regime == "maximal" else ""
        assert row["oracle_theory"] == want

    def test_bound_that_does_not_apply_stays_empty(self, tmp_path):
        # the closed-form HCRB needs n >= 2, so simulate --n 1 has no hcrb
        out = tmp_path / "n1.csv"
        argv = [
            "simulate", "--n", "1", "--m", "1", "--s", "1", "--sigma-e", "0.1",
            "--sigma-n", "0.5", "--x", "1", "--estimators", "", "--output", str(out),
        ]
        assert main(argv) == 0
        (row,) = read_csv(out)
        assert row["hcrb"] == ""
        assert float(row["ccrb"]) > 0

    def test_unit_estimators_on_a_square_gaussian_matrix_exit_three(self, tmp_path, capsys):
        # ml and noise assume A = I; on this square A they used to write two
        # meaningless MSE rows and exit 0
        out = tmp_path / "sim.csv"
        argv = SIMULATE_SUPPORT_2 + [
            "--matrix", "gaussian", "--estimators", "ml,noise", "--trials", "200",
            "--sigma-n", "0.5", "--output", str(out),
        ]
        assert run(argv) == 3
        assert "estimator 'ml' requires identity matrix" in capsys.readouterr().err
        assert not out.exists()

    def test_oracle_runs_on_the_same_square_gaussian_matrix(self, tmp_path):
        (row,) = self.simulate(
            tmp_path, "--matrix", "gaussian", "--estimators", "oracle", "--trials", "200",
            "--sigma-n", "0.5",
        )
        assert (row["trials"], row["failures"]) == ("200", "0")
        assert float(row["mse"]) > 0

    def test_an_overflowing_bound_exits_three(self, tmp_path, capsys):
        # sigma_x^2 overflows: every bound cell used to be left empty, exit 0
        out = tmp_path / "sim.csv"
        argv = [
            "simulate", "--n", "2", "--m", "2", "--s", "1", "--sigma-e", "1e70",
            "--sigma-n", "1,2", "--x", "1e200,0", "--estimators", "", "--output", str(out),
        ]
        assert run(argv) == 3
        assert "sigma_e^2 ||x||^2 + sigma_n^2 overflows double range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "error, empty",
        [
            (WrongRegimeError, True),
            (UnsupportedMatrixError, True),
            (InvalidInputError, True),
            (NoUnbiasedEstimatorError, True),
            (SingularMatrixError, True),
            (DegenerateModelError, True),
            (OverflowingMatrixError, False),
            (AssumptionViolatedError, False),
        ],
    )
    @pytest.mark.parametrize("bound", ["ccrb_bound", "hcrb_unit_closed_form"])
    def test_a_cell_is_empty_only_where_its_bound_has_no_value(
        self, monkeypatch, bound, error, empty
    ):
        def raising(model, signal):
            raise error("no bound")

        monkeypatch.setattr(cli, bound, raising)
        model = ProblemModel(np.eye(3), 0.1, 0.5, 1)
        signal = SparseSignal(np.eye(3)[0])
        if not empty:
            with pytest.raises(error):
                cli._point_bounds(model, signal)
            return
        ccrb, hcrb, theory = cli._point_bounds(model, signal)
        if bound == "ccrb_bound":
            assert ccrb is theory is None and hcrb > 0
        else:
            assert hcrb is None and ccrb > 0 and theory > 0

    def test_small_sweep_schema(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run(
            [
                "simulate",
                "--n", "6", "--m", "6", "--s", "2",
                "--sigma-e", "0.1",
                "--sigma-n", "0.5,1.0",
                "--x", "1,0,-1,0,0,0",
                "--estimators", "oracle,ml",
                "--trials", "400",
                "--output", str(out),
                "--seed", "4",
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 4  # 2 grid points x 2 estimators
        assert set(rows[0]) == {
            "sigma_n", "estimator", "mse", "std_error", "bias_l2", "trials",
            "failures", "ccrb", "hcrb", "oracle_theory", "rel_gap", "biased_regime",
        }
        oracle_rows = [r for r in rows if r["estimator"] == "oracle"]
        for r in oracle_rows:
            assert float(r["rel_gap"]) < 0.2
            assert float(r["ccrb"]) <= float(r["mse"]) * 1.05

    def test_default_estimator_is_oracle(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(
            [
                "simulate",
                "--n", "5", "--m", "5", "--s", "1",
                "--sigma-e", "0.1",
                "--sigma-n", "0.5",
                "--trials", "200",
                "--output", str(out),
                "--seed", "4",
            ]
        )
        rows = read_csv(out)
        assert [r["estimator"] for r in rows] == ["oracle"]

    def test_unknown_estimator_exits_two(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(SIMULATE_TINY + ["--estimators", "oracle,bogus", "--output", str(out)])
        assert code == 2
        assert "unknown estimator 'bogus'" in capsys.readouterr().err
        assert not out.exists()

    def test_biased_regime_needs_a_three_stderr_margin(self):
        # an MSE one standard error below the HCRB is Monte Carlo noise
        assert not cli._biased_regime(0.99, 0.01, 1.0)
        assert not cli._biased_regime(0.97, 0.01, 1.0)
        assert cli._biased_regime(0.96, 0.01, 1.0)
        assert not cli._biased_regime(0.5, 0.01, None)

    def test_biased_regime_flagged_at_strong_noise(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(
            [
                "simulate",
                "--n", "5", "--m", "5", "--s", "1",
                "--sigma-e", "0.1",
                "--sigma-n", "10",
                "--x", "1,0,0,0,0",
                "--estimators", "ml",
                "--trials", "3000",
                "--output", str(out),
                "--seed", "11",
            ]
        )
        rows = read_csv(out)
        assert rows[0]["biased_regime"] == "true"
        assert float(rows[0]["mse"]) < float(rows[0]["hcrb"])


    def test_zero_workers_exits_two(self, tmp_path, capsys):
        no_estimators = SIMULATE_TINY + ["--estimators", ""]
        cases = [
            SIMULATE_TINY + ["--workers", "0"],
            # no Monte Carlo trial runs, so the flags are checked when parsed
            no_estimators + ["--workers", "0"],
            no_estimators + ["--workers", "-5"],
            no_estimators + ["--trials", "-3"],
        ]
        for argv in cases:
            code = run(argv + ["--out-dir", str(tmp_path), "--output", "out.csv"])
            assert code == 2, argv
            flag = "workers" if "--workers" in argv else "trials"
            assert f"argument --{flag}" in capsys.readouterr().err

    def test_figure_has_no_workers_option(self, tmp_path, capsys):
        argv = ["figure", "fig3", "--points", "3", "--workers", "2"]
        assert run(argv + ["--out-dir", str(tmp_path)]) == 2
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestMatrixHeldOnce:
    """A command drops the matrix it built once the model, which keeps its
    own read-only copy, exists: A is not held twice for the run."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "ccrb", "--n", "6", "--m", "4", "--s", "2", "--sigma-e", "0.1",
             "--sigma-n", "0.5", "--x", "1,0,-1,0,0,0", "--matrix", "gaussian"],
            SIMULATE_SUPPORT_2 + ["--m", "4", "--matrix", "gaussian", "--sigma-n", "0.5",
                                  "--trials", "10"],
        ],
        ids=["bounds", "simulate"],
    )
    def test_built_matrix_is_unreachable_once_the_model_exists(
        self, monkeypatch, tmp_path, argv
    ):
        built, alive = [], []
        build, bound = cli._build_matrix, cli.ccrb_bound

        def build_spy(*args):
            A = build(*args)
            built.append(weakref.ref(A))
            return A

        def bound_spy(model, signal):
            alive.append(built[0]() is not None)
            return bound(model, signal)

        monkeypatch.setattr(cli, "_build_matrix", build_spy)
        monkeypatch.setattr(cli, "ccrb_bound", bound_spy)
        assert run(argv + ["--out-dir", str(tmp_path), "--output", "out.csv"]) == 0
        assert alive == [False]

    def test_fig6_identity_is_unreachable_once_the_model_exists(self, monkeypatch, tmp_path):
        built, alive = [], []
        model_class, gap = cli.ProblemModel, cli.d_hcrb

        def model_spy(A, *args):
            built.append(weakref.ref(A))
            return model_class(A, *args)

        def gap_spy(model, signal):
            alive.append(built[-1]() is not None)
            return gap(model, signal)

        monkeypatch.setattr(cli, "ProblemModel", model_spy)
        monkeypatch.setattr(cli, "d_hcrb", gap_spy)
        argv = ["figure", "fig6", "--points", "2", "--out-dir", str(tmp_path)]
        assert run(argv) == 0
        assert len(built) == 5 and alive == [False] * 10


class TestDefaultSeed:
    def test_module_constant(self):
        assert DEFAULT_SEED == 1729
        assert SEED_ENV_VAR == "SPARSEBOUNDS_SEED"
        assert os.environ.get(SEED_ENV_VAR) is None


class TestExperimentConfigCounts:
    """The counts follow checked_count's rule and message, an integer
    below 1 included."""

    @pytest.mark.parametrize("name", ["trials", "points", "draws", "n", "m", "s"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (2.5, "must be an integer >= 1, got 2.5"),
            (2.0, "must be an integer >= 1, got 2.0"),
            (True, "must be an integer >= 1, got True"),
            ("2", "must be an integer >= 1, got '2'"),
            (0, "must be an integer >= 1, got 0"),
            (np.int64(-1), "must be an integer >= 1, got np.int64(-1)"),
        ],
        ids=repr,
    )
    def test_bad_count_rejected(self, name, value, message):
        with pytest.raises(InvalidInputError) as info:
            ExperimentConfig("fig3", **{name: value})
        assert str(info.value) == f"{name} {message}"

    @pytest.mark.parametrize("name", ["trials", "points", "draws", "n", "m", "s"])
    def test_numpy_integer_accepted(self, name):
        assert getattr(ExperimentConfig("fig3", **{name: np.int64(3)}), name) == 3


@pytest.mark.parametrize("seed", [-1, 1.5, "3", True, None], ids=repr)
def test_experiment_config_rejects_a_bad_seed(seed):
    # figure_rows used to end in SeedSequence's bare ValueError or TypeError
    with pytest.raises(InvalidInputError, match=r"^seed must be an integer >= 0, got "):
        figure_rows(ExperimentConfig("fig4", seed=seed, points=2, draws=1, s=1))


def _figure_bytes(argv, tmp_path, name):
    """The CSV bytes of one in-process figure run."""
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv + ["--out-dir", str(tmp_path), "--output", name]) == 0
    return out.read_bytes()


class TestRepeatedMain:
    """main builds its parser once per process; nothing of one call reaches
    the next."""

    BOUNDS = [
        "bounds", "ccrb",
        "--n", "6", "--m", "6", "--s", "2",
        "--sigma-e", "0", "--sigma-n", "0.5", "--x", "1,0,2,0,0,0",
    ]

    def test_handler_is_looked_up_at_each_call(self, monkeypatch, capsys):
        assert run(self.BOUNDS) == 0
        seen = []
        monkeypatch.setattr(cli, "cmd_bounds", seen.append)
        assert run(self.BOUNDS) == 0
        assert [args.which for args in seen] == ["ccrb"]
        assert capsys.readouterr().out.count("\n") == 2  # the first call's two lines

    @pytest.mark.parametrize(
        "argv",
        [["figure", "fig3"], ["figure", "fig4", "--points", "2", "--draws", "1"]],
        ids=["fig3", "fig4"],
    )
    def test_env_and_config_do_not_leak(self, argv, tmp_path, monkeypatch):
        before = _figure_bytes(argv, tmp_path, "before.csv")
        cfg = tmp_path / "run.conf"
        cfg.write_text("points = 3\n")
        monkeypatch.setenv(SEED_ENV_VAR, "5")
        preset = _figure_bytes(argv + ["--config", str(cfg)], tmp_path, "preset.csv")
        monkeypatch.delenv(SEED_ENV_VAR)
        assert preset != before
        assert _figure_bytes(argv, tmp_path, "after.csv") == before

    def test_table1_twice_gives_the_same_bytes(self, tmp_path):
        argv = ["figure", "table1", "--trials", "5000"]
        first = _figure_bytes(argv, tmp_path, "first.csv")
        assert _figure_bytes(argv, tmp_path, "second.csv") == first

    def test_load_config_builds_no_parser(self, tmp_path):
        assert cli.build_parser() is cli.build_parser()
        cfg = tmp_path / "run.conf"
        cfg.write_text("points = 3\n")
        misses = cli.build_parser.cache_info().misses
        assert load_config(str(cfg)) == {"points": "3"}
        assert cli.build_parser.cache_info().misses == misses
