"""Tests of the benchmark's own checks, tracing and metric names."""

import csv
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run

assert run.use_checkout_source()

import checks as ck  # noqa: E402
import probe  # noqa: E402
import spans  # noqa: E402
import sparsebounds  # noqa: E402
from workloads import McSmall, run_cli  # noqa: E402

HERE = Path(__file__).resolve().parent


class TinyMcSmall(McSmall):
    TRIALS = 200
    GRID = "1e-3,0.1"


def _rewrite(csv_text, fn):
    """Apply fn to every row dict and serialise the table again."""
    table = ck.rows(csv_text)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(table[0]), lineterminator="\n")
    writer.writeheader()
    for row in table:
        writer.writerow(fn(dict(row)))
    return buf.getvalue()


def _scale_mse(estimator, factor):
    def fn(row):
        if row["estimator"] == estimator:
            row["mse"] = repr(float(row["mse"]) * factor)
        return row

    return fn


@pytest.fixture(scope="module")
def simulate_csv():
    return run_cli([
        "simulate", "--n", "5", "--m", "5", "--s", "1", "--sigma-e", "0.1",
        "--sigma-n", "1e-3,0.1", "--x", "1,0,0,0,0", "--estimators", "oracle,unbiased",
        "--trials", "2000", "--seed", "3",
    ])


def _failed(found):
    return sorted(c.name.split(".")[0] for c in found if not c.ok)


def test_simulate_checks_pass_on_program_output(simulate_csv):
    found = ck.simulate_checks(simulate_csv)
    assert len(found) == 4 and _failed(found) == []


def test_simulate_checks_reject_halved_oracle_mse(simulate_csv):
    bad = _rewrite(simulate_csv, _scale_mse("oracle", 0.5))
    assert "criterion2" in _failed(ck.simulate_checks(bad))


def test_simulate_checks_reject_halved_unbiased_mse(simulate_csv):
    bad = _rewrite(simulate_csv, _scale_mse("unbiased", 0.5))
    assert "criterion11" in _failed(ck.simulate_checks(bad))


def test_family_threshold_exceeds_three_standard_errors():
    assert ck.family_z(10, 1e-5) > 4.5
    assert ck.family_z(1, 0.0027) == pytest.approx(3.0, abs=1e-3)


def test_same_bytes_rejects_a_flipped_byte(simulate_csv):
    assert ck.same_bytes("determinism", simulate_csv, simulate_csv).ok
    raw = bytearray(simulate_csv.encode())
    raw[len(raw) // 2] ^= 0x01
    found = ck.same_bytes("determinism", simulate_csv.encode(), bytes(raw))
    assert not found.ok and str(len(raw) // 2) in found.detail


def _fig5_csv(gamma):
    lines = ["x_value,curve_id,value,std_error"]
    for curve in ("ccrb_ce=-5dB_cn=0", "ccrb_ce=5dB_cn=0"):
        for s in (3, 10, 30, 100, 300):
            lines.append(f"{s},{curve},{gamma(s)!r},0")
    for s in (3, 10, 30, 100, 300):
        lines.append(f"{s},approx_ce=5dB_cn=0,{-1.0},0")  # not a ccrb curve
    return "\n".join(lines) + "\n"


def test_fig5_checks_accept_inverse_sparsity():
    assert _failed(ck.fig5_checks(_fig5_csv(lambda s: 0.4 / s))) == []


def test_fig5_checks_reject_slope_outside_band():
    assert ck.fig5_slopes(_fig5_csv(lambda s: 0.4 / s**0.5))["ccrb_ce=5dB_cn=0"] == pytest.approx(-0.5)
    assert "fig5" in _failed(ck.fig5_checks(_fig5_csv(lambda s: 0.4 / s**0.5)))
    assert "fig5" in _failed(ck.fig5_checks(_fig5_csv(lambda s: 0.4 / s**1.5)))


def test_fig5_checks_reject_nonpositive_or_infinite_gamma():
    assert "fig5" in _failed(ck.fig5_checks(_fig5_csv(lambda s: -0.4 / s)))
    assert "fig5" in _failed(ck.fig5_checks(_fig5_csv(lambda s: float("inf"))))


def _table1_csv(ls, ne):
    return (
        "x_value,curve_id,value,std_error\n"
        "10000,ls_theoretical,0.0001,0\n"
        f"10000,ls_empirical,{ls!r},1e-6\n"
        f"10000,noise_exploiting_empirical,{ne!r},1e-6\n"
    )


def test_table1_checks_bands():
    assert _failed(ck.table1_checks(_table1_csv(1.01e-4, 5.0e-5))) == []
    assert "criterion9" in _failed(ck.table1_checks(_table1_csv(0.5 * 1.01e-4, 5.0e-5)))
    assert "criterion9" in _failed(ck.table1_checks(_table1_csv(1.01e-4, 0.5 * 5.0e-5)))


def test_bounds_many_checks():
    assert ck.fim_check(0.005).ok and not ck.fim_check(0.03).ok
    found = ck.ccrb_below_hcrb_checks([("a", 1.0, 1.0), ("b", 1.0, 2.0), ("c", 2.0, 1.0)])
    assert [c.ok for c in found] == [True, True, False]


def _traced_unit(tmp_path):
    wl = TinyMcSmall(seed=5, work_dir=tmp_path)
    wl.unit()  # warm-up outside the trace
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        t0 = time.perf_counter()
        with tracer.unit_span(0):
            out = wl.unit()
        wall = time.perf_counter() - t0
    return wl, tracer, out, wall


def test_self_times_sum_to_traced_wall_time(tmp_path):
    _, tracer, _, wall = _traced_unit(tmp_path)
    total = float(spans.self_times(tracer).sum())
    assert abs(total - wall) <= 0.01 * wall
    assert min(spans.self_times(tracer)) >= -1e-9


def test_instrument_records_layers_and_restores_bindings(tmp_path):
    original = sparsebounds.montecarlo.trial_stream
    _, tracer, _, _ = _traced_unit(tmp_path)
    assert sparsebounds.montecarlo.trial_stream is original
    assert sparsebounds.model.ProblemModel.__post_init__.__name__ == "__post_init__"
    summary = spans.SpanSummary(tracer)
    assert summary.units == 1
    assert summary.calls("montecarlo.trial_stream") == 2 * 4 * TinyMcSmall.TRIALS
    assert summary.calls("estimators.oracle") == 2 * TinyMcSmall.TRIALS
    assert summary.calls("cli.main") == 1


class _CountingProbe(probe.Probe):
    """A probe whose n-th run after its warm-up reads n seconds."""

    def __init__(self):
        self.runs = -1
        super().__init__(("numpy",))

    def run(self):
        self.runs += 1
        return float(self.runs)


def test_each_unit_is_scaled_by_the_probes_on_either_side(tmp_path):
    wl = TinyMcSmall(1, tmp_path)
    reference = wl.fingerprint(wl.unit())
    p = _CountingProbe()
    times, scaled, _ = run.run_units(wl, run.Tally(), reference, 0.0, 3, probe=p)
    assert p.runs == 4
    ref = probe.REFERENCE_S["numpy"]
    assert scaled == pytest.approx([t / (k + 1.5) * ref for k, t in enumerate(times)])


def test_percentile_needs_ten_samples_beyond_it():
    import numpy as np

    assert spans.percentile_us(np.ones(19), 50) == 0.0
    assert spans.percentile_us(np.ones(20), 50) == pytest.approx(1e6)
    assert spans.percentile_us(np.ones(999), 99) == 0.0
    assert spans.percentile_us(np.ones(1000), 99) == pytest.approx(1e6)


def test_emitted_metric_names_match_benchmark_json(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)

    wl, tracer, out, _ = _traced_unit(tmp_path)
    emitted = run.layer_metrics(
        wl, spans.SpanSummary(tracer), out, [1.0], [1.1], {}, run.Tally()
    )
    assert set(emitted) == set(run.PER_LAYER)


def test_benchmark_without_the_package_source_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
