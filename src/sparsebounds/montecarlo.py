"""Monte Carlo harness validating the bounds against reference estimators.

Every trial draws from its own random stream derived from the master
seed and the trial index.  Trials are summed in fixed chunks of
TRIAL_CHUNK, and the chunk sums are reduced in chunk-index order, so a
result depends only on the seed, the stream key and the trial count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence

from .ccrb import ccrb_bound
from .errors import ExcessiveFailureError, InvalidInputError, SparseBoundsError
from .estimators import EstimatorSpec, estimator_kernel
from .hcrb import hcrb_unit_closed_form
from .model import ProblemModel, SparseSignal, sigma_x_squared

__all__ = ["TrialSummary", "trial_stream", "run_trials", "sweep"]

TRIAL_CHUNK = 4096
FAILURE_BUDGET = 0.01


def trial_stream(seed: int, index: int, key: tuple[int, ...] = ()) -> Generator:
    """Independent generator for one trial of one experiment cell."""
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(*key, index))))


@dataclass(frozen=True, eq=False)
class TrialSummary:
    """Empirical MSE, bias vector, and the MSE's Monte Carlo standard error."""

    mse: float
    bias: np.ndarray
    trials: int
    seed: int
    std_error_mse: float
    failures: int = 0

    def __post_init__(self):
        b = np.array(self.bias, dtype=float)
        b.flags.writeable = False
        object.__setattr__(self, "bias", b)


def _chunk_sums(mean, sx, x, kernel, seed, key, start, stop):
    m = mean.size
    sum_sq = 0.0
    qs = []  # a list append costs a third of a numpy item store
    sum_err = np.zeros(x.size)
    failures = 0
    first_error = None
    for t in range(start, stop):
        y = mean + sx * trial_stream(seed, t, key).standard_normal(m)
        try:
            xhat = kernel(y)
        except SparseBoundsError as exc:
            failures += 1
            if first_error is None:
                first_error = f"trial {t}: {exc}"
            continue
        err = xhat - x
        q = float(err @ err)
        qs.append(q)
        sum_sq += q
        sum_err += err
    return sum_sq, chunk_moments(qs), sum_err, failures, first_error


def _excessive_failures(failures: int, trials: int, first_error) -> ExcessiveFailureError:
    return ExcessiveFailureError(
        f"{failures}/{trials} trials failed (budget {FAILURE_BUDGET:.0%}); "
        f"first failure: {first_error}"
    )


def chunk_moments(qs: list[float]) -> tuple[int, float, float]:
    """(count, mean, M2) of one chunk's squared errors, M2 being the sum of
    squared deviations from the chunk mean."""
    if not qs:
        return 0, 0.0, 0.0
    q = np.array(qs)
    mean = float(q.mean())
    d = q - mean
    return q.size, mean, float(d @ d)


def merge_moments(a: tuple[int, float, float], b: tuple[int, float, float]):
    """Combine two (count, mean, M2) triples by the pairwise update of
    Chan, Golub & LeVeque (1979), which never subtracts two large sums."""
    na, mean_a, m2_a = a
    nb, mean_b, m2_b = b
    if na == 0:
        return b
    n = na + nb
    delta = mean_b - mean_a
    return n, mean_a + delta * nb / n, m2_a + m2_b + delta * delta * (na * nb / n)


def mse_stats(total: float, moments: tuple[int, float, float]) -> tuple[float, float]:
    """Mean of `count` squared errors and its standard error, from their
    sum and their merged (count, mean, M2)."""
    count, _, m2 = moments
    mse = total / count
    if count > 1:
        return mse, math.sqrt(m2 / (count - 1) / count)
    return mse, 0.0


def run_trials(
    model: ProblemModel,
    signal: SparseSignal,
    estimator: EstimatorSpec,
    trials: int,
    seed: int,
    workers: int = 1,
    stream_key: tuple[int, ...] = (),
) -> TrialSummary:
    """Estimate the MSE and bias of one estimator over independent trials.

    The cell is checked and set up once: the mean Ax, the deviation
    sigma_x and the estimator's y -> estimate map.  Trial t then draws
    y = Ax + sigma_x z with z from trial_stream(seed, t, stream_key) and
    applies the map.  Trials whose estimator raises are counted as
    failures; more than FAILURE_BUDGET of them aborts the run with the
    first diagnostic.  `workers` must be at least 1 but changes nothing:
    the trials run serially, so the result is bit-identical for a given
    (seed, stream_key) whatever its value.
    """
    if trials < 1:
        raise InvalidInputError("trials must be positive")
    if workers < 1:
        raise InvalidInputError("workers must be positive")
    sx = math.sqrt(sigma_x_squared(model, signal))
    mean = model.A @ signal.x
    try:
        kernel = estimator_kernel(model, estimator)
    except SparseBoundsError as exc:
        # the estimator does not fit the model, so every trial would fail
        raise _excessive_failures(trials, trials, f"trial 0: {exc}") from exc
    sum_sq = 0.0
    moments = (0, 0.0, 0.0)
    sum_err = np.zeros(model.n)
    failures = 0
    first_error = None
    for lo in range(0, trials, TRIAL_CHUNK):
        hi = min(lo + TRIAL_CHUNK, trials)
        p_sq, p_moments, p_err, p_fail, p_msg = _chunk_sums(
            mean, sx, signal.x, kernel, seed, stream_key, lo, hi
        )
        sum_sq += p_sq
        moments = merge_moments(moments, p_moments)
        sum_err += p_err
        failures += p_fail
        if first_error is None:
            first_error = p_msg
    if failures > FAILURE_BUDGET * trials:
        raise _excessive_failures(failures, trials, first_error)
    ok = trials - failures
    mse, std_error = mse_stats(sum_sq, moments)
    return TrialSummary(
        mse=mse,
        bias=sum_err / ok,
        trials=trials,
        seed=seed,
        std_error_mse=std_error,
        failures=failures,
    )


def _analytic_bounds(model: ProblemModel, signal: SparseSignal) -> dict:
    out = {"ccrb": None, "hcrb": None, "oracle_theory": None}
    try:
        rep = ccrb_bound(model, signal)
        if rep.regime == "maximal":
            out["oracle_theory"] = rep.first_term
        out["ccrb"] = rep.bound
    except SparseBoundsError:
        pass
    try:
        out["hcrb"] = hcrb_unit_closed_form(model, signal).bound
    except SparseBoundsError:
        pass
    return out


def sweep(
    instances,
    estimators: list[EstimatorSpec],
    trials: int,
    seed: int,
    workers: int = 1,
) -> list[dict]:
    """Run every estimator on every instance of a parameter grid.

    `instances` yields (point, model, signal) where point is a dict of
    grid coordinates.  Returns one row per (point, estimator) carrying
    the trial summary next to the analytic bound values; with no
    estimators, one bounds-only row per point.  Each cell uses the
    stream key (point index, estimator index) so the whole sweep is
    reproducible from the single seed.  `workers` is passed to run_trials,
    which validates it; the trials run serially.
    """
    rows: list[dict] = []
    for idx, (point, model, signal) in enumerate(instances):
        bounds = _analytic_bounds(model, signal)
        if not estimators:
            rows.append(
                {
                    **point,
                    "estimator": "",
                    "mse": None,
                    "std_error": None,
                    "bias_l2": None,
                    "trials": 0,
                    "failures": 0,
                    **bounds,
                }
            )
            continue
        for j, est in enumerate(estimators):
            summary = run_trials(
                model,
                signal,
                est,
                trials,
                seed,
                workers=workers,
                stream_key=(idx, j),
            )
            rows.append(
                {
                    **point,
                    "estimator": est.name,
                    "mse": summary.mse,
                    "std_error": summary.std_error_mse,
                    "bias_l2": float(np.linalg.norm(summary.bias)),
                    "trials": summary.trials,
                    "failures": summary.failures,
                    **bounds,
                }
            )
    return rows
