"""Monte Carlo harness validating the bounds against reference estimators.

Every trial draws from its own random stream derived from the master
seed and the trial index, into one row of a block of trials; the
estimator maps the whole block at once.  Trials are summed in trial
order within fixed chunks of TRIAL_CHUNK, and the chunk sums are reduced
in chunk-index order, so a result depends only on the seed, the stream
key and the trial count, not on the block size.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

from .ccrb import ccrb_bound
from .errors import ExcessiveFailureError, InvalidInputError, SparseBoundsError
from .estimators import EstimatorSpec, estimator_kernel, row_dot
from .hcrb import hcrb_unit_closed_form
from .model import ProblemModel, SparseSignal, sigma_x_squared

__all__ = ["TrialSummary", "trial_stream", "run_trials", "sweep"]

TRIAL_CHUNK = 4096
# A block of draws of length m holds max(1, BLOCK_BYTES // (8 m)) trials.
BLOCK_BYTES = 2**17
FAILURE_BUDGET = 0.01


# SeedSequence's entropy hashing (numpy.random.bit_generator), on Python
# ints and uint32 arrays alike.  Its hash constants advance the same way
# whatever the data, and a trial index below 2**32 is the last entropy
# word, so the words before it are mixed once per (seed, key) and the
# index is mixed in for a whole block of trials at once.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
STREAM_BLOCK_BITS = 10  # 1024 trials per block of PCG64 seeds


def _words(value: int) -> list[int]:
    """A nonnegative int as little-endian uint32 words, at least one."""
    out = [value & _MASK32]
    value >>= 32
    while value:
        out.append(value & _MASK32)
        value >>= 32
    return out


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """Hash one word; returns it with the advanced hash constant."""
    next_const = hash_const * mult & _MASK32
    value = (value ^ hash_const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _absorb(pool, hash_const: int, word):
    """Mix an entropy word beyond the pool size into every pool word."""
    out = []
    for x in pool:
        v, hash_const = _hashmix(word, hash_const)
        out.append(_mix(x, v))
    return out, hash_const


@functools.lru_cache(maxsize=256)
def _mixed_prefix(seed: int, key: tuple[int, ...]):
    """SeedSequence(entropy=seed, spawn_key=(*key, i)) up to, not
    including, the word i: the pool and the running hash constant.  None
    when an input is not a nonnegative int, which SeedSequence handles."""
    if seed < 0 or not all(type(k) is int and k >= 0 for k in key):
        return None
    words = _words(seed)
    words += [0] * (_POOL_SIZE - len(words))  # a spawn key pads the entropy
    for k in key:
        words += _words(k)
    hash_const = _INIT_A
    pool = []
    for w in words[:_POOL_SIZE]:
        v, hash_const = _hashmix(w, hash_const)
        pool.append(v)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                v, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], v)
    for w in words[_POOL_SIZE:]:
        pool, hash_const = _absorb(pool, hash_const, w)
    return tuple(pool), hash_const


@functools.lru_cache(maxsize=4)
def _stream_block(seed: int, key: tuple[int, ...], block: int):
    """Read-only (B, 4) uint64 table: row r is generate_state(4, uint64)
    of the SeedSequence of trial index (block << STREAM_BLOCK_BITS) + r."""
    prefix = _mixed_prefix(seed, key)
    if prefix is None:
        return None
    index = np.arange(1 << STREAM_BLOCK_BITS, dtype=np.uint32)
    pool, _ = _absorb(*prefix, index + np.uint32(block << STREAM_BLOCK_BITS))
    # generate_state: eight uint32 words, cycling through the pool
    hash_const = _INIT_B
    state = []
    for i in range(2 * _POOL_SIZE):
        w, hash_const = _hashmix(pool[i % _POOL_SIZE], hash_const, _MULT_B)
        state.append(w.astype(np.uint64))
    # lo | hi << 32 rather than a view, whatever the byte order
    table = np.stack([lo | hi << np.uint64(32) for lo, hi in zip(state[::2], state[1::2])], axis=1)
    table.flags.writeable = False
    return table


class _TrialSeed(ISpawnableSeedSequence):
    """SeedSequence(entropy=seed, spawn_key=(*key, index)) whose PCG64 seed
    words come from a block table; every other request, spawn included,
    goes to that SeedSequence, built on first use."""

    def __init__(self, seed: int, key: tuple[int, ...], index: int, state: np.ndarray):
        self._args = (seed, key, index)
        self._state = state
        self._real = None

    def seed_sequence(self) -> SeedSequence:
        if self._real is None:
            seed, key, index = self._args
            self._real = SeedSequence(entropy=seed, spawn_key=(*key, index))
        return self._real

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:
            return self._state  # a read-only row of the block table
        return self.seed_sequence().generate_state(n_words, dtype)

    def spawn(self, n_children):
        return self.seed_sequence().spawn(n_children)

    def __getattr__(self, name):  # entropy, spawn_key, pool, state, ...
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.seed_sequence(), name)


def trial_stream(seed: int, index: int, key: tuple[int, ...] = ()) -> Generator:
    """Independent generator for one trial of one experiment cell.

    The stream is Generator(PCG64(SeedSequence(entropy=seed,
    spawn_key=(*key, index)))), bit for bit.  Its seed words are hashed a
    block of 2**STREAM_BLOCK_BITS indices at a time and cached.  An index
    of 2**32 or more, and a seed, index or key element that is not a
    nonnegative int, take that direct construction, so SeedSequence still
    raises its own errors.
    """
    if type(index) is int and 0 <= index <= _MASK32 and type(seed) is int and type(key) is tuple:
        try:
            table = _stream_block(seed, key, index >> STREAM_BLOCK_BITS)
        except TypeError:  # an unhashable key element
            table = None
        if table is not None:
            state = table[index & ((1 << STREAM_BLOCK_BITS) - 1)]
            return Generator(PCG64(_TrialSeed(seed, key, index, state)))
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


def draw_blocks(
    mean: np.ndarray, sx: float, seed: int, key: tuple[int, ...], start: int, stop: int
):
    """Yield (t0, Y) over trials start <= t < stop, a block at a time:
    Y[i] = mean + sx * z for trial t0 + i, with z drawn by
    trial_stream(seed, t0 + i, key), bit for bit."""
    m = mean.size
    step = max(1, BLOCK_BYTES // (8 * m))
    for lo in range(start, stop, step):
        Y = np.empty((min(step, stop - lo), m))
        for t, row in enumerate(Y, lo):
            trial_stream(seed, t, key).standard_normal(out=row)
        Y *= sx
        Y += mean
        yield lo, Y


def _chunk_sums(mean, sx, x, kernel, seed, key, start, stop):
    sum_sq = 0.0
    qs = []
    sum_err = np.zeros(x.size)
    failures = 0
    first_error = None
    for t0, Y in draw_blocks(mean, sx, seed, key, start, stop):
        xhat, errors = kernel(Y)
        if errors:
            failures += len(errors)
            if first_error is None:
                row = min(errors)
                first_error = f"trial {t0 + row}: {errors[row]}"
            xhat = np.delete(xhat, list(errors), axis=0)
        err = xhat - x
        q = row_dot(err).tolist()
        qs += q
        # in trial order: reduce and cumsum add one row at a time, where
        # sum would add pairwise
        sum_sq = functools.reduce(operator.add, q, sum_sq)
        sum_err = np.cumsum(np.concatenate((sum_err[None], err)), axis=0)[-1]
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
    sigma_x and the estimator's block map.  Trial t draws
    y = Ax + sigma_x z with z from trial_stream(seed, t, stream_key) into
    a row of a block (draw_blocks), and the map estimates the whole
    block.  Trials the map reports as failed are counted; more than
    FAILURE_BUDGET of them aborts the run with the first diagnostic.
    `workers` must be at least 1 but changes nothing: the trials run
    serially, so the result is bit-identical for a given
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
