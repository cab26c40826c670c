"""The Monte Carlo harness: run_trials runs one reference estimator on one
(model, signal) cell, over per-trial keyed streams, through the one
engine run_maps."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence
from numpy.random.bit_generator import ISpawnableSeedSequence

from .errors import ExcessiveFailureError, InvalidInputError, SparseBoundsError
from .estimators import EstimatorSpec, estimator_kernel, row_dot
from .model import (
    ProblemModel, SparseSignal, _finite, checked_count, checked_seed, real_array, sigma_x_squared,
)

__all__ = ["TrialSummary", "trial_stream", "run_trials"]

TRIAL_CHUNK = 4096
# A block of draws of length m holds max(1, BLOCK_BYTES // (8 m)) trials.
BLOCK_BYTES = 2**17
FAILURE_BUDGET = 0.01


# SeedSequence's hashing (numpy.random.bit_generator), on uint32 arrays.
# A trial index below 2**32 is the last entropy word, so the index is
# mixed in for a whole block of trials at once.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
STREAM_BLOCK_BITS = 10  # 1024 trials per block of PCG64 seeds


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """Hash one word; returns it with the advanced hash constant."""
    next_const = hash_const * mult & _MASK32
    value = (value ^ hash_const) * next_const & _MASK32
    return value ^ value >> 16, next_const


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


@functools.lru_cache(maxsize=4)
def _stream_block(seed: int, key: tuple[int, ...], block: int):
    """Read-only (B, 4) uint64 table whose row r is generate_state(4, uint64)
    of the SeedSequence of trial index (block << STREAM_BLOCK_BITS) + r, or
    None when an input is not a nonnegative int."""
    if seed < 0 or not all(type(k) is int and k >= 0 for k in key):
        return None
    # SeedSequence(entropy=seed, spawn_key=key)'s pool is the state before the index
    # word is mixed in; mix_entropy hashes four times per word, padding a short seed
    words = max(_POOL_SIZE, -(-seed.bit_length() // 32))
    words += sum(max(1, -(-k.bit_length() // 32)) for k in key)
    hash_const = _INIT_A * pow(_MULT_A, _POOL_SIZE * words, 1 << 32) & _MASK32
    index = np.arange(1 << STREAM_BLOCK_BITS, dtype=np.uint32) + np.uint32(block << STREAM_BLOCK_BITS)
    # mix_entropy's last word, the index, into every pool word
    pool = []
    for x in SeedSequence(entropy=seed, spawn_key=key).pool.tolist():
        v, hash_const = _hashmix(index, hash_const)
        pool.append(_mix(x, v))
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


def key_stream(seed: int, key: tuple[int, ...]) -> Generator:
    """Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key))), the one
    construction of a keyed stream."""
    return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=key)))


def trial_stream(seed: int, index: int, key: tuple[int, ...] = ()) -> Generator:
    """key_stream(seed, (*key, index)) bit for bit, the generator of one
    trial of one cell, its seed words read from a cached block table."""
    # an index of 2**32 or more, or an input that is not a nonnegative int, takes
    # key_stream, so SeedSequence raises its own errors
    if type(index) is int and 0 <= index <= _MASK32 and type(seed) is int and type(key) is tuple:
        try:
            table = _stream_block(seed, key, index >> STREAM_BLOCK_BITS)
        except TypeError:  # an unhashable key element
            table = None
        if table is not None:
            state = table[index & ((1 << STREAM_BLOCK_BITS) - 1)]
            return Generator(PCG64(_TrialSeed(seed, key, index, state)))
    return key_stream(seed, (*key, index))


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
        b = np.array(real_array("bias", self.bias))
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


def _excessive_failures(failures: int, trials: int, first_error) -> ExcessiveFailureError:
    return ExcessiveFailureError(
        f"{failures}/{trials} trials failed (budget {FAILURE_BUDGET:.0%}); "
        f"first failure: {first_error}"
    )


def chunk_moments(qs) -> tuple[int, float, float]:
    """(count, mean, M2) of one chunk's squared errors (real_array), M2
    being the sum of squared deviations from the chunk mean."""
    q = real_array("qs", qs)
    if q.size == 0:
        return 0, 0.0, 0.0
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


def std_error_of_mean(moments: tuple[int, float, float]) -> float:
    """The Monte Carlo standard error of the mean of merged (count, mean,
    M2) moments; 0 with fewer than two values."""
    count, _, m2 = moments
    return math.sqrt(m2 / (count - 1) / count) if count > 1 else 0.0


def run_maps(mean, sx, x, block_map, trials: int, seed: int, key) -> TrialSummary:
    """The TrialSummary of a block map Y (k, m) -> (Xhat, {row: error}),
    Xhat a new array, over draw_blocks(mean, sx, seed, key, 0, trials), x
    being the true signal.  Raises ExcessiveFailureError past
    FAILURE_BUDGET failed trials, and OverflowingMatrixError past double
    range."""
    moments, failures, first_error = (0, 0.0, 0.0), 0, None
    sum_err = np.zeros(x.size)
    for lo in range(0, trials, TRIAL_CHUNK):
        c_qs, c_err = [], np.zeros(x.size)
        for t0, Y in draw_blocks(mean, sx, seed, key, lo, min(lo + TRIAL_CHUNK, trials)):
            xhat, errors = block_map(Y)
            if errors:
                failures += len(errors)
                if first_error is None:
                    row = min(errors)
                    first_error = f"trial {t0 + row}: {errors[row]}"
                xhat = np.delete(xhat, list(errors), axis=0)
            with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
                err = np.subtract(xhat, x, out=xhat)  # the map's Xhat is its own
                c_qs.append(row_dot(err))
                # in trial order: cumsum adds one row at a time, where sum
                # would add pairwise
                c_err = np.cumsum(np.concatenate((c_err[None], err)), axis=0)[-1]
        with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
            moments = merge_moments(moments, chunk_moments(np.concatenate(c_qs)))
            sum_err += c_err
    if failures > FAILURE_BUDGET * trials:
        raise _excessive_failures(failures, trials, first_error)
    ok, mse, m2 = moments
    _finite("the trials' MSE or bias overflows double range", mse, m2, sum_err)
    return TrialSummary(
        mse=mse,
        bias=sum_err / ok,
        trials=trials,
        seed=seed,
        std_error_mse=std_error_of_mean(moments),
        failures=failures,
    )


def _checked_key(key) -> tuple[int, ...]:
    """key, a tuple whose elements pass checked_seed, as a tuple of ints."""
    if not isinstance(key, tuple):
        raise InvalidInputError(f"stream_key must be a tuple, got {key!r}")
    return tuple(checked_seed("stream key element", k) for k in key)


def run_trials(
    model: ProblemModel,
    signal: SparseSignal,
    estimator: EstimatorSpec,
    trials: int,
    seed: int,
    stream_key: tuple[int, ...] = (),
) -> TrialSummary:
    """The MSE and bias of one estimator over trials y = Ax + sigma_x z, z
    drawn by trial_stream(seed, t, stream_key), as run_maps summarises
    them.  Raises InvalidInputError unless trials >= 1 and the seed and
    each key element are integers >= 0 (checked_seed), then as run_maps
    raises."""
    trials = checked_count("trials", trials)
    seed = checked_seed("seed", seed)
    stream_key = _checked_key(stream_key)
    sx = math.sqrt(sigma_x_squared(model, signal))
    mean = model.A @ signal.x
    try:
        kernel = estimator_kernel(model, estimator)
    except SparseBoundsError as exc:
        # the estimator does not fit the model, so every trial would fail
        raise _excessive_failures(trials, trials, f"trial 0: {exc}") from exc
    return run_maps(mean, sx, signal.x, kernel, trials, seed, stream_key)
