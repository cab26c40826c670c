import gc
import math
import pickle
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
import scipy.special
from hypothesis import given, settings, strategies as st
from numpy.random import PCG64, Generator, SeedSequence

from sparsebounds import montecarlo
from sparsebounds.ccrb import oracle_mse_theoretical
from sparsebounds.cli import ExperimentConfig, figure_rows
from sparsebounds.errors import (
    ExcessiveFailureError,
    InvalidInputError,
    OverflowingMatrixError,
    SingularMatrixError,
    SparseBoundsError,
)
from sparsebounds.estimators import (
    EstimatorSpec,
    apply_estimator,
    estimate_oracle,
)
from sparsebounds.model import (
    ProblemModel,
    SparseSignal,
    generate_gaussian_matrix,
    sample_measurement,
    support_factor,
)
from sparsebounds.montecarlo import (
    FAILURE_BUDGET,
    TRIAL_CHUNK,
    TrialSummary,
    chunk_moments,
    merge_moments,
    run_trials,
    trial_stream,
)


def oracle_setup(sigma_e=0.0, sigma_n=1.0):
    model = ProblemModel(A=np.eye(6), sigma_e=sigma_e, sigma_n=sigma_n, s=2)
    x = SparseSignal(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0]))
    return model, x, EstimatorSpec.oracle(x.support)


class TestTrialStream:
    def test_deterministic(self):
        a = trial_stream(123, 7).normal(size=4)
        b = trial_stream(123, 7).normal(size=4)
        np.testing.assert_array_equal(a, b)

    def test_distinct_across_indices_and_keys(self):
        a = trial_stream(123, 7).normal(size=4)
        b = trial_stream(123, 8).normal(size=4)
        c = trial_stream(123, 7, key=(1,)).normal(size=4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @staticmethod
    def reference(seed, index, key=()):
        return Generator(PCG64(SeedSequence(entropy=seed, spawn_key=(*key, index))))

    @pytest.mark.parametrize(
        "seed", [0, 2**32, 2**64, 2**96, 2**128 - 1, 2**128, 2**200 - 12345]
    )
    @pytest.mark.parametrize("key", [(), (0,), (3, 2**33)])
    def test_same_streams_as_seed_sequence(self, seed, key):
        # both sides of a block edge, the last one-word index, and the
        # indices of two or more words that take the direct construction
        for index in (0, 1, 1023, 1024, 2**32 - 1, 2**32, 2**40):
            got = trial_stream(seed, index, key)
            want = self.reference(seed, index, key)
            assert got.bit_generator.state == want.bit_generator.state
            got_seq, want_seq = got.bit_generator.seed_seq, want.bit_generator.seed_seq
            np.testing.assert_array_equal(
                got_seq.generate_state(8, np.uint32), want_seq.generate_state(8, np.uint32)
            )
            assert got_seq.spawn_key == want_seq.spawn_key == (*key, index)
            for g, w in zip(got.spawn(2), want.spawn(2)):
                assert g.bit_generator.state == w.bit_generator.state
            np.testing.assert_array_equal(got.standard_normal(5), want.standard_normal(5))

    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 2**200),
        index=st.integers(0, 2**33),
        key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
    )
    def test_same_streams_on_random_inputs(self, seed, index, key):
        got = trial_stream(seed, index, key).bit_generator.state
        assert got == self.reference(seed, index, key).bit_generator.state

    def test_repeated_spawns_continue_the_numbering(self):
        got, want = trial_stream(9, 4, (1,)), self.reference(9, 4, (1,))
        for _ in range(2):
            for g, w in zip(got.spawn(3), want.spawn(3)):
                assert g.bit_generator.state == w.bit_generator.state

    @pytest.mark.parametrize(
        "args", [(-1, 0, ()), (5, -1, ()), (5, 0, (-1,)), (5, 0, (2, -3))]
    )
    def test_negative_inputs_raise_like_seed_sequence(self, args):
        with pytest.raises(ValueError) as want:
            self.reference(*args)
        with pytest.raises(ValueError) as got:
            trial_stream(*args)
        assert str(got.value) == str(want.value)

    def test_non_int_inputs_take_the_direct_construction(self):
        cases = [(np.uint64(7), 3, ()), (7, np.int64(3), ()), (7, 3, (np.int64(2),)),
                 (7, 3, ([1, 2],)), (True, 3, ())]
        for args in cases:
            assert trial_stream(*args).bit_generator.state == self.reference(*args).bit_generator.state

    def test_block_table_is_read_only(self):
        table = montecarlo._stream_block(21, (4,), 0)
        assert table.shape == (1 << montecarlo.STREAM_BLOCK_BITS, 4)
        assert table.dtype == np.uint64
        assert not table.flags.writeable
        seq = trial_stream(21, 5, (4,)).bit_generator.seed_seq
        assert seq._real is None  # PCG64 took its seed words from the table
        state = seq.generate_state(4, np.uint64)
        np.testing.assert_array_equal(state, table[5])
        with pytest.raises(ValueError):
            state[0] = 0

    def test_pickled_stream_round_trips(self):
        g = trial_stream(8, 2, (1, 1))
        g.standard_normal(3)
        back = pickle.loads(pickle.dumps(g))
        assert back.bit_generator.state == g.bit_generator.state
        np.testing.assert_array_equal(back.standard_normal(4), g.standard_normal(4))


class TestRunTrials:
    def test_matches_theory_within_three_stderr(self):
        model, x, est = oracle_setup()
        out = run_trials(model, x, est, trials=30_000, seed=5)
        theory = oracle_mse_theoretical(model, x.support, x)
        assert isinstance(out, TrialSummary)
        assert abs(out.mse - theory) <= 3.0 * out.std_error_mse
        assert out.trials == 30_000
        assert out.failures == 0

    def test_bias_vanishes_for_unbiased_estimator(self):
        model, x, est = oracle_setup()
        out = run_trials(model, x, est, trials=30_000, seed=6)
        # oracle LS is exactly unbiased: the empirical bias is sampling noise
        assert np.linalg.norm(out.bias) < 3.0 * np.sqrt(2.0 / 30_000) * 3

    def test_bit_identical_reruns(self):
        model, x, est = oracle_setup(sigma_e=0.2)
        a = run_trials(model, x, est, trials=5_000, seed=42)
        b = run_trials(model, x, est, trials=5_000, seed=42)
        assert (a.mse, a.std_error_mse) == (b.mse, b.std_error_mse)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_seed_changes_results(self):
        model, x, est = oracle_setup()
        a = run_trials(model, x, est, trials=2_000, seed=1)
        b = run_trials(model, x, est, trials=2_000, seed=2)
        assert a.mse != b.mse

    def test_stderr_scales_with_sample_size(self):
        model, x, est = oracle_setup()
        ses = [
            run_trials(model, x, est, trials=t, seed=11).std_error_mse
            for t in (1_000, 10_000, 100_000)
        ]
        for a, b in zip(ses, ses[1:]):
            ratio = a / b
            assert np.sqrt(10.0) / 1.5 < ratio < np.sqrt(10.0) * 1.5

    def test_stderr_is_stable_when_the_spread_is_tiny(self, monkeypatch):
        # squared errors 1e6 + U(0, 1e-4): sum_sq2 - count * mse^2 cancels
        # to 7.3e-4 against a true standard error of 2.9e-7
        model, x, est = oracle_setup()
        qs = []

        def kernel(y):
            u = scipy.special.ndtr(y[0] - x.x[0])  # uniform: sigma_x = 1
            xhat = x.x.copy()
            xhat[0] += math.sqrt(1e6 + 1e-4 * u)
            err = xhat - x.x
            qs.append(float(err @ err))
            return xhat

        def block_kernel(Y):
            return np.array([kernel(y) for y in Y]), {}

        monkeypatch.setattr(montecarlo, "estimator_kernel", lambda model, est: block_kernel)
        trials = 10_000  # three chunks
        out = run_trials(model, x, est, trials=trials, seed=4)
        q = np.array(qs) - 1e6  # exact: every q lies in [1e6, 2e6]
        want = math.sqrt(np.var(q, ddof=1) / trials)
        assert want == pytest.approx(2.9e-7, rel=0.05)
        assert out.std_error_mse == pytest.approx(want, rel=1e-6)

    def test_all_failures_abort_with_diagnostics(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.5, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0]))
        est = EstimatorSpec.oracle((0, 1))  # singular Gram on that support
        with pytest.raises(ExcessiveFailureError) as exc:
            run_trials(model, x, est, trials=500, seed=3)
        msg = str(exc.value)
        assert "singular" in msg.lower()
        assert "500" in msg
        assert "500/500 trials failed" in msg
        assert "first failure: trial 0: A_S^T A_S is singular" in msg

    @pytest.mark.filterwarnings("error")
    def test_overflowing_squared_errors_are_an_overflow(self):
        # every estimate is finite, but the squared errors pass double range:
        # the reduction warned and the standard error read inf
        model = ProblemModel(np.random.default_rng(3).standard_normal((4, 5)), 0.1, 0.1, 1)
        x = SparseSignal(np.array([8.6e99, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(OverflowingMatrixError, match="^the trials' MSE or bias overflows"):
            run_trials(model, x, EstimatorSpec.oracle((0,)), 20, 1)

    def test_chunk_moments_reads_a_list_or_an_array_alike(self):
        qs = [0.25, 3.0, 1e-3, 7.5]
        count, mean, m2 = chunk_moments(np.array(qs))
        assert (count, mean, m2) == chunk_moments(qs)
        assert count == 4 and mean == pytest.approx(np.mean(qs), rel=1e-15)
        assert m2 == pytest.approx(3 * np.var(qs, ddof=1), rel=1e-14)
        assert chunk_moments(np.array([])) == chunk_moments([]) == (0, 0.0, 0.0)


class TestSeedRule:
    """The seed and every stream key element are integers >= 0
    (checked_seed), checked before any draw.  SeedSequence used to end in
    a bare ValueError or TypeError, to take True as 1 and None as fresh
    entropy."""

    BAD = [-1, 1.5, "3", True, None]

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def draw(*args):
            raise AssertionError("a stream was drawn")

        monkeypatch.setattr(montecarlo, "trial_stream", draw)

    @pytest.mark.parametrize("seed", BAD, ids=repr)
    def test_run_trials_rejects_a_bad_seed(self, seed, no_draws):
        model, x, est = oracle_setup()
        with pytest.raises(InvalidInputError, match=r"^seed must be an integer >= 0, got "):
            run_trials(model, x, est, trials=10, seed=seed)

    @pytest.mark.parametrize("key", [(-1,), (1.5,), ("3",), (True,), (2, -3)], ids=repr)
    def test_run_trials_rejects_a_bad_key_element(self, key, no_draws):
        model, x, est = oracle_setup()
        with pytest.raises(InvalidInputError, match=r"^stream key element must be an integer >= 0"):
            run_trials(model, x, est, trials=10, seed=1, stream_key=key)

    @pytest.mark.parametrize("key", [3, None, [1, 2], "12"], ids=repr)
    def test_run_trials_rejects_a_key_that_is_not_a_tuple(self, key, no_draws):
        # 3 and None ended in a bare TypeError: 'int' object is not iterable
        model, x, est = oracle_setup()
        with pytest.raises(InvalidInputError, match=r"^stream_key must be a tuple, got "):
            run_trials(model, x, est, trials=10, seed=1, stream_key=key)

    def test_numpy_integers_read_as_ints(self):
        model, x, est = oracle_setup()
        want = run_trials(model, x, est, trials=50, seed=5, stream_key=(2,))
        got = run_trials(model, x, est, trials=50, seed=np.int64(5), stream_key=(np.uint32(2),))
        assert type(got.seed) is int and got.seed == 5
        assert (got.mse, got.bias.tobytes()) == (want.mse, want.bias.tobytes())


def reference_trials(model, signal, spec, trials, seed, key=()):
    """run_trials spelled out with the public per-trial API: per chunk,
    trial_stream -> sample_measurement -> apply_estimator, then the chunk
    partials reduced in order, the squared errors' moments by
    merge_moments, whose mean is the MSE."""
    partials = []
    for lo in range(0, trials, TRIAL_CHUNK):
        qs, err_sum, fails = [], np.zeros(model.n), 0
        for t in range(lo, min(lo + TRIAL_CHUNK, trials)):
            y = sample_measurement(model, signal, trial_stream(seed, t, key))
            try:
                xhat = apply_estimator(model, y, spec)
            except SparseBoundsError:
                fails += 1
                continue
            err = xhat - signal.x
            qs.append(float(err @ err))
            err_sum += err
        partials.append((chunk_moments(qs), err_sum, fails))
    moments, bias, failures = (0, 0.0, 0.0), np.zeros(model.n), 0
    for chunk, err_sum, fails in partials:
        moments = merge_moments(moments, chunk)
        bias += err_sum
        failures += fails
    ok, mse, m2 = moments
    return mse, math.sqrt(m2 / (ok - 1) / ok), bias / ok, failures


def _lean_path_cases():
    A = generate_gaussian_matrix(8, 12, np.random.default_rng(3))
    x3 = np.zeros(12)
    x3[[1, 4, 9]] = (1.0, -0.5, 2.0)
    gaussian = (ProblemModel(A, 0.1, 0.2, 3), SparseSignal(x3))
    unit = (ProblemModel(np.eye(5), 0.1, 0.3, 1), SparseSignal(np.eye(5)[0]))
    unit2 = (
        ProblemModel(np.eye(6), 0.1, 0.3, 2),
        SparseSignal(np.array([1.0, 0.0, -1.0, 0.0, 0.0, 0.0])),
    )
    return {
        "oracle": (*gaussian, EstimatorSpec.oracle((1, 4, 9))),
        "ml": (*unit, EstimatorSpec.maximum_likelihood(1)),
        "ml_s2": (*unit2, EstimatorSpec.maximum_likelihood(2)),
        "unbiased": (*unit, EstimatorSpec.locally_unbiased(unit[1])),
        "noise": (*unit, EstimatorSpec.noise_exploiting()),
    }


class TestLeanPath:
    @pytest.mark.parametrize("case", sorted(_lean_path_cases()))
    def test_bit_identical_to_public_per_trial_api(self, case):
        model, signal, spec = _lean_path_cases()[case]
        trials = TRIAL_CHUNK + 300  # two chunks
        out = run_trials(model, signal, spec, trials, seed=21, stream_key=(2, 1))
        mse, std_error, bias, failures = reference_trials(
            model, signal, spec, trials, seed=21, key=(2, 1)
        )
        assert (out.mse, out.std_error_mse, out.failures) == (mse, std_error, failures)
        np.testing.assert_array_equal(out.bias, bias)

    def test_misfit_estimator_fails_every_trial(self):
        A = generate_gaussian_matrix(4, 6, np.random.default_rng(1))
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.5, s=1)
        x = SparseSignal(np.eye(6)[0])
        with pytest.raises(ExcessiveFailureError) as exc:
            run_trials(model, x, EstimatorSpec.maximum_likelihood(1), trials=40, seed=3)
        assert "40/40 trials failed" in str(exc.value)
        assert "trial 0: estimator 'ml' requires identity matrix" in str(exc.value)

    def test_signal_length_mismatch_is_an_input_error(self):
        model, _, est = oracle_setup()
        with pytest.raises(InvalidInputError):
            run_trials(model, SparseSignal(np.ones(4)), est, trials=10, seed=0)


class TestBlocks:
    @pytest.mark.parametrize("case", sorted(_lean_path_cases()))
    def test_block_size_does_not_change_the_summary(self, case, monkeypatch):
        model, signal, spec = _lean_path_cases()[case]
        trials = TRIAL_CHUNK + 300  # two chunks

        def summary(rows):
            monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 8 * model.m * rows)
            out = run_trials(model, signal, spec, trials, seed=21, stream_key=(2, 1))
            return out.mse, out.std_error_mse, out.failures, out.bias.tobytes()

        default = summary(montecarlo.BLOCK_BYTES // (8 * model.m))
        assert summary(1) == default
        assert TRIAL_CHUNK % 1000 != 0
        assert summary(1000) == default

    def test_draw_blocks_rows_are_the_trial_streams(self, monkeypatch):
        monkeypatch.setattr(montecarlo, "BLOCK_BYTES", 8 * 3 * 4)  # four trials a block
        mean = np.array([1.0, -2.0, 0.5])
        blocks = list(montecarlo.draw_blocks(mean, 0.3, 5, (1, 2), 2, 13))
        assert [(t0, len(Y)) for t0, Y in blocks] == [(2, 4), (6, 4), (10, 3)]
        for t0, Y in blocks:
            for i, y in enumerate(Y):
                want = mean + 0.3 * trial_stream(5, t0 + i, (1, 2)).standard_normal(3)
                np.testing.assert_array_equal(y, want)

    def test_first_failure_is_found_in_a_later_block(self, monkeypatch):
        model, x, est = oracle_setup()  # A = I and sigma_x = 1, so y = x + z

        def block_kernel(Y):
            big = np.flatnonzero(Y[:, 1] > 2.0)
            return Y.copy(), {int(i): InvalidInputError("y_1 above 2") for i in big}

        monkeypatch.setattr(montecarlo, "estimator_kernel", lambda model, est: block_kernel)
        trials, rows = 1000, 7
        failing = [
            t for t in range(trials) if (x.x + trial_stream(3, t).standard_normal(6))[1] > 2.0
        ]
        assert failing[0] >= rows and len(failing) > FAILURE_BUDGET * trials
        for block_bytes in (8 * model.m * rows, montecarlo.BLOCK_BYTES):
            monkeypatch.setattr(montecarlo, "BLOCK_BYTES", block_bytes)
            with pytest.raises(ExcessiveFailureError) as exc:
                run_trials(model, x, est, trials, seed=3)
            msg = str(exc.value)
            assert f"{len(failing)}/{trials} trials failed" in msg
            assert msg.endswith(f"first failure: trial {failing[0]}: y_1 above 2")


    def test_each_map_keeps_its_own_failures(self):
        # y = x + z on three coordinates; the map fails the trials whose
        # y_1 lies above 2, more than the budget allows
        x = np.array([1.0, 0.0, 0.0])

        def above_2(Y):
            big = np.flatnonzero(Y[:, 1] > 2.0)
            return Y.copy(), {int(i): InvalidInputError("y_1 above 2.0") for i in big}

        last = r"first failure: trial \d+: y_1 above 2.0$"
        with pytest.raises(ExcessiveFailureError, match=last):
            montecarlo.run_maps(x, 1.0, x, above_2, 1000, 3, ())


@pytest.mark.parametrize("support", [(9,), (0, 0), (-1,)])
def test_invalid_oracle_support_fails_before_any_draw(monkeypatch, support):
    def no_draw(*args):
        pytest.fail("a trial was drawn")

    monkeypatch.setattr(montecarlo, "trial_stream", no_draw)
    e0 = SparseSignal(np.eye(5)[0])
    message = (
        r"^50/50 trials failed \(budget 1%\); first failure: trial 0: "
        r"support must be nonempty, duplicate free and within \[0, n\)$"
    )
    with pytest.raises(ExcessiveFailureError, match=message):
        run_trials(ProblemModel(np.eye(5), 0.1, 0.1, 1), e0, EstimatorSpec.oracle(support), 50, 1)


class TestOracleFactorCache:
    def test_singular_support_fails_on_every_call(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.1, s=2)
        for _ in range(3):
            with pytest.raises(SingularMatrixError):
                estimate_oracle(model, np.array([1.0, 1.0]), support=(1, 0))
        # a regular support on the same model still solves
        xhat = estimate_oracle(model, np.array([1.0, 1.0]), support=(0, 2))
        assert np.flatnonzero(xhat).tolist() == [0, 2]

    def test_ill_conditioned_support_is_singular_as_in_the_ccrb(self):
        # kappa(A_S^T A_S) ~ 1e14: cho_factor succeeds, but the bounds call
        # the Gram singular, so the oracle must not estimate on it
        A = np.eye(4)
        A[:, 1] = [1.0, 1e-7, 0.0, 0.0]
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=0.1, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(SingularMatrixError, match="A_S\\^T A_S is singular"):
            oracle_mse_theoretical(model, (0, 1), x)
        with pytest.raises(SingularMatrixError, match="A_S\\^T A_S is singular"):
            estimate_oracle(model, A @ x.x, support=(0, 1))
        with pytest.raises(ExcessiveFailureError, match="100/100 trials failed"):
            run_trials(model, x, EstimatorSpec.oracle((0, 1)), trials=100, seed=1)

    def test_same_bits_as_the_cached_inverse(self, rng):
        A = generate_gaussian_matrix(9, 14, rng)
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.1, s=4)
        S = [2, 5, 6, 11]
        A_S = A[:, S]
        cho = scipy.linalg.cho_factor(A_S.T @ A_S)
        for _ in range(3):
            y = rng.normal(size=9)
            got = estimate_oracle(model, y, support=S[::-1])
            G = support_factor(model, tuple(S))[1]
            np.testing.assert_array_equal(got[S], G @ (A_S.T @ y))
            np.testing.assert_allclose(
                got[S], scipy.linalg.cho_solve(cho, A_S.T @ y), rtol=1e-12, atol=0
            )

    def test_threads_share_one_factor(self, rng):
        A = generate_gaussian_matrix(6, 9, rng)
        S = (1, 4, 7)
        ys = rng.normal(size=(8, 6))
        want = [estimate_oracle(ProblemModel(A, 0.1, 0.1, 3), y, S) for y in ys]
        threads = 8
        start = threading.Barrier(threads)

        def work(model, y):
            start.wait(timeout=10)
            return support_factor(model, S), estimate_oracle(model, y, S)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                for _ in range(30):
                    model = ProblemModel(A, 0.1, 0.1, 3)  # a cold cache entry
                    futures = [pool.submit(work, model, y) for y in ys]
                    results = [f.result(timeout=60) for f in futures]
                    # no thread replaced the entry another thread got
                    assert len({id(factor) for factor, _ in results}) == 1
                    for (_, x), ref in zip(results, want):
                        np.testing.assert_array_equal(x, ref)
        finally:
            sys.setswitchinterval(interval)

    def test_cache_does_not_keep_the_model_alive(self, rng):
        model = ProblemModel(generate_gaussian_matrix(5, 7, rng), 0.1, 0.1, 2)
        estimate_oracle(model, np.ones(5), support=(0, 3))
        ref = weakref.ref(model)
        del model
        gc.collect()
        assert ref() is None


def _table1(n, trials, seed):
    rows = figure_rows(ExperimentConfig("table1", seed=seed, n=n, trials=trials))
    return {curve: (value, std_error) for _, curve, value, std_error in rows}


_TABLE1_ESTIMATORS = {
    "ls_empirical": EstimatorSpec.maximum_likelihood(1),
    "noise_exploiting_empirical": EstimatorSpec.noise_exploiting(),
}


def test_table1_at_n1_is_the_public_estimators():
    """At n = 1, table1 is the public estimators on y = [1 + 0.01 z_0], bit
    for bit, with z_0 from key_stream(seed, ()) and the squared errors
    reduced per TRIAL_CHUNK as run_trials reduces them."""
    seed, trials = 5, TRIAL_CHUNK + 300  # two chunks
    z = montecarlo.key_stream(seed, ()).standard_normal(trials)
    got = _table1(1, trials, seed)
    model = ProblemModel(np.eye(1), 0.01, 0.0, 1)
    for label, spec in _TABLE1_ESTIMATORS.items():
        moments = (0, 0.0, 0.0)
        for lo in range(0, trials, TRIAL_CHUNK):
            qs = []
            for z0 in z[lo : lo + TRIAL_CHUNK]:
                err = apply_estimator(model, np.array([1.0 + 0.01 * z0]), spec) - 1.0
                qs.append(float(err @ err))
            moments = merge_moments(moments, chunk_moments(qs))
        assert got[label] == (moments[1], montecarlo.std_error_of_mean(moments)), label
    assert got["ls_theoretical"] == (0.01**2, 0.0)


# table1 and the full draws are independent runs; their MSEs must agree
# within this many combined standard errors
TABLE1_Z_BOUND = 4.0


@pytest.mark.parametrize("n", [2, 40])
def test_table1_agrees_in_law_with_full_draws(n):
    """table1 draws z_0 and chi^2_{n-1} in place of y = e_0 + 0.01 z; each
    MSE matches run_trials of the same estimator on full draws."""
    trials = 50_000
    model = ProblemModel(np.eye(n), 0.01, 0.0, 1)  # sigma_x = 0.01 exactly
    signal = SparseSignal(np.eye(n)[0])
    got = _table1(n, trials, seed=11)
    for label, spec in _TABLE1_ESTIMATORS.items():
        full = run_trials(model, signal, spec, trials, seed=12)
        mse, std_error = got[label]
        z = abs(mse - full.mse) / math.hypot(std_error, full.std_error_mse)
        assert z <= TABLE1_Z_BOUND, (label, mse, full.mse, z)
