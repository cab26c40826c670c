import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sparsebounds.model as model_module
from sparsebounds.ccrb import (
    ccrb_bound,
    ccrb_maximal,
    ccrb_nonmaximal,
    noise_levels,
    oracle_mse_theoretical,
    rip_constants,
    sigmas_at_levels,
    sigmas_for_levels,
)
from sparsebounds.errors import (
    InvalidInputError,
    OverflowingMatrixError,
    SingularMatrixError,
    UnsupportedSizeError,
)
from sparsebounds.estimators import (
    EstimatorSpec,
    apply_estimator,
    estimate_oracle,
)
from sparsebounds.fisher import FisherMatrix, fim_closed_form, fim_monte_carlo, log_likelihood, score
from sparsebounds.hcrb import (
    beta_of,
    d_hcrb,
    hcrb_general,
    hcrb_unit_closed_form,
    test_points as make_test_points,
)
from sparsebounds.model import (
    ProblemModel,
    SparseSignal,
    generate_bernoulli_signal,
    generate_gaussian_matrix,
    gram_inverse,
    model_measurement,
    positive_sigma_x_squared,
    sample_measurement,
    sigma_x_squared,
    spark_exceeds,
)
from sparsebounds.montecarlo import TrialSummary, chunk_moments, run_trials


def make_model(A, sigma_e, sigma_n, s, **kw):
    return ProblemModel(A=np.asarray(A, dtype=float), sigma_e=sigma_e, sigma_n=sigma_n, s=s, **kw)


class TestSigmaX:
    def test_unit_energy_matrix_noise_only(self):
        m = make_model(np.eye(3), sigma_e=1.0, sigma_n=0.0, s=1)
        x = SparseSignal(np.array([1.0, 0.0, 0.0]))
        assert sigma_x_squared(m, x) == 1.0

    def test_measurement_noise_only(self):
        m = make_model(np.eye(3), sigma_e=0.0, sigma_n=2.0, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0]))
        assert sigma_x_squared(m, x) == 4.0

    def test_both_sources_add(self):
        m = make_model(np.eye(3), sigma_e=1.0, sigma_n=1.0, s=2)
        x = SparseSignal(np.array([1.0, -1.0, 0.0]))
        assert sigma_x_squared(m, x) == 3.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("se", [1e70, 1e-170])
    def test_a_value_beyond_double_range_is_a_math_error(self, se):
        # ||x||^2 overflows; at 1e-170 sigma_e^2 also underflows to 0, and
        # 0 * inf used to be a NaN variance
        m = make_model(np.eye(2), sigma_e=se, sigma_n=1.0, s=1)
        with pytest.raises(OverflowingMatrixError, match=r"^sigma_e\^2 \|\|x\|\|\^2 \+ sigma_n\^2 overflows"):
            sigma_x_squared(m, SparseSignal(np.array([1e200, 0.0])))

    @given(
        se=st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
        sn=st.floats(0.0, 10.0),
        v=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3)),
            min_size=1,
            max_size=6,
        ),
    )
    def test_lower_bounded_by_measurement_noise(self, se, sn, v):
        x = np.asarray(v, dtype=float)
        n = x.size
        m = make_model(np.eye(n), sigma_e=se, sigma_n=sn, s=n)
        sx2 = sigma_x_squared(m, SparseSignal(x))
        assert sx2 >= sn**2
        # equality exactly when the matrix-noise contribution vanishes
        if se > 0.0 and np.any(x != 0.0):
            assert sx2 > sn**2
        else:
            assert sx2 == sn**2


class TestProblemModel:
    def test_dimensions(self):
        m = make_model(np.ones((3, 5)), 0.1, 0.2, 2)
        assert (m.m, m.n) == (3, 5)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidInputError):
            make_model(np.ones(4), 0.1, 0.1, 1)  # 1-d matrix
        with pytest.raises(InvalidInputError):
            make_model(np.eye(3), -0.1, 0.1, 1)
        with pytest.raises(InvalidInputError):
            make_model(np.eye(3), 0.1, -0.1, 1)
        with pytest.raises(InvalidInputError):
            make_model(np.eye(3), 0.1, 0.1, 4)  # s > n
        with pytest.raises(InvalidInputError):
            make_model(np.eye(3), 0.1, 0.1, 0)

    @pytest.mark.parametrize(
        "s", [2.5, np.float64(2.5), 2.0, np.float64(2.0), math.nan, math.inf, True, "2"]
    )
    def test_rejects_an_s_that_is_not_an_integer(self, s):
        # 2.5 used to become s = 2 through int(), and 2.0 was read as 2
        with pytest.raises(InvalidInputError, match="^sparsity budget s must be an integer"):
            make_model(np.eye(3), 0.1, 0.1, s)

    @pytest.mark.parametrize("s", [np.int64(2), 2])
    def test_accepts_an_integral_s(self, s):
        model = make_model(np.eye(3), 0.1, 0.1, s)
        assert model.s == 2 and type(model.s) is int

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_rejects_non_finite_noise_deviations(self, bad):
        with pytest.raises(InvalidInputError):
            make_model(np.eye(3), bad, 0.1, 1)
        with pytest.raises(InvalidInputError):
            make_model(np.eye(3), 0.1, bad, 1)

    def test_rejects_deviations_whose_fourth_power_overflows(self):
        # sigma^4 enters the Fisher information and the bounds; at 1e300 the
        # CCRB raised a bare OverflowError, a traceback from the command line
        for sigma_e, sigma_n in ((1e300, 0.1), (0.1, 1e300), (1e76, 0.1)):
            with pytest.raises(InvalidInputError, match="below 1e\\+75"):
                make_model(np.eye(3), sigma_e, sigma_n, 1)
        assert make_model(np.eye(3), 1e74, 1e74, 1).sigma_e == 1e74

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("at", [0, 12, 24])  # first, middle and last of 5 x 5
    def test_rejects_a_non_finite_entry_anywhere(self, bad, at):
        A = np.ones(25)
        A[at] = bad
        with pytest.raises(InvalidInputError, match="^A must be finite$"):
            make_model(A.reshape(5, 5), 0.1, 0.1, 1)

    def test_finiteness_scan_makes_no_matrix_sized_temporary(self):
        A = np.ones((2000, 2000))
        tracemalloc.start()
        try:
            model = make_model(A, 0.1, 0.1, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the scan reads the model's own copy, so a temporary would add to
        # it; an m x n bool mask would be 4 MB
        assert peak - model.A.nbytes < 2000 * 2000 // 16

    def test_matrix_is_frozen(self):
        m = make_model(np.eye(3), 0.1, 0.1, 1)
        with pytest.raises(ValueError):
            m.A[0, 0] = 7.0

    def test_verify_spark_flags_degenerate_matrix(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        # columns 0 and 1 coincide, so spark = 2 and 2s = 2 is not exceeded
        assert not spark_exceeds(A, 2 * 1)
        make_model(A, 0.1, 0.1, 1)  # the model does not check the spark

    def test_verify_spark_accepts_generic_matrix(self, rng):
        A = generate_gaussian_matrix(6, 8, rng)
        assert spark_exceeds(A, 2 * 3)


class TestWithNoise:
    BAD = [(-0.1, 0.1), (0.1, -0.1), (np.nan, 0.1), (0.1, np.nan), (np.inf, 0.1),
           (1e75, 0.1), (0.1, 1e75), (1e300, 0.1)]

    @pytest.mark.parametrize("sigma_e, sigma_n", BAD)
    def test_rejects_deviations_as_the_constructor_does(self, sigma_e, sigma_n):
        base = make_model(np.eye(3), 0.1, 0.1, 1)
        with pytest.raises(InvalidInputError) as made:
            make_model(np.eye(3), sigma_e, sigma_n, 1)
        with pytest.raises(InvalidInputError) as changed:
            base.with_noise(sigma_e, sigma_n)
        assert str(changed.value) == str(made.value)
        assert (base.sigma_e, base.sigma_n) == (0.1, 0.1)

    def test_shares_the_matrix_and_the_factor_cache(self, rng):
        base = make_model(generate_gaussian_matrix(6, 8, rng), 0.1, 0.2, 3)
        sibling = base.with_noise(np.float64(0.3), 1)
        assert sibling.A is base.A and not sibling.A.flags.writeable
        assert sibling._factors is base._factors
        assert sibling.s == 3
        assert (sibling.sigma_e, sibling.sigma_n) == (0.3, 1.0)
        assert type(sibling.sigma_e) is float and type(sibling.sigma_n) is float
        assert (base.sigma_e, base.sigma_n) == (0.1, 0.2)

    def test_does_not_copy_or_scan_the_matrix(self, monkeypatch):
        base = make_model(np.eye(3), 0.1, 0.1, 1)

        def forbidden(*args, **kwargs):
            raise AssertionError("with_noise touched the matrix")

        monkeypatch.setattr(model_module, "_frozen", forbidden)
        monkeypatch.setattr(model_module.np, "isfinite", forbidden)
        assert base.with_noise(0.2, 0.3).A is base.A


class TestAdoption:
    """ProblemModel copies every input A, so no array the caller can still
    write through is shared with a model."""

    def test_writeable_view_taken_before_a_freeze_cannot_reach_the_model(self, rng):
        A = generate_gaussian_matrix(6, 8, rng)
        V = A[:]
        A.setflags(write=False)
        model = ProblemModel(A, 0.1, 0.2, 3)
        kept = model.A.copy()
        assert model.A is not A and not model.A.flags.writeable
        V[0, 0] += 1.0
        assert np.array_equal(model.A, kept)

    def test_writeable_array_is_copied(self, rng):
        A = generate_gaussian_matrix(6, 8, rng)
        model = ProblemModel(A, 0.1, 0.2, 3)
        kept = model.A.copy()
        assert model.A is not A and not model.A.flags.writeable
        A[0, 0] += 1.0
        assert np.array_equal(model.A, kept)

    def test_read_only_view_of_a_writeable_base_is_copied(self, rng):
        base = generate_gaussian_matrix(6, 9, rng)
        view = base[:, :8]
        view.setflags(write=False)
        model = ProblemModel(view, 0.1, 0.2, 3)
        kept = model.A.copy()
        assert model.A is not view and not np.shares_memory(model.A, base)
        base[0, 0] += 1.0
        assert np.array_equal(model.A, kept)

    def test_read_only_float32_array_is_converted(self):
        A = np.eye(3, dtype=np.float32)
        A.setflags(write=False)
        model = ProblemModel(A, 0.1, 0.2, 1)
        assert model.A.dtype == np.float64 and not model.A.flags.writeable
        assert np.array_equal(model.A, np.eye(3))

    def test_signal_copies_a_writeable_input(self):
        v = np.array([1.0, 0.0, 2.0])
        out = SparseSignal(v).x
        assert out is not v and not out.flags.writeable
        v[0] = 5.0
        assert out[0] == 1.0


class TestSparseSignal:
    def test_support_defaults_to_nonzeros(self):
        x = SparseSignal(np.array([0.0, 2.0, 0.0, -1.0]))
        assert x.support == (1, 3)
        assert x.nonzero_count == 2
        assert x.n == 4

    def test_declared_superset_support(self):
        x = SparseSignal(np.array([1.0, 0.0, 0.0]), support=(0, 2))
        assert x.support == (0, 2)
        assert x.nonzero_count == 1

    def test_nonzero_off_support_rejected(self):
        with pytest.raises(InvalidInputError):
            SparseSignal(np.array([1.0, 2.0, 0.0]), support=(0,))

    def test_support_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            SparseSignal(np.array([1.0, 0.0]), support=(0, 5))

    def test_values_frozen(self):
        x = SparseSignal(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            x.x[0] = 3.0

    @pytest.mark.parametrize(
        "x, support, message",
        [
            (np.zeros((2, 2)), None, "x must be a nonempty 1-d array"),
            (np.zeros(0), (), "x must be a nonempty 1-d array"),
            (np.array([1.0, np.nan]), (0, 0), "x must be finite"),
            (np.array([np.inf, 0.0]), None, "x must be finite"),
            (np.array([-np.inf, 0.0, np.inf]), None, "x must be finite"),
            (np.array([1.0, 0.0, 0.0]), (2, 0), "support must be sorted and duplicate free"),
            (np.array([1.0, 0.0, 0.0]), (0, 0, 9), "support must be sorted and duplicate free"),
            (np.array([1.0, 2.0]), (-1, 0), "support indices out of range"),
            (np.array([1.0, 2.0]), (0, 2), "support indices out of range"),
            (np.array([1.0, 2.0, 0.0]), (1, 2), "x has nonzero entries off the declared support"),
        ],
    )
    def test_rejections_in_check_order(self, x, support, message):
        with pytest.raises(InvalidInputError) as info:
            SparseSignal(x, support)
        assert str(info.value) == message

    def test_huge_finite_entries_accepted_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = SparseSignal(np.array([1e300, 0.0, -1e300]), support=(0, 1, 2))
        assert x.support == (0, 1, 2)
        assert x.nonzero_count == 2

    def test_input_is_copied(self):
        raw = np.array([1.0, 0.0])
        x = SparseSignal(raw)
        raw[1] = 5.0
        assert x.x.tolist() == [1.0, 0.0]
        assert x.support == (0,)


class TestSampling:
    def test_noiseless_measurement_is_exact(self, rng):
        A = generate_gaussian_matrix(4, 6, rng)
        m = make_model(A, 0.0, 0.0, 2)
        x = SparseSignal(np.array([1.0, 0.0, -2.0, 0.0, 0.0, 0.0]))
        y = sample_measurement(m, x, rng)
        np.testing.assert_array_equal(y, A @ x.x)
        assert not y.flags.writeable

    def test_same_seed_same_draw(self):
        A = generate_gaussian_matrix(4, 6, np.random.default_rng(3))
        m = make_model(A, 0.5, 0.5, 2)
        x = SparseSignal(np.array([1.0, 0.0, -2.0, 0.0, 0.0, 0.0]))
        y1 = sample_measurement(m, x, np.random.default_rng(11))
        y2 = sample_measurement(m, x, np.random.default_rng(11))
        np.testing.assert_array_equal(y1, y2)

    def test_residual_covariance_matches_equivalent_model(self, rng):
        """y - Ax must be iid Gaussian with variance sigma_e^2 ||x||^2 + sigma_n^2."""
        A = generate_gaussian_matrix(3, 4, rng)
        model = make_model(A, 0.7, 0.4, 2)
        x = SparseSignal(np.array([1.5, 0.0, -0.5, 0.0]))
        sx2 = sigma_x_squared(model, x)
        draws = 100_000
        R = np.empty((draws, 3))
        mean_ax = A @ x.x
        for t in range(draws):
            R[t] = sample_measurement(model, x, rng) - mean_ax
        emp = (R.T @ R) / draws
        np.testing.assert_allclose(emp, sx2 * np.eye(3), atol=0.03 * sx2)
        assert np.all(np.abs(R.mean(axis=0)) < 3.0 * np.sqrt(sx2 / draws) * 1.5)

    def test_model_measurement_coercion(self):
        model = make_model(np.eye(2), sigma_e=0.1, sigma_n=0.1, s=1)
        np.testing.assert_array_equal(model_measurement(model, [1.0, 2.0]), [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            model_measurement(model, np.ones((2, 2)))

    @pytest.mark.parametrize("y", [np.ones((2, 2)), np.zeros(0), 1.0])
    def test_model_measurement_rejects_a_non_vector(self, y):
        # the shape is checked before the length, on a model where m = 2
        model = make_model(np.eye(2), sigma_e=0.1, sigma_n=0.1, s=1)
        with pytest.raises(InvalidInputError, match="^measurement must be a nonempty 1-d vector$"):
            model_measurement(model, y)


class TestGenerators:
    def test_gaussian_matrix_shape_and_determinism(self):
        A = generate_gaussian_matrix(5, 9, np.random.default_rng(42))
        B = generate_gaussian_matrix(5, 9, np.random.default_rng(42))
        assert A.shape == (5, 9)
        np.testing.assert_array_equal(A, B)

    def test_gaussian_matrix_column_energy(self, rng):
        # entries are N(0, 1/m): squared column norms concentrate around 1
        A = generate_gaussian_matrix(400, 50, rng)
        norms = np.sum(A * A, axis=0)
        assert abs(norms.mean() - 1.0) < 0.02

    def test_bernoulli_signal_values(self, rng):
        x = generate_bernoulli_signal(12, 4, rng)
        assert x.n == 12
        assert x.nonzero_count == 4
        on = x.x[list(x.support)]
        assert set(np.abs(on)) == {1.0}

    def test_bernoulli_support_uniform(self):
        rng = np.random.default_rng(7)
        n, s, draws = 10, 3, 10_000
        hits = 0
        for _ in range(draws):
            if 0 in generate_bernoulli_signal(n, s, rng).support:
                hits += 1
        p = s / n
        sd = np.sqrt(p * (1 - p) / draws)
        assert abs(hits / draws - p) < 3 * sd

    def test_bernoulli_full_support_and_errors(self, rng):
        x = generate_bernoulli_signal(4, 4, rng)
        assert x.nonzero_count == 4
        with pytest.raises(InvalidInputError):
            generate_bernoulli_signal(3, 4, rng)


class TestSpark:
    def test_identity_spark(self):
        # spark(I_n) = n + 1, so every k up to n passes
        assert spark_exceeds(np.eye(4), 4)
        assert spark_exceeds(np.eye(4), 3)

    def test_duplicate_columns(self):
        A = np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        assert spark_exceeds(A, 1)
        assert not spark_exceeds(A, 2)

    def test_more_columns_than_rows(self, rng):
        A = generate_gaussian_matrix(2, 4, rng)
        assert not spark_exceeds(A, 3)  # any 3 columns in R^2 are dependent

    def test_k_above_n_is_false(self):
        assert not spark_exceeds(np.eye(3), 4)

    def test_matches_rank_oracle(self, rng):
        """Exhaustive re-derivation from singular values on small random matrices."""
        for trial in range(8):
            A = generate_gaussian_matrix(4, 6, np.random.default_rng(100 + trial))
            for k in (1, 2, 3, 4):
                expected = True
                for cols in itertools.combinations(range(6), k):
                    sv = np.linalg.svd(A[:, cols], compute_uv=False)
                    if sv[-1] <= 1e-10 * sv[0]:
                        expected = False
                        break
                assert spark_exceeds(A, k) == expected

    def test_enumeration_limit(self):
        with pytest.raises(UnsupportedSizeError):
            spark_exceeds(np.eye(30), 25)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_matrix(self, bad):
        # used to end in numpy's LinAlgError from the rank's SVD
        A = np.eye(4)
        A[2, 1] = bad
        with pytest.raises(InvalidInputError, match="^A must be finite$"):
            spark_exceeds(A, 2)

    @pytest.mark.parametrize("A", [np.ones(4), np.zeros((3, 0)), np.zeros((0, 3))])
    def test_rejects_an_empty_or_non_matrix_input(self, A):
        with pytest.raises(InvalidInputError, match="^A must be a nonempty 2-d array$"):
            spark_exceeds(A, 1)


# every public function of (model, signal), called on a model with n = 4
_SIGNAL_FUNCTIONS = {
    "sigma_x_squared": sigma_x_squared,
    "positive_sigma_x_squared": positive_sigma_x_squared,
    "ccrb_bound": ccrb_bound,
    "ccrb_maximal": ccrb_maximal,
    "ccrb_nonmaximal": ccrb_nonmaximal,
    "noise_levels": noise_levels,
    "oracle_mse_theoretical": lambda m, x: oracle_mse_theoretical(m, (0,), x),
    "test_points": lambda m, x: make_test_points(m, x, [np.eye(4)[1]]),
    "hcrb_general": lambda m, x: hcrb_general(m, x, [np.eye(4)[1]]),
    "hcrb_unit_closed_form": hcrb_unit_closed_form,
    "d_hcrb": d_hcrb,
    "beta_of": beta_of,
    "fim_closed_form": fim_closed_form,
    "fim_monte_carlo": lambda m, x: fim_monte_carlo(m, x, 10, np.random.default_rng(0)),
    "log_likelihood": lambda m, x: log_likelihood(m, x, np.zeros(4)),
    "score": lambda m, x: score(m, x, np.zeros(4)),
    "sample_measurement": lambda m, x: sample_measurement(m, x, np.random.default_rng(0)),
    "run_trials": lambda m, x: run_trials(m, x, EstimatorSpec.oracle((0,)), 10, 0),
}


@pytest.mark.parametrize("length", [3, 5])
@pytest.mark.parametrize("name", sorted(_SIGNAL_FUNCTIONS))
def test_signal_length_mismatch_is_an_input_error(name, length):
    model = make_model(np.eye(4), sigma_e=0.1, sigma_n=0.2, s=1)
    signal = SparseSignal(np.eye(length)[0])
    with pytest.raises(InvalidInputError, match=f"signal length {length} does not match model n=4"):
        _SIGNAL_FUNCTIONS[name](model, signal)


_E0 = SparseSignal(np.eye(3)[0])

# every public function of (model, measurement), called on A = I_3
_MEASUREMENT_FUNCTIONS = {
    "log_likelihood": lambda m, y: log_likelihood(m, _E0, y),
    "score": lambda m, y: score(m, _E0, y),
    "estimate_oracle": lambda m, y: estimate_oracle(m, y, (0,)),
    **{
        f"apply_estimator[{spec.name}]": (
            lambda m, y, spec=spec: apply_estimator(m, y, spec)
        )
        for spec in (
            EstimatorSpec.oracle((0,)),
            EstimatorSpec.maximum_likelihood(1),
            EstimatorSpec.locally_unbiased(_E0),
            EstimatorSpec.noise_exploiting(),
        )
    },
}


@pytest.mark.parametrize("length", [1, 4])
@pytest.mark.parametrize("name", sorted(_MEASUREMENT_FUNCTIONS))
def test_measurement_length_mismatch_is_an_input_error(name, length):
    model = make_model(np.eye(3), sigma_e=0.1, sigma_n=0.1, s=1)
    with pytest.raises(InvalidInputError, match="measurement length does not match model m"):
        _MEASUREMENT_FUNCTIONS[name](model, np.full(length, 0.5))


@pytest.mark.parametrize("name", sorted(_MEASUREMENT_FUNCTIONS))
def test_empty_measurement_is_an_input_error(name):
    model = make_model(np.eye(3), sigma_e=0.1, sigma_n=0.1, s=1)
    with pytest.raises(InvalidInputError, match="^measurement must be a nonempty 1-d vector$"):
        _MEASUREMENT_FUNCTIONS[name](model, np.array([]))


_UNIT3 = make_model(np.eye(3), sigma_e=0.1, sigma_n=0.1, s=1)

# every site that reads support indices, returning what it made of them
_INDEX_SITES = {
    "SparseSignal": lambda S: SparseSignal(np.zeros(3), S).support,
    "estimate_oracle": lambda S: estimate_oracle(_UNIT3, np.arange(3.0), S).tolist(),
    "oracle_mse_theoretical": lambda S: oracle_mse_theoretical(_UNIT3, S, SparseSignal(np.zeros(3))),
    "EstimatorSpec.oracle": lambda S: EstimatorSpec.oracle(S).support,
}


@pytest.mark.parametrize(
    "index", [0.7, 1.9, 2.0, 0.0, True, np.float64(1.0), np.bool_(True)], ids=repr
)
@pytest.mark.parametrize("site", sorted(_INDEX_SITES))
def test_a_support_index_that_is_not_an_integer_is_rejected(site, index):
    # int() would truncate each of these to a valid index
    with pytest.raises(InvalidInputError, match="^support indices must be integers, got "):
        _INDEX_SITES[site]((index,))


@pytest.mark.parametrize("index", [np.int64(1), np.int32(1), np.uint8(1)], ids=repr)
@pytest.mark.parametrize("site", sorted(_INDEX_SITES))
def test_a_numpy_integer_support_index_is_the_int(site, index):
    got = _INDEX_SITES[site]((index,))
    assert got == _INDEX_SITES[site]((1,))
    if isinstance(got, tuple):
        assert type(got[0]) is int


class TestDeviationType:
    """One rule for sigma_e and sigma_n, in the constructor and in
    with_noise: a real number other than a bool, a numpy scalar tested as
    its Python value."""

    MESSAGE = r"^noise deviations must be finite, nonnegative real numbers below 1e\+75$"

    @staticmethod
    def _both_ways(sigma):
        yield make_model(np.eye(2), sigma, sigma, 1)
        yield make_model(np.eye(2), 0.1, 0.1, 1).with_noise(sigma, sigma)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma", [np.float32(0.1), np.float16(0.5), np.float32(3e38), np.int64(2), 2, Fraction(1, 4)],
        ids=repr,
    )
    def test_a_real_deviation_is_its_float_without_a_warning(self, sigma):
        # a float32 sigma was compared with MAX_DEVIATION in float32, where
        # 1e75 overflows the cast
        for model in self._both_ways(sigma):
            assert (model.sigma_e, model.sigma_n) == (float(sigma), float(sigma))
            assert type(model.sigma_e) is float and type(model.sigma_n) is float

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "sigma",
        ["0.1", 1j, np.complex128(0.1), True, np.bool_(True), None, np.float32(np.inf), 10**400],
        ids=repr,
    )
    def test_a_deviation_that_is_not_a_finite_real_number_is_an_input_error(self, sigma):
        # a str or complex sigma ended in a bare TypeError, a bool was read as 1.0
        with pytest.raises(InvalidInputError, match=self.MESSAGE):
            make_model(np.eye(2), sigma, 0.1, 1)
        with pytest.raises(InvalidInputError, match=self.MESSAGE):
            make_model(np.eye(2), 0.1, 0.1, 1).with_noise(0.1, sigma)


# the sites that read an array input, with the name their error gives;
# each builds its input from one length-3 row v
_ARRAY_SITES = {
    "ProblemModel": ("A", lambda v: ProblemModel([v, v, v], 0.1, 0.1, 1).A),
    "spark_exceeds": ("A", lambda v: spark_exceeds([v, v, v], 1)),
    "SparseSignal": ("x", lambda v: SparseSignal(v).x),
    "model_measurement": ("y", lambda v: model_measurement(_UNIT3, v)),
    "estimate_oracle": ("y", lambda v: estimate_oracle(_UNIT3, v, (0, 2))),
    "apply_estimator[noise]": ("y", lambda v: apply_estimator(_UNIT3, v, EstimatorSpec.noise_exploiting())),
    "score": ("y", lambda v: score(_UNIT3, _E0, v)),
    # sigma_e = 0 and a wide sigma_n keep H finite for every offset below
    "test_points": ("offset 1", lambda v: make_test_points(
        make_model(np.eye(3), sigma_e=0.0, sigma_n=1e30, s=3), _E0, [_E0.x, v]).H),
    "sigmas_at_levels": ("A", lambda v: sigmas_at_levels([v, v, v], _E0, [(1.0, 2.0)], 1)),
    "FisherMatrix": ("J", lambda v: FisherMatrix([v, v, v], 1.0).J),
    "TrialSummary": ("bias", lambda v: TrialSummary(0.0, v, 1, 0, 0.0).bias),
    "chunk_moments": ("qs", chunk_moments),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "v",
    [
        [1j, 2.0, 3.0],
        np.array([1.0, 2.0, 3.0], dtype=complex),
        ["1", "2", "3"],
        np.array([b"1", b"2", b"3"]),
        np.array([1.0, "2", 3.0], dtype=object),
        np.array([1.0, 2j, 3.0], dtype=object),
        np.array([1.0, None, 3.0], dtype=object),
    ],
    ids=lambda v: f"{np.asarray(v).dtype}:{list(v)!r}",
)
@pytest.mark.parametrize("site", sorted(_ARRAY_SITES))
def test_a_complex_or_text_array_input_is_an_input_error(site, v):
    # a complex array ended in a bare TypeError (or a ComplexWarning), and
    # text entries were parsed as numbers
    name, call = _ARRAY_SITES[site]
    with pytest.raises(InvalidInputError, match=f"^{name} must hold real numbers, got dtype "):
        call(v)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "v",
    [
        [1, 2, 3],
        [True, False, True],
        np.array([1, 2, 3], dtype=np.uint8),
        np.array([1.0, 2.0, 3.0], dtype=np.float32),
        np.array([1.0, 2.0, 3.0], dtype=">f8"),
        np.array([Fraction(1, 2), 2, np.float64(3.0)], dtype=object),
        [2**70, 2, 3],
    ],
    ids=lambda v: f"{np.asarray(v).dtype}:{list(v)!r}",
)
@pytest.mark.parametrize("site", sorted(_ARRAY_SITES))
def test_a_real_array_input_converts_as_the_float_array(site, v):
    _, call = _ARRAY_SITES[site]
    got, want = call(v), call(np.asarray(v, dtype=float))
    if isinstance(got, np.ndarray):
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()
    else:
        assert got == want


def test_a_float64_measurement_passes_without_a_copy():
    Y = np.arange(12.0).reshape(4, 3)
    for y in (Y[1], Y[:, 1][:3], Y.ravel()[::4]):
        assert model_measurement(_UNIT3, y) is y


def _eigensolve_gram_inverse(A_S):
    """gram_inverse without its Cholesky screen: a non-finite Gram raises
    before any factorisation, and the eigensolve decides every other one."""
    with np.errstate(over="ignore", invalid="ignore"):
        gram = A_S.T @ A_S
    if not np.isfinite(gram).all():
        raise OverflowingMatrixError("A_S^T A_S overflows double range")
    w = np.linalg.eigvalsh(gram)
    if not np.isfinite(w).all():
        raise OverflowingMatrixError("A_S^T A_S overflows double range")
    if w[-1] <= 0.0 or w[0] <= model_module.SINGULARITY_RTOL * w[-1]:
        raise SingularMatrixError("A_S^T A_S is singular")
    G = np.linalg.inv(gram)
    if not np.isfinite(G).all():
        raise OverflowingMatrixError("(A_S^T A_S)^{-1} overflows double range")
    return G


def _outcome(invert, A_S):
    """The error class and message, or the inverse's shape and bytes."""
    try:
        G = invert(A_S)
    except Exception as exc:  # numpy's LinAlgError too: every outcome is compared
        return type(exc), str(exc)
    return G.shape, G.tobytes()


def _screen_cases():
    """(id, A_S) pairs on both sides of the screen and of SINGULARITY_RTOL."""
    rng = np.random.default_rng(2024)
    for k in range(150):
        m, s = int(rng.integers(1, 40)), int(rng.integers(1, 12))
        yield f"random-{m}x{s}-{k}", rng.standard_normal((m, s))
    for eps in np.logspace(-9, -3, 25):
        for s, m in ((2, 2), (3, 20), (8, 50)):
            A = rng.standard_normal((m, s))
            A[:, 1] = A[:, 0] + eps * rng.standard_normal(m)
            yield f"duplicate-{eps:.1e}-{m}x{s}", A
    for s, m in ((1, 4), (3, 10)):
        A = rng.standard_normal((m, s))
        A[:, -1] = 0.0
        yield f"zero-column-{m}x{s}", A
    for e in (-160, -155, -150, -145, 145, 150, 155, 160):
        for s, m in ((1, 3), (4, 12)):
            yield f"scaled-1e{e}-{m}x{s}", rng.standard_normal((m, s)) * 10.0**e
    for bad in (math.nan, math.inf, -math.inf):
        for i, j in ((0, 0), (2, 1)):
            A = rng.standard_normal((6, 3))
            A[i, j] = bad
            yield f"{bad}-at-{i},{j}", A


class TestGramInverseScreen:
    @pytest.mark.parametrize("case", list(_screen_cases()), ids=lambda c: c[0])
    def test_the_screen_never_changes_a_decision_or_a_byte(self, case):
        _, A_S = case
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(gram_inverse, A_S) == _outcome(_eigensolve_gram_inverse, A_S)

    def test_random_near_duplicate_supports_decide_as_the_eigensolve(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            m, s = int(rng.integers(1, 30)), int(rng.integers(1, 10))
            A = rng.standard_normal((m, s))
            if s > 1 and rng.random() < 0.5:
                A[:, 1] = A[:, 0] + 10.0 ** rng.uniform(-9, -3) * rng.standard_normal(m)
            assert _outcome(gram_inverse, A) == _outcome(_eigensolve_gram_inverse, A)

    def test_the_cases_reach_both_sides_of_the_singularity_test(self):
        outcomes = {_outcome(gram_inverse, A)[0] for _, A in _screen_cases()}
        assert {SingularMatrixError, OverflowingMatrixError} <= outcomes
        assert any(isinstance(o, tuple) for o in outcomes)

    def _count_eigvalsh(self, monkeypatch):
        calls = []
        real = np.linalg.eigvalsh

        def counting(a, *args, **kwargs):
            calls.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        return calls

    def test_a_well_conditioned_support_skips_the_eigensolve(self, monkeypatch):
        A_S = generate_gaussian_matrix(300, 30, np.random.default_rng(5))
        calls = self._count_eigvalsh(monkeypatch)
        gram_inverse(A_S)
        assert calls == []

    def test_a_near_singular_support_takes_the_eigensolve(self, monkeypatch):
        A_S = generate_gaussian_matrix(300, 30, np.random.default_rng(5))
        A_S[:, 1] = A_S[:, 0] + 1e-7 * A_S[:, 2]
        calls = self._count_eigvalsh(monkeypatch)
        with pytest.raises(SingularMatrixError, match="A_S\\^T A_S is singular"):
            gram_inverse(A_S)
        assert calls == [(30, 30)]


@pytest.mark.parametrize("seed", [0, 7, 91])
@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (6, 1), (9, 4), (3000, 300)])
def test_gaussian_matrix_keeps_the_bits_and_end_state_of_normal(seed, m, n):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    A = generate_gaussian_matrix(m, n, rng)
    want = ref.normal(0.0, 1.0 / math.sqrt(m), size=(m, n))
    assert A.shape == want.shape and A.dtype == want.dtype
    assert A.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


def _e0(n=2, scale=1.0):
    x = np.zeros(n)
    x[0] = scale
    return SparseSignal(x)


# one reproducer per OverflowingMatrixError text, each raised through
# model._finite but the underflow; a warning fails the case
OVERFLOW_TEXTS = {
    "sigma_x^2": (
        lambda: sigma_x_squared(make_model(np.eye(2), 1e70, 0.1, 1), _e0(scale=1e200)),
        "sigma_e^2 ||x||^2 + sigma_n^2 overflows double range",
    ),
    "gram": (lambda: gram_inverse(1e200 * np.eye(2)), "A_S^T A_S overflows double range"),
    "gram spectrum": (
        lambda: gram_inverse(np.full((2, 2), 0.9e154)), "A_S^T A_S overflows double range",
    ),
    "gram inverse": (
        lambda: gram_inverse(1e-160 * np.eye(2)), "(A_S^T A_S)^{-1} overflows double range",
    ),
    "ccrb": (
        lambda: ccrb_bound(
            make_model(np.random.default_rng(1).standard_normal((8, 3)) * 1e-150, 0.1, 0.1, 2),
            SparseSignal(np.array([4e99, 2.4e99, 0.0])),
        ),
        "CCRB overflows double range",
    ),
    "rank-deficient ccrb": (
        lambda: ccrb_nonmaximal(make_model(np.diag([1.0, 0.0]), 1e-80, 1.0, 2),
                                SparseSignal(np.array([0.0, 1.0]))),
        "J^{-1} overflows double range",
    ),
    "rip support": (
        lambda: rip_constants(1e200 * np.eye(3), 1, mode="exhaustive"),
        "support (0,): A_S^T A_S overflows double range",
    ),
    "energy underflow": (
        lambda: sigmas_for_levels(np.eye(2), _e0(scale=1e-200), 1.0, 1.0, 1),
        "||x||^2 underflows double range",
    ),
    "energy": (
        lambda: sigmas_for_levels(np.eye(2), _e0(scale=1e200), 1.0, 1.0, 1),
        "||x||^2 overflows double range",
    ),
    "support trace": (
        lambda: sigmas_for_levels(1e200 * np.eye(2), _e0(), 1.0, 1.0, 1),
        "tr(A_S^T A_S) overflows double range",
    ),
    "noise levels": (
        lambda: noise_levels(make_model(1e-100 * np.eye(2), 1e74, 0.1, 1), _e0()),
        "noise levels overflow double range",
    ),
    "fisher": (
        lambda: fim_closed_form(make_model(1e160 * np.eye(2), 0.1, 0.1, 1), _e0()),
        "Fisher information J overflows double range",
    ),
    "trials": (
        lambda: run_trials(make_model(np.eye(5), 1.0, 0.0, 1), _e0(5, 1e154),
                           EstimatorSpec.oracle((0,)), 20, 0),
        "the trials' MSE or bias overflows double range",
    ),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", OVERFLOW_TEXTS)
def test_each_overflow_text_in_full(case):
    call, message = OVERFLOW_TEXTS[case]
    with pytest.raises(OverflowingMatrixError, match=f"^{re.escape(message)}$"):
        call()
