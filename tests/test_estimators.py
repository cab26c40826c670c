import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparsebounds.errors import InvalidInputError, SingularMatrixError
from sparsebounds.estimators import (
    EstimatorSpec,
    apply_estimator,
    estimate_locally_unbiased,
    estimate_ml_unit,
    estimate_noise_exploiting,
    estimate_oracle,
    estimator_kernel,
    row_dot,
)
from sparsebounds.model import (
    ProblemModel,
    SparseSignal,
    generate_gaussian_matrix,
    sample_measurement,
    sigma_x_squared,
)


class TestOracle:
    def test_identity_support_projection(self):
        model = ProblemModel(A=np.eye(4), sigma_e=0.1, sigma_n=0.1, s=2)
        y = np.array([3.0, -1.0, 2.0, 0.5])
        xhat = estimate_oracle(model, y, support=(0, 2))
        np.testing.assert_array_equal(xhat.x, [3.0, 0.0, 2.0, 0.0])
        assert xhat.support == (0, 2)

    def test_noiseless_recovery(self, rng):
        A = generate_gaussian_matrix(6, 10, rng)
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=0.0, s=3)
        x = SparseSignal(np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
        y = sample_measurement(model, x, rng)
        xhat = estimate_oracle(model, y, support=x.support)
        np.testing.assert_allclose(xhat.x, x.x, atol=1e-10)

    def test_least_squares_on_support(self, rng):
        A = generate_gaussian_matrix(7, 5, rng)
        model = ProblemModel(A=A, sigma_e=0.2, sigma_n=0.3, s=2)
        y = rng.normal(size=7)
        S = (1, 3)
        xhat = estimate_oracle(model, y, support=S)
        ref, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
        np.testing.assert_allclose(xhat.x[list(S)], ref, rtol=1e-10)

    def test_singular_support_rejected(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.1, s=2)
        with pytest.raises(SingularMatrixError):
            estimate_oracle(model, np.array([1.0, 1.0]), support=(0, 1))


class TestMlUnit:
    def test_keeps_largest_magnitudes(self):
        y = np.array([3.0, 1.0, -2.0])
        one = estimate_ml_unit(y, s=1)
        np.testing.assert_array_equal(one.x, [3.0, 0.0, 0.0])
        two = estimate_ml_unit(y, s=2)
        np.testing.assert_array_equal(two.x, [3.0, 0.0, -2.0])

    def test_tie_prefers_lowest_index(self):
        y = np.array([1.0, -1.0])
        xhat = estimate_ml_unit(y, s=1)
        np.testing.assert_array_equal(xhat.x, [1.0, 0.0])

    def test_scale_invariant_support(self, rng):
        for _ in range(20):
            yv = rng.normal(size=8)
            a = estimate_ml_unit(yv, s=3).support
            b = estimate_ml_unit(4.7 * yv, s=3).support
            assert a == b

    def test_s_must_fit(self):
        with pytest.raises(InvalidInputError):
            estimate_ml_unit(np.array([1.0, 2.0]), s=3)


class TestLocallyUnbiased:
    def test_fixed_point_at_reference(self):
        x0 = SparseSignal(np.array([0.0, 2.0, 0.0]), support=(1,))
        model = ProblemModel(A=np.eye(3), sigma_e=0.5, sigma_n=0.5, s=1)
        out = estimate_locally_unbiased(model, x0.x.copy(), x0)
        # at y = x0 the damping is exp(-3 x0q^2 / (2 sigma^2)) on off-support
        s0sq = sigma_x_squared(model, x0)
        damp = np.exp(-3.0 * 4.0 / (2.0 * s0sq))
        np.testing.assert_allclose(out, [0.0, 2.0, 0.0], atol=1e-15)
        assert damp < 1.0  # sanity on the hand-computed factor

    def test_zero_reference_coordinate_is_identity(self):
        x0 = SparseSignal(np.array([0.0, 0.0, 0.0]), support=(2,))
        model = ProblemModel(A=np.eye(3), sigma_e=0.3, sigma_n=0.4, s=1)
        y = np.array([1.0, -2.0, 0.7])
        out = estimate_locally_unbiased(model, y, x0)
        np.testing.assert_array_equal(out, y)

    def test_reference_coordinate_passthrough(self, rng):
        x0 = SparseSignal(np.array([1.5, 0.0]), support=(0,))
        model = ProblemModel(A=np.eye(2), sigma_e=0.2, sigma_n=0.5, s=1)
        y = rng.normal(size=2)
        out = estimate_locally_unbiased(model, y, x0)
        assert out[0] == y[0]

    def test_unbiased_at_reference_point(self):
        """Vectorized 10^6-draw check: every mean estimate within 3 standard
        errors of the true coordinate."""
        n = 4
        x0 = SparseSignal(np.array([0.8, 0.0, 0.0, 0.0]), support=(0,))
        model = ProblemModel(A=np.eye(n), sigma_e=0.3, sigma_n=0.4, s=1)
        s0sq = sigma_x_squared(model, x0)
        rng = np.random.default_rng(12)
        draws = 1_000_000
        Y = x0.x + np.sqrt(s0sq) * rng.standard_normal((draws, n))
        damp = np.exp(-(2.0 * Y[:, 0] * 0.8 + 0.64) / (2.0 * s0sq))
        est = Y * damp[:, None]
        est[:, 0] = Y[:, 0]
        mean = est.mean(axis=0)
        se = est.std(axis=0, ddof=1) / np.sqrt(draws)
        assert np.all(np.abs(mean - x0.x) <= 3.0 * se)
        # and the library implementation agrees with the vectorized oracle
        row = estimate_locally_unbiased(model, Y[0], x0)
        np.testing.assert_allclose(row, est[0], rtol=1e-12)

    def test_requires_singleton_reference_support(self):
        x0 = SparseSignal(np.array([1.0, 2.0, 0.0]))
        model = ProblemModel(A=np.eye(3), sigma_e=0.1, sigma_n=0.1, s=2)
        with pytest.raises(InvalidInputError):
            estimate_locally_unbiased(model, np.zeros(3), x0)


class TestNoiseExploiting:
    def test_energy_rescaling(self):
        out = estimate_noise_exploiting(np.array([2.0, 0.0]))
        np.testing.assert_allclose(out.x, [1.0, 0.0], rtol=1e-14)

    def test_single_spike(self):
        out = estimate_noise_exploiting(np.array([0.0, -3.0, 0.0]))
        # energy 9 over 2*(-3) lands on the peak coordinate
        np.testing.assert_allclose(out.x, [0.0, -1.5, 0.0], rtol=1e-14)
        assert out.support == (1,)

    def test_energy_spreads_into_peak(self):
        out = estimate_noise_exploiting(np.array([4.0, 2.0]))
        np.testing.assert_allclose(out.x, [2.5, 0.0], rtol=1e-14)

    def test_zero_measurement_rejected(self):
        with pytest.raises(InvalidInputError):
            estimate_noise_exploiting(np.zeros(3))


class TestDispatch:
    def test_all_kinds_return_dense_vectors(self, rng):
        model = ProblemModel(A=np.eye(5), sigma_e=0.1, sigma_n=0.3, s=1)
        x0 = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        y = sample_measurement(model, x0, rng)
        specs = [
            EstimatorSpec.oracle((0,)),
            EstimatorSpec.maximum_likelihood(1),
            EstimatorSpec.locally_unbiased(x0),
            EstimatorSpec.noise_exploiting(),
        ]
        for spec in specs:
            out = apply_estimator(model, y, spec)
            assert out.shape == (5,)
            assert out.dtype == np.float64

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidInputError):
            EstimatorSpec(kind="banana")

    def test_names(self):
        assert EstimatorSpec.maximum_likelihood(2).name == "ml"
        assert EstimatorSpec.oracle((1,)).name == "oracle"

    def test_named_gives_each_factory_spec_for_long_and_short_names(self):
        model = ProblemModel(A=np.eye(5), sigma_e=0.1, sigma_n=0.3, s=1)
        x0 = SparseSignal(np.array([0.0, 0.0, 2.0, 0.0, 0.0]))
        want = {
            "oracle": EstimatorSpec.oracle(x0.support),
            "maximum_likelihood": EstimatorSpec.maximum_likelihood(model.s),
            "locally_unbiased": EstimatorSpec.locally_unbiased(x0),
            "noise_exploiting": EstimatorSpec.noise_exploiting(),
        }
        fields = ("kind", "support", "s", "x0")
        for kind, spec in want.items():
            for name in (kind, spec.name):
                got = EstimatorSpec.named(name, model, x0)
                assert [getattr(got, f) for f in fields] == [getattr(spec, f) for f in fields]
        assert {spec.name for spec in want.values()} == {"oracle", "ml", "unbiased", "noise"}

    def test_named_rejects_an_unknown_name(self):
        model = ProblemModel(A=np.eye(3), sigma_e=0.1, sigma_n=0.3, s=1)
        x0 = SparseSignal(np.array([1.0, 0.0, 0.0]))
        with pytest.raises(InvalidInputError, match="unknown estimator 'bogus'"):
            EstimatorSpec.named("bogus", model, x0)


# values that make ties, zeros and non-finite entries likely
_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -2.5, np.inf, -np.inf, np.nan]),
    st.floats(-1e3, 1e3),
)


@st.composite
def _blocks(draw, m=4):
    Y = draw(arrays(np.float64, st.tuples(st.integers(0, 6), st.just(m)), elements=_ENTRIES))
    zero_rows = draw(st.lists(st.booleans(), min_size=len(Y), max_size=len(Y)))
    Y[np.array(zero_rows, dtype=bool)] = 0.0
    return Y


def _per_row(spec, y):
    """The per-row estimators the block kernels replaced, spelled out for
    one y on the unit model below: (estimate, None) or (None, message)."""
    if spec.kind == "locally_unbiased":
        s0sq = 0.1**2 * 0.8**2 + 0.3**2
        out = y * np.exp(-(2.0 * y[0] * 0.8 + 0.8**2) / (2.0 * s0sq))
        out[0] = y[0]
        return out, None
    if spec.kind == "maximum_likelihood":
        if spec.s == 1:
            keep = np.abs(y).argmax(keepdims=True)
        else:
            keep = np.sort(np.argsort(-np.abs(y), kind="stable")[: spec.s])
        value = y[keep]
    else:
        if not y.any():
            return None, "zero measurement has no identifiable support"
        keep = int(np.abs(y).argmax())
        value = float(y @ y) / (2.0 * y[keep])
    if not np.isfinite(value).all():
        return None, "x must be finite"
    out = np.zeros(y.size)
    out[keep] = value
    return out, None


class TestBlockKernels:
    MODEL = ProblemModel(A=np.eye(4), sigma_e=0.1, sigma_n=0.3, s=2)
    SPECS = [
        EstimatorSpec.oracle((0, 2)),
        EstimatorSpec.maximum_likelihood(1),
        EstimatorSpec.maximum_likelihood(2),
        EstimatorSpec.locally_unbiased(SparseSignal(np.array([0.8, 0.0, 0.0, 0.0]))),
        EstimatorSpec.noise_exploiting(),
    ]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # non-finite rows overflow
    @settings(max_examples=60)
    @given(Y=_blocks())
    def test_each_row_equals_its_one_row_block(self, Y):
        for spec in self.SPECS:
            kernel = estimator_kernel(self.MODEL, spec)
            X, errors = kernel(Y)
            assert X.shape == Y.shape
            assert list(errors) == sorted(errors)
            for i in range(len(Y)):
                Xi, errors_i = kernel(Y[i : i + 1])
                if i in errors:
                    got, want = errors[i], errors_i[0]
                    assert (type(got), str(got)) == (type(want), str(want))
                else:
                    assert errors_i == {}
                    np.testing.assert_array_equal(X[i], Xi[0])
                if spec.kind != "oracle":  # the oracle block map calls estimate_oracle
                    want_x, want_error = _per_row(spec, Y[i])
                    assert (str(errors[i]) if i in errors else None) == want_error
                    if want_error is None:
                        np.testing.assert_array_equal(X[i], want_x)

    def test_one_row_failures_raise_from_the_public_functions(self):
        ml = EstimatorSpec.maximum_likelihood(1)
        with pytest.raises(InvalidInputError, match="x must be finite"):
            apply_estimator(self.MODEL, np.array([np.inf, 0.0, 0.0, 0.0]), ml)
        with pytest.raises(InvalidInputError, match="zero measurement"):
            apply_estimator(self.MODEL, np.zeros(4), EstimatorSpec.noise_exploiting())
        with pytest.raises(InvalidInputError, match="x must be finite"):
            estimate_noise_exploiting(np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("n", [5, 10_000])
def test_row_dot_is_the_one_row_dot_bit_for_bit(n):
    rng = np.random.default_rng(n)
    E = rng.standard_normal((9, n)) * 10.0 ** rng.integers(-8, 8, size=(9, 1))
    assert row_dot(E).tolist() == [float(e @ e) for e in E]
