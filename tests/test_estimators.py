import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from sparsebounds.errors import InvalidInputError, SingularMatrixError, UnsupportedMatrixError
from sparsebounds.estimators import (
    EstimatorSpec,
    apply_estimator,
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
    support_factor,
)


class TestOracle:
    def test_identity_support_projection(self):
        model = ProblemModel(A=np.eye(4), sigma_e=0.1, sigma_n=0.1, s=2)
        y = np.array([3.0, -1.0, 2.0, 0.5])
        xhat = estimate_oracle(model, y, support=(0, 2))
        np.testing.assert_array_equal(xhat, [3.0, 0.0, 2.0, 0.0])
        assert xhat.shape == (4,) and xhat.dtype == np.float64

    def test_noiseless_recovery(self, rng):
        A = generate_gaussian_matrix(6, 10, rng)
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=0.0, s=3)
        x = SparseSignal(np.array([1.0, 0.0, -2.0, 0.0, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0]))
        y = sample_measurement(model, x, rng)
        xhat = estimate_oracle(model, y, support=x.support)
        np.testing.assert_allclose(xhat, x.x, atol=1e-10)

    def test_least_squares_on_support(self, rng):
        A = generate_gaussian_matrix(7, 5, rng)
        model = ProblemModel(A=A, sigma_e=0.2, sigma_n=0.3, s=2)
        y = rng.normal(size=7)
        S = (1, 3)
        xhat = estimate_oracle(model, y, support=S)
        ref, *_ = np.linalg.lstsq(A[:, S], y, rcond=None)
        np.testing.assert_allclose(xhat[list(S)], ref, rtol=1e-10)

    def test_singular_support_rejected(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.1, s=2)
        with pytest.raises(SingularMatrixError):
            estimate_oracle(model, np.array([1.0, 1.0]), support=(0, 1))

    @pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
    def test_overflowing_estimate_is_rejected_and_fails_only_its_row(self):
        # A_S^T y = 2e308 overflows, so the estimate is not finite
        model = ProblemModel(A=np.array([[1.0], [1.0]]), sigma_e=0.1, sigma_n=0.1, s=1)
        y = np.array([1e308, 1e308])
        with pytest.raises(InvalidInputError, match="^x must be finite$"):
            estimate_oracle(model, y, (0,))
        X, errors = estimator_kernel(model, EstimatorSpec.oracle((0,)))(np.array([[1.0, 3.0], y]))
        assert list(errors) == [1] and str(errors[1]) == "x must be finite"
        assert X[0].tolist() == [2.0]

    @pytest.mark.filterwarnings("error")
    def test_block_map_reports_an_overflow_without_a_warning(self):
        model = ProblemModel(A=np.array([[1.0], [1.0]]), sigma_e=0.1, sigma_n=0.1, s=1)
        Y = np.array([[1e308, 1e308], [1.0, 1.0]])
        X, errors = estimator_kernel(model, EstimatorSpec.oracle((0,)))(Y)
        assert list(errors) == [0] and str(errors[0]) == "x must be finite"
        assert X[1].tolist() == [1.0]

    def test_same_bits_as_apply_estimator(self, rng):
        model = ProblemModel(A=generate_gaussian_matrix(7, 9, rng), sigma_e=0.2, sigma_n=0.3, s=3)
        S = (1, 4, 8)
        for y in rng.normal(size=(5, 7)):
            got = estimate_oracle(model, y, S)
            assert got.tobytes() == apply_estimator(model, y, EstimatorSpec.oracle(S)).tobytes()


# the shapes the oracle row is checked on against the spelled-out products
_ORACLE_M = [1, 2, 3, 5, 8, 16, 33, 64, 100, 257, 1000]
_ORACLE_S = [1, 2, 3, 4, 7, 10, 16, 33]


@pytest.mark.parametrize("m", _ORACLE_M)
def test_oracle_row_is_the_spelled_out_product_bit_for_bit(m):
    # the row takes G.dot(A_S.T.dot(y)); `@` must give the same bits, for a
    # support of the columns and for the full support (A_S = A), on C- and
    # Fortran-order matrices, with a contiguous and a strided y
    rng = np.random.default_rng(m)
    for s in (s for s in _ORACLE_S if s <= m):
        wide = rng.normal(size=(m, s + 3))
        cases = [(wide, tuple(sorted(rng.choice(s + 3, size=s, replace=False).tolist()))),
                 (rng.normal(size=(m, s)), tuple(range(s)))]
        for A, S in cases:
            for order in ("C", "F"):
                model = ProblemModel(np.asarray(A, order=order), 0.1, 0.1, s)
                A_S, G = support_factor(model, S)
                for y in (rng.normal(size=m), rng.normal(size=(m, 3))[:, 1]):
                    want = np.zeros(model.n)
                    want[list(S)] = G @ (A_S.T @ y)
                    assert estimate_oracle(model, y, S).tobytes() == want.tobytes(), (s, S, order)


_UNIT3 = ProblemModel(np.eye(3), 0.1, 0.1, 1)
_Y3 = np.array([1.0, 2.0, 3.0])


@pytest.mark.parametrize(
    "support, expected",
    [((np.int64(2),), [0, 0, 3]), ([0], [1, 0, 0]), (range(1), [1, 0, 0]),
     (np.array([0]), [1, 0, 0]), ((2, 0), [1, 0, 3])],
    ids=repr,
)
def test_oracle_accepts_every_integer_support(support, expected):
    assert estimate_oracle(_UNIT3, _Y3, support).tolist() == expected


@pytest.mark.parametrize("support", [(0, 0), (-1,), ()], ids=repr)
def test_oracle_range_checks_a_support_of_plain_ints(support):
    # plain ints skip the per-index type test, not the range rule
    with pytest.raises(InvalidInputError, match=(
        r"^support must be nonempty, duplicate free and within \[0, n\)$"
    )):
        estimate_oracle(_UNIT3, _Y3, support)


def _on_unit_model(y, spec):
    """apply_estimator on the unit model of y's length: maximum likelihood
    and the noise-exploiting estimator read y alone."""
    y = np.asarray(y, dtype=float)
    return apply_estimator(ProblemModel(np.eye(y.size), 0.1, 0.1, 1), y, spec)


def _ml(y, s):
    return _on_unit_model(y, EstimatorSpec.maximum_likelihood(s))


def _noise(y):
    return _on_unit_model(y, EstimatorSpec.noise_exploiting())


def _unbiased(model, y, x0):
    return apply_estimator(model, y, EstimatorSpec.locally_unbiased(x0))


class TestMlUnit:
    def test_keeps_largest_magnitudes(self):
        y = np.array([3.0, 1.0, -2.0])
        np.testing.assert_array_equal(_ml(y, s=1), [3.0, 0.0, 0.0])
        np.testing.assert_array_equal(_ml(y, s=2), [3.0, 0.0, -2.0])

    def test_tie_prefers_lowest_index(self):
        y = np.array([1.0, -1.0])
        np.testing.assert_array_equal(_ml(y, s=1), [1.0, 0.0])

    def test_scale_invariant_support(self, rng):
        for _ in range(20):
            yv = rng.normal(size=8)
            a = np.flatnonzero(_ml(yv, s=3))
            b = np.flatnonzero(_ml(4.7 * yv, s=3))
            assert a.tolist() == b.tolist()

    def test_s_must_fit(self):
        with pytest.raises(InvalidInputError):
            _ml(np.array([1.0, 2.0]), s=3)


class TestLocallyUnbiased:
    def test_fixed_point_at_reference(self):
        x0 = SparseSignal(np.array([0.0, 2.0, 0.0]), support=(1,))
        model = ProblemModel(A=np.eye(3), sigma_e=0.5, sigma_n=0.5, s=1)
        out = _unbiased(model, x0.x.copy(), x0)
        # at y = x0 the damping is exp(-3 x0q^2 / (2 sigma^2)) on off-support
        s0sq = sigma_x_squared(model, x0)
        damp = np.exp(-3.0 * 4.0 / (2.0 * s0sq))
        np.testing.assert_allclose(out, [0.0, 2.0, 0.0], atol=1e-15)
        assert damp < 1.0  # sanity on the hand-computed factor

    def test_zero_reference_coordinate_is_identity(self):
        x0 = SparseSignal(np.array([0.0, 0.0, 0.0]), support=(2,))
        model = ProblemModel(A=np.eye(3), sigma_e=0.3, sigma_n=0.4, s=1)
        y = np.array([1.0, -2.0, 0.7])
        out = _unbiased(model, y, x0)
        np.testing.assert_array_equal(out, y)

    def test_reference_coordinate_passthrough(self, rng):
        x0 = SparseSignal(np.array([1.5, 0.0]), support=(0,))
        model = ProblemModel(A=np.eye(2), sigma_e=0.2, sigma_n=0.5, s=1)
        y = rng.normal(size=2)
        out = _unbiased(model, y, x0)
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
        row = _unbiased(model, Y[0], x0)
        np.testing.assert_allclose(row, est[0], rtol=1e-12)

    def test_requires_singleton_reference_support(self):
        x0 = SparseSignal(np.array([1.0, 2.0, 0.0]))
        model = ProblemModel(A=np.eye(3), sigma_e=0.1, sigma_n=0.1, s=2)
        with pytest.raises(InvalidInputError):
            _unbiased(model, np.zeros(3), x0)


class TestNoiseExploiting:
    def test_energy_rescaling(self):
        out = _noise(np.array([2.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0], rtol=1e-14)

    def test_single_spike(self):
        out = _noise(np.array([0.0, -3.0, 0.0]))
        # energy 9 over 2*(-3) lands on the peak coordinate
        np.testing.assert_allclose(out, [0.0, -1.5, 0.0], rtol=1e-14)
        assert np.flatnonzero(out).tolist() == [1]

    def test_energy_spreads_into_peak(self):
        out = _noise(np.array([4.0, 2.0]))
        np.testing.assert_allclose(out, [2.5, 0.0], rtol=1e-14)

    def test_zero_measurement_rejected(self):
        with pytest.raises(InvalidInputError):
            _noise(np.zeros(3))


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
        if not np.isfinite(out).all():
            return None, "x must be finite"
        return out, None
    if spec.kind == "maximum_likelihood":
        if not np.isfinite(y).all():  # at every s, whatever the kept entries
            return None, "x must be finite"
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

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # kernels fail rows without one
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
                    with np.errstate(all="ignore"):  # the reference overflows on bad rows
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
            _noise(np.array([1.0, np.nan, 0.0]))


@pytest.mark.parametrize("s", [1, 2, 3])
@pytest.mark.parametrize("at", [0, 1, 2])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ml_fails_a_measurement_that_is_not_finite_at_every_s(s, at, bad):
    # the sort puts a NaN last, where s >= 2 would not keep it
    model = ProblemModel(np.eye(3), 0.1, 0.1, 3)
    y = np.array([3.0, 1.0, 2.0])
    y[at] = bad
    with pytest.raises(InvalidInputError, match="^x must be finite$"):
        apply_estimator(model, y, EstimatorSpec.maximum_likelihood(s))
    # in a block, the row fails alone
    _, errors = estimator_kernel(model, EstimatorSpec.maximum_likelihood(s))(np.stack([y, np.ones(3)]))
    assert list(errors) == [0]


@pytest.mark.parametrize("n", [5, 10_000])
def test_row_dot_is_the_one_row_dot_bit_for_bit(n):
    rng = np.random.default_rng(n)
    E = rng.standard_normal((9, n)) * 10.0 ** rng.integers(-8, 8, size=(9, 1))
    assert row_dot(E).tolist() == [float(e @ e) for e in E]


@pytest.mark.parametrize("name", ["ml", "unbiased", "noise"])
@pytest.mark.parametrize("A", [np.diag([1.0, 2.0, 1.0]), np.eye(3)[::-1], np.eye(3, 4)],
                         ids=["diagonal", "permutation", "wide"])
def test_unit_estimators_require_the_identity_matrix(A, name):
    # they read y as an estimate of x; a square A other than I used to pass
    # the old m = n test and give a meaningless estimate
    model = ProblemModel(A, 0.1, 0.1, 1)
    spec = EstimatorSpec.named(name, model, SparseSignal(np.eye(A.shape[1])[0]))
    with pytest.raises(UnsupportedMatrixError, match=f"^estimator '{name}' requires identity matrix$"):
        estimator_kernel(model, spec)
    with pytest.raises(UnsupportedMatrixError):
        apply_estimator(model, np.ones(A.shape[0]), spec)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_unbiased_fails_an_estimate_that_is_not_finite(bad):
    # used to return [nan, nan, nan] for a NaN and [inf, 0, 0] for an inf
    model = ProblemModel(np.eye(3), 0.1, 0.1, 1)
    spec = EstimatorSpec.locally_unbiased(SparseSignal(np.array([1.0, 0.0, 0.0])))
    with pytest.raises(InvalidInputError, match="^x must be finite$"):
        apply_estimator(model, np.array([bad, 0.0, 0.0]), spec)
    # in a block, the row fails alone
    _, errors = estimator_kernel(model, spec)(np.array([[bad, 0.0, 0.0], [1.0, 0.5, 0.0]]))
    assert list(errors) == [0]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "y", [[np.inf, 0.0, 0.0], [np.nan, 0.0, 0.0], [1e200, 1e200, 0.0], [-1e308, 1e308, 0.0]]
)
@pytest.mark.parametrize("name", ["oracle", "ml", "unbiased", "noise"])
def test_an_extreme_measurement_fails_or_gives_a_finite_estimate_without_warning(name, y):
    # noise used to warn on all but the NaN y; unbiased warned or gave a
    # non-finite estimate on all but the third
    model = ProblemModel(np.eye(3), 0.1, 0.1, 1)
    spec = EstimatorSpec.named(name, model, SparseSignal(np.array([1.0, 0.0, 0.0])))
    try:
        xhat = apply_estimator(model, np.array(y), spec)
    except InvalidInputError as exc:
        assert str(exc) == "x must be finite"
    else:
        assert np.isfinite(xhat).all()
