import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import numerical_gradient
from sparsebounds.errors import (
    DegenerateModelError,
    InvalidInputError,
    OverflowingMatrixError,
)
from sparsebounds.fisher import (
    DEFAULT_SAMPLE_CHUNK,
    FisherMatrix,
    _scores,
    fim_closed_form,
    fim_monte_carlo,
    log_likelihood,
    score,
)
from sparsebounds.model import (
    Measurement,
    ProblemModel,
    SparseSignal,
    generate_gaussian_matrix,
    sample_measurement,
    sigma_x_squared,
)


def small_instance(seed=5, sigma_e=0.3, sigma_n=0.5):
    rng = np.random.default_rng(seed)
    A = generate_gaussian_matrix(4, 6, rng)
    model = ProblemModel(A=A, sigma_e=sigma_e, sigma_n=sigma_n, s=2)
    x = SparseSignal(np.array([1.2, 0.0, 0.0, -0.7, 0.0, 0.0]))
    return model, x


class TestClosedForm:
    def test_reduces_to_classical_fim_without_matrix_noise(self, rng):
        A = generate_gaussian_matrix(5, 3, rng)
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=0.4, s=2)
        x = SparseSignal(np.array([1.0, 0.0, 2.0]))
        fim = fim_closed_form(model, x)
        np.testing.assert_allclose(fim.J, A.T @ A / 0.16, rtol=1e-12)
        assert fim.sigma_x2 == pytest.approx(0.16)

    def test_identity_at_origin(self):
        model = ProblemModel(A=np.eye(3), sigma_e=0.8, sigma_n=1.0, s=1)
        x = SparseSignal(np.zeros(3))
        fim = fim_closed_form(model, x)
        np.testing.assert_allclose(fim.J, np.eye(3), rtol=1e-12)

    def test_rank_one_excess_over_classical_term(self):
        model, x = small_instance()
        fim = fim_closed_form(model, x)
        sx2 = sigma_x_squared(model, x)
        excess = fim.J - model.A.T @ model.A / sx2
        m = model.m
        expected = (2.0 * m * model.sigma_e**4 / sx2**2) * np.outer(x.x, x.x)
        np.testing.assert_allclose(excess, expected, atol=1e-12)

    def test_symmetry(self):
        model, x = small_instance()
        J = fim_closed_form(model, x).J
        np.testing.assert_array_equal(J, J.T)

    @settings(max_examples=50)
    @given(
        seed=st.integers(0, 2**32 - 1),
        m=st.integers(1, 8),
        n=st.integers(1, 8),
        se=st.floats(0.0, 1.0),
        sn=st.floats(1e-3, 1.0),
    )
    def test_positive_semidefinite(self, seed, m, n, se, sn):
        rng = np.random.default_rng(seed)
        model = ProblemModel(A=generate_gaussian_matrix(m, n, rng), sigma_e=se, sigma_n=sn, s=n)
        J = fim_closed_form(model, SparseSignal(rng.normal(size=n))).J
        w = np.linalg.eigvalsh(J)
        assert w[0] >= -1e-12 * np.linalg.norm(J, 2)

    def test_degenerate_model_rejected(self):
        model = ProblemModel(A=np.eye(2), sigma_e=0.0, sigma_n=0.0, s=1)
        x = SparseSignal(np.array([1.0, 0.0]))
        with pytest.raises(DegenerateModelError):
            fim_closed_form(model, x)

    def test_wrapper_requires_square(self):
        with pytest.raises(InvalidInputError):
            FisherMatrix(J=np.ones((2, 3)), sigma_x2=1.0)


class TestLogLikelihood:
    def test_at_mean(self):
        model, x = small_instance()
        sx2 = sigma_x_squared(model, x)
        y = Measurement(model.A @ x.x)
        ll = log_likelihood(model, x, y)
        assert ll == pytest.approx(-0.5 * model.m * np.log(2.0 * np.pi * sx2), rel=1e-14)

    def test_residual_scaling_identity(self, rng):
        # doubling the residual subtracts 3 ||r||^2 / (2 sigma_x^2)
        model, x = small_instance()
        sx2 = sigma_x_squared(model, x)
        r = rng.normal(size=model.m)
        mean = model.A @ x.x
        l1 = log_likelihood(model, x, Measurement(mean + r))
        l2 = log_likelihood(model, x, Measurement(mean + 2.0 * r))
        assert l2 - l1 == pytest.approx(-3.0 * (r @ r) / (2.0 * sx2), rel=1e-12)

    def test_density_normalization(self):
        """exp(log_likelihood) integrates to one over a quadrature grid (m=1)."""
        model = ProblemModel(A=np.array([[2.0]]), sigma_e=0.5, sigma_n=0.3, s=1)
        x = SparseSignal(np.array([1.5]))
        grid = np.linspace(-15.0, 20.0, 20001)
        vals = [np.exp(log_likelihood(model, x, Measurement(np.array([g])))) for g in grid]
        assert np.trapezoid(vals, grid) == pytest.approx(1.0, abs=1e-8)


class TestScore:
    def test_matches_numerical_gradient(self, rng):
        model, x0 = small_instance()
        y = sample_measurement(model, x0, rng)

        def ll_of(v):
            return log_likelihood(model, SparseSignal(v), y)

        analytic = score(model, x0, y)
        numeric = numerical_gradient(ll_of, x0.x, h=1e-6)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-5, atol=1e-7)

    def test_zero_mean(self):
        # the draws of sample_measurement in one block: row i of sx * Z is
        # the residual y_i - A x of the i-th draw, from the same stream
        model, x = small_instance()
        draws = 200_000
        sx2 = sigma_x_squared(model, x)
        R = math.sqrt(sx2) * np.random.default_rng(99).standard_normal((draws, model.m))
        sc = _scores(model, x.x, sx2, R)
        for i in range(5):
            y = Measurement(model.A @ x.x + R[i])
            np.testing.assert_allclose(score(model, x, y), sc[i], rtol=1e-10)
        acc = sc.sum(axis=0)
        acc2 = (sc * sc).sum(axis=0)
        mean = acc / draws
        se = np.sqrt((acc2 / draws - mean**2) / draws)
        assert np.all(np.abs(mean) <= 3.0 * se + 1e-12)

    def test_classical_score_when_sigma_e_zero(self, rng):
        A = generate_gaussian_matrix(5, 3, rng)
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=0.7, s=2)
        x = SparseSignal(np.array([1.0, 0.0, 2.0]))
        y = sample_measurement(model, x, rng)
        r = y.y - A @ x.x
        np.testing.assert_allclose(score(model, x, y), A.T @ r / 0.49, rtol=1e-12)

    @pytest.mark.filterwarnings("error")
    def test_classical_score_where_sigma_x_squared_squared_underflows(self, rng):
        # sigma_x^2 = 1e-164 squares to 0.0, which the score never forms
        A = generate_gaussian_matrix(5, 3, rng)
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=1e-82, s=2)
        x = SparseSignal(1e-82 * np.array([1.0, 0.0, 2.0]))
        y = Measurement(A @ x.x + 1e-82 * rng.standard_normal(5))
        r = y.y - A @ x.x
        np.testing.assert_allclose(score(model, x, y), A.T @ r / 1e-164, rtol=1e-12)


class TestMonteCarlo:
    def test_matches_closed_form(self):
        model, x = small_instance()
        fim = fim_closed_form(model, x)
        est = fim_monte_carlo(model, x, samples=100_000, rng=np.random.default_rng(2))
        err = np.linalg.norm(est.J - fim.J) / np.linalg.norm(fim.J)
        assert err < 0.05

    def test_error_decreases_with_samples(self):
        model, x = small_instance()
        ref = fim_closed_form(model, x).J
        scale = np.linalg.norm(ref)
        med = []
        for samples in (1_000, 10_000, 100_000):
            errs = [
                np.linalg.norm(fim_monte_carlo(model, x, samples, np.random.default_rng(seed)).J - ref)
                / scale
                for seed in range(5)
            ]
            med.append(np.median(errs))
        assert med[0] > med[1] > med[2]

    def test_deterministic_given_seed(self):
        model, x = small_instance()
        a = fim_monte_carlo(model, x, 5_000, np.random.default_rng(8))
        b = fim_monte_carlo(model, x, 5_000, np.random.default_rng(8))
        np.testing.assert_array_equal(a.J, b.J)

    def test_is_the_chunked_score_second_moment_bit_for_bit(self):
        # the estimator spelled out: two chunks, the second one short, each
        # adding to P^T P, P^T c and c^T c for the scores P / sx2 + c x^T
        model, x = small_instance()
        samples = DEFAULT_SAMPLE_CHUNK + 1000
        sx2 = sigma_x_squared(model, x)
        se2 = model.sigma_e**2
        rng = np.random.default_rng(9)
        PP, Pc, cc = np.zeros((model.n, model.n)), np.zeros(model.n), 0.0
        for k in (DEFAULT_SAMPLE_CHUNK, 1000):
            r = np.sqrt(sx2) * rng.standard_normal((k, model.m))
            P = r @ model.A
            c = (se2 / sx2) * (np.einsum("ij,ij->i", r, r) / sx2 - model.m)
            PP += P.T @ P
            Pc += P.T @ c
            cc += float(c @ c)
        v = Pc / sx2
        J = (PP / sx2 / sx2 + np.outer(v, x.x) + np.outer(x.x, v) + cc * np.outer(x.x, x.x)) / samples
        est = fim_monte_carlo(model, x, samples, np.random.default_rng(9))
        np.testing.assert_array_equal(est.J, 0.5 * (J + J.T))

    @pytest.mark.parametrize("sigma_e", [0.3, 0.0])
    def test_is_the_per_sample_score_second_moment(self, sigma_e):
        # the same draws as one block of scores, summed as outer products
        model, x = small_instance(sigma_e=sigma_e)
        samples = DEFAULT_SAMPLE_CHUNK + 1000
        sx2 = sigma_x_squared(model, x)
        R = math.sqrt(sx2) * np.random.default_rng(10).standard_normal((samples, model.m))
        S = _scores(model, x.x, sx2, R)
        want = S.T @ S / samples
        est = fim_monte_carlo(model, x, samples, np.random.default_rng(10))
        assert np.linalg.norm(est.J - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.filterwarnings("error")
    def test_matches_closed_form_where_sigma_x_squared_squared_underflows(self):
        # sigma_x^2 = 1e-164 is normal but its square is not: the classical
        # information A^T A / sigma_x^2 = 1e164 A^T A stays finite
        model, x = small_instance(sigma_e=0.0, sigma_n=1e-82)
        fim = fim_closed_form(model, x)
        est = fim_monte_carlo(model, x, samples=100_000, rng=np.random.default_rng(2))
        ref = 1e-164 * fim.J  # the norm of fim.J itself squares past double range
        assert np.linalg.norm(1e-164 * est.J - ref) <= 0.05 * np.linalg.norm(ref)

    def test_rejects_nonpositive_samples(self):
        model, x = small_instance()
        with pytest.raises(InvalidInputError):
            fim_monte_carlo(model, x, 0, np.random.default_rng(0))

    @pytest.mark.parametrize("samples", [-3, 1000.0, 1e6, math.nan, True, "10", None])
    def test_rejects_samples_that_are_not_a_positive_integer(self, samples):
        # 1000.0 and 1e6 used to raise a bare TypeError, 1e6 after 30 chunks,
        # and nan a false "J overflows double range"
        model, x = small_instance()
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(InvalidInputError, match="samples must be an integer >= 1"):
            fim_monte_carlo(model, x, samples, rng)
        assert rng.bit_generator.state == state  # rejected before any draw


class TestOverflow:
    """A finite A whose A^T A leaves double range: both estimates of J
    raise the overflow error the support Gram raises, with no warning.  A
    J built directly still fails FisherMatrix's own check."""

    @pytest.mark.parametrize(
        "fim",
        [
            lambda model, x: fim_closed_form(model, x),
            lambda model, x: fim_monte_carlo(model, x, 100, np.random.default_rng(0)),
        ],
        ids=["closed_form", "monte_carlo"],
    )
    def test_overflowing_information_is_a_math_error(self, fim):
        model = ProblemModel(A=1e200 * np.eye(2), sigma_e=0.1, sigma_n=0.1, s=2)
        x = SparseSignal(np.array([1.0, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowingMatrixError, match="Fisher information"):
                fim(model, x)

    def test_wrapper_still_rejects_a_non_finite_matrix(self):
        with pytest.raises(InvalidInputError, match="J must be finite"):
            FisherMatrix(J=np.array([[np.inf]]), sigma_x2=1.0)
