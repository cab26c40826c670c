import itertools
import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from sparsebounds.ccrb import (
    RIP_BLOCK,
    NoiseLevels,
    RipConstants,
    ccrb_bound,
    ccrb_maximal,
    ccrb_nonmaximal,
    gamma_approx,
    gamma_bounds,
    noise_levels,
    oracle_mse_theoretical,
    rip_constants,
    sigmas_at_levels,
    sigmas_for_levels,
    transition_ce,
)
import sparsebounds.ccrb as ccrb_module
import sparsebounds.model as model_module
from sparsebounds.errors import (
    AssumptionViolatedError,
    DegenerateModelError,
    InvalidInputError,
    NoUnbiasedEstimatorError,
    OverflowingMatrixError,
    SingularMatrixError,
    WrongRegimeError,
)
from sparsebounds.estimators import EstimatorSpec, estimate_oracle, estimator_kernel
from sparsebounds.fisher import fim_closed_form
from sparsebounds.hcrb import hcrb_unit_closed_form
from sparsebounds.model import (
    ProblemModel,
    SparseSignal,
    generate_bernoulli_signal,
    generate_gaussian_matrix,
    sigma_x_squared,
    support_factor,
)


def gaussian_instance(seed, m, n, s, sigma_e=0.3, sigma_n=0.5):
    rng = np.random.default_rng(seed)
    A = generate_gaussian_matrix(m, n, rng)
    model = ProblemModel(A=A, sigma_e=sigma_e, sigma_n=sigma_n, s=s)
    x = generate_bernoulli_signal(n, s, rng)
    return model, x


def exact_ccrb(model, x, support=None) -> Fraction:
    """tr(J^{-1}) in exact arithmetic on the model's float values:
    sigma_x^2 tr(M^{-1}) with M = A^T A + (c / sigma_x^2) x x^T and
    c = 2 m sigma_e^4, by Gauss-Jordan elimination.  A support restricts
    A and x to its columns, which gives the maximal bound."""
    cols = range(len(x)) if support is None else support
    A = [[Fraction(row[j]) for j in cols] for row in model.A.tolist()]
    x = [Fraction(x[j]) for j in cols]
    m, n = len(A), len(x)
    se, sn = Fraction(model.sigma_e), Fraction(model.sigma_n)
    sx2 = se**2 * sum(v * v for v in x) + sn**2
    k = 2 * m * se**4 / sx2
    rows = [
        [sum(A[r][i] * A[r][j] for r in range(m)) + k * x[i] * x[j] for j in range(n)]
        + [Fraction(int(i == j)) for j in range(n)]
        for i in range(n)
    ]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        p = rows[col][col]
        rows[col] = [v / p for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return sx2 * sum(rows[i][n + i] for i in range(n))


class TestMaximal:
    def test_identity_support_hand_computed(self):
        model = ProblemModel(A=np.eye(4), sigma_e=0.5, sigma_n=0.5, s=2)
        x = SparseSignal(np.array([1.0, 0.0, 1.0, 0.0]))
        sx2 = 0.25 * 2 + 0.25  # 0.75
        rep = ccrb_maximal(model, x)
        assert rep.first_term == pytest.approx(sx2 * 2, rel=1e-14)
        # G = I_2, so the reduction is 2 m se^4 ||x_S||^2 / (sx2 + 2 m se^4 x'x)
        d = sx2 * 2 * 4 * 0.0625 * 2.0 / (sx2 + 2 * 4 * 0.0625 * 2.0)
        assert rep.d_ccrb == pytest.approx(d / sx2 * sx2, rel=1e-14)
        assert rep.bound == pytest.approx(rep.first_term - rep.d_ccrb, rel=1e-14)
        assert rep.gamma_ccrb == pytest.approx(rep.d_ccrb / rep.first_term, rel=1e-14)
        assert rep.regime == "maximal"

    def test_orthonormal_columns_no_matrix_noise(self, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
        model = ProblemModel(A=Q, sigma_e=0.0, sigma_n=0.3, s=3)
        x = SparseSignal(np.array([1.0, -2.0, 0.5, 0.0, 0.0, 0.0]))
        rep = ccrb_maximal(model, x)
        assert rep.bound == pytest.approx(3 * 0.09, rel=1e-12)
        assert rep.d_ccrb == 0.0
        assert rep.gamma_ccrb == 0.0

    def test_agrees_with_fisher_submatrix_inverse(self):
        """Independent path: restrict the full FIM to the support and invert."""
        for seed in range(6):
            model, x = gaussian_instance(seed, m=12, n=20, s=4)
            rep = ccrb_maximal(model, x)
            J = fim_closed_form(model, x).J
            S = list(x.support)
            oracle = np.trace(np.linalg.inv(J[np.ix_(S, S)]))
            assert rep.bound == pytest.approx(oracle, rel=1e-10)

    def test_reduction_positive_iff_matrix_noise(self):
        model, x = gaussian_instance(3, m=10, n=15, s=3, sigma_e=0.4)
        assert ccrb_maximal(model, x).d_ccrb > 0
        quiet = ProblemModel(A=model.A, sigma_e=0.0, sigma_n=0.5, s=3)
        assert ccrb_maximal(quiet, x).d_ccrb == 0.0

    def test_bound_below_first_term(self):
        for seed in range(5):
            model, x = gaussian_instance(50 + seed, m=8, n=12, s=3)
            rep = ccrb_maximal(model, x)
            assert 0.0 < rep.bound <= rep.first_term

    def test_rejects_nonmaximal_signal(self):
        model, _ = gaussian_instance(0, m=8, n=12, s=3)
        thin = SparseSignal(np.array([1.0] + [0.0] * 11))
        with pytest.raises(WrongRegimeError):
            ccrb_maximal(model, thin)

    def test_singular_support_gram(self):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.5, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0]))
        with pytest.raises(SingularMatrixError):
            ccrb_maximal(model, x)


class TestSharedSupportFactor:
    LEVELS = [(se, sn) for se in (0.0, 0.05, 0.4) for sn in (0.0, 0.1, 1.0)]

    def counted_gram_inverse(self, monkeypatch):
        calls = []
        real = model_module.gram_inverse

        def counting(A_S):
            calls.append(A_S.shape)
            return real(A_S)

        monkeypatch.setattr(model_module, "gram_inverse", counting)
        return calls

    def test_siblings_factor_once_and_match_fresh_models(self, monkeypatch):
        base, x = gaussian_instance(11, 12, 20, 4)
        fresh = {
            (se, sn): (
                ccrb_maximal(ProblemModel(base.A, se, sn, 4), x),
                oracle_mse_theoretical(ProblemModel(base.A, se, sn, 4), x.support, x),
            )
            for se, sn in self.LEVELS
            if se or sn
        }
        calls = self.counted_gram_inverse(monkeypatch)
        for se, sn in self.LEVELS:
            sibling = base.with_noise(se, sn)
            if not (se or sn):
                with pytest.raises(DegenerateModelError):
                    ccrb_maximal(sibling, x)
                continue
            got = (
                ccrb_maximal(sibling, x),
                oracle_mse_theoretical(sibling, x.support[::-1], x),
            )
            assert got == fresh[(se, sn)]  # bit for bit
        assert calls == [(12, 4)]

    def test_nine_siblings_solve_the_support_inverse_once(self, monkeypatch):
        base, x = gaussian_instance(12, 12, 20, 4)
        A_S = base.A[:, list(x.support)]
        G = np.linalg.inv(A_S.T @ A_S)
        solves = []
        real = np.linalg.inv

        def counting(*args, **kwargs):
            solves.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "inv", counting)
        for se, sn in self.LEVELS:
            sibling = base.with_noise(se, sn + 0.01)
            sx2 = sigma_x_squared(sibling, x)
            got = oracle_mse_theoretical(sibling, x.support, x)
            assert got == float(sx2 * np.trace(G))  # the inverse it replaces, bit for bit
            assert ccrb_maximal(sibling, x).first_term == got
        assert len(solves) == 1
        cached = model_module.support_factor(base, x.support)[1]
        np.testing.assert_array_equal(cached, G)
        assert not cached.flags.writeable

    def test_singular_support_is_not_cached(self, monkeypatch):
        A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
        base = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.5, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0]))
        calls = self.counted_gram_inverse(monkeypatch)
        for model in (base, base.with_noise(0.2, 0.1), base):
            with pytest.raises(SingularMatrixError):
                ccrb_maximal(model, x)
            with pytest.raises(SingularMatrixError):
                oracle_mse_theoretical(model, (0, 1), x)
        assert len(calls) == 6
        assert base._factors == {}

    def test_full_support_entry_is_the_matrix_itself(self, rng):
        model = ProblemModel(generate_gaussian_matrix(7, 5, rng), 0.1, 0.2, 3)
        x = SparseSignal(np.array([1.0, 0.0, 0.0, -1.0, 0.0]))
        rep = ccrb_nonmaximal(model, x)
        A_S, G = support_factor(model, tuple(range(5)))
        assert A_S is model.A
        assert ccrb_nonmaximal(model.with_noise(0.1, 0.2), x) == rep
        np.testing.assert_array_equal(G, np.linalg.inv(model.A.T @ model.A))


class TestOverflowingGram:
    """A finite A whose support Gram, or its inverse, leaves double range is
    a package error, never a NaN bound or an estimate from one."""

    GRAM = "A_S^T A_S overflows double range"
    INVERSE = "(A_S^T A_S)^{-1} overflows double range"
    CASES = [
        (1, 1e200, (1.0, 0.0), GRAM),
        (2, 1e200, (1.0, 1.0), GRAM),
        (1, 1e-160, (1.0, 0.0), INVERSE),
        (2, 1e-160, (1.0, 1.0), INVERSE),
    ]

    @pytest.mark.parametrize("s, scale, x, message", CASES)
    def test_ccrb_maximal(self, s, scale, x, message):
        model = ProblemModel(A=scale * np.eye(2), sigma_e=0.1, sigma_n=0.1, s=s)
        with pytest.raises(OverflowingMatrixError, match=re.escape(message)):
            ccrb_maximal(model, SparseSignal(np.array(x)))
        assert model._factors == {}

    @pytest.mark.parametrize("s, scale, x, message", CASES)
    def test_oracle_kernel_fails_every_row(self, s, scale, x, message):
        model = ProblemModel(A=scale * np.eye(2), sigma_e=0.1, sigma_n=0.1, s=s)
        support = tuple(np.flatnonzero(x))
        _, errors = estimator_kernel(model, EstimatorSpec.oracle(support))(np.ones((3, 2)))
        assert sorted(errors) == [0, 1, 2]
        for exc in errors.values():
            assert isinstance(exc, OverflowingMatrixError)
            assert str(exc) == message


class TestNonmaximal:
    def test_orthogonal_matrix_no_matrix_noise(self, rng):
        Q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        model = ProblemModel(A=Q, sigma_e=0.0, sigma_n=0.2, s=3)
        x = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        rep = ccrb_nonmaximal(model, x)
        # J = Q'Q / sn^2, so the trace of the inverse is n sn^2
        assert rep.bound == pytest.approx(5 * 0.04, rel=1e-12)
        assert rep.regime == "nonmaximal"

    def test_matches_generic_solve(self):
        for seed in range(6):
            model, _ = gaussian_instance(seed, m=9, n=7, s=3)
            x = SparseSignal(np.array([1.5, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0]))
            rep = ccrb_nonmaximal(model, x)
            J = fim_closed_form(model, x).J
            assert rep.bound == pytest.approx(np.trace(np.linalg.inv(J)), rel=1e-10)

    @pytest.mark.parametrize("sigma_e", [1e2, 1e4, 1e6, 1e7])
    def test_unit_matrix_at_strong_matrix_noise_is_exact(self, sigma_e):
        # J = (I + c x x^T / sigma_x^2) / sigma_x^2, c = 2 m sigma_e^4, is
        # regular however large sigma_e is, though its condition number
        # passes 1e12; tr(J^-1) = sigma_x^2 (n - 1 + sigma_x^2 / (sigma_x^2 + c ||x||^2))
        x = [1.0, 0.0, 2.0, 0.0, 0.0, 0.0]
        model = ProblemModel(A=np.eye(6), sigma_e=sigma_e, sigma_n=0.1, s=3)
        energy = sum(Fraction(v) ** 2 for v in x)
        sx2 = Fraction(sigma_e) ** 2 * energy + Fraction(0.1) ** 2
        c = 2 * 6 * Fraction(sigma_e) ** 4
        exact = sx2 * (6 - 1 + sx2 / (sx2 + c * energy))
        bound = ccrb_nonmaximal(model, SparseSignal(np.array(x))).bound
        assert abs(Fraction(bound) - exact) <= Fraction(1, 10**12) * exact

    def test_full_rank_matrix_never_builds_the_fisher_information(self):
        # a full-rank A takes the rank-one update form on the full support,
        # which reports the reduction d; the rank-deficient form reports d = 0
        model, _ = gaussian_instance(3, m=9, n=7, s=3)
        x = SparseSignal(np.r_[1.0, np.zeros(6)])
        rep = ccrb_nonmaximal(model, x)
        sx2 = sigma_x_squared(model, x)
        assert rep.d_ccrb > 0.0
        want = sx2 * np.trace(np.linalg.inv(model.A.T @ model.A))
        assert rep.first_term == pytest.approx(want, rel=1e-12)

    def test_rejects_maximal_signal(self):
        model, x = gaussian_instance(1, m=8, n=12, s=3)
        with pytest.raises(WrongRegimeError):
            ccrb_nonmaximal(model, x)

    def test_rank_deficient_but_informative(self):
        # null(A) is spanned by the signal direction, so the rank-one term fixes it
        rng = np.random.default_rng(17)
        a1, a3, a4 = rng.normal(size=(3, 3))
        A = np.column_stack([a1, -a1, a3, a4])
        model = ProblemModel(A=A, sigma_e=0.5, sigma_n=0.4, s=3)
        x = SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))
        rep = ccrb_nonmaximal(model, x)
        J = fim_closed_form(model, x).J
        assert rep.bound == pytest.approx(np.trace(np.linalg.inv(J)), rel=1e-9)
        assert rep.d_ccrb == 0.0
        assert rep.first_term == rep.bound

    @pytest.mark.parametrize("sigma_e", [1e-3, 1e-2, 1.0, 1e3, 1e5, 1e6, 1e7, 1e10])
    @pytest.mark.parametrize("case", ["dependent_columns", "wide_gaussian"])
    def test_rank_deficient_matches_exact_arithmetic(self, case, sigma_e):
        # A^T A has one null direction, which x does not miss, so J is
        # regular at every sigma_e however ill-conditioned it gets
        if case == "dependent_columns":
            a1, a3, a4 = np.random.default_rng(17).normal(size=(3, 3))
            A, x = np.column_stack([a1, -a1, a3, a4]), [1.0, 1.0, 0.0, 0.0]
        else:
            A, x = np.random.default_rng(100).normal(size=(4, 5)), [1.0, 0.0, -0.5, 0.0, 0.0]
        model = ProblemModel(A=A, sigma_e=sigma_e, sigma_n=0.4, s=3)
        exact = exact_ccrb(model, x)
        bound = ccrb_nonmaximal(model, SparseSignal(np.array(x))).bound
        assert abs(Fraction(bound) - exact) <= Fraction(1, 10**12) * exact

    def test_rank_deficient_bound_beyond_double_range_is_an_overflow(self):
        # sigma_x^2 / c passes 1e308 once sigma_e^4 nears underflow
        a1, a3, a4 = np.random.default_rng(17).normal(size=(3, 3))
        model = ProblemModel(np.column_stack([a1, -a1, a3, a4]), 1e-80, 0.4, 3)
        with pytest.raises(OverflowingMatrixError, match=re.escape("J^{-1} overflows")):
            ccrb_nonmaximal(model, SparseSignal(np.array([1.0, 1.0, 0.0, 0.0])))

    def test_rank_below_n_minus_one_means_no_unbiased_estimator(self):
        model, _ = gaussian_instance(2, m=3, n=5, s=3, sigma_e=0.5)
        x = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NoUnbiasedEstimatorError):
            ccrb_nonmaximal(model, x)

    def test_singular_fim_means_no_unbiased_estimator(self):
        rng = np.random.default_rng(18)
        a1, a3, a4 = rng.normal(size=(3, 3))
        A = np.column_stack([a1, -a1, a3, a4])
        model = ProblemModel(A=A, sigma_e=0.5, sigma_n=0.4, s=3)
        # signal misses the null direction [1, 1, 0, 0]
        x = SparseSignal(np.array([0.0, 0.0, 1.0, 0.0]))
        with pytest.raises(NoUnbiasedEstimatorError):
            ccrb_nonmaximal(model, x)

    def test_underdetermined_without_matrix_noise(self):
        model, _ = gaussian_instance(2, m=3, n=5, s=3, sigma_e=0.0)
        x = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0, 0.0]))
        with pytest.raises(NoUnbiasedEstimatorError):
            ccrb_nonmaximal(model, x)

    def test_gap_against_maximal_branch(self):
        """Shrinking one coordinate toward zero keeps the maximal bound below
        the nonmaximal bound of the limiting signal."""
        model, _ = gaussian_instance(4, m=10, n=8, s=3)
        limit = SparseSignal(np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]))
        nonmax = ccrb_nonmaximal(model, limit).bound
        bounds = []
        for j in range(2, 9):
            xq = 10.0**-j
            full = SparseSignal(np.array([1.0, -1.0, xq, 0.0, 0.0, 0.0, 0.0, 0.0]))
            b = ccrb_maximal(model, full).bound
            assert b <= nonmax * (1.0 + 1e-9)
            bounds.append(b)
        # the maximal branch settles at its own limit strictly below the
        # nonmaximal value: the bound jumps when the coordinate hits zero
        steps = np.abs(np.diff(bounds))
        assert all(a >= b for a, b in zip(steps, steps[1:]))
        assert bounds[-1] < 0.9 * nonmax


@pytest.mark.filterwarnings("error")
class TestExactArithmetic:
    """The CCRB against exact arithmetic, from weak matrix noise up to
    sigma_e near MAX_DEVIATION, where the reduction d takes almost all of
    the first term; the report's parts stay finite and add up."""

    @staticmethod
    def check(model, x, rep, support=None):
        exact = exact_ccrb(model, x, support)
        assert abs(Fraction(rep.bound) - exact) <= Fraction(1, 10**12) * exact
        assert math.isfinite(rep.d_ccrb) and math.isfinite(rep.gamma_ccrb)
        assert rep.bound + rep.d_ccrb == pytest.approx(rep.first_term, rel=1e-12)

    @pytest.mark.parametrize("sigma_e", [1e-3, 1.0, 1e4, 1e6, 1e8, 1e20, 1e40, 1e70])
    @pytest.mark.parametrize("s", [1, 2, 5])
    def test_maximal_unit_matrix(self, s, sigma_e):
        x = np.zeros(10)
        x[:s] = [1.0, -2.0, 0.5, 3.0, -1.0][:s]
        model = ProblemModel(A=np.eye(10), sigma_e=sigma_e, sigma_n=0.1, s=s)
        self.check(model, x, ccrb_maximal(model, SparseSignal(x)), range(s))

    @pytest.mark.parametrize("sigma_e", [1e-2, 1.0, 1e4, 1e8, 1e20])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_maximal_gaussian_matrix(self, s, sigma_e):
        model, signal = gaussian_instance(21, m=8, n=6, s=s, sigma_e=sigma_e, sigma_n=0.1)
        self.check(model, signal.x, ccrb_maximal(model, signal), signal.support)

    @pytest.mark.parametrize("sigma_e", [1e-2, 1.0, 1e4, 1e8, 1e20, 1e40, 1e52, 1e60])
    @pytest.mark.parametrize("k", [1, 2])
    def test_nonmaximal_full_rank_gaussian_matrix(self, k, sigma_e):
        model, _ = gaussian_instance(22, m=8, n=4, s=3, sigma_e=sigma_e, sigma_n=0.1)
        x = np.r_[[1.0, -0.5][:k], np.zeros(4 - k)]
        self.check(model, x, ccrb_nonmaximal(model, SparseSignal(x)))


class TestDispatch:
    def test_picks_the_regime_from_the_nonzero_count(self):
        model, x = gaussian_instance(5, m=10, n=8, s=3)
        assert ccrb_bound(model, x) == ccrb_maximal(model, x)
        fewer = SparseSignal(np.r_[1.0, np.zeros(7)])
        assert ccrb_bound(model, fewer) == ccrb_nonmaximal(model, fewer)

    def test_too_many_nonzeros_is_the_nonmaximal_regime_error(self):
        model, _ = gaussian_instance(5, m=10, n=8, s=3)
        with pytest.raises(WrongRegimeError, match="non-maximal"):
            ccrb_bound(model, SparseSignal(np.r_[np.ones(4), np.zeros(4)]))


class TestDeclaredWiderSupport:
    """The regime is read from ||x||_0 alone: a declared support wider
    than the nonzeros gives the report of its default-support twin."""

    @pytest.mark.parametrize(
        "model, x, declared",
        [
            (ProblemModel(np.eye(3), 0.1, 0.1, 1), [1.0, 0.0, 0.0], (0, 1)),
            (ProblemModel(np.eye(5), 0.3, 0.05, 2), [1.0, 0.0, -2.0, 0.0, 0.0], (0, 1, 2, 4)),
        ],
    )
    def test_unit_matrix(self, model, x, declared):
        wide, twin = SparseSignal(np.array(x), declared), SparseSignal(np.array(x))
        for bound in (ccrb_bound, ccrb_maximal, hcrb_unit_closed_form):
            assert bound(model, wide) == bound(model, twin)  # bit for bit

    def test_gaussian_matrix_two_nonzeros(self):
        model, twin = gaussian_instance(13, m=8, n=10, s=2)
        extra = next(i for i in range(10) if i not in twin.support)
        wide = SparseSignal(twin.x, tuple(sorted((*twin.support, extra))))
        assert ccrb_bound(model, wide) == ccrb_bound(model, twin)
        assert ccrb_maximal(model, wide) == ccrb_maximal(model, twin)
        assert ccrb_maximal(model, wide).regime == "maximal"

    def test_other_nonzero_counts_are_still_the_wrong_regime(self):
        model = ProblemModel(np.eye(4), 0.1, 0.1, 2)
        # the declared support has s entries, but ||x||_0 = 1
        fewer = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0]), (0, 1))
        for bound in (ccrb_maximal, hcrb_unit_closed_form):
            with pytest.raises(WrongRegimeError, match=r"needs \|\|x\|\|_0 = s = 2, got 1"):
                bound(model, fewer)
        more = SparseSignal(np.array([1.0, 1.0, 1.0, 0.0]))
        for bound in (ccrb_bound, ccrb_maximal, hcrb_unit_closed_form):
            with pytest.raises(WrongRegimeError):
                bound(model, more)


class TestOracleTheory:
    def test_identity(self):
        model = ProblemModel(A=np.eye(5), sigma_e=0.3, sigma_n=0.4, s=2)
        x = SparseSignal(np.array([2.0, 0.0, -1.0, 0.0, 0.0]))
        sx2 = sigma_x_squared(model, x)
        assert oracle_mse_theoretical(model, (0, 2), x) == pytest.approx(2 * sx2, rel=1e-14)

    def test_equals_ccrb_first_term(self):
        model, x = gaussian_instance(9, m=10, n=14, s=4)
        rep = ccrb_maximal(model, x)
        val = oracle_mse_theoretical(model, x.support, x)
        assert val == pytest.approx(rep.first_term, rel=1e-12)

    @pytest.mark.parametrize("support", [(), (1, 1), (0, 2, 0), (-1, 0), (0, 4), (7,)])
    def test_invalid_support_has_one_message(self, support):
        model = ProblemModel(A=np.eye(4), sigma_e=0.1, sigma_n=0.1, s=2)
        x = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(InvalidInputError) as oracle:
            estimate_oracle(model, x.x, support)
        with pytest.raises(InvalidInputError) as theory:
            oracle_mse_theoretical(model, support, x)
        assert str(oracle.value) == str(theory.value)
        assert "duplicate free" in str(theory.value)

    def test_support_must_cover_signal(self):
        model = ProblemModel(A=np.eye(4), sigma_e=0.1, sigma_n=0.1, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))
        with pytest.raises(InvalidInputError):
            oracle_mse_theoretical(model, (0, 2), x)


def reference_rip_constants(A, s, exhaustive, samples=0, rng=None):
    """rip_constants as one eigensolve per support, in visiting order."""
    n = A.shape[1]
    if exhaustive:
        supports = itertools.combinations(range(n), s)
    else:
        # the documented block law, all samples as one block
        draws = rng.random((samples, n))
        supports = np.sort(np.argpartition(draws, s - 1, axis=1)[:, :s], axis=1)
    lo, hi = math.inf, -math.inf
    for S in supports:
        w = scipy.linalg.eigvalsh(A[:, list(S)].T @ A[:, list(S)])
        if w[0] <= 0.0:
            raise AssumptionViolatedError(
                f"support {tuple(int(i) for i in S)} has lambda_min <= 0"
            )
        lo, hi = min(lo, w[0]), max(hi, w[-1])
    return 1.0 - lo, hi - 1.0


class TestRipConstants:
    @pytest.mark.parametrize("n, s", [(9, 3), (14, 4)])  # 84 and 1001 supports
    def test_blocks_match_per_support_loop_exhaustive(self, n, s):
        A = generate_gaussian_matrix(6, n, np.random.default_rng(n))
        rc = rip_constants(A, s, mode="exhaustive")
        lower, upper = reference_rip_constants(A, s, exhaustive=True)
        assert abs(rc.theta_lower - lower) <= 1e-12
        assert abs(rc.theta_upper - upper) <= 1e-12
        assert rc.exact

    @pytest.mark.parametrize("samples", [1, RIP_BLOCK, 2 * RIP_BLOCK + 37])
    def test_blocks_match_per_support_loop_sampled(self, samples):
        A = generate_gaussian_matrix(20, 40, np.random.default_rng(7))
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        rc = rip_constants(A, 5, mode="sampled", samples=samples, rng=rng)
        lower, upper = reference_rip_constants(A, 5, False, samples, ref_rng)
        assert abs(rc.theta_lower - lower) <= 1e-12
        assert abs(rc.theta_upper - upper) <= 1e-12
        assert not rc.exact
        # the same supports were drawn, and no more
        assert rng.bit_generator.state == ref_rng.bit_generator.state

    @pytest.mark.parametrize(
        "n, s, zero_columns",
        [(25, 2, (20, 5)), (300, 1, (280, 270))],  # the latter fails in a later block
    )
    def test_first_degenerate_support_is_named(self, n, s, zero_columns):
        A = generate_gaussian_matrix(4, n, np.random.default_rng(2))
        A[:, list(zero_columns)] = 0.0
        with pytest.raises(AssumptionViolatedError) as want:
            reference_rip_constants(A, s, exhaustive=True)
        with pytest.raises(AssumptionViolatedError, match="lambda_min") as got:
            rip_constants(A, s, mode="exhaustive")
        assert str(got.value) == str(want.value)

    def test_identity_is_tight(self):
        rc = rip_constants(np.eye(6), 2)
        assert rc.theta_lower == pytest.approx(0.0, abs=1e-12)
        assert rc.theta_upper == pytest.approx(0.0, abs=1e-12)
        assert rc.exact

    def test_scaled_column(self):
        A = np.diag([2.0, 1.0, 1.0, 1.0])
        rc = rip_constants(A, 1)
        assert rc.theta_upper == pytest.approx(3.0, rel=1e-12)
        assert rc.theta_lower == pytest.approx(0.0, abs=1e-12)

    def test_sampled_never_exceeds_exhaustive(self, rng):
        A = generate_gaussian_matrix(4, 8, rng)
        full = rip_constants(A, 2, mode="exhaustive")
        sub = rip_constants(A, 2, mode="sampled", samples=30, rng=np.random.default_rng(0))
        assert not sub.exact
        assert sub.theta_upper <= full.theta_upper + 1e-12
        assert sub.theta_lower <= full.theta_lower + 1e-12

    def test_sampled_matches_exhaustive_when_saturated(self, rng):
        A = generate_gaussian_matrix(4, 6, rng)
        full = rip_constants(A, 2)
        sub = rip_constants(A, 2, mode="sampled", samples=5000, rng=np.random.default_rng(1))
        assert sub.theta_upper == pytest.approx(full.theta_upper, rel=1e-9)

    def test_degenerate_submatrix_rejected(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])  # zero middle column
        with pytest.raises(AssumptionViolatedError):
            rip_constants(A, 1)

    def test_exhaustive_overflow_guard(self):
        A = generate_gaussian_matrix(10, 80, np.random.default_rng(0))
        with pytest.raises(InvalidInputError):
            rip_constants(A, 6, mode="exhaustive")

    @pytest.mark.parametrize("mode", ["auto", "exhaustive", "sampled"])
    @pytest.mark.parametrize("samples", [0, -3, 2.0, "10", None])
    def test_rejects_samples_that_are_not_a_positive_integer(self, mode, samples):
        # samples=0 and samples=-3 used to return theta = -inf on both sides
        with pytest.raises(InvalidInputError, match="samples must be an integer >= 1"):
            rip_constants(np.eye(4), 2, mode=mode, samples=samples)

    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_matrix(self, mode, bad):
        # used to return theta = -inf on both sides, the NaN eigenvalues
        # lost in min(inf, nan)
        A = generate_gaussian_matrix(6, 8, np.random.default_rng(4))
        A[3, 5] = bad
        with pytest.raises(InvalidInputError, match="^A must be finite$"):
            rip_constants(A, 2, mode=mode, samples=50)

    def test_block_size_does_not_change_the_result(self, monkeypatch):
        A = generate_gaussian_matrix(20, 40, np.random.default_rng(7))
        results, states = [], []
        for block in (7, 64):
            monkeypatch.setattr(ccrb_module, "RIP_BLOCK", block)
            rng = np.random.default_rng(11)
            results.append(rip_constants(A, 5, mode="sampled", samples=150, rng=rng))
            states.append(rng.bit_generator.state)
        assert results[0] == results[1]
        assert states[0] == states[1]

    @staticmethod
    def count_eigensolves(monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(len(a))
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        return calls

    def test_screen_skips_no_gram_on_both_extremes(self, monkeypatch):
        # every Gram is I, so G - lo I = hi I - G = 0 fails every Cholesky
        calls = self.count_eigensolves(monkeypatch)
        samples = 2 * RIP_BLOCK + 37
        rc = rip_constants(np.eye(12), 3, mode="sampled", samples=samples,
                           rng=np.random.default_rng(6))
        assert (rc.theta_lower, rc.theta_upper) == (0.0, 0.0)
        assert sum(calls) == samples

    def test_screen_spares_most_eigensolves(self, monkeypatch):
        # the shape of the benchmark's gamma-sandwich instances
        A = generate_gaussian_matrix(100, 200, np.random.default_rng(12))
        calls = self.count_eigensolves(monkeypatch)
        rc = rip_constants(A, 10, mode="sampled", samples=2000, rng=np.random.default_rng(13))
        blocks = math.ceil(2000 / RIP_BLOCK)
        assert 1 <= len(calls) <= blocks // 2
        lower, upper = reference_rip_constants(A, 10, False, 2000, np.random.default_rng(13))
        assert abs(rc.theta_lower - lower) <= 1e-12
        assert abs(rc.theta_upper - upper) <= 1e-12

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
    @pytest.mark.parametrize(
        "n, s, column, exhaustive_support",
        [(6, 2, None, (0, 1)), (300, 1, 280, (280,))],
        ids=["first_block", "later_screened_block"],
    )
    def test_overflowing_gram_raises(self, mode, n, s, column, exhaustive_support):
        # used to return theta = -inf on both sides, with numpy's overflow warning
        if column is None:
            A = 1e200 * np.eye(n)
        else:
            A = generate_gaussian_matrix(4, n, np.random.default_rng(2))
            A[:, column] *= 1e200
        with pytest.raises(OverflowingMatrixError, match="overflows double range") as info:
            rip_constants(A, s, mode=mode)
        if mode == "exhaustive":
            assert str(info.value).startswith(f"support {exhaustive_support}:")

    @pytest.mark.parametrize("n, s", [(40, 5), (9, 1), (9, 9)])
    def test_sampled_supports_are_sorted_distinct_and_in_range(self, n, s):
        count = 2 * RIP_BLOCK + 37
        blocks = list(ccrb_module._support_blocks(n, s, count, np.random.default_rng(5)))
        assert all(1 <= len(b) <= RIP_BLOCK for b in blocks)
        idx = np.concatenate(blocks)
        assert idx.shape == (count, s)
        assert (np.diff(idx, axis=1) > 0).all()  # sorted and duplicate-free
        assert idx.min() >= 0 and idx.max() < n

    def test_sampled_columns_are_uniform(self):
        n, s, count = 40, 5, 20_000
        blocks = ccrb_module._support_blocks(n, s, count, np.random.default_rng(8))
        freq = np.bincount(np.concatenate(list(blocks)).ravel(), minlength=n) / count
        p = s / n  # each column lies in a uniform s-subset with probability s/n
        assert np.abs(freq - p).max() <= 5.0 * math.sqrt(p * (1.0 - p) / count)

    @pytest.mark.parametrize(
        "m, n, s, mode, from_gram",
        [(6, 14, 4, "exhaustive", True), (6, 14, 4, "sampled", True),
         (3, 100, 2, "exhaustive", False), (3, 100, 2, "sampled", False),
         (40, 60, 2, "exhaustive", True), (40, 60, 2, "sampled", False)],
        ids=["small-exhaustive", "small-sampled", "wide-exhaustive", "wide-sampled",
             "many_supports", "few_supports"],
    )
    def test_both_gram_sources_match_per_support_loop(self, m, n, s, mode, from_gram):
        samples = 2 * RIP_BLOCK + 37
        exhaustive = mode == "exhaustive"
        count = math.comb(n, s) if exhaustive else samples
        assert ccrb_module._forms_gram(m, n, s, count) == from_gram  # whether A^T A is formed
        A = generate_gaussian_matrix(m, n, np.random.default_rng(n))
        rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
        rc = rip_constants(A, s, mode=mode, samples=samples, rng=rng)
        lower, upper = reference_rip_constants(A, s, exhaustive, samples, ref_rng)
        assert abs(rc.theta_lower - lower) <= 1e-12
        assert abs(rc.theta_upper - upper) <= 1e-12
        assert rc.exact == exhaustive

    def test_wide_matrix_forms_no_gram(self):
        # s = 1 over 3000 columns: A^T A would take 72 MB, the copy of A^T 48 KB
        A = generate_gaussian_matrix(2, 3000, np.random.default_rng(1))
        tracemalloc.start()
        try:
            rc = rip_constants(A, 1, mode="exhaustive")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        norms = np.einsum("ij,ij->j", A, A)  # the 1 x 1 Grams
        assert rc.theta_upper == pytest.approx(norms.max() - 1.0, rel=1e-12)
        assert rc.theta_lower == pytest.approx(1.0 - norms.min(), rel=1e-12)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fault", ["zero", "overflow"])
    @pytest.mark.parametrize(
        "m, n, s, column",
        [(4, 12, 2, 3), (80, 100, 2, 70)],
        ids=["first_block", "later_screened_block"],
    )
    def test_gram_source_names_the_first_failing_support(self, m, n, s, column, fault):
        assert ccrb_module._forms_gram(m, n, s, math.comb(n, s))  # A^T A is formed
        A = generate_gaussian_matrix(m, n, np.random.default_rng(2))
        cols = [column, column + 6]
        A[:, cols] = 0.0 if fault == "zero" else 1e200 * A[:, cols]
        first = next(S for S in itertools.combinations(range(n), s) if column in S)
        error = AssumptionViolatedError if fault == "zero" else OverflowingMatrixError
        with pytest.raises(error, match=re.escape(f"support {first}")):
            rip_constants(A, s, mode="exhaustive")

    @pytest.mark.parametrize("s", [2.0, np.float64(2.0), True, "2", None])
    def test_rejects_s_that_is_not_an_integer(self, s):
        # 2.0 and True used to end in a bare TypeError from math.comb or np.eye
        with pytest.raises(InvalidInputError, match="^s must be an integer >= 1"):
            rip_constants(np.eye(4), s)

    def test_accepts_a_numpy_integer_s(self):
        assert rip_constants(np.eye(4), np.int64(2)) == rip_constants(np.eye(4), 2)


class TestNoiseLevels:
    def test_hand_computed(self):
        model = ProblemModel(A=np.eye(4), sigma_e=0.5, sigma_n=1.0, s=2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))
        lv = noise_levels(model, x)
        # c_e = m s se^2 / tr(Gram_S) = 4*2*0.25/2, c_n = m sn^2 / ||x||^2
        assert lv.c_e == pytest.approx(1.0, rel=1e-14)
        assert lv.c_n == pytest.approx(2.0, rel=1e-14)

    def test_roundtrip_through_sigmas(self):
        model, x = gaussian_instance(11, m=10, n=16, s=4)
        target = NoiseLevels(c_e=0.37, c_n=1.4)
        se, sn = sigmas_for_levels(model.A, x, target.c_e, target.c_n, s=4)
        back = noise_levels(ProblemModel(A=model.A, sigma_e=se, sigma_n=sn, s=4), x)
        assert back.c_e == pytest.approx(target.c_e, rel=1e-12)
        assert back.c_n == pytest.approx(target.c_n, rel=1e-12)

    def test_zero_signal_rejected(self):
        model = ProblemModel(A=np.eye(3), sigma_e=0.1, sigma_n=0.1, s=1)
        with pytest.raises(InvalidInputError):
            noise_levels(model, SparseSignal(np.zeros(3)))

    def test_level_list_gives_the_bits_of_one_level_calls(self):
        model, x = gaussian_instance(11, m=10, n=16, s=4)
        levels = [(0.0, 0.0), (0.37, 1.4), (3.0, 0.0), (1e-3, 1e3)]
        want = [sigmas_for_levels(model.A, x, c_e, c_n, 4) for c_e, c_n in levels]
        assert sigmas_at_levels(model.A, x, levels, 4) == want

    def test_negative_level_raises_before_the_energy(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("the support energy was computed")

        monkeypatch.setattr(ccrb_module, "_support_energy", forbidden)
        model, x = gaussian_instance(11, m=10, n=16, s=4)
        for levels in ([(0.5, 0.5), (-0.1, 0.5)], [(0.5, -1.0)]):
            with pytest.raises(InvalidInputError, match="^noise levels must be nonnegative$"):
                sigmas_at_levels(model.A, x, levels, 4)
        with pytest.raises(InvalidInputError, match="^noise levels must be nonnegative$"):
            sigmas_for_levels(model.A, x, -1.0, 0.5, 4)

    @pytest.mark.parametrize(
        "A, sigma_e, sigma_n, x0",
        [(1e-100 * np.eye(3), 1e74, 0.1, 1.0), (np.eye(3), 0.1, 1e74, 1e-150)],
        ids=["c_e", "c_n"],
    )
    def test_overflowing_level_is_a_math_error(self, A, sigma_e, sigma_n, x0):
        # a finite instance whose level passes double range, not a bad input
        model = ProblemModel(A=A, sigma_e=sigma_e, sigma_n=sigma_n, s=1)
        with pytest.raises(OverflowingMatrixError, match="^noise levels overflow"):
            noise_levels(model, SparseSignal(np.array([x0, 0.0, 0.0])))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_levels_rejected(self, bad):
        # NaN passed the old c < 0 test, and both used to give sigma = nan or inf
        model, x = gaussian_instance(11, m=10, n=16, s=4)
        for c_e, c_n in ((bad, 0.5), (0.5, bad)):
            with pytest.raises(InvalidInputError, match="^noise levels must be finite$"):
                NoiseLevels(c_e, c_n)
            with pytest.raises(InvalidInputError, match="^noise levels must be finite$"):
                sigmas_for_levels(model.A, x, c_e, c_n, 4)
            with pytest.raises(InvalidInputError, match="^noise levels must be finite$"):
                sigmas_at_levels(model.A, x, [(0.5, 0.5), (c_e, c_n)], 4)


class TestNonFiniteSupportEnergy:
    """sigmas_for_levels and sigmas_at_levels read A_S through two sums; a
    non-finite sum is told apart as a non-finite A or an overflow."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_matrix(self, bad):
        # used to return a nan or inf deviation
        A = generate_gaussian_matrix(4, 6, np.random.default_rng(3))
        A[0, 0] = bad
        x = SparseSignal(np.eye(6)[0])
        with pytest.raises(InvalidInputError, match="^A must be finite$"):
            sigmas_for_levels(A, x, 0.5, 0.5, 1)
        with pytest.raises(InvalidInputError, match="^A must be finite$"):
            sigmas_at_levels(A, x, [(0.5, 0.5), (1.0, 0.0)], 1)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_support_energy_raises(self):
        A = generate_gaussian_matrix(4, 6, np.random.default_rng(3))
        A[:, 0] *= 1e200
        x = SparseSignal(np.eye(6)[0])
        with pytest.raises(OverflowingMatrixError, match=r"^tr\(A_S\^T A_S\) overflows"):
            sigmas_for_levels(A, x, 0.5, 0.5, 1)

    def test_finite_matrix_is_not_scanned(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("A_S was scanned")

        monkeypatch.setattr(ccrb_module, "checked_matrix", forbidden)
        model, x = gaussian_instance(11, m=10, n=16, s=4)
        sigmas_at_levels(model.A, x, [(0.5, 0.5)], 4)

    @pytest.mark.parametrize("shape", [(3,), (3, 3, 1), (3, 2), (3, 4)], ids=str)
    def test_rejects_a_matrix_that_is_not_2d_with_n_columns(self, shape):
        # a 1-d A has no columns to take, and a wrong column count would
        # pass wherever the support fits
        x = SparseSignal(np.eye(3)[0])
        with pytest.raises(InvalidInputError, match="^A must be a 2-d array with n=3 columns$"):
            sigmas_for_levels(np.ones(shape), x, 0.5, 0.5, 1)


class TestGammaSandwich:
    def test_tight_rip_collapses_to_approximation(self):
        rc = RipConstants(theta_lower=0.0, theta_upper=0.0, s=5, exact=True)
        lv = NoiseLevels(c_e=0.8, c_n=0.3)
        lo, hi = gamma_bounds(rc, lv, 5)
        g = gamma_approx(0.8, 0.3, 5)
        assert lo == pytest.approx(g, rel=1e-14)
        assert hi == pytest.approx(g, rel=1e-14)

    def test_bounds_ordered_and_positive(self):
        rc = RipConstants(theta_lower=0.3, theta_upper=0.5, s=4, exact=True)
        lv = NoiseLevels(c_e=0.5, c_n=1.0)
        lo, hi = gamma_bounds(rc, lv, 4)
        assert 0.0 < lo < hi

    def test_no_matrix_noise_means_no_reduction(self):
        rc = RipConstants(theta_lower=0.2, theta_upper=0.2, s=4, exact=True)
        lo, hi = gamma_bounds(rc, NoiseLevels(c_e=0.0, c_n=1.0), 4)
        assert (lo, hi) == (0.0, 0.0)

    def test_rejects_an_s_the_constants_were_not_computed_at(self):
        rc = RipConstants(theta_lower=0.1, theta_upper=0.2, s=3, exact=True)
        with pytest.raises(InvalidInputError, match="s=10 does not match"):
            gamma_bounds(rc, NoiseLevels(c_e=0.5, c_n=0.5), 10)

    def test_ill_conditioned_rip_rejected(self):
        rc = RipConstants(theta_lower=1.0, theta_upper=2.0, s=4, exact=True)
        with pytest.raises(AssumptionViolatedError):
            gamma_bounds(rc, NoiseLevels(c_e=0.5, c_n=0.5), 4)

    def test_contains_exact_gamma_exhaustive_rip(self):
        """The sandwich must hold with exhaustively enumerated constants."""
        hits = 0
        for seed in range(40):
            rng = np.random.default_rng(300 + seed)
            A = generate_gaussian_matrix(12, 13, rng)
            x = generate_bernoulli_signal(13, 10, rng)
            se, sn = sigmas_for_levels(A, x, c_e=0.5, c_n=0.5, s=10)
            model = ProblemModel(A=A, sigma_e=se, sigma_n=sn, s=10)
            rep = ccrb_maximal(model, x)
            rc = rip_constants(A, 10, mode="exhaustive")
            if rc.theta_lower >= 1.0:
                continue
            lo, hi = gamma_bounds(rc, noise_levels(model, x), 10)
            assert lo - 1e-12 <= rep.gamma_ccrb <= hi + 1e-12
            hits += 1
        assert hits >= 30  # the guard above should rarely trigger


class TestGammaApproxAndTransition:
    def test_transition_value_halves_the_ceiling(self):
        for c_n in (0.0, 0.1, 1.0, 10.0):
            for s in (1, 3, 10):
                ce = transition_ce(c_n)
                assert gamma_approx(ce, c_n, s) == pytest.approx(1.0 / (2.0 * s), abs=1e-15)

    def test_known_transition_points(self):
        # c_n = 0 gives (1 + 1)/4
        assert transition_ce(0.0) == pytest.approx(0.5, rel=1e-14)
        assert transition_ce(1.0) == pytest.approx((1.0 + 3.0) / 4.0, rel=1e-14)

    @pytest.mark.parametrize("c_n, why", [(-1.0, "nonnegative"), (math.nan, "finite"),
                                          (math.inf, "finite")])
    def test_transition_rejects_a_bad_level(self, c_n, why):
        with pytest.raises(InvalidInputError, match=f"^c_n must be {why}$"):
            transition_ce(c_n)

    def test_transition_increases_with_measurement_noise(self):
        cs = [transition_ce(c) for c in (0.0, 0.5, 1.0, 5.0, 20.0)]
        assert all(a < b for a, b in zip(cs, cs[1:]))

    def test_saturates_at_inverse_sparsity(self):
        assert gamma_approx(1e12, 0.0, 4) == pytest.approx(0.25, rel=1e-10)

    def test_vanishes_with_matrix_noise(self):
        assert gamma_approx(0.0, 1.0, 4) == 0.0
        assert gamma_approx(1e-9, 1.0, 4) < 1e-8

    def test_monotone_in_ce(self):
        vals = [gamma_approx(c, 0.5, 6) for c in np.logspace(-3, 3, 25)]
        assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


class TestUnderflowingSupportEnergy:
    """||x||^2 of a nonzero signal can underflow to 0; that is an overflow
    of double range, not the zero signal."""

    TINY = SparseSignal(np.array([1e-200, 0.0, 0.0]))

    def test_noise_levels(self):
        # used to raise "noise levels are undefined for the zero signal"
        model = ProblemModel(A=np.eye(3), sigma_e=0.1, sigma_n=1e-3, s=1)
        with pytest.raises(OverflowingMatrixError, match=r"^\|\|x\|\|\^2 underflows"):
            noise_levels(model, self.TINY)

    def test_sigmas_for_levels(self):
        with pytest.raises(OverflowingMatrixError, match=r"^\|\|x\|\|\^2 underflows"):
            sigmas_for_levels(np.eye(3), self.TINY, 0.5, 0.5, 1)

    def test_zero_signal_on_a_declared_support_is_still_the_zero_signal(self):
        zero = SparseSignal(np.zeros(3), (0,))
        with pytest.raises(InvalidInputError, match="^noise levels are undefined for the zero signal$"):
            sigmas_for_levels(np.eye(3), zero, 0.5, 0.5, 1)
