import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sparsebounds.ccrb import ccrb_maximal, ccrb_nonmaximal
from sparsebounds.errors import (
    DegenerateModelError,
    DivergentTestPointError,
    InfeasibleOffsetError,
    InvalidInputError,
    OverflowingTestPointError,
    SparseBoundsError,
    UnsupportedMatrixError,
    WrongRegimeError,
)
import sparsebounds.ccrb as ccrb_module
import sparsebounds.hcrb as hcrb_module
from sparsebounds.hcrb import (
    beta_of,
    d_hcrb,
    g_function,
    hcrb_general,
    hcrb_unit_closed_form,
    test_points as make_test_points,
    transition_sigma_e,
)
from sparsebounds.model import (
    ProblemModel,
    SparseSignal,
    generate_gaussian_matrix,
    sigma_x_squared,
)


def identity_model(n, sigma_e, sigma_n, s):
    return ProblemModel(A=np.eye(n), sigma_e=sigma_e, sigma_n=sigma_n, s=s)


def axis_offsets(n, scales):
    """+-t e_i for every scale t and axis i."""
    return [sign * t * np.eye(n)[i] for t in scales for i in range(n) for sign in (1.0, -1.0)]


def mixed_scale_instance(seed, n, se, sn):
    """A model, a signal, offsets of norms 1e-8 to 1 and the size k of the
    subset offsets[:k].  With sigma_e <= sigma_n / 2 and ||v_i|| <= 1 every
    a_i < 0.65, so no pair diverges; the pair form of H fell by up to 85%
    when test points were added."""
    rng = np.random.default_rng(seed)
    model = ProblemModel(generate_gaussian_matrix(n, n, rng), se, sn, n)
    x = SparseSignal(rng.normal(size=n))
    k = int(rng.integers(1, n + 1))
    directions = rng.normal(size=(k + int(rng.integers(1, n + 1)), n))
    offsets = [10.0 ** rng.uniform(-8.0, 0.0) * u / np.linalg.norm(u) for u in directions]
    return model, x, offsets, k


def reference_test_points(model, signal, offsets):
    """H of test_points by the pair form, one offset and one pair at a time."""
    sx2 = sigma_x_squared(model, signal)
    vs = [np.asarray(v, dtype=float) for v in offsets]
    k = len(vs)
    s2 = np.empty(k)
    Av = np.empty((k, model.m))
    for i, v in enumerate(vs):
        xi = signal.x + v
        if np.count_nonzero(xi) > model.s:
            raise InfeasibleOffsetError(
                f"offset {i} leaves the sparse set: ||x + v||_0 = "
                f"{np.count_nonzero(xi)} > s = {model.s}"
            )
        s2[i] = model.sigma_e**2 * (xi @ xi) + model.sigma_n**2
        if s2[i] <= 0.0:
            raise DegenerateModelError(f"offset {i} has zero equivalent variance")
        Av[i] = model.A @ v
    H = np.empty((k, k))
    for i in range(k):
        for j in range(i, k):
            inv_vs = 1.0 / s2[i] + 1.0 / s2[j] - 1.0 / sx2
            if inv_vs <= 0.0:
                raise DivergentTestPointError(
                    f"test-point pair ({i}, {j}) has vs^2 <= 0; the defining "
                    "integral diverges"
                )
            vs2 = 1.0 / inv_vs
            w = Av[i] / s2[i] + Av[j] / s2[j]
            L = (
                0.5 * model.m
                * (math.log(sx2) + math.log(vs2) - math.log(s2[i]) - math.log(s2[j]))
                - (Av[i] @ Av[i]) / (2.0 * s2[i])
                - (Av[j] @ Av[j]) / (2.0 * s2[j])
                + 0.5 * vs2 * (w @ w)
            )
            H[i, j] = H[j, i] = math.expm1(L)
    return H


def decimal_test_points(model, signal, offsets):
    """H by the pair form in 80-digit decimal arithmetic, from the exact
    values of the float inputs."""
    with localcontext() as ctx:
        ctx.prec = 80
        A = [[Decimal(a) for a in row] for row in model.A.tolist()]
        x = [Decimal(t) for t in signal.x.tolist()]
        se2, sn2 = Decimal(model.sigma_e) ** 2, Decimal(model.sigma_n) ** 2

        def variance(z):
            return se2 * sum(t * t for t in z) + sn2

        sx2 = variance(x)
        s2, b = [], []
        for v in offsets:
            v = [Decimal(t) for t in np.asarray(v, dtype=float).tolist()]
            s2.append(variance([p + q for p, q in zip(x, v)]))
            b.append([sum(r * t for r, t in zip(row, v)) for row in A])
        H = np.empty((len(b), len(b)))
        for i, j in np.ndindex(H.shape):
            vs2 = 1 / (1 / s2[i] + 1 / s2[j] - 1 / sx2)
            w = [p / s2[i] + q / s2[j] for p, q in zip(b[i], b[j])]
            L = (
                Decimal(model.m) / 2 * (sx2.ln() + vs2.ln() - s2[i].ln() - s2[j].ln())
                - sum(p * p for p in b[i]) / (2 * s2[i])
                - sum(q * q for q in b[j]) / (2 * s2[j])
                + vs2 / 2 * sum(p * p for p in w)
            )
            H[i, j] = float(L.exp() - 1)
        return H


def _raised(fn, *args):
    with pytest.raises(Exception) as info:
        fn(*args)
    return info.value


class TestTestPoints:
    def test_rows_match_pair_loop(self):
        rng = np.random.default_rng(17)
        x_id = SparseSignal(np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]))
        x_g = SparseSignal(np.array([0.0, 1.2, 0.0, -0.7, 0.0, 0.0, 0.4, 0.0]))
        gaussian_offsets = [np.zeros(8)]
        for _ in range(30):
            v = np.zeros(8)
            v[[1, 3, 6]] = rng.normal(0.0, 0.3, size=3)
            gaussian_offsets.append(v)
        cases = [
            (identity_model(6, 0.1, 0.2, 3), x_id, axis_offsets(6, (1e-3, 0.1, 0.5))),
            (
                ProblemModel(generate_gaussian_matrix(5, 8, rng), 0.2, 0.3, 3),
                x_g,
                gaussian_offsets,
            ),
        ]
        for model, x, offs in cases:
            tp = make_test_points(model, x, offs)
            H = reference_test_points(model, x, offs)
            assert np.max(np.abs(tp.H - H)) <= 1e-12 * np.max(np.abs(H))
            np.testing.assert_array_equal(tp.V, np.column_stack(offs))

    def test_error_precedence_matches_pair_loop(self):
        model = identity_model(3, 0.5, 0.0, 1)
        x = SparseSignal(np.array([1.0, 0.0, 0.0]))
        degenerate = np.array([-1.0, 0.0, 0.0])  # x + v = 0: sigma^2 = 0
        infeasible = np.array([0.0, 0.3, 0.0])  # two nonzeros, s = 1
        fine = np.array([0.1, 0.0, 0.0])
        # s^2 = (100, 150, 250, 10000): (2, 2) and (1, 3) diverge, and
        # row-major order meets (1, 3) first
        div_model = identity_model(2, 1.0, 0.0, 1)
        div_x = SparseSignal(np.array([10.0, 0.0]))
        div_offsets = [np.array([math.sqrt(q) - 10.0, 0.0]) for q in (100, 150, 250, 10000)]
        # s^2 = 100 then 150 + 10000 at 7: pair (1, 7) diverges after
        # five pairs of row 1 that do not
        div_late = [np.array([math.sqrt(q) - 10.0, 0.0])
                    for q in (100, 150, 120, 130, 140, 110, 105, 10000)]
        # sigma_x^2 = 1e-4, so H_11 = expm1(0.25 / 1e-4) overflows
        big_model = identity_model(2, 0.0, 0.01, 1)
        big_x = SparseSignal(np.array([1.0, 0.0]))
        big_offsets = [np.array([1e-3, 0.0]), np.array([0.5, 0.0])]
        # H_(12, 12) overflows after 12 rows and 3 columns that do not
        big_late = [np.array([t, 0.0]) for t in np.linspace(1e-4, 1e-2, 12)]
        big_late += [np.array([0.5, 0.0])] * 3
        cases = [
            (model, x, [fine, degenerate, infeasible], DegenerateModelError, "offset 1 "),
            (model, x, [fine, infeasible, degenerate], InfeasibleOffsetError, "offset 1 "),
            (div_model, div_x, div_offsets, DivergentTestPointError, "pair (1, 3)"),
            (div_model, div_x, div_late, DivergentTestPointError, "pair (1, 7)"),
            (big_model, big_x, big_offsets, OverflowError, "pair (1, 1)"),
            (big_model, big_x, big_late, OverflowError, "pair (12, 12)"),
        ]
        for model, x, offs, kind, where in cases:
            want = _raised(reference_test_points, model, x, offs)
            got = _raised(make_test_points, model, x, offs)
            assert type(want) is kind
            # the pair loop's math.expm1 raises the builtin OverflowError;
            # test_points raises its subclass that is also a SparseBoundsError
            assert type(got) is (OverflowingTestPointError if kind is OverflowError else kind)
            assert where in str(got)
            if kind is not OverflowError:  # math.expm1 says only "math range error"
                assert str(got) == str(want)

    def test_matches_decimal_at_small_offsets(self):
        # the pair form's exponent sums terms of order m that cancel down
        # to order t_i t_j: at t = 1e-8 it was off by up to 220%, and
        # D^-1 H D^-1 had lambda_min = -2.9e-4
        rng = np.random.default_rng(5)
        model = ProblemModel(generate_gaussian_matrix(9, 5, rng), 0.3, 0.1, 2)
        x = SparseSignal(np.array([0.0, 1.0, 0.0, -0.6, 0.0]))
        offsets = [t * np.eye(5)[(1, 3)[k % 2]] for k, t in enumerate(np.logspace(-8, -2, 8))]
        H = make_test_points(model, x, offsets).H
        want = decimal_test_points(model, x, offsets)
        assert np.max(np.abs(H - want) / np.abs(want)) <= 1e-13
        d = np.sqrt(np.diag(H))
        assert np.linalg.eigvalsh(H / np.outer(d, d)).min() >= -1e-14

    def test_overflow_is_a_package_error(self):
        # sigma_x^2 = 1e-4 and an offset of 0.5: H_11 = expm1(2500) overflows
        model = identity_model(2, 0.0, 0.01, 1)
        x = SparseSignal(np.array([1.0, 0.0]))
        offsets = [np.array([1e-3, 0.0]), np.array([0.5, 0.0])]
        for bound in (make_test_points, hcrb_general):
            with pytest.raises(SparseBoundsError, match=r"pair \(1, 1\) overflows H") as info:
                bound(model, x, offsets)
            assert isinstance(info.value, OverflowError)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_offset_is_an_input_error(self, bad):
        # a NaN offset gave a nan trace with RuntimeWarnings, an infinite
        # one a DivergentTestPointError (exit 3)
        model = identity_model(3, 0.1, 0.1, 2)
        x = SparseSignal(np.array([1.0, 0.0, 0.0]))
        fine, bad_v = np.array([0.1, 0.0, 0.0]), np.array([bad, 0.0, 0.0])
        infeasible = np.array([0.0, 0.3, 0.3])  # three nonzeros, s = 2
        short = np.zeros(2)
        cases = [
            ([fine, bad_v], "^offset 1 must be finite$"),
            ([infeasible, bad_v], "^offset 1 must be finite$"),  # before the sparsity check
            ([bad_v, short], "^offset 0 must be finite$"),  # in index order
            ([short, bad_v], "^offset length does not match model n$"),
        ]
        for bound in (make_test_points, hcrb_general):
            for offsets, message in cases:
                with pytest.raises(InvalidInputError, match=message):
                    bound(model, x, offsets)

    def test_zero_offset_gives_zero_bound(self):
        model = identity_model(3, 0.2, 0.5, 2)
        x = SparseSignal(np.array([1.0, 0.5, 0.0]))
        C, tr = hcrb_general(model, x, [np.zeros(3)])
        assert tr == 0.0
        np.testing.assert_array_equal(C, np.zeros((3, 3)))

    def test_energy_preserving_swap_entries(self):
        """Offsets that move the whole signal mass to another coordinate keep
        sigma^2 unchanged, and the information entries reduce to
        expm1((1 + [i == j]) beta). Hand-derived from the Gaussian ratio."""
        n, xq, se, sn = 4, 0.8, 0.3, 0.4
        model = identity_model(n, se, sn, 1)
        x = SparseSignal(np.array([xq, 0.0, 0.0, 0.0]))
        sx2 = sigma_x_squared(model, x)
        beta = xq**2 / sx2
        offs = [np.zeros(n) for _ in range(3)]
        for i, v in enumerate(offs, start=1):
            v[0] = -xq
            v[i] = xq
        tp = make_test_points(model, x, offs)
        H = tp.H
        for i in range(3):
            for j in range(3):
                want = math.expm1((1.0 + (i == j)) * beta)
                assert H[i, j] == pytest.approx(want, rel=1e-12)

    def test_matches_density_ratio_monte_carlo(self):
        """Each entry is E[(p1/p0 - 1)(p2/p0 - 1)] under the true density."""
        model = identity_model(2, 0.5, 0.5, 1)
        x = SparseSignal(np.array([1.0, 0.0]))
        offs = [np.array([0.2, 0.0]), np.array([-1.0, 0.8])]
        tp = make_test_points(model, x, offs)

        rng = np.random.default_rng(31)
        draws = 200_000
        sx2 = sigma_x_squared(model, x)
        y = x.x + np.sqrt(sx2) * rng.standard_normal((draws, 2))
        w = np.empty((draws, 2))
        for k, v in enumerate(offs):
            mean_k = x.x + v
            s2 = model.sigma_e**2 * np.sum(mean_k**2) + model.sigma_n**2
            logp = -np.sum((y - mean_k) ** 2, axis=1) / (2 * s2) - np.log(2 * np.pi * s2)
            logp0 = -np.sum((y - x.x) ** 2, axis=1) / (2 * sx2) - np.log(2 * np.pi * sx2)
            w[:, k] = np.exp(logp - logp0) - 1.0
        for i in range(2):
            for j in range(2):
                prod = w[:, i] * w[:, j]
                mc = prod.mean()
                se_mc = prod.std(ddof=1) / np.sqrt(draws)
                assert abs(tp.H[i, j] - mc) <= 4.0 * se_mc

    def test_infeasible_offset_rejected(self):
        model = identity_model(4, 0.1, 0.5, 2)
        x = SparseSignal(np.array([1.0, 1.0, 0.0, 0.0]))
        v = np.zeros(4)
        v[2] = 0.5  # three nonzeros at x + v, but s = 2
        with pytest.raises(InfeasibleOffsetError):
            make_test_points(model, x, [v])

    def test_divergent_pair_rejected(self):
        # a much noisier test point makes 1/varsigma^2 nonpositive and the
        # second moment of the density ratio infinite
        model = identity_model(2, 1.0, 0.0, 1)
        x = SparseSignal(np.array([10.0, 0.0]))
        v = np.array([90.0, 0.0])
        with pytest.raises(DivergentTestPointError):
            make_test_points(model, x, [v])

    def test_degenerate_test_point_rejected(self):
        model = identity_model(2, 0.5, 0.0, 1)
        x = SparseSignal(np.array([1.0, 0.0]))
        with pytest.raises(DegenerateModelError):
            make_test_points(model, x, [np.array([-1.0, 0.0])])  # x + v = 0, sigma^2 = 0

    def test_information_matrix_is_psd(self):
        model = identity_model(5, 0.2, 0.3, 2)
        x = SparseSignal(np.array([1.0, -0.5, 0.0, 0.0, 0.0]))
        offs = [np.zeros(5) for _ in range(4)]
        offs[0][0] = 0.3
        offs[1][1] = -0.2
        offs[2][0] = -0.1
        offs[3][1] = 0.25
        tp = make_test_points(model, x, offs)
        np.testing.assert_allclose(tp.H, tp.H.T, rtol=1e-12)
        w = np.linalg.eigvalsh(tp.H)
        assert w.min() >= -1e-10 * max(w.max(), 1.0)


class TestGeneralBound:
    def test_recovers_ccrb_on_identity(self):
        model = identity_model(6, 0.1, 0.2, 2)
        x = SparseSignal(np.array([1.0, 0.5, 0.0, 0.0, 0.0, 0.0]))
        ref = ccrb_maximal(model, x).bound
        errs = []
        for t in (1e-2, 1e-3, 1e-4):
            offs = []
            for i in x.support:
                v = np.zeros(6)
                v[i] = t
                offs.append(v)
            # one-sided offsets only: adding -v as well injects curvature
            # information and the small-t limit lands above the CCRB
            _, tr = hcrb_general(model, x, offs)
            errs.append(abs(tr - ref) / ref)
        assert errs[0] > errs[1] > errs[2]
        assert errs[-1] < 1e-3

    def test_recovers_ccrb_on_random_matrix(self):
        rng = np.random.default_rng(23)
        A = generate_gaussian_matrix(8, 8, rng)
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.2, s=2)
        x = SparseSignal(np.array([1.0, 0.5] + [0.0] * 6))
        ref = ccrb_maximal(model, x).bound
        offs = []
        for i in x.support:
            v = np.zeros(8)
            v[i] = 1e-4
            offs.append(v)
        _, tr = hcrb_general(model, x, offs)
        assert abs(tr - ref) / ref < 0.01

    @settings(max_examples=20)
    @given(
        seed=st.integers(0, 2**32 - 1),
        se=st.floats(0.0, 0.5),
        sn=st.floats(0.05, 1.0),
    )
    def test_support_offsets_shrink_to_ccrb_on_random_matrix(self, seed, se, sn):
        rng = np.random.default_rng(seed)
        A = generate_gaussian_matrix(8, 10, rng)
        x = np.zeros(10)
        x[rng.choice(10, size=3, replace=False)] = rng.normal(size=3)
        model = ProblemModel(A=A, sigma_e=se, sigma_n=sn, s=3)
        signal = SparseSignal(x)
        ref = ccrb_maximal(model, signal).bound
        errs, trs = [], {}
        for t in (1e-2, 1e-4, 1e-6, 1e-8):
            one_sided = [t * np.eye(10)[i] for i in signal.support]
            _, trs[t] = hcrb_general(model, signal, one_sided)
            errs.append(abs(trs[t] - ref) / ref)
        # the pair form of H lost every digit by t = 1e-8
        assert all(b <= a for a, b in zip(errs, errs[1:]))
        assert errs[-1] < 1e-3
        # the mirrored offsets -t e_i add curvature information: the
        # larger set (+-t e_i) gives no less, and its limit lies above
        t, tr = 1e-4, trs[1e-4]
        both = [sign * t * np.eye(10)[i] for i in signal.support for sign in (1.0, -1.0)]
        _, tr_both = hcrb_general(model, signal, both)
        assert tr_both >= tr - 1e-6 * ref  # H is near singular at small t
        assert tr_both >= ref * (1.0 - 1e-6)

    def test_monotone_in_test_point_set(self):
        # adding test points can only raise the bound
        model = identity_model(4, 0.2, 0.3, 2)
        x = SparseSignal(np.array([1.0, 0.4, 0.0, 0.0]))
        base = [np.array([0.1, 0.0, 0.0, 0.0])]
        extra = base + [np.array([0.0, -0.2, 0.0, 0.0]), np.array([-0.3, 0.1, 0.0, 0.0])]
        # offsets of mixed scales make H span about 1e-8 to 1e14, so an
        # unscaled eigenvalue cut drops the small-offset directions
        mixed_model = identity_model(4, 0.0, 0.1, 3)
        mixed_x = SparseSignal(np.array([1.0, 0.5, 0.0, 0.0]))
        cases = [
            (model, x, base, extra),
            (mixed_model, mixed_x, axis_offsets(4, (1e-3,)), axis_offsets(4, (1e-3, 0.1, 0.5))),
        ]
        for model, x, base, extra in cases:
            _, t1 = hcrb_general(model, x, base)
            _, t2 = hcrb_general(model, x, extra)
            assert t2 >= t1 - 1e-12

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        se=st.floats(0.0, 0.1),
        sn=st.floats(0.2, 1.0),
    )
    def test_monotone_over_mixed_scales(self, seed, n, se, sn):
        model, x, offsets, k = mixed_scale_instance(seed, n, se, sn)
        _, sub = hcrb_general(model, x, offsets[:k])
        _, sup = hcrb_general(model, x, offsets)
        assert sup >= sub * (1.0 - 1e-5)

    @settings(max_examples=500)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(3, 8),
        se=st.floats(0.0, 0.1),
        sn=st.floats(0.2, 1.0),
    )
    # the eigenvalue cut of the pseudo-inverse lowered this trace by 2.8e-6
    @example(seed=2470500795, n=3, se=0.09479466824796515, sn=0.5836957339718235)
    def test_monotone_and_psd_over_many_mixed_scales(self, seed, n, se, sn):
        model, x, offsets, k = mixed_scale_instance(seed, n, se, sn)
        C_sub, sub = hcrb_general(model, x, offsets[:k])
        C_sup, sup = hcrb_general(model, x, offsets)
        assert sup >= sub * (1.0 - 1e-12)
        for C, tr in ((C_sub, sub), (C_sup, sup)):
            assert np.linalg.eigvalsh(C)[0] >= -1e-12 * tr

    @pytest.mark.parametrize("seed", [50, 123, 214])
    def test_monotone_at_offsets_below_the_old_cut(self, seed):
        # the superset's D^-1 H D^-1 has an eigenvalue just under the old
        # cut of 1e-12 lambda_max; that cut lowered the trace by 3e-4 to 6e-4
        rng = np.random.default_rng([seed, 7])
        model = ProblemModel(generate_gaussian_matrix(3, 3, rng), 0.071, 0.60, 3)
        x = SparseSignal(rng.normal(size=3))
        directions = rng.normal(size=(4, 3))
        offsets = [10.0 ** rng.uniform(-7.0, -5.0) * u / np.linalg.norm(u) for u in directions]
        _, sub = hcrb_general(model, x, offsets[:3])
        _, sup = hcrb_general(model, x, offsets)
        assert sup >= sub * (1.0 - 1e-12)

    def test_a_point_without_information_adds_nothing(self):
        # A v = 0 and sigma_e = 0 give H_ii = 0; a bare ridge would weigh
        # that point by 1 / RIDGE
        model = ProblemModel(np.array([[1.0, 0.0]]), 0.0, 0.5, 2)
        x = SparseSignal(np.array([1.0, 0.0]))
        blind, seen = np.array([0.0, 1.0]), np.array([0.1, 0.0])
        assert hcrb_general(model, x, [blind])[1] == 0.0
        _, alone = hcrb_general(model, x, [seen])
        _, both = hcrb_general(model, x, [seen, blind])
        assert alone == both == pytest.approx(0.01 / math.expm1(0.04), rel=1e-11)


class TestBetaAndG:
    def test_beta_example(self):
        model = identity_model(3, 1.0, 1.0, 2)
        x = SparseSignal(np.array([2.0, 1.0, 0.0]))
        # sigma_x^2 = 5 + 1 = 6, smallest magnitude 1
        assert beta_of(model, x) == pytest.approx(1.0 / 6.0, rel=1e-14)

    def test_beta_cap_attained_for_flat_signal(self):
        model = identity_model(4, 0.5, 0.0, 4)
        x = SparseSignal(np.ones(4))
        # xq^2 / (se^2 k xq^2) = 1 / (k se^2) exactly at the cap
        assert beta_of(model, x) == pytest.approx(1.0 / (4 * 0.25), rel=1e-14)

    @given(
        se=st.floats(1e-3, 10.0),
        sn=st.floats(0.0, 10.0),
        v=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-3, 5.0), st.floats(-5.0, -1e-3)),
            min_size=1,
            max_size=6,
        ).filter(lambda v: any(v)),
    )
    def test_beta_never_exceeds_cap(self, se, sn, v):
        # sigma_x^2 = se^2 ||x||^2 + sn^2 >= k se^2 xq^2 for k nonzeros
        x = np.asarray(v, dtype=float)
        k = int(np.count_nonzero(x))
        model = identity_model(x.size, se, sn, k)
        assert beta_of(model, SparseSignal(x)) <= 1.0 / (k * se**2) * (1.0 + 1e-12)

    def test_beta_zero_signal_rejected(self):
        model = identity_model(3, 0.5, 0.5, 2)
        with pytest.raises(InvalidInputError):
            beta_of(model, SparseSignal(np.zeros(3)))

    def test_g_root_at_matrix_noise_scale(self):
        for se in (0.1, 0.5, 2.0):
            assert g_function(1.0 / (2.0 * se**2), 10, se) == 0.0

    def test_g_limit_at_small_beta(self):
        assert g_function(1e-10, 10, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_g_range_on_admissible_grid(self):
        for se in (0.0, 0.1, 1.0, 10.0):
            top = 700.0 if se == 0.0 else 1.0 / se**2
            for beta in np.logspace(-12, np.log10(top), 40):
                for n in (2, 10, 1000):
                    g = g_function(beta, n, se)
                    assert 0.0 <= g < 1.0, (se, beta, n)

    def test_g_overflow_guard(self):
        assert g_function(800.0, 10, 0.0) == 0.0

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x_q", [1e-160, 1e-200])
    def test_closed_form_at_vanishing_beta(self, x_q):
        # at 1e-200 x_q^2 underflows to beta = 0, which g_function rejects;
        # the bound takes the limit beta -> 0 that 1e-160 already reaches
        model = identity_model(3, 1e-3, 1.0, 1)
        rep = hcrb_unit_closed_form(model, SparseSignal(np.array([x_q, 0.0, 0.0])))
        assert (rep.bound, rep.support_part, rep.nonsupport_part, rep.g_beta) == (3.0, 1.0, 2.0, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_closed_form_at_overflowing_beta(self):
        # x_q^2 / sigma_x^2 = 1 / 9.9e-324 overflows: beta is inf, silently
        model = identity_model(2, 0.0, 3e-162, 1)
        rep = hcrb_unit_closed_form(model, SparseSignal(np.array([1.0, 0.0])))
        assert (rep.beta, rep.g_beta, rep.nonsupport_part) == (math.inf, 0.0, 0.0)
        assert rep.bound == rep.support_part == 1e-323

    def test_g_rejects_bad_arguments(self):
        with pytest.raises(InvalidInputError):
            g_function(-1.0, 10, 0.1)
        with pytest.raises(InvalidInputError):
            g_function(0.5, 1, 0.1)


class TestClosedForm:
    def test_requires_identity_matrix(self):
        rng = np.random.default_rng(2)
        A = generate_gaussian_matrix(4, 4, rng)
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.1, s=1)
        x = SparseSignal(np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(UnsupportedMatrixError):
            hcrb_unit_closed_form(model, x)

    def test_support_part_equals_ccrb(self):
        model = identity_model(10, 0.05, 0.1, 2)
        x = SparseSignal(np.array([1.0, 0.3] + [0.0] * 8))
        rep = hcrb_unit_closed_form(model, x)
        assert rep.support_part == pytest.approx(ccrb_maximal(model, x).bound, rel=1e-12)

    def test_reassembles_from_parts(self):
        model = identity_model(10, 0.01, 0.1, 1)
        x = SparseSignal(np.array([1.0] + [0.0] * 9))
        rep = hcrb_unit_closed_form(model, x)
        sx2 = sigma_x_squared(model, x)
        assert rep.nonsupport_part == pytest.approx(sx2 * d_hcrb(model, x), rel=1e-12)
        assert rep.bound == pytest.approx(rep.support_part + rep.nonsupport_part, rel=1e-12)
        assert rep.beta == pytest.approx(beta_of(model, x), rel=1e-14)

    def test_dominates_support_restricted_bound(self):
        for se in (0.0, 0.02, 0.1):
            for xq in (0.01, 0.3, 1.0):
                model = identity_model(8, se, 0.1, 2)
                x = SparseSignal(np.array([1.0, xq] + [0.0] * 6))
                rep = hcrb_unit_closed_form(model, x)
                assert rep.bound >= ccrb_maximal(model, x).bound - 1e-15

    @settings(max_examples=50)
    @given(
        n=st.integers(2, 8),
        s_frac=st.floats(0.0, 1.0),
        se=st.floats(0.0, 0.5),
        sn=st.floats(1e-3, 1.0),
        xq=st.floats(1e-6, 1.0),
    )
    def test_never_below_ccrb(self, n, s_frac, se, sn, xq):
        s = 1 + round(s_frac * (n - 1))
        # s - 1 unit entries and the smallest nonzero entry x_q
        x = SparseSignal(np.array([1.0] * (s - 1) + [xq] + [0.0] * (n - s)))
        model = identity_model(n, se, sn, s)
        ccrb = ccrb_maximal(model, x).bound
        assert hcrb_unit_closed_form(model, x).bound >= ccrb * (1.0 - 1e-12)

    def test_small_coordinate_approaches_nonmaximal_ccrb(self):
        model = identity_model(10, 0.05, 0.1, 2)
        limit = SparseSignal(np.array([1.0] + [0.0] * 9))
        ref = ccrb_nonmaximal(model, limit).bound
        gaps = []
        for j in (2, 3, 4, 5, 6):
            x = SparseSignal(np.array([1.0, 2.0**-j] + [0.0] * 8), support=(0, 1))
            # keep the signal in the maximal regime: 2^-j is tiny but nonzero
            rep = hcrb_unit_closed_form(model, x)
            gaps.append(abs(rep.bound - ref) / ref)
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_strong_noise_floor_without_matrix_noise(self):
        model = identity_model(10, 0.0, 0.3, 2)
        x = SparseSignal(np.array([100.0, 50.0] + [0.0] * 8))
        rep = hcrb_unit_closed_form(model, x)
        # off-support tail dies and the bound sits at s sigma_n^2
        assert rep.bound == pytest.approx(2 * 0.09, rel=1e-9)

    def test_large_coordinate_kills_the_tail(self):
        model = identity_model(10, 0.0, 0.1, 1)
        x = SparseSignal(np.array([1e8] + [0.0] * 9))
        rep = hcrb_unit_closed_form(model, x)
        assert rep.nonsupport_part == 0.0
        assert rep.bound == pytest.approx(0.01, rel=1e-12)

    def test_nonsupport_gap_is_material_in_the_hard_regime(self):
        model = identity_model(20, 1.0, 0.1, 2)
        x = SparseSignal(np.array([1e4, 1e4] + [0.0] * 18))
        rep = hcrb_unit_closed_form(model, x)
        assert rep.nonsupport_part > 0.01 * rep.support_part

    def test_full_support_has_no_tail(self):
        model = identity_model(3, 0.2, 0.4, 3)
        x = SparseSignal(np.array([1.0, -1.0, 2.0]))
        rep = hcrb_unit_closed_form(model, x)
        assert rep.nonsupport_part == 0.0
        assert rep.bound == pytest.approx(ccrb_maximal(model, x).bound, rel=1e-12)


class TestDhcrbSweep:
    def test_matrix_noise_sweep_monotone(self):
        # normalized tail grows from ~0 to ~(n-s)/(n-s+1) as sigma_e^2 sweeps up
        model_of = lambda se: identity_model(30, se, 0.1, 3)
        x = SparseSignal(np.array([1000.0] * 3 + [0.0] * 27))
        vals = []
        for se2 in np.logspace(-4, 2, 25):
            model = model_of(np.sqrt(se2))
            vals.append(d_hcrb(model, x) / 27.0)
        assert all(b >= a - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[0] < 1e-6
        assert vals[-1] > 0.9 * 27.0 / 28.0

    def test_transition_scale(self):
        for s in (1, 4, 25):
            assert transition_sigma_e(s) == pytest.approx(1.0 / np.sqrt(s), rel=1e-14)


@st.composite
def unit_instances(draw):
    """A = I_n with a signal of exactly s nonzeros on a random support."""
    n = draw(st.integers(2, 8))
    s = draw(st.integers(1, n))
    support = sorted(draw(st.permutations(range(n)))[:s])
    x = np.zeros(n)
    x[support] = draw(
        st.lists(
            st.floats(0.01, 10.0).flatmap(lambda v: st.sampled_from([v, -v])),
            min_size=s,
            max_size=s,
        )
    )
    sigma_e = draw(st.floats(0.0, 3.0))
    sigma_n = draw(st.floats(0.01, 3.0))
    return identity_model(n, sigma_e, sigma_n, s), SparseSignal(x)


class TestSupportPartIsTheCcrb:
    """At A = I the closed-form HCRB's support part is the maximal CCRB
    itself, so CCRB <= HCRB holds bit for bit."""

    @given(instance=unit_instances())
    @example(instance=(identity_model(5, 0.1, 0.1, 1), SparseSignal(np.eye(5)[0])))
    def test_support_part_equals_ccrb_maximal(self, instance):
        model, signal = instance
        rep = hcrb_unit_closed_form(model, signal)
        ccrb = ccrb_maximal(model, signal).bound
        assert rep.support_part == ccrb
        assert rep.bound >= ccrb

    def test_matrix_errors_come_before_ccrb_errors(self):
        # sigma_x^2 = 0 is a CCRB error; the non-identity A is reported first
        A = np.diag([1.0, 2.0, 1.0])
        model = ProblemModel(A=A, sigma_e=0.0, sigma_n=0.0, s=1)
        with pytest.raises(UnsupportedMatrixError):
            hcrb_unit_closed_form(model, SparseSignal(np.eye(3)[0]))


class TestClosedFormChecks:
    """One pass checks a closed-form instance: the signal's length, A = I,
    n >= 2, the regime, then sigma_x^2 > 0.  Each case also fails every
    later check, so it pins the order."""

    @pytest.mark.parametrize(
        "A, s, sigma, x, error, message",
        [
            (np.diag([1.0, 2.0, 1.0, 1.0]), 1, 0.0, np.zeros(3), InvalidInputError,
             "signal length 3 does not match model n=4"),
            (np.eye(2, 3), 1, 0.0, np.zeros(3), UnsupportedMatrixError, "identity matrix"),
            (np.eye(2)[::-1], 1, 0.0, np.zeros(2), UnsupportedMatrixError, "identity matrix"),
            (np.eye(1), 1, 0.0, np.zeros(1), InvalidInputError, "requires n >= 2"),
            (np.eye(3), 2, 0.0, np.eye(3)[0], WrongRegimeError, "got 1"),
            (np.eye(3), 1, 0.0, np.eye(3)[0], DegenerateModelError, "degenerate"),
        ],
    )
    @pytest.mark.parametrize("bound", [hcrb_unit_closed_form, d_hcrb])
    def test_first_failing_check_is_reported(self, bound, A, s, sigma, x, error, message):
        model = ProblemModel(A=A, sigma_e=sigma, sigma_n=sigma, s=s)
        with pytest.raises(error, match=message):
            bound(model, SparseSignal(x))

    @pytest.mark.parametrize(
        "A, unit",
        [
            (np.eye(3), True),
            (np.where(np.eye(3) == 1.0, 1.0, -0.0), True),
            (np.diag([1.0, 1.0, 2.0]), False),
            (np.eye(3) + np.eye(3, k=1) * 1e-300, False),
            (np.eye(3)[[0, 2, 1]], False),
        ],
    )
    def test_identity_test_matches_array_equal(self, A, unit):
        assert np.array_equal(A, np.eye(3)) == unit
        model = ProblemModel(A=A, sigma_e=0.1, sigma_n=0.1, s=1)
        x = SparseSignal(np.eye(3)[0])
        if unit:
            want = hcrb_unit_closed_form(identity_model(3, 0.1, 0.1, 1), x)
            assert hcrb_unit_closed_form(model, x) == want
        else:
            with pytest.raises(UnsupportedMatrixError):
                hcrb_unit_closed_form(model, x)

    @staticmethod
    def count_full_scans(monkeypatch, size):
        scans = []
        count_nonzero = np.count_nonzero

        def counted(a, *args, **kwargs):
            scans.extend([1] if np.size(a) == size else [])
            return count_nonzero(a, *args, **kwargs)

        monkeypatch.setattr(np, "count_nonzero", counted)
        return scans

    def test_identity_is_scanned_once_per_model(self, monkeypatch):
        n = 1000
        scans = self.count_full_scans(monkeypatch, n * n)
        base = identity_model(n, 0.0, 0.1, 3)
        signal = SparseSignal(np.r_[np.ones(3), np.zeros(n - 3)])
        for se in np.linspace(0.01, 1.0, 25):
            d_hcrb(base.with_noise(se, 0.1), signal)
        assert len(scans) == 1

    def test_near_identities_are_rejected(self, monkeypatch):
        n = 1000
        off_diagonal, two = np.eye(n), np.eye(n)
        off_diagonal[3, 700] = 1e-300
        two[500, 500] = 2.0
        scans = self.count_full_scans(monkeypatch, n * n)
        signal = SparseSignal(np.r_[1.0, np.zeros(n - 1)])
        for A in (off_diagonal, two):
            model = ProblemModel(A, 0.1, 0.1, 1)
            for bound in (hcrb_unit_closed_form, d_hcrb):
                with pytest.raises(UnsupportedMatrixError,
                                   match=r"^closed-form HCRB requires identity matrix$"):
                    bound(model.with_noise(0.2, 0.1), signal)
        # a diagonal entry other than 1 is decided without a scan of all entries
        assert len(scans) == 1

    def test_sigma_x_squared_is_computed_once(self, monkeypatch):
        # counted in both modules: the check runs in ccrb.maximal_support,
        # which the support part shares with the off-support part
        calls = []
        sx2 = hcrb_module.positive_sigma_x_squared

        def counted(*args):
            calls.append(args)
            return sx2(*args)

        for module in (ccrb_module, hcrb_module):
            monkeypatch.setattr(module, "positive_sigma_x_squared", counted)
        model = identity_model(6, 0.1, 0.2, 2)
        hcrb_unit_closed_form(model, SparseSignal(np.r_[1.0, 0.5, np.zeros(4)]))
        assert len(calls) == 1

    def test_support_part_does_not_call_ccrb_maximal(self, monkeypatch):
        # ccrb_maximal would check the instance a second time
        def refused(*args):
            raise AssertionError("ccrb_maximal called")

        for module in (ccrb_module, hcrb_module):
            monkeypatch.setattr(module, "ccrb_maximal", refused, raising=False)
        model = identity_model(6, 0.1, 0.2, 2)
        signal = SparseSignal(np.r_[1.0, 0.5, np.zeros(4)])
        rep = hcrb_unit_closed_form(model, signal)
        assert rep.support_part == ccrb_maximal(model, signal).bound


class TestGFunctionInputs:
    """g reads sigma_e by the model's deviation rule and rejects a beta
    that is not positive, NaN included; beta = inf is its limit 0."""

    def test_nan_beta_rejected(self):
        with pytest.raises(InvalidInputError, match="^beta must be positive$"):
            g_function(math.nan, 5, 0.1)

    @pytest.mark.parametrize("sigma_e", [math.nan, math.inf, 1e200], ids=repr)
    def test_sigma_e_outside_the_deviation_rule_rejected(self, sigma_e):
        # nan and inf used to return nan, 1e200 to end in a bare OverflowError
        with pytest.raises(InvalidInputError, match="^noise deviations must be finite"):
            g_function(0.5, 5, sigma_e)

    def test_infinite_beta_is_the_limit(self):
        assert g_function(math.inf, 5, 0.1) == 0.0


class TestGFunctionOverflow:
    """Where beta (1 - 2 sigma_e^2 beta)^2 or expm1(beta) (1 + 2 n sigma_e^4
    beta) overflows, g is still the ratio, here against 60-digit Decimal
    values."""

    @pytest.mark.parametrize(
        "beta, n, sigma_e, want",
        [
            (500.0, 5, 9e74, 7.1245764067412855e-213),  # both overflow: was nan
            (300.0, 5, 1e70, 1.8533520800683250e-126),  # den overflows: was 0.0
        ],
    )
    def test_matches_decimal(self, beta, n, sigma_e, want):
        assert g_function(beta, n, sigma_e) == pytest.approx(want, rel=1e-12, abs=0.0)
