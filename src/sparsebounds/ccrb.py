"""Constrained Cramer-Rao bounds for sparse estimation under perturbation.

For a signal with full support (||x||_0 = s) the bound on the MSE of any
unbiased estimator is

    CCRB = sigma_x^2 tr(G) - d,
    d    = sigma_x^2 * 2 m sigma_e^4 ||G x_S||^2
           / (sigma_x^2 + 2 m sigma_e^4 x_S^T G x_S),

with G = (A_S^T A_S)^{-1}.  The first term is the classical oracle bound;
d is the reduction created by the signal-dependent noise, and
gamma = d / first quantifies it.  The bound is computed as a sum of two
nonnegative parts that no sigma_e cancels (Sherman-Morrison), so
first - d equals it only in exact arithmetic.  For ||x||_0 < s the bound
is tr(J^{-1}) with J the full Fisher information, when J is invertible.

The gamma ratio admits matrix-free two-sided bounds from restricted
eigenvalue extremes and is approximated by a function of two scalar noise
levels c_e and c_n alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    AssumptionViolatedError,
    InvalidInputError,
    NoUnbiasedEstimatorError,
    OverflowingMatrixError,
    SingularMatrixError,
    WrongRegimeError,
)
from .model import (
    SINGULARITY_RTOL,
    ProblemModel,
    SparseSignal,
    _check_signal,
    checked_count,
    checked_matrix,
    checked_support,
    positive_sigma_x_squared,
    real_array,
    support_factor,
)

__all__ = [
    "CcrbReport",
    "RipConstants",
    "NoiseLevels",
    "ccrb_bound",
    "ccrb_maximal",
    "ccrb_nonmaximal",
    "oracle_mse_theoretical",
    "rip_constants",
    "noise_levels",
    "sigmas_for_levels",
    "gamma_bounds",
    "gamma_approx",
    "transition_ce",
]

# Support-enumeration budget above which rip_constants falls back to
# sampling in "auto" mode.
RIP_ENUMERATION_LIMIT = 100_000
RIP_DEFAULT_SAMPLES = 2000
# Supports per batched eigensolve in rip_constants: its temporaries are
# RIP_BLOCK * s * m floats plus one n x m copy of A^T, or one n x n A^T A
# when that is no larger (see _forms_gram), whatever the support count.
RIP_BLOCK = 64


@dataclass(frozen=True)
class CcrbReport:
    """Bound value with its decomposition into first term and reduction."""

    bound: float
    first_term: float
    d_ccrb: float
    gamma_ccrb: float
    regime: str

    def __post_init__(self):
        for name in ("bound", "first_term", "d_ccrb", "gamma_ccrb"):
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class RipConstants:
    """Extremes of the restricted Gram spectrum over size-s supports.

    theta_upper = max lambda_max(A_S^T A_S) - 1 and
    theta_lower = 1 - min lambda_min(A_S^T A_S); either may be <= 0 for
    well-conditioned matrices (exactly 0 for the identity).  `exact` marks
    whether every support was enumerated or only a sample.
    """

    theta_lower: float
    theta_upper: float
    s: int
    exact: bool


@dataclass(frozen=True)
class NoiseLevels:
    """Scalar noise levels c_e (matrix) and c_n (additive), each finite and
    nonnegative."""

    c_e: float
    c_n: float

    def __post_init__(self):
        _check_levels("noise levels", (self.c_e, self.c_n))
        object.__setattr__(self, "c_e", float(self.c_e))
        object.__setattr__(self, "c_n", float(self.c_n))


def _check_levels(name: str, values) -> None:
    """Raise InvalidInputError unless every value is finite and
    nonnegative; NaN fails the test too."""
    for v in values:
        if not 0.0 <= v < math.inf:
            raise InvalidInputError(f"{name} must be {'nonnegative' if v < 0.0 else 'finite'}")


def _rank_one_report(
    model: ProblemModel, sx2: float, G: np.ndarray, x: np.ndarray, regime: str
) -> CcrbReport:
    # bound = (first - t) + t / (1 + r), d = t / (1 + 1/r) with u = G x, c = 2 m se^4,
    # t = sx2 ||u||^2 / x^T u and r = c x^T u / sx2; first - t is exactly 0 at s = 1
    first = float(sx2 * np.trace(G))
    u = G @ x
    xu = float(x @ u)
    r = 2.0 * model.m * model.sigma_e**4 * xu / sx2
    if r == 0.0:
        return CcrbReport(first, first, 0.0, 0.0, regime)
    t = sx2 * float(u @ u) / xu
    d = t / (1.0 + 1.0 / r)
    bound = (first - t if x.size > 1 else 0.0) + t / (1.0 + r)
    return CcrbReport(bound, first, d, d / first, regime)


def ccrb_bound(model: ProblemModel, signal: SparseSignal) -> CcrbReport:
    """The CCRB in the regime the signal falls in: ccrb_maximal when
    ||x||_0 = s, ccrb_nonmaximal otherwise."""
    if signal.nonzero_count == model.s:
        return ccrb_maximal(model, signal)
    return ccrb_nonmaximal(model, signal)


def maximal_support(model: ProblemModel, signal: SparseSignal) -> tuple[tuple[int, ...], float]:
    """(S, sigma_x^2) when ||x||_0 = s, the maximal regime: S holds the
    indices of the signal's nonzero entries, and a wider declared support
    plays no part.  The one check of a maximal instance, in this order:
    the signal's length, the regime (WrongRegimeError), sigma_x^2 > 0."""
    _check_signal(model, signal)
    S = tuple(np.flatnonzero(signal.x).tolist())
    if len(S) != model.s:
        raise WrongRegimeError(
            f"maximal-support bound needs ||x||_0 = s = {model.s}, got {len(S)}"
        )
    return S, positive_sigma_x_squared(model, signal)


def maximal_report(model: ProblemModel, signal: SparseSignal, S, sx2: float) -> CcrbReport:
    """The maximal CCRB from the (S, sigma_x^2) that maximal_support returns."""
    G = support_factor(model, S)[1]
    return _rank_one_report(model, sx2, G, signal.x[list(S)], "maximal")


def ccrb_maximal(model: ProblemModel, signal: SparseSignal) -> CcrbReport:
    """CCRB for a signal with exactly s nonzero entries.

    Raises WrongRegimeError when ||x||_0 != s, SingularMatrixError when
    A_S is rank deficient, DegenerateModelError when sigma_x^2 = 0.
    """
    return maximal_report(model, signal, *maximal_support(model, signal))


def ccrb_nonmaximal(model: ProblemModel, signal: SparseSignal) -> CcrbReport:
    """CCRB for a signal with fewer than s nonzero entries.

    Equals tr(J^{-1}) for the unconstrained Fisher information J, with
    sigma_x^2 J = A^T A + (c / sigma_x^2) x x^T and c = 2 m sigma_e^4.  A
    full-rank A takes the maximal bound's rank-one update form with the
    full matrix and signal.  When A^T A = Q diag(w) Q^T has one null
    direction Q[:, 0], the Schur complement of J on it gives, with
    a = Q[:, 0]^T x and z = Q[:, 1:]^T x over the other eigenpairs,
    tr(J^{-1}) = sigma_x^2 (sum 1/w + (sigma_x^2/c + sum z^2/w) / a^2),
    reported as (bound, 0); no term of it grows with c.

    Raises NoUnbiasedEstimatorError when J is singular (c = 0, rank below
    n - 1, or a^2 <= SINGULARITY_RTOL ||x||^2): no unbiased estimator of
    such a signal has finite variance.  Raises OverflowingMatrixError
    when the bound passes double range.
    """
    _check_signal(model, signal)
    if signal.nonzero_count >= model.s:
        raise WrongRegimeError(
            f"non-maximal bound needs ||x||_0 < s = {model.s}, "
            f"got {signal.nonzero_count}"
        )
    sx2 = positive_sigma_x_squared(model, signal)
    try:
        G = support_factor(model, tuple(range(model.n)))[1]
    except SingularMatrixError:
        x = signal.x
        w, Q = np.linalg.eigh(model.A.T @ model.A)
        a = float(Q[:, 0] @ x)
        z = Q[:, 1:].T @ x
        c = 2.0 * model.m * model.sigma_e**4
        if c == 0.0 or a * a <= SINGULARITY_RTOL * (x @ x) or w[1] <= SINGULARITY_RTOL * w[-1]:
            raise NoUnbiasedEstimatorError(
                "Fisher information is singular: no unbiased estimator of this "
                "signal has finite variance"
            ) from None
        w = w[1:]
        first = sx2 * (np.sum(1.0 / w) + (sx2 / c + np.sum(z * z / w)) / (a * a))
        if not math.isfinite(first):  # c near underflow
            raise OverflowingMatrixError("J^{-1} overflows double range")
        return CcrbReport(first, first, 0.0, 0.0, "nonmaximal")
    return _rank_one_report(model, sx2, G, signal.x, "nonmaximal")


def oracle_mse_theoretical(model: ProblemModel, support, signal: SparseSignal) -> float:
    """Exact MSE of the support-aware least-squares estimator.

    sigma_x^2 tr((A_S^T A_S)^{-1}) for a known support S covering the
    signal's nonzeros.
    """
    S = checked_support(model, support)
    if not set(np.flatnonzero(signal.x)) <= set(S):
        raise InvalidInputError("support must cover the signal's nonzero entries")
    sx2 = positive_sigma_x_squared(model, signal)
    return float(sx2 * np.trace(support_factor(model, S)[1]))


def _support_blocks(n: int, s: int, count: int, rng: np.random.Generator | None):
    """`count` sorted size-s supports of range(n) as (B, s) blocks, B <= RIP_BLOCK: in
    lexicographic order if rng is None, else the s smallest of each rng.random((B, n)) row."""
    combos = itertools.combinations(range(n), s)
    for start in range(0, count, RIP_BLOCK):
        B = min(RIP_BLOCK, count - start)
        if rng is None:
            flat = itertools.chain.from_iterable(itertools.islice(combos, B))
            yield np.fromiter(flat, dtype=np.intp, count=B * s).reshape(B, s)
        else:
            yield np.sort(np.argpartition(rng.random((B, n)), s - 1, axis=1)[:, :s], axis=1)


def _forms_gram(m: int, n: int, s: int, count: int) -> bool:
    """Whether rip_constants reads the Grams of `count` size-s supports from
    one A^T A of the m x n A: only when A^T A takes no more memory than one
    block of gathered columns and no more multiply-adds (n^2 m / 2) than
    multiplying out each support's columns (count s^2 m)."""
    return n * n <= min(RIP_BLOCK * s * m, 2 * count * s * s)


def rip_constants(
    A: np.ndarray,
    s: int,
    mode: str = "auto",
    samples: int = RIP_DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> RipConstants:
    """Restricted eigenvalue extremes over supports of size s.

    mode "exhaustive" enumerates all supports, "sampled" draws `samples`
    uniform supports from rng (default_rng(0) if None), and "auto"
    enumerates iff C(n, s) <= RIP_ENUMERATION_LIMIT.  A block of RIP_BLOCK
    supports reads its Grams from one A^T A formed per call when n^2 <=
    min(RIP_BLOCK s m, 2 count s^2) for `count` visited supports, that is
    when A^T A is no larger than one block of gathered columns and no
    costlier than multiplying out every support (see _forms_gram);
    otherwise it gathers each block's columns and multiplies them.  The block is solved by one batched eigvalsh, unless every Gram G
    of the block is finite and one batched Cholesky of G - lo I and
    hi I - G succeeds, lo and hi being the extremes found so far: then no
    support of the block moves either.  Cholesky is backward stable, so a
    skipped Gram lies within about s eps ||G|| of [lo, hi], the accuracy
    eigvalsh has; a NaN can factor, hence the finiteness test.  A sampled
    support is the sorted indices of the s smallest entries of a row of
    rng.random((B, n)), so a call draws samples * n doubles whatever
    RIP_BLOCK is.  Raises InvalidInputError unless A is finite, nonempty
    and 2-d, s is an integer in [1, n] and samples an integer >= 1 (in
    every mode; see checked_count); then, naming the first visited
    support that fails, OverflowingMatrixError when its Gram overflows
    double range and AssumptionViolatedError when it has lambda_min <= 0.  The first block
    is always solved, so lo > 0 after it and a support with lambda_min <= 0
    is never skipped.
    """
    A = checked_matrix(A)
    m, n = A.shape
    s, samples = checked_count("s", s), checked_count("samples", samples)
    if s > n:
        raise InvalidInputError(f"need 1 <= s <= n, got s={s}")
    if mode not in ("auto", "exhaustive", "sampled"):
        raise InvalidInputError(f"unknown mode {mode!r}")
    total = math.comb(n, s)
    if mode == "exhaustive" and total > RIP_ENUMERATION_LIMIT:
        raise InvalidInputError(f"exhaustive enumeration of {total} supports "
                                f"exceeds the limit {RIP_ENUMERATION_LIMIT}")
    exhaustive = mode == "exhaustive" or (mode == "auto" and total <= RIP_ENUMERATION_LIMIT)
    count = total if exhaustive else samples
    rng = None if exhaustive else np.random.default_rng(0) if rng is None else rng
    if _forms_gram(m, n, s, count):
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            flat = (A.T @ A).ravel()

        def grams(idx):
            return flat.take(idx[:, :, None] * n + idx[:, None, :])
    else:
        columns = np.ascontiguousarray(A.T)  # row j is column j of A

        def grams(idx):
            cols = columns[idx]  # (B, s, m): the columns of each A_S
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                return cols @ cols.transpose(0, 2, 1)
    eye = np.eye(s)
    lo, hi = math.inf, -math.inf
    for idx in _support_blocks(n, s, count, rng):
        gram = grams(idx)  # (B, s, s): each A_S^T A_S
        finite = np.isfinite(gram).all(axis=(1, 2))
        if lo <= hi and finite.all():
            try:
                np.linalg.cholesky(np.concatenate((gram - lo * eye, hi * eye - gram)))
                continue  # every spectrum lies in [lo, hi]
            except np.linalg.LinAlgError:
                pass
        # one non-finite Gram fails eigvalsh on the whole stack; the filler is never read
        w = np.linalg.eigvalsh(np.where(finite[:, None, None], gram, 0.0))
        bad = np.flatnonzero(~finite | (w[:, 0] <= 0.0))
        if bad.size:
            S = tuple(idx[bad[0]].tolist())
            if not finite[bad[0]]:
                raise OverflowingMatrixError(f"support {S}: A_S^T A_S overflows double range")
            raise AssumptionViolatedError(f"support {S} has lambda_min <= 0")
        lo, hi = min(lo, float(w[:, 0].min())), max(hi, float(w[:, -1].max()))
    return RipConstants(theta_lower=1.0 - lo, theta_upper=hi - 1.0, s=s, exact=exhaustive)


def _support_energy(A: np.ndarray, signal: SparseSignal) -> tuple[float, float]:
    """(||x||^2, tr(A_S^T A_S)) for the signal's support S; both must be
    positive and finite for the noise levels to be defined.  A_S is
    scanned for a NaN or inf entry only once a sum is not finite, and x
    for a nonzero entry only once ||x||^2 is 0, to tell a bad input
    (InvalidInputError) from an overflow or underflow."""
    S = list(signal.support)
    if not S:
        raise InvalidInputError("signal support is empty")
    x, A_S = signal.x, A[:, S]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        energy, tr_gram = float(x @ x), float(np.einsum("ij,ij->", A_S, A_S))
    if energy == 0.0:
        if x.any():
            raise OverflowingMatrixError("||x||^2 underflows double range")
        raise InvalidInputError("noise levels are undefined for the zero signal")
    if not (math.isfinite(energy) and math.isfinite(tr_gram)):
        checked_matrix(A_S)  # "A must be finite"
        name = "tr(A_S^T A_S)" if math.isfinite(energy) else "||x||^2"
        raise OverflowingMatrixError(f"{name} overflows double range")
    if tr_gram <= 0.0:
        raise InvalidInputError("A_S has zero energy")
    return energy, tr_gram


def noise_levels(model: ProblemModel, signal: SparseSignal) -> NoiseLevels:
    """Scalar noise levels of an instance.

    c_e = m s sigma_e^2 / tr(A_S^T A_S) and c_n = m sigma_n^2 / ||x||^2.
    Raises OverflowingMatrixError when either passes double range.
    """
    _check_signal(model, signal)
    energy, tr_gram = _support_energy(model.A, signal)
    c_e = model.m * model.s * model.sigma_e**2 / tr_gram
    c_n = model.m * model.sigma_n**2 / energy
    if not (math.isfinite(c_e) and math.isfinite(c_n)):
        raise OverflowingMatrixError("noise levels overflow double range")
    return NoiseLevels(c_e=c_e, c_n=c_n)


def sigmas_for_levels(
    A: np.ndarray, signal: SparseSignal, c_e: float, c_n: float, s: int
) -> tuple[float, float]:
    """Invert noise_levels: deviations (sigma_e, sigma_n) hitting (c_e, c_n)."""
    (sigmas,) = sigmas_at_levels(A, signal, [(c_e, c_n)], s)
    return sigmas


def sigmas_at_levels(
    A: np.ndarray, signal: SparseSignal, levels: list[tuple[float, float]], s: int
) -> list[tuple[float, float]]:
    """sigmas_for_levels at each (c_e, c_n) of `levels`, from one pass
    over A_S.  Every level is checked to be finite and nonnegative before
    A is read.  An A that is not a real 2-d array (real_array) with the
    signal's n columns raises InvalidInputError, as does a NaN or inf in
    A_S; an overflowing sum raises OverflowingMatrixError (see
    _support_energy)."""
    _check_levels("noise levels", itertools.chain.from_iterable(levels))
    A = real_array("A", A)
    if A.ndim != 2 or A.shape[1] != signal.n:
        raise InvalidInputError(f"A must be a 2-d array with n={signal.n} columns")
    energy, tr_gram = _support_energy(A, signal)
    m = A.shape[0]
    return [
        (math.sqrt(c_e * tr_gram / (m * s)), math.sqrt(c_n * energy / m))
        for c_e, c_n in levels
    ]


def _gamma(ta: float, tb: float, levels: NoiseLevels, s: int) -> float:
    """(ta^3/tb^2) 2 c_e / (2 tb c_e + ta + c_n/c_e) / s, and 0 at c_e = 0."""
    c_e, c_n = levels.c_e, levels.c_n
    if c_e == 0.0:
        return 0.0
    return (ta**3 / tb**2) * 2.0 * c_e / (2.0 * tb * c_e + ta + c_n / c_e) / s


def gamma_bounds(rip: RipConstants, levels: NoiseLevels, s: int) -> tuple[float, float]:
    """Two-sided matrix-free bounds on gamma from restricted eigenvalues.

    Each side is (1/s) (1+t_a)^3/(1+t_b)^2 * 2 c_e /
    (2 (1+t_b) c_e + (1+t_a) + c_n/c_e) where the upper bound takes
    t_a = theta_upper, t_b = -theta_lower and the lower bound swaps them.
    Both collapse to gamma_approx when the thetas vanish.  s must be rip.s.
    """
    s = checked_count("s", s)
    if s != rip.s:
        raise InvalidInputError(f"s={s} does not match the RIP constants' s={rip.s}")
    if rip.theta_lower >= 1.0:
        raise AssumptionViolatedError(
            "theta_lower >= 1 leaves no positive restricted eigenvalue floor"
        )
    tp = 1.0 + rip.theta_upper
    tm = 1.0 - rip.theta_lower
    return _gamma(tm, tp, levels, s), _gamma(tp, tm, levels, s)


def gamma_approx(c_e: float, c_n: float, s: int) -> float:
    """Scalar approximation gamma = (1/s) 2 c_e / (2 c_e + 1 + c_n/c_e).

    Vanishes as c_e -> 0 and saturates at 1/s as c_e -> infinity.
    """
    return _gamma(1.0, 1.0, NoiseLevels(c_e, c_n), checked_count("s", s))


def transition_ce(c_n: float) -> float:
    """Matrix-noise level where gamma_approx reaches half its ceiling.

    The positive root of 2 c^2 - c - c_n = 0, i.e. (1 + sqrt(1 + 8 c_n))/4;
    equals 1/2 at c_n = 0 and 1 at c_n = 1.
    """
    _check_levels("c_n", (c_n,))
    return (1.0 + math.sqrt(1.0 + 8.0 * c_n)) / 4.0
