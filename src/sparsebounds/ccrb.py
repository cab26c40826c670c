"""Constrained Cramer-Rao bounds (CCRB) under matrix perturbation, the
restricted-eigenvalue bounds on their ratio gamma, and its approximation
in the scalar noise levels c_e and c_n."""

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
    _finite,
    _has_cholesky,
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
    """Bound value with its decomposition into first term and reduction;
    every numeric field is a Python float."""

    bound: float
    first_term: float
    d_ccrb: float
    gamma_ccrb: float
    regime: str


@dataclass(frozen=True)
class RipConstants:
    """theta_upper = max lambda_max(A_S^T A_S) - 1 and theta_lower = 1 -
    min lambda_min(A_S^T A_S) over the size-s supports visited: every one
    if `exact`, else a sample."""

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
    """Raise InvalidInputError unless every value is finite and nonnegative."""
    for v in values:
        if not 0.0 <= v < math.inf:
            raise InvalidInputError(f"{name} must be {'nonnegative' if v < 0.0 else 'finite'}")


def _rank_one_report(
    model: ProblemModel, sx2: float, G: np.ndarray, x: np.ndarray, regime: str
) -> CcrbReport:
    # bound = (first - t) + t / (1 + r), d = t / (1 + 1/r) with u = G x, c = 2 m se^4,
    # t = sx2 ||u||^2 / x^T u and r = c x^T u / sx2; first - t is exactly 0 at s = 1
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _finite
        first = float(sx2 * np.trace(G))
        u = G @ x
        xu = float(x @ u)
        r = 2.0 * model.m * model.sigma_e**4 * xu / sx2
        if r == 0.0:
            bound, d = first, 0.0
        else:
            t = sx2 * float(u @ u) / xu
            d = t / (1.0 + 1.0 / r)
            bound = (first - t if x.size > 1 else 0.0) + t / (1.0 + r)
    _finite("CCRB overflows double range", bound, first, d)
    return CcrbReport(bound, first, d, d / first if d else 0.0, regime)


def ccrb_bound(model: ProblemModel, signal: SparseSignal) -> CcrbReport:
    """The CCRB in the regime the signal falls in: ccrb_maximal when
    ||x||_0 = s, ccrb_nonmaximal otherwise."""
    if signal.nonzero_count == model.s:
        return ccrb_maximal(model, signal)
    return ccrb_nonmaximal(model, signal)


def maximal_support(model: ProblemModel, signal: SparseSignal) -> tuple[tuple[int, ...], float]:
    """(S, sigma_x^2) of a maximal instance, S being the signal's nonzero
    indices, checked in this order: the signal's length, ||x||_0 = s
    (WrongRegimeError), sigma_x^2 > 0."""
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
    """The CCRB of a signal with exactly s nonzero entries.  Raises
    WrongRegimeError when ||x||_0 != s, SingularMatrixError when A_S is rank
    deficient, DegenerateModelError when sigma_x^2 = 0, and
    OverflowingMatrixError past double range."""
    return maximal_report(model, signal, *maximal_support(model, signal))


def ccrb_nonmaximal(model: ProblemModel, signal: SparseSignal) -> CcrbReport:
    """The CCRB tr(J^{-1}) of a signal with fewer than s nonzero entries, J
    being the full Fisher information.  Raises WrongRegimeError when
    ||x||_0 >= s, NoUnbiasedEstimatorError when J is singular, and
    OverflowingMatrixError past double range."""
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
        # the Schur complement of J on the null direction Q[:, 0] of A^T A = Q diag(w) Q^T
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
        # c near underflow, or a subnormal eigenvalue, overflows the bound
        with np.errstate(over="ignore", invalid="ignore"):
            first = _finite("J^{-1} overflows double range",
                            sx2 * float(np.sum(1.0 / w) + (sx2 / c + np.sum(z * z / w)) / (a * a)))
        return CcrbReport(first, first, 0.0, 0.0, "nonmaximal")
    return _rank_one_report(model, sx2, G, signal.x, "nonmaximal")


def oracle_mse_theoretical(model: ProblemModel, support, signal: SparseSignal) -> float:
    """The exact MSE sigma_x^2 tr((A_S^T A_S)^{-1}) of least squares on a
    support S covering the signal's nonzeros."""
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
            continue
        draws = rng.random((B, n))
        # flat indices mod n are the columns; np.nonzero's 2-d form costs 4x more
        cols = np.flatnonzero(draws <= np.partition(draws, s - 1, axis=1)[:, s - 1 : s]) % n
        if cols.size == B * s:  # every row holds at least s, so exactly s
            yield cols.reshape(B, s)
        else:
            yield np.sort(np.argpartition(draws, s - 1, axis=1)[:, :s], axis=1)


def _forms_gram(m: int, n: int, s: int, count: int) -> bool:
    """Whether rip_constants reads the Grams of `count` size-s supports of
    the m x n A from one A^T A, the rule README states."""
    return n * n <= min(RIP_BLOCK * s * m, 2 * count * s * s)


def rip_constants(
    A: np.ndarray,
    s: int,
    mode: str = "auto",
    samples: int = RIP_DEFAULT_SAMPLES,
    rng: np.random.Generator | None = None,
) -> RipConstants:
    """The restricted eigenvalue extremes over every size-s support
    ("exhaustive", or "auto" when C(n, s) <= RIP_ENUMERATION_LIMIT), else
    over `samples` uniform ones drawn with samples * n doubles from rng
    (default_rng(0)).  Raises InvalidInputError on a bad argument; then,
    naming the first visited support that fails, OverflowingMatrixError or
    AssumptionViolatedError (lambda_min <= 0)."""
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
        scan = not np.isfinite(flat).all()  # else no Gram needs its own scan

        def grams(idx):
            return flat.take(idx[:, :, None] * n + idx[:, None, :])
    else:
        scan, columns = True, np.ascontiguousarray(A.T)  # row j is column j of A

        def grams(idx):
            cols = columns[idx]  # (B, s, m): the columns of each A_S
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                return cols @ cols.transpose(0, 2, 1)
    eye = np.eye(s)
    screen = np.empty((2 * min(RIP_BLOCK, count), s, s))  # G - lo I over hi I - G
    lo, hi = math.inf, -math.inf
    for idx in _support_blocks(n, s, count, rng):
        gram = grams(idx)  # (B, s, s): each A_S^T A_S
        B = len(gram)
        finite = np.isfinite(gram).all(axis=(1, 2)) if scan else None
        # the first block is solved, so lo > 0 and a Gram with lambda_min <= 0 never
        # factors here; a NaN can factor, so only finite Grams are screened
        if lo <= hi and (finite is None or finite.all()):
            np.subtract(gram, lo * eye, out=screen[:B])
            np.subtract(hi * eye, gram, out=screen[B : 2 * B])
            if _has_cholesky(screen[: 2 * B]):
                continue  # every spectrum lies in [lo, hi]
        # one non-finite Gram fails eigvalsh on the whole stack; the filler is never read
        filled = gram if finite is None else np.where(finite[:, None, None], gram, 0.0)
        w = np.linalg.eigvalsh(filled)
        bad = np.flatnonzero(w[:, 0] <= 0.0 if finite is None else ~finite | (w[:, 0] <= 0.0))
        if bad.size:
            S = tuple(idx[bad[0]].tolist())
            _finite(f"support {S}: A_S^T A_S overflows double range", gram[bad[0]])
            raise AssumptionViolatedError(f"support {S} has lambda_min <= 0")
        lo, hi = min(lo, float(w[:, 0].min())), max(hi, float(w[:, -1].max()))
    return RipConstants(theta_lower=1.0 - lo, theta_upper=hi - 1.0, s=s, exact=exhaustive)


def _support_energy(A: np.ndarray, signal: SparseSignal) -> tuple[float, float]:
    """(||x||^2, tr(A_S^T A_S)) for the signal's support S.  Raises
    InvalidInputError for an empty support, a zero signal, a NaN or inf in
    A_S or an A_S of zero energy, and OverflowingMatrixError when a sum
    leaves double range."""
    S = list(signal.support)
    if not S:
        raise InvalidInputError("signal support is empty")
    x, A_S = signal.x, A[:, S]
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        energy, tr_gram = float(x @ x), float(np.einsum("ij,ij->", A_S, A_S))
    if energy == 0.0:
        if x.any():  # x is finite: its squares underflowed
            raise OverflowingMatrixError("||x||^2 underflows double range")
        raise InvalidInputError("noise levels are undefined for the zero signal")
    if not math.isfinite(tr_gram):  # a NaN or inf entry, or an overflow
        checked_matrix(A_S)  # "A must be finite"
    _finite("||x||^2 overflows double range", energy)
    _finite("tr(A_S^T A_S) overflows double range", tr_gram)
    if tr_gram <= 0.0:
        raise InvalidInputError("A_S has zero energy")
    return energy, tr_gram


def noise_levels(model: ProblemModel, signal: SparseSignal) -> NoiseLevels:
    """The noise levels c_e = m s sigma_e^2 / tr(A_S^T A_S) and c_n = m
    sigma_n^2 / ||x||^2.  Raises OverflowingMatrixError past double range."""
    _check_signal(model, signal)
    energy, tr_gram = _support_energy(model.A, signal)
    c_e = model.m * model.s * model.sigma_e**2 / tr_gram
    c_n = model.m * model.sigma_n**2 / energy
    return NoiseLevels(*_finite("noise levels overflow double range", c_e, c_n))


def sigmas_for_levels(
    A: np.ndarray, signal: SparseSignal, c_e: float, c_n: float, s: int
) -> tuple[float, float]:
    """Invert noise_levels: deviations (sigma_e, sigma_n) hitting (c_e, c_n)."""
    (sigmas,) = sigmas_at_levels(A, signal, [(c_e, c_n)], s)
    return sigmas


def sigmas_at_levels(
    A: np.ndarray, signal: SparseSignal, levels: list[tuple[float, float]], s: int
) -> list[tuple[float, float]]:
    """sigmas_for_levels at each (c_e, c_n) of `levels`, from one pass over
    A_S.  Raises InvalidInputError unless every level is finite and
    nonnegative and A a real 2-d array with n columns; then as
    _support_energy raises."""
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
    """(lower, upper) bounds on gamma: _gamma(lo, hi, ...) and _gamma(hi, lo,
    ...) with lo = 1 - theta_lower and hi = 1 + theta_upper.  Raises
    InvalidInputError unless s = rip.s, and AssumptionViolatedError when
    theta_lower >= 1."""
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
    """The scalar approximation gamma = (1/s) 2 c_e / (2 c_e + 1 + c_n/c_e),
    0 at c_e = 0."""
    return _gamma(1.0, 1.0, NoiseLevels(c_e, c_n), checked_count("s", s))


def transition_ce(c_n: float) -> float:
    """The c_e = (1 + sqrt(1 + 8 c_n)) / 4 where gamma_approx reaches half
    its ceiling 1/s."""
    _check_levels("c_n", (c_n,))
    return (1.0 + math.sqrt(1.0 + 8.0 * c_n)) / 4.0
