"""Hammersley-Chapman-Robbins bounds for sparse estimation.

The general bound uses a finite set of test-point offsets {v_i} with
x + v_i still s-sparse:  Cov >= V H^+ V^T, where V stacks the offsets
and, with s_i^2 = sigma_{x+v_i}^2 and 1/vs_ij^2 = 1/s_i^2 + 1/s_j^2
- 1/sigma_x^2 (which must stay positive),

    H_ij = (sigma_x^2 vs_ij^2 / (s_i^2 s_j^2))^{m/2}
           * exp(-||A v_i||^2/(2 s_i^2) - ||A v_j||^2/(2 s_j^2)
                 + (vs_ij^2/2) ||A v_i / s_i^2 + A v_j / s_j^2||^2) - 1.

For a unit sensing matrix and a fully supported signal the supremum over
offsets has a closed form: the support part is the maximal-support
CCRB, computed by ccrb_maximal's own code, and the off-support part is
sigma_x^2 d with

    d = (n-s) beta e^{-beta} / (e^beta - 1)
        * (1 - 1/(n - s + e^beta (1 - g(beta))^{-1})),

beta = x_q^2 / sigma_x^2 for the smallest-magnitude nonzero entry x_q and

    g(beta) = beta (1 - 2 sigma_e^2 beta)^2
              / ((e^beta - 1)(1 + 2 n sigma_e^4 beta)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ccrb import maximal_report, maximal_support
from .errors import (
    DegenerateModelError,
    DivergentTestPointError,
    InfeasibleOffsetError,
    InvalidInputError,
    OverflowingTestPointError,
    UnsupportedMatrixError,
)
from .model import ProblemModel, SparseSignal, _check_signal, positive_sigma_x_squared

__all__ = [
    "TestPointSet",
    "HcrbReport",
    "test_points",
    "hcrb_general",
    "hcrb_unit_closed_form",
    "g_function",
    "beta_of",
    "d_hcrb",
    "transition_sigma_e",
]

# Relative eigenvalue cutoff for the pseudo-inverse of H.
PINV_RTOL = 1e-12

# Byte budget of the (rows, k - i0, m) temporary from which test_points
# builds a block of rows of H.
H_BLOCK_BYTES = 2**19

# Beyond this beta every exp(-beta)-weighted term underflows double
# precision outright.
_BETA_OVERFLOW = 700.0


@dataclass(frozen=True, eq=False)
class TestPointSet:
    """Offsets with their matrix H and the pairwise variances vs_ij^2."""

    offsets: tuple[np.ndarray, ...]
    V: np.ndarray
    H: np.ndarray
    varsigma2: np.ndarray


@dataclass(frozen=True)
class HcrbReport:
    """Closed-form bound split into support and off-support parts."""

    bound: float
    support_part: float
    nonsupport_part: float
    beta: float
    g_beta: float

    def __post_init__(self):
        for name in ("bound", "support_part", "nonsupport_part", "beta", "g_beta"):
            object.__setattr__(self, name, float(getattr(self, name)))


def test_points(model: ProblemModel, signal: SparseSignal, offsets) -> TestPointSet:
    """Assemble H for a set of offsets.

    The per-offset quantities (s_i^2, A v_i, A v_i / s_i^2, log s_i^2) are
    computed as arrays, then H is filled a block of rows at a time: rows
    i0 <= i < i1 against every j >= i0, with the (rows, k - i0, m)
    temporary of the sums A v_i / s_i^2 + A v_j / s_j^2 kept within
    H_BLOCK_BYTES.  Only the entries with j >= i are kept and mirrored, so
    H does not depend on the block size.  Each entry is evaluated
    as expm1 of its logarithm, with ||A v_i / s_i^2 + A v_j / s_j^2||^2
    summed as written, which keeps the -1 cancellation exact for offsets
    of any size.  Raises, for the first offending offset in index order,
    InfeasibleOffsetError when x + v_i is not s-sparse and
    DegenerateModelError when s_i^2 = 0; then, for the first pair (i, j)
    with j >= i in row-major order, DivergentTestPointError when
    vs_ij^2 <= 0 and OverflowingTestPointError (an OverflowError) when
    H_ij overflows.
    """
    sx2 = positive_sigma_x_squared(model, signal)
    vs = []
    for v in offsets:
        v = np.asarray(v, dtype=float)
        if v.shape != (model.n,):
            raise InvalidInputError("offset length does not match model n")
        vs.append(v)
    if not vs:
        raise InvalidInputError("need at least one offset")
    V = np.column_stack(vs)
    X = signal.x[:, None] + V
    nnz = np.count_nonzero(X, axis=0)
    s2 = model.sigma_e**2 * np.einsum("ij,ij->j", X, X) + model.sigma_n**2
    bad = np.flatnonzero((nnz > model.s) | (s2 <= 0.0))
    if bad.size:
        i = int(bad[0])
        if nnz[i] > model.s:
            raise InfeasibleOffsetError(
                f"offset {i} leaves the sparse set: ||x + v||_0 = "
                f"{nnz[i]} > s = {model.s}"
            )
        raise DegenerateModelError(f"offset {i} has zero equivalent variance")
    Av = V.T @ model.A.T  # row i is A v_i
    U = Av / s2[:, None]
    half_a = np.einsum("ij,ij->i", Av, Av) / (2.0 * s2)
    log_s2 = np.log(s2)
    log_sx2 = math.log(sx2)
    k = len(vs)
    H = np.empty((k, k))
    varsigma2 = np.empty((k, k))
    half_m = 0.5 * model.m
    i0 = 0
    while i0 < k:
        # rows i0:i1 against columns i0:k; the pairs with j < i are computed but not kept
        i1 = min(k, i0 + max(1, H_BLOCK_BYTES // (8 * (k - i0) * model.m)))
        i, j = slice(i0, i1), slice(i0, k)
        inv_vs = 1.0 / s2[i, None] + 1.0 / s2[j] - 1.0 / sx2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vs2 = 1.0 / inv_vs
            W = U[i, None] + U[j]
            L = (
                half_m * (log_sx2 + np.log(vs2) - log_s2[i, None] - log_s2[j])
                - half_a[i, None]
                - half_a[j]
                + 0.5 * vs2 * np.einsum("ijm,ijm->ij", W, W)
            )
            h = np.expm1(L)
        # an entry beyond double precision raises, as math.expm1 does
        upper = np.arange(i0, k) >= np.arange(i0, i1)[:, None]  # j >= i
        bad = np.flatnonzero(upper & ((inv_vs <= 0.0) | (np.isinf(h) & np.isfinite(L))))
        if bad.size:
            row, col = divmod(int(bad[0]), k - i0)
            pair = (i0 + row, i0 + col)
            if inv_vs[row, col] <= 0.0:
                raise DivergentTestPointError(
                    f"test-point pair {pair} has vs^2 <= 0; the defining integral diverges"
                )
            raise OverflowingTestPointError(f"test-point pair {pair} overflows H")
        r = i1 - i0
        for M, block in ((H, h), (varsigma2, vs2)):
            block[:, :r] = np.where(upper[:, :r], block[:, :r], block[:, :r].T)  # mirror j >= i
            M[i0:i1, i0:] = block
            M[i0:, i0:i1] = block.T
        i0 = i1
    return TestPointSet(offsets=tuple(vs), V=V, H=H, varsigma2=varsigma2)


def _pinv_psd(H: np.ndarray) -> np.ndarray:
    # numpy's eigh is LAPACK's divide and conquer syevd, several times
    # faster than the QR-based syev on the unit-diagonal H hcrb_general passes in
    w, Q = np.linalg.eigh(H)
    cut = PINV_RTOL * max(w[-1], 0.0)
    recip = np.where(w > cut, 1.0 / np.where(w > cut, w, 1.0), 0.0)
    return (Q * recip) @ Q.T


def hcrb_general(
    model: ProblemModel, signal: SparseSignal, offsets
) -> tuple[np.ndarray, float]:
    """Covariance lower bound V H^+ V^T and its trace.

    It is evaluated as (V D^-1) (D^-1 H D^-1)^+ (V D^-1)^T with
    d_i = sqrt(H_ii): with offsets of mixed scales H spans many decades,
    and an eigenvalue cut relative to the largest would drop the
    small-offset directions.  This equals V H^-1 V^T when H is invertible
    and is a valid bound otherwise.  Accepts raw offset vectors or an
    already assembled TestPointSet.
    """
    if isinstance(offsets, TestPointSet):
        tps = offsets
    else:
        tps = test_points(model, signal, offsets)
    h = np.diag(tps.H)
    d = np.sqrt(np.where(h > 0.0, h, 1.0))
    W = tps.V / d
    C = W @ _pinv_psd(tps.H / np.outer(d, d)) @ W.T
    C = 0.5 * (C + C.T)
    return C, float(np.trace(C))


def beta_of(model: ProblemModel, signal: SparseSignal) -> float:
    """Normalized squared smallest nonzero entry, x_q^2 / sigma_x^2.

    At most 1/(k sigma_e^2) for a k-nonzero signal whenever sigma_e > 0,
    since sigma_x^2 = sigma_e^2 ||x||^2 + sigma_n^2 >= k sigma_e^2 x_q^2.
    """
    nz = np.flatnonzero(signal.x)
    if nz.size == 0:
        raise InvalidInputError("the zero signal has no smallest nonzero entry")
    return _beta(signal.x[nz], positive_sigma_x_squared(model, signal))


def _beta(nonzeros: np.ndarray, sx2: float) -> float:
    return float(np.min(np.abs(nonzeros)) ** 2 / sx2)


def g_function(beta: float, n: int, sigma_e: float) -> float:
    """The factor g(beta) in the off-support part; lies in [0, 1).

    Zero exactly at beta = 1/(2 sigma_e^2) and decaying like
    beta e^{-beta} for large beta.
    """
    if beta <= 0.0:
        raise InvalidInputError("beta must be positive")
    if n < 2:
        raise InvalidInputError("g is defined for n >= 2")
    if sigma_e < 0.0:
        raise InvalidInputError("sigma_e must be nonnegative")
    if beta > _BETA_OVERFLOW:
        return 0.0
    num = beta * (1.0 - 2.0 * sigma_e**2 * beta) ** 2
    den = math.expm1(beta) * (1.0 + 2.0 * n * sigma_e**4 * beta)
    return num / den


def _unit_maximal(model: ProblemModel, signal: SparseSignal) -> tuple[tuple[int, ...], float]:
    """(S, sigma_x^2) of a unit-matrix instance with ||x||_0 = s, checked in
    this order: the signal's length, A = I, n >= 2, the regime and
    sigma_x^2 > 0.  Whether A = I was decided when the model was built."""
    _check_signal(model, signal)
    if not model._unit:
        raise UnsupportedMatrixError("closed-form HCRB requires identity matrix")
    if model.n < 2:
        raise InvalidInputError("closed-form HCRB requires n >= 2")
    return maximal_support(model, signal), positive_sigma_x_squared(model, signal)


def _off_support(
    model: ProblemModel, signal: SparseSignal, S: tuple[int, ...], sx2: float
) -> tuple[float, float, float]:
    """(beta, g(beta), d) of the unit-matrix bound, from the support and
    sigma_x^2 that _unit_maximal returns."""
    n, s = model.n, model.s
    beta = _beta(signal.x[list(S)], sx2)
    g = g_function(beta, n, model.sigma_e)
    if n == s or beta > _BETA_OVERFLOW:
        return beta, g, 0.0
    h = beta * math.exp(-beta) / math.expm1(beta)
    if g < 1.0:
        tail = (n - s) + math.exp(beta) / (1.0 - g)
    else:
        tail = math.inf  # g rounds to 1 only as beta -> 0, where the tail diverges
    return beta, g, (n - s) * h * (1.0 - 1.0 / tail)


def d_hcrb(model: ProblemModel, signal: SparseSignal) -> float:
    """Off-support part of the unit-matrix bound, as a multiple of sigma_x^2."""
    return _off_support(model, signal, *_unit_maximal(model, signal))[2]


def hcrb_unit_closed_form(model: ProblemModel, signal: SparseSignal) -> HcrbReport:
    """Closed-form HCRB for a unit sensing matrix and ||x||_0 = s.

    The support part is ccrb_maximal(model, signal).bound, so CCRB <= HCRB
    holds bit for bit; the off-support part sigma_x^2 d closes the gap
    toward the unconstrained bound as the smallest entry shrinks.  One
    pass checks the instance and gives the support and sigma_x^2 to both
    parts; the off-support part's own errors come before the support
    part's.
    """
    S, sx2 = _unit_maximal(model, signal)
    beta, g, d = _off_support(model, signal, S, sx2)
    support_part = maximal_report(model, signal, S, sx2).bound
    nonsupport_part = sx2 * d
    return HcrbReport(
        bound=support_part + nonsupport_part,
        support_part=support_part,
        nonsupport_part=nonsupport_part,
        beta=beta,
        g_beta=g,
    )


def transition_sigma_e(s: int) -> float:
    """Perturbation level 1/sqrt(s) separating the two gap regimes."""
    if s < 1:
        raise InvalidInputError("s must be positive")
    return 1.0 / math.sqrt(s)
